// Tiling stage: assembles each scheduled user's frame from per-cell tiles.
//
// Sits between Grouping (which fixes the tick's members and their tiers)
// and Transport (which puts the assembled bitstreams on the air). For every
// member of every scheduled group it walks the user's visible cells at its
// granted tier and produces one tile per cell:
//
//  * policy "off"  — the legacy encode-per-user model: every tile a user
//    needs counts as an encode for that user. Pure accounting (no payloads
//    are materialized), so the default pipeline keeps its cost profile.
//  * policy "shared" — encode-once, serve-many: the first touch of a
//    (content, frame, tier, cell) key this session *encodes* the tile
//    (into the shared TileCache when one is attached, else into a
//    session-local cache); every repeat — another user in the group, a
//    later tick of the same looped frame — *stitches* the cached bitstream
//    at the cost of one checksum pass, ~9-13x cheaper than an encode
//    (bench_micro BM_TileChecksum vs BM_TileEncode).
//
// Tick-local mark: a group's frame goes on air once, so its tiles are
// materialized once per tick. A per-(tier, cell) mark for the tick's frame
// (SessionState::tile_fetched, sized on the first tick, cleared each tick
// without allocating) lets only the first request for a key go through
// TileCache::get / encode_once; every repeat that tick reuses the tile
// already validated and counts as a `tile.cache_hits`, so hits + misses
// still equals the tiles materialized. A tile another fleet slot corrupts
// mid-tick is therefore caught at this session's next tick's first fetch.
//
// Determinism: the encoded/stitched split comes from a session-local
// first-touch bitmap, never from cache probe outcomes, so SessionResult is
// bit-identical at any worker_threads / parallel_sessions value even when
// a fleet-shared cache is racing across slots (the cache changes wall
// clock only — a hit skips the encode work, a miss or eviction redoes it).
//
// Only main-frame deliveries are assembled here; prefetch pulls the *next*
// frame, which becomes this stage's main frame one tick later, so its
// tiles are counted exactly once.
#pragma once

#include "core/stages/stage.h"

namespace volcast::core {

class TilingStage : public Stage {
 public:
  explicit TilingStage(bool shared) : shared_(shared) {}

  [[nodiscard]] StageKind kind() const noexcept override {
    return StageKind::kTiling;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return shared_ ? "shared" : "off";
  }

  void run(SessionState& state, TickContext& ctx) override;

 private:
  const bool shared_;
};

}  // namespace volcast::core
