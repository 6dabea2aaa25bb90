#include "core/stages/tiling_stage.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/stages/session_state.h"
#include "core/stages/tick_context.h"

namespace volcast::core {

void TilingStage::run(SessionState& state, TickContext& ctx) {
  const std::size_t frame = ctx.frame;
  obs::Telemetry* tel = state.tel;
  obs::Span span = ctx.span(obs::Stage::kTile);
  const vv::TileReport before = state.tiles;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t deferred = 0;
  // kTileCorruption victim: the first tile this tick materialized, damaged
  // after the loop so the *next* request for it exercises get()'s
  // checksum-eviction path. Wall-clock/telemetry only — the logical
  // encoded/stitched split never sees cache outcomes.
  bool have_victim = false;
  vv::TileKey victim;

  const std::size_t tier_count = state.store.tier_count();
  const std::size_t cell_count = state.grid.cell_count();
  if (shared_ && state.tile_seen.empty()) {
    // First tick: size the first-touch bitmap and resolve the cache — the
    // fleet-shared one when the config carries it, else a session-local
    // store (within-session sharing still amortizes repeats).
    std::vector<std::size_t> tier_points;
    tier_points.reserve(tier_count);
    for (const vv::QualityTier& tier : state.store.tiers())
      tier_points.push_back(tier.points_per_frame);
    state.tile_content = vv::tile_content_fingerprint(
        state.video_seed, state.config.master_points,
        state.config.video_frames, state.config.cell_size_m, tier_points);
    state.tile_seen.assign(state.config.video_frames * tier_count * cell_count,
                           0);
    state.tile_fetched.assign(tier_count * cell_count, 0);
    state.tile_cache = state.config.tile_cache;
    if (state.tile_cache == nullptr) {
      state.local_tile_cache = std::make_unique<vv::TileCache>();
      state.tile_cache = state.local_tile_cache.get();
    }
  }
  if (shared_)
    std::fill(state.tile_fetched.begin(), state.tile_fetched.end(), 0);

  for (std::size_t a = 0; a < state.coordinator.ap_count(); ++a) {
    if (!ctx.ap_plans[a].active) continue;
    for (const mac::GroupPlan& plan :
         ctx.ap_plans[a].grouping.schedule.groups) {
      for (const mac::UserDemand& demand : plan.members) {
        const std::size_t u = demand.user;
        const std::size_t tier = state.users[u].tier;
        const auto& vis = ctx.prediction.visibility[u];
        for (vv::CellId cell = 0; cell < cell_count; ++cell) {
          const double lod = vis.lod(cell);
          if (lod <= state.shed.min_lod) continue;
          const std::size_t bytes = state.store.cell_bytes(frame, tier, cell);
          if (bytes == 0) continue;
          ++state.tiles.requests;
          if (!shared_) {
            // Legacy model: every user encodes its own copy of the cell.
            ++state.tiles.encoded_tiles;
            state.tiles.encoded_bytes += bytes;
            continue;
          }
          const std::size_t seen_at =
              (frame * tier_count + tier) * cell_count + cell;
          if (!state.tile_seen[seen_at]) {
            // Brownout deferral: a *new* encode for a faint cell is
            // non-critical work — push it to a calmer tick. The bitmap is
            // left clear so the first post-brownout request pays the
            // encode; already-resident tiles keep stitching below.
            if (lod <= state.shed.defer_lod) {
              ++deferred;
              continue;
            }
            state.tile_seen[seen_at] = 1;
            ++state.tiles.encoded_tiles;
            state.tiles.encoded_bytes += bytes;
          } else {
            ++state.tiles.stitched_tiles;
            state.tiles.stitched_bytes += bytes;
          }
          // Materialize, once per key per tick: a repeat of a key this
          // tick already fetched reuses that validated tile. The first
          // fetch of a resident tile — this session's earlier encode or
          // another fleet slot's — is stitched at the cost of get()'s
          // checksum validation; a miss (cold key, eviction, corruption)
          // pays the full encode, or waits for the slot already encoding
          // it. Wall clock only: the logical encoded/stitched split above
          // is already settled.
          char& fetched = state.tile_fetched[tier * cell_count + cell];
          if (fetched) {
            ++cache_hits;
            continue;
          }
          fetched = 1;
          vv::TileKey key;
          key.content = state.tile_content;
          key.frame = static_cast<std::uint32_t>(frame);
          key.cell = static_cast<std::uint32_t>(cell);
          key.tier = static_cast<std::uint16_t>(tier);
          if (!have_victim) {
            victim = key;
            have_victim = true;
          }
          const std::shared_ptr<const vv::Tile> tile =
              state.tile_cache->get(key);
          if (tile != nullptr) {
            ++cache_hits;
          } else {
            ++cache_misses;
            (void)state.tile_cache->encode_once(
                key, [&] { return vv::encode_tile(key, bytes); });
          }
        }
      }
    }
  }

  const std::uint64_t requests = state.tiles.requests - before.requests;
  span.add_cost(requests);
  if (deferred > 0) {
    state.oreport.deferred_tiles += deferred;
    if (tel != nullptr)
      tel->metrics().counter("overload.deferred_tiles").add(deferred);
  }
  if (state.has_faults && have_victim && state.tile_cache != nullptr &&
      state.injector.tile_corrupt(ctx.tick) &&
      state.tile_cache->corrupt(victim)) {
    // Telemetry only: whether the victim is still resident can depend on
    // other fleet slots' cache traffic, so this never feeds SessionResult.
    if (tel != nullptr) {
      tel->metrics().counter("tile.corruption_injected").add(1);
      obs::Event e;
      e.tick = ctx.tick32;
      e.layer = obs::Layer::kFault;
      e.type = obs::EventType::kTileCorrupt;
      e.value = 1.0;
      e.has_value = true;
      tel->record_event(e);
    }
  }
  if (tel != nullptr && requests > 0) {
    obs::MetricRegistry& metrics = tel->metrics();
    metrics.counter("tile.requests").add(requests);
    metrics.counter("tile.encoded_tiles")
        .add(state.tiles.encoded_tiles - before.encoded_tiles);
    metrics.counter("tile.stitched_tiles")
        .add(state.tiles.stitched_tiles - before.stitched_tiles);
    metrics.counter("tile.encoded_bytes")
        .add(state.tiles.encoded_bytes - before.encoded_bytes);
    metrics.counter("tile.stitched_bytes")
        .add(state.tiles.stitched_bytes - before.stitched_bytes);
    if (cache_hits > 0) metrics.counter("tile.cache_hits").add(cache_hits);
    if (cache_misses > 0)
      metrics.counter("tile.cache_misses").add(cache_misses);
    metrics.gauge("tile.encode_bytes_per_user")
        .set(static_cast<double>(state.tiles.encoded_bytes) /
             static_cast<double>(state.user_count()));
  }
}

}  // namespace volcast::core
