// Content-addressed tile cache: encode once, serve many.
//
// A *tile* is the independently decodable codec output of one cell at one
// quality tier of one video frame — the unit tiled-HEVC pipelines splice
// per-viewer bitstreams from. Because the codec output for a given
// (content, frame, tier, cell) is a pure function of its key, tiles are
// content-addressed: the cache key embeds a fingerprint of the video
// content itself, so sessions streaming different videos coexist safely in
// one cache and a hit is always byte-identical to a fresh encode.
//
// Sharing model:
//  * Within a session, the tiling stage encodes each distinct tile once
//    (first touch) and *stitches* every repeat — users in the same
//    multicast group fetch overlapping cells at the same tier, so encode
//    cost scales with distinct viewports, not user count.
//  * Across fleet slots, run_fleet hands every slot one shared cache; a
//    slot that needs a tile another slot already encoded validates its
//    checksum and reuses the payload instead of re-encoding. Misses go
//    through encode_once(), so slots that miss the same key at the same
//    time encode it once: the others wait for that tile.
//
// Determinism: tiles are pure functions of their key, so insert order,
// races between slots and even eviction change only wall-clock work, never
// payload bytes. The per-session TileReport is computed from session-local
// first-touch accounting (see core/stages/tiling_stage.h) and is therefore
// bit-identical at any worker_threads / parallel_sessions value regardless
// of what the shared cache holds.
//
// Integrity: every tile carries an XXH64 checksum of its payload; get()
// re-validates on every hit (outside the cache lock) and a corrupt entry
// is evicted and reported as a miss, so a damaged cache degrades to
// re-encoding instead of serving garbage bitstreams.
#pragma once

#include <atomic>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/fields.h"

namespace volcast::vv {

/// Identity of one encoded tile. `content` fingerprints the video the tile
/// was cut from (see tile_content_fingerprint), so keys are globally
/// unambiguous across sessions and fleet slots.
struct TileKey {
  std::uint64_t content = 0;
  std::uint32_t frame = 0;
  std::uint32_t cell = 0;
  std::uint16_t tier = 0;

  [[nodiscard]] bool operator==(const TileKey& other) const noexcept {
    return content == other.content && frame == other.frame &&
           cell == other.cell && tier == other.tier;
  }

  /// splitmix64 over the packed fields — the seed of the tile's synthetic
  /// bitstream and the cache's hash function.
  [[nodiscard]] std::uint64_t hash() const noexcept;
};

struct TileKeyHash {
  std::size_t operator()(const TileKey& key) const noexcept {
    return static_cast<std::size_t>(key.hash());
  }
};

/// One encoded tile: the bitstream plus its integrity checksum.
struct Tile {
  TileKey key;
  std::vector<std::uint8_t> payload;
  std::uint64_t checksum = 0;  // tile_checksum(payload)

  /// Does the stored checksum match the payload?
  [[nodiscard]] bool valid() const noexcept;
};

/// XXH64 (seed 0) of `data`: 32-byte stripes in four 64-bit lanes, so it
/// runs near memory speed (~8.5 GB/s vs ~0.6 GB/s for byte-serial FNV-1a
/// on a 4-CPU x86-64 host). The on-disk blob checksums (VideoStore,
/// checkpoint) stay FNV-1a; this one is never persisted.
[[nodiscard]] std::uint64_t tile_checksum(
    std::span<const std::uint8_t> data) noexcept;

/// Fingerprint of the video content a tile belongs to: everything that
/// determines codec output for a (frame, tier, cell) coordinate. Sessions
/// with equal fingerprints may share tiles; unequal ones never collide
/// because the fingerprint is part of every TileKey.
[[nodiscard]] std::uint64_t tile_content_fingerprint(
    std::uint64_t video_seed, std::size_t master_points,
    std::size_t video_frames, double cell_size_m,
    std::span<const std::size_t> tier_points);

/// Produces the tile for `key` with an encoded size of `bytes`. The
/// payload is a deterministic pure function of the key (a seeded keystream
/// plus the extra mixing passes that stand in for the codec's
/// rate-distortion search), so two encoders always produce byte-identical
/// tiles — the property that makes content-addressed sharing sound.
[[nodiscard]] Tile encode_tile(const TileKey& key, std::size_t bytes);

/// Re-derives the checksum of the tile `key` would encode to, at the cost
/// of one checksum pass over the payload — the "stitch" path: ~9-13x
/// cheaper than encode_tile (bench_micro BM_TileChecksum vs BM_TileEncode),
/// which is where the serve-many saving comes from.
[[nodiscard]] std::uint64_t stitch_tile(const Tile& tile) noexcept;

/// Session-lifetime tile accounting, folded into SessionResult. Counted
/// from session-local first-touch state, never from shared-cache probe
/// outcomes, so the report is deterministic at any parallelism.
struct TileReport {
  std::uint64_t requests = 0;        // tiles assembled into user frames
  std::uint64_t encoded_tiles = 0;   // first touches (distinct tiles)
  std::uint64_t stitched_tiles = 0;  // repeats served from encoded output
  std::uint64_t encoded_bytes = 0;   // bytes the session had to encode
  std::uint64_t stitched_bytes = 0;  // encode bytes saved by stitching
};

/// Visits every member in checkpoint order (see common/fields.h).
template <class V, common::FieldsOf<TileReport>... R>
void for_each_field(V&& v, R&... r) {
  v("requests", r.requests...);
  v("encoded_tiles", r.encoded_tiles...);
  v("stitched_tiles", r.stitched_tiles...);
  v("encoded_bytes", r.encoded_bytes...);
  v("stitched_bytes", r.stitched_bytes...);
}

/// Thread-safe content-addressed tile store with bounded capacity and
/// deterministic FIFO (insertion-order) eviction. One mutex guards the
/// index and is held only for lookups and updates; payloads are immutable
/// shared_ptrs, so get() validates a tile after releasing the lock and an
/// eviction racing a reader is safe. All Stats counters are atomics.
class TileCache {
 public:
  struct Stats {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> insertions{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> corrupt_rejected{0};
    std::atomic<std::uint64_t> payload_bytes{0};  // currently resident

    [[nodiscard]] double hit_rate() const noexcept {
      const double h = static_cast<double>(hits.load());
      const double m = static_cast<double>(misses.load());
      return h + m > 0.0 ? h / (h + m) : 0.0;
    }
  };

  /// `max_bytes` bounds resident payload bytes (0 = unbounded). Inserting
  /// past the bound evicts oldest-inserted tiles first.
  explicit TileCache(std::size_t max_bytes = 0) : max_bytes_(max_bytes) {}

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// Looks up a tile, re-validating its checksum outside the lock: a
  /// corrupt entry is evicted (unless another thread already evicted or
  /// replaced it), counted in `corrupt_rejected` and reported as a miss
  /// (null). A tile that fails validation is never returned.
  [[nodiscard]] std::shared_ptr<const Tile> get(const TileKey& key);

  /// Insert-or-get: stores `tile` unless an entry for its key is already
  /// resident (two slots encoding concurrently produce identical bytes, so
  /// first-in wins and the other copy is dropped). Returns the resident
  /// tile; when the cache is frozen or the tile alone exceeds the
  /// capacity, nothing is stored and the caller's copy is returned.
  std::shared_ptr<const Tile> put(Tile tile);

  /// The miss path after get() returned null: stores and returns
  /// `encode()`'s tile for `key`, calling `encode` at most once per key
  /// across threads at a time. A thread that misses a key another thread
  /// is already encoding waits for that encode and returns the stored tile
  /// instead of encoding a duplicate copy; a key that became resident
  /// meanwhile is returned without encoding. On a frozen cache nothing is
  /// stored and every caller encodes its own copy.
  std::shared_ptr<const Tile> encode_once(const TileKey& key,
                                          const std::function<Tile()>& encode);

  /// Fault injection: flips one payload byte of the resident tile for
  /// `key`, keeping the stored checksum — the next get() detects the
  /// mismatch, evicts the entry and reports a miss. Returns false when the
  /// key is not resident (or the payload is empty). Works on frozen caches
  /// too: freezing stops put(), and corruption models bit rot, not writes.
  bool corrupt(const TileKey& key);

  /// Read-only from now on: get() keeps serving, put() stops storing.
  /// The fleet's handoff safety latch for pre-warmed caches.
  void freeze() noexcept { frozen_.store(true, std::memory_order_release); }
  [[nodiscard]] bool frozen() const noexcept {
    return frozen_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t payload_bytes() const;
  [[nodiscard]] std::size_t max_bytes() const noexcept { return max_bytes_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Drops oldest-inserted tiles until `incoming` more bytes fit. Caller
  /// holds mu_.
  void evict_for(std::size_t incoming);

  /// A resident tile and the sequence number of the put() that stored it.
  struct Entry {
    std::shared_ptr<const Tile> tile;
    std::uint64_t seq = 0;
  };
  /// One FIFO position. A slot whose `seq` no longer matches the map entry
  /// is stale (its tile was evicted as corrupt, then maybe re-inserted) and
  /// is skipped, so a re-inserted key queues behind older residents.
  struct FifoSlot {
    TileKey key;
    std::uint64_t seq = 0;
  };

  const std::size_t max_bytes_;
  std::atomic<bool> frozen_{false};
  mutable std::mutex mu_;
  std::unordered_map<TileKey, Entry, TileKeyHash> map_;
  std::deque<FifoSlot> fifo_;  // insertion order, front = oldest
  std::unordered_set<TileKey, TileKeyHash> encoding_;  // keys in flight
  std::condition_variable encoded_;  // signalled when one leaves encoding_
  std::uint64_t next_seq_ = 0;
  std::size_t bytes_ = 0;
  Stats stats_;
};

}  // namespace volcast::vv
