// Content-addressed tile cache (pointcloud/tile_cache.h) and the tiling
// stage built on it: the XXH64 tile checksum (known answers, single-bit
// sensitivity) and the pinned encode payloads, encode determinism,
// insert-or-get dedup, FIFO eviction under pressure (also after a corrupt
// eviction and re-insert), corrupt-tile rejection under concurrent
// get/put/corrupt traffic, and — the load-bearing
// property — bit-identical SessionResult/FleetResult whether tiling is
// off or shared, at any worker_threads / parallel_sessions value, with a
// session-local, external, or fleet-shared cache.
#include "pointcloud/tile_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/fleet.h"
#include "core/session.h"
#include "core/stages/session_state.h"
#include "core/stages/tick_context.h"
#include "core/stages/tiling_stage.h"
#include "obs/telemetry.h"
#include "session_compare.h"

namespace volcast {
namespace {

vv::TileKey key_of(std::uint32_t frame, std::uint16_t tier,
                   std::uint32_t cell) {
  vv::TileKey key;
  key.content = 0xfeedfacecafef00dULL;
  key.frame = frame;
  key.tier = tier;
  key.cell = cell;
  return key;
}

std::uint64_t checksum_of(std::string_view text) {
  return vv::tile_checksum(
      {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

TEST(TileCache, ChecksumMatchesXxh64KnownAnswers) {
  // Published XXH64 (seed 0) digests.
  EXPECT_EQ(checksum_of(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(checksum_of("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(checksum_of("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);
}

TEST(TileCache, ChecksumDetectsEverySingleBitFlip) {
  // Lengths 0-70 cross every stripe (32), 8-byte and 4-byte tail boundary
  // at least twice; 4096 and 4099 are a whole-stripe tile and one with a
  // 3-byte tail.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 70; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  lengths.push_back(4099);
  for (std::size_t n : lengths) {
    std::vector<std::uint8_t> data =
        vv::encode_tile(key_of(1, 0, static_cast<std::uint32_t>(n)), n)
            .payload;
    const std::uint64_t clean = vv::tile_checksum(data);
    for (std::size_t bit = 0; bit < 8 * n; ++bit) {
      data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      ASSERT_NE(vv::tile_checksum(data), clean)
          << "length " << n << " bit " << bit;
      data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
}

TEST(TileCache, EncodePayloadsArePinned) {
  // FNV-1a-64 over the encode_tile payloads of fixed keys and sizes (every
  // 8-byte word boundary case). The keystream and its mixing rounds model
  // the codec's encode work; this digest proves they have not changed.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const std::size_t sizes[] = {1, 7, 8, 9, 31, 32, 33, 100, 1000, 4096, 4099};
  std::uint32_t n = 0;
  for (std::size_t bytes : sizes) {
    const vv::TileKey key =
        key_of(n, static_cast<std::uint16_t>(n % 3), 17 * n + 5);
    ++n;
    for (std::uint8_t b : vv::encode_tile(key, bytes).payload) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(h, 0x74e50c9e83e93c81ULL);
}

TEST(TileCache, EncodeIsDeterministicAndKeyed) {
  const vv::Tile a = vv::encode_tile(key_of(3, 1, 7), 1000);
  const vv::Tile b = vv::encode_tile(key_of(3, 1, 7), 1000);
  ASSERT_EQ(a.payload.size(), 1000u);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_TRUE(a.valid());
  // Any key-field change produces a different bitstream.
  EXPECT_NE(a.payload, vv::encode_tile(key_of(4, 1, 7), 1000).payload);
  EXPECT_NE(a.payload, vv::encode_tile(key_of(3, 2, 7), 1000).payload);
  EXPECT_NE(a.payload, vv::encode_tile(key_of(3, 1, 8), 1000).payload);
  EXPECT_EQ(vv::stitch_tile(a), a.checksum);
}

TEST(TileCache, GetReturnsWhatPutStored) {
  vv::TileCache cache;
  EXPECT_EQ(cache.get(key_of(0, 0, 0)), nullptr);
  EXPECT_EQ(cache.stats().misses.load(), 1u);

  const vv::Tile tile = vv::encode_tile(key_of(0, 0, 0), 256);
  (void)cache.put(tile);
  const auto hit = cache.get(key_of(0, 0, 0));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->payload, tile.payload);
  EXPECT_EQ(cache.stats().hits.load(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.payload_bytes(), 256u);
}

TEST(TileCache, PutIsInsertOrGet) {
  vv::TileCache cache;
  const auto first = cache.put(vv::encode_tile(key_of(1, 0, 2), 128));
  const auto second = cache.put(vv::encode_tile(key_of(1, 0, 2), 128));
  // Two concurrent encoders produce identical bytes; first-in wins and the
  // duplicate is dropped on the floor.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().insertions.load(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TileCache, EvictsOldestFirstUnderPressure) {
  vv::TileCache cache(1024);  // room for 4 x 256
  for (std::uint32_t c = 0; c < 4; ++c)
    (void)cache.put(vv::encode_tile(key_of(0, 0, c), 256));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions.load(), 0u);

  // A fifth insert evicts exactly the oldest entry (cell 0).
  (void)cache.put(vv::encode_tile(key_of(0, 0, 4), 256));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.payload_bytes(), 1024u);
  EXPECT_EQ(cache.stats().evictions.load(), 1u);
  EXPECT_EQ(cache.get(key_of(0, 0, 0)), nullptr);
  EXPECT_NE(cache.get(key_of(0, 0, 1)), nullptr);
  EXPECT_NE(cache.get(key_of(0, 0, 4)), nullptr);

  // A tile larger than the whole cache is returned but never stored.
  const auto huge = cache.put(vv::encode_tile(key_of(9, 0, 0), 2048));
  ASSERT_NE(huge, nullptr);
  EXPECT_EQ(cache.get(key_of(9, 0, 0)), nullptr);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(TileCache, RejectsAndEvictsCorruptTiles) {
  vv::TileCache cache;
  vv::Tile tile = vv::encode_tile(key_of(2, 1, 3), 64);
  tile.payload[10] ^= 0xff;  // bit rot after checksum computation
  (void)cache.put(std::move(tile));
  ASSERT_EQ(cache.size(), 1u);

  // The corrupt entry is never served: evicted, counted, reported a miss.
  EXPECT_EQ(cache.get(key_of(2, 1, 3)), nullptr);
  EXPECT_EQ(cache.stats().corrupt_rejected.load(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.payload_bytes(), 0u);

  // A fresh (valid) encode repopulates the slot.
  (void)cache.put(vv::encode_tile(key_of(2, 1, 3), 64));
  EXPECT_NE(cache.get(key_of(2, 1, 3)), nullptr);
}

TEST(TileCache, ReinsertAfterCorruptEvictionKeepsInsertionOrder) {
  // A corrupt eviction leaves the key's old FIFO slot behind. After the
  // key is re-inserted, that stale slot must not evict the fresh tile
  // ahead of older residents.
  vv::TileCache cache(300);  // room for 3 x 100
  const vv::TileKey a = key_of(0, 0, 1);
  const vv::TileKey b = key_of(0, 0, 2);
  (void)cache.put(vv::encode_tile(a, 100));
  (void)cache.put(vv::encode_tile(b, 100));
  ASSERT_TRUE(cache.corrupt(a));
  EXPECT_EQ(cache.get(a), nullptr);  // evicted as corrupt
  (void)cache.put(vv::encode_tile(a, 100));
  (void)cache.put(vv::encode_tile(key_of(0, 0, 3), 100));
  (void)cache.put(vv::encode_tile(key_of(0, 0, 4), 100));

  // B is now the oldest resident, so it is the one evicted.
  EXPECT_EQ(cache.stats().evictions.load(), 1u);
  EXPECT_EQ(cache.get(b), nullptr);
  EXPECT_NE(cache.get(a), nullptr);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.payload_bytes(), 300u);
}

// Four threads get/put/corrupt a small key set. get() must never serve a
// tile that fails validation, every get counts as exactly one hit or miss,
// and the resident-byte accounting must match what is actually resident.
void hammer_cache(vv::TileCache& cache) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 3000;
  constexpr std::uint32_t kKeys = 12;
  std::vector<vv::Tile> tiles;
  for (std::uint32_t k = 0; k < kKeys; ++k)
    tiles.push_back(vv::encode_tile(key_of(0, 0, k), 64 + 40 * (k % 5)));

  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> bad_serves{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<std::uint32_t>(t + 1));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const vv::Tile& tile = tiles[rng() % kKeys];
        const std::uint32_t op = rng() % 8;
        if (op == 0) {
          (void)cache.corrupt(tile.key);
        } else if (op <= 2) {
          (void)cache.put(tile);
        } else {
          const auto got = cache.get(tile.key);
          gets.fetch_add(1, std::memory_order_relaxed);
          if (got != nullptr && !got->valid())
            bad_serves.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const vv::TileCache::Stats& stats = cache.stats();
  EXPECT_EQ(bad_serves.load(), 0u);
  EXPECT_EQ(stats.hits.load() + stats.misses.load(), gets.load());
  EXPECT_GT(stats.corrupt_rejected.load(), 0u);

  // Sweep: get() evicts whatever is still corrupt, so afterwards the
  // residents are exactly the tiles the sweep was served.
  std::size_t resident_bytes = 0;
  std::size_t resident = 0;
  for (const vv::Tile& tile : tiles) {
    if (const auto got = cache.get(tile.key)) {
      EXPECT_TRUE(got->valid());
      resident_bytes += got->payload.size();
      ++resident;
    }
  }
  EXPECT_EQ(cache.payload_bytes(), resident_bytes);
  EXPECT_EQ(stats.payload_bytes.load(), resident_bytes);
  EXPECT_EQ(cache.size(), resident);
  if (cache.max_bytes() != 0) EXPECT_LE(resident_bytes, cache.max_bytes());
}

TEST(TileCache, ConcurrentGetPutCorruptBounded) {
  vv::TileCache cache(600);  // about a third of the key set: steady churn
  hammer_cache(cache);
  EXPECT_GT(cache.stats().evictions.load(), 0u);
}

TEST(TileCache, ConcurrentGetPutCorruptUnbounded) {
  vv::TileCache cache;
  hammer_cache(cache);
  EXPECT_EQ(cache.stats().evictions.load(), 0u);
}

TEST(TileCache, FreezeStopsStoresButKeepsServing) {
  vv::TileCache cache;
  (void)cache.put(vv::encode_tile(key_of(0, 0, 1), 32));
  cache.freeze();
  ASSERT_TRUE(cache.frozen());
  (void)cache.put(vv::encode_tile(key_of(0, 0, 2), 32));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.get(key_of(0, 0, 1)), nullptr);
  EXPECT_EQ(cache.get(key_of(0, 0, 2)), nullptr);
}

TEST(TileCache, ConcurrentMissesEncodeOnce) {
  // Four threads miss the same keys at about the same time; each key is
  // encoded by exactly one of them and the others get that tile.
  vv::TileCache cache;
  constexpr int kThreads = 4;
  constexpr std::uint32_t kKeys = 64;
  std::atomic<int> encodes{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint32_t k = 0; k < kKeys; ++k) {
        const vv::TileKey key = key_of(0, 0, k);
        if (cache.get(key) != nullptr) continue;
        const auto tile = cache.encode_once(key, [&] {
          encodes.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          return vv::encode_tile(key, 96);
        });
        if (tile == nullptr || tile->key != key || !tile->valid())
          bad.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(encodes.load(), static_cast<int>(kKeys));
  EXPECT_EQ(cache.stats().insertions.load(), kKeys);
}

TEST(TileCache, EncodeOnceServesResidentTilesAndSurvivesThrows) {
  vv::TileCache cache;
  const vv::TileKey key = key_of(1, 1, 1);
  const auto stored = cache.put(vv::encode_tile(key, 40));
  int encodes = 0;
  const auto counting = [&] {
    ++encodes;
    return vv::encode_tile(key, 40);
  };
  EXPECT_EQ(cache.encode_once(key, counting), stored);
  EXPECT_EQ(encodes, 0);

  // A failed encode releases the key: the next miss encodes normally.
  const vv::TileKey other = key_of(2, 0, 5);
  EXPECT_THROW((void)cache.encode_once(
                   other, []() -> vv::Tile { throw std::runtime_error("x"); }),
               std::runtime_error);
  const auto recovered =
      cache.encode_once(other, [&] { return vv::encode_tile(other, 40); });
  EXPECT_EQ(cache.get(other), recovered);

  // Frozen: the caller gets its own copy and nothing is stored.
  cache.freeze();
  const vv::TileKey cold = key_of(3, 0, 0);
  EXPECT_NE(cache.encode_once(cold, [&] { return vv::encode_tile(cold, 8); }),
            nullptr);
  EXPECT_EQ(cache.get(cold), nullptr);
}

// --- tiling stage / session determinism ----------------------------------

core::SessionConfig fast_config() {
  core::SessionConfig config;
  config.user_count = 4;
  config.duration_s = 1.0;
  config.master_points = 30'000;
  config.video_frames = 20;
  config.worker_threads = 1;
  config.audience_spread_rad = 0.4;  // clustered viewports: heavy overlap
  return config;
}

core::SessionResult run_with_tiling(core::SessionConfig config,
                                    const std::string& policy) {
  config.policy_overrides["tiling"] = policy;
  core::Session session(std::move(config));
  return session.run();
}

TEST(TilingStage, SharedMatchesOffOnEverySimulationField) {
  // Tile assembly is a server-side accounting layer: switching it from
  // per-user encode to encode-once/serve-many must not move a single QoE
  // or link-layer bit.
  const core::SessionResult off = run_with_tiling(fast_config(), "off");
  const core::SessionResult shared = run_with_tiling(fast_config(), "shared");
  core::expect_identical(off, shared);

  // Same tiles assembled either way; shared turns repeats into stitches.
  EXPECT_EQ(off.tiles.requests, shared.tiles.requests);
  EXPECT_GT(off.tiles.requests, 0u);
  EXPECT_EQ(off.tiles.stitched_tiles, 0u);
  EXPECT_EQ(off.tiles.encoded_tiles, off.tiles.requests);
  EXPECT_GT(shared.tiles.stitched_tiles, 0u);
  EXPECT_EQ(shared.tiles.encoded_tiles + shared.tiles.stitched_tiles,
            shared.tiles.requests);
  EXPECT_LT(shared.tiles.encoded_bytes, off.tiles.encoded_bytes);
}

TEST(TilingStage, ReportIsIdenticalAtAnyWorkerThreadCount) {
  core::SessionConfig serial = fast_config();
  core::SessionConfig parallel = fast_config();
  parallel.worker_threads = 4;
  const core::SessionResult a = run_with_tiling(std::move(serial), "shared");
  const core::SessionResult b = run_with_tiling(std::move(parallel), "shared");
  core::expect_identical(a, b);
  core::expect_tiles_identical(a, b);
}

TEST(TilingStage, ExternalCacheMatchesSessionLocalCache) {
  // The report comes from first-touch accounting, so a pre-warmed (or
  // shared, or empty external) cache changes wall clock only.
  vv::TileCache external;
  core::SessionConfig with_cache = fast_config();
  with_cache.tile_cache = &external;
  const core::SessionResult ext =
      run_with_tiling(std::move(with_cache), "shared");
  const core::SessionResult local = run_with_tiling(fast_config(), "shared");
  core::expect_identical(ext, local);
  core::expect_tiles_identical(ext, local);
  EXPECT_GT(external.size(), 0u);

  // Re-running against the now-warm cache: all probes hit, same report.
  const std::uint64_t misses_before = external.stats().misses.load();
  core::SessionConfig rerun = fast_config();
  rerun.tile_cache = &external;
  const core::SessionResult warm = run_with_tiling(std::move(rerun), "shared");
  core::expect_identical(warm, local);
  core::expect_tiles_identical(warm, local);
  EXPECT_EQ(external.stats().misses.load(), misses_before);
}

TEST(TilingStage, TinyCacheEvictionChangesNothingButWallClock) {
  vv::TileCache tiny(4096);  // far below the working set: constant churn
  core::SessionConfig with_tiny = fast_config();
  with_tiny.tile_cache = &tiny;
  const core::SessionResult pressured =
      run_with_tiling(std::move(with_tiny), "shared");
  const core::SessionResult unbounded = run_with_tiling(fast_config(), "shared");
  core::expect_identical(pressured, unbounded);
  core::expect_tiles_identical(pressured, unbounded);
  EXPECT_GT(tiny.stats().evictions.load(), 0u);
  EXPECT_LE(tiny.payload_bytes(), 4096u);
}

TEST(TilingStage, EightUsersTwoClustersEncodeAtLeastTwiceCheaper) {
  // The acceptance bar: 8 users whose viewports collapse into at most two
  // clusters must cut per-user encode cost >= 2x vs the per-user-encode
  // baseline. The arc is 1.5 rad: narrow enough that viewports overlap
  // heavily, wide enough that the users do not stand inside each other's
  // body-blockage shadow (packing 8 people into a 0.4 rad arc blacks out
  // the links entirely and nothing gets scheduled at all).
  core::SessionConfig config = fast_config();
  config.user_count = 8;
  config.audience_spread_rad = 1.5;
  const core::SessionResult off = run_with_tiling(config, "off");
  const core::SessionResult shared = run_with_tiling(config, "shared");
  core::expect_identical(off, shared);
  ASSERT_GT(off.tiles.encoded_bytes, 0u);
  EXPECT_GE(static_cast<double>(off.tiles.encoded_bytes),
            2.0 * static_cast<double>(shared.tiles.encoded_bytes));
}

// --- tick-local mark: one cache fetch per key per tick ---------------------

/// Drives the shared TilingStage directly over an external cache: every
/// user sits in one multicast group on AP 0, user u sees cells
/// [4u, 4u + 16) — heavy overlap — at the tier the test assigns.
struct TickRig {
  vv::TileCache cache;
  core::SessionState state{rig_config(&cache)};
  core::TilingStage stage{true};

  static core::SessionConfig rig_config(vv::TileCache* cache) {
    core::SessionConfig config = fast_config();
    config.tile_cache = cache;
    return config;
  }

  [[nodiscard]] std::vector<vv::CellId> cells_of(std::size_t u) const {
    std::vector<vv::CellId> cells;
    for (std::size_t c = 4 * u;
         c < std::min(4 * u + 16, state.grid.cell_count()); ++c)
      cells.push_back(static_cast<vv::CellId>(c));
    return cells;
  }

  void run_tick(std::size_t tick, std::size_t frame) {
    core::TickContext ctx;
    ctx.tick = tick;
    ctx.tick32 = static_cast<std::uint32_t>(tick);
    ctx.frame = frame;
    ctx.ap_plans.resize(state.coordinator.ap_count());
    ctx.ap_plans[0].active = true;
    mac::GroupPlan group;
    for (std::size_t u = 0; u < state.user_count(); ++u) {
      group.members.push_back({u, 0.0, 0.0, 0.0});
      view::VisibilityMap map(state.grid.cell_count());
      for (const vv::CellId c : cells_of(u)) map.set(c);
      ctx.prediction.visibility.push_back(std::move(map));
    }
    ctx.ap_plans[0].grouping.schedule.groups.push_back(std::move(group));
    stage.run(state, ctx);
  }

  /// Distinct (tier, cell) keys with a non-empty tile among the users'
  /// requests for `frame`.
  [[nodiscard]] std::size_t distinct_keys(std::size_t frame) const {
    std::set<std::pair<std::size_t, vv::CellId>> keys;
    for (std::size_t u = 0; u < state.user_count(); ++u)
      for (const vv::CellId c : cells_of(u))
        if (state.store.cell_bytes(frame, state.users[u].tier, c) > 0)
          keys.emplace(state.users[u].tier, c);
    return keys.size();
  }

  [[nodiscard]] std::uint64_t probes() const {
    return cache.stats().hits.load() + cache.stats().misses.load();
  }
};

TEST(TilingStage, EachKeyIsFetchedOncePerTick) {
  TickRig rig;
  ASSERT_GE(rig.state.store.tier_count(), 2u);
  // Two tiers in play: users 0 and 1 share a tier, 2 and 3 the other, so
  // a key is (tier, cell), not the cell alone.
  for (std::size_t u = 0; u < rig.state.user_count(); ++u)
    rig.state.users[u].tier = u < 2 ? 0 : 1;

  const std::size_t frames[] = {0, 1, 0};
  std::uint64_t probes = 0;
  for (std::size_t tick = 0; tick < 3; ++tick) {
    const std::uint64_t requests_before = rig.state.tiles.requests;
    rig.run_tick(tick, frames[tick]);
    const std::size_t distinct = rig.distinct_keys(frames[tick]);
    ASSERT_GT(distinct, 0u);
    // Overlapping viewports: far more requests than distinct keys, but
    // the cache sees each key once per tick (the repeat of frame 0 on
    // tick 2 fetches again: the mark is tick-local).
    EXPECT_GT(rig.state.tiles.requests - requests_before, distinct);
    EXPECT_EQ(rig.probes() - probes, distinct) << "tick " << tick;
    probes = rig.probes();
  }
  EXPECT_EQ(rig.cache.stats().corrupt_rejected.load(), 0u);
}

TEST(TilingStage, TelemetryProbesEqualMaterializedTiles) {
  // tile.cache_hits + tile.cache_misses counts every materialized tile —
  // first fetches and same-tick repeats — so it equals the requests the
  // brownout did not defer. The tight encode budget and a high deferral
  // floor make sure some were.
  core::SessionConfig config = fast_config();
  config.overload.enabled = true;
  config.overload.encode_budget_bytes = 100'000.0;
  config.overload.defer_lod = 0.9;
  obs::Telemetry telemetry;
  config.telemetry = &telemetry;
  const core::SessionResult r = run_with_tiling(std::move(config), "shared");
  obs::MetricRegistry& metrics = telemetry.metrics();
  const std::uint64_t deferred =
      metrics.counter("overload.deferred_tiles").value();
  EXPECT_GT(deferred, 0u);
  EXPECT_EQ(deferred, r.overload.deferred_tiles);
  EXPECT_EQ(metrics.counter("tile.requests").value(), r.tiles.requests);
  EXPECT_EQ(metrics.counter("tile.cache_hits").value() +
                metrics.counter("tile.cache_misses").value(),
            r.tiles.requests - deferred);
}

TEST(TileCorruption, KeyCorruptedAfterATickIsRejectedAtTheNextTicksFirstFetch) {
  TickRig rig;
  rig.run_tick(0, 0);
  const std::size_t tier = rig.state.users[0].tier;
  vv::CellId cell = 0;
  std::size_t bytes = 0;
  for (const vv::CellId c : rig.cells_of(0)) {
    bytes = rig.state.store.cell_bytes(0, tier, c);
    if (bytes > 0) {
      cell = c;
      break;
    }
  }
  ASSERT_GT(bytes, 0u);
  vv::TileKey key;
  key.content = rig.state.tile_content;
  key.frame = 0;
  key.cell = cell;
  key.tier = static_cast<std::uint16_t>(tier);
  const vv::Tile fresh = vv::encode_tile(key, bytes);

  // Damage the key between ticks, as the tile-corruption fault does after
  // a tick's loop. Every user requests this cell again next tick.
  ASSERT_TRUE(rig.cache.corrupt(key));
  const std::uint64_t insertions = rig.cache.stats().insertions.load();
  rig.run_tick(1, 0);

  // Rejected once — at the first fetch, not once per member — and
  // re-encoded; the resident copy is the fresh bitstream again.
  EXPECT_EQ(rig.cache.stats().corrupt_rejected.load(), 1u);
  EXPECT_EQ(rig.cache.stats().insertions.load(), insertions + 1);
  const std::shared_ptr<const vv::Tile> resident = rig.cache.get(key);
  ASSERT_NE(resident, nullptr);
  EXPECT_TRUE(resident->valid());
  EXPECT_EQ(resident->payload, fresh.payload);
  EXPECT_EQ(resident->checksum, fresh.checksum);
}

// --- fleet-shared cache ---------------------------------------------------

core::FleetConfig fast_fleet(std::size_t sessions) {
  core::FleetConfig fc;
  fc.session = fast_config();
  fc.session.user_count = 2;
  fc.session.content_seed = 0x5eedc0de;
  fc.session.policy_overrides["tiling"] = "shared";
  fc.sessions = sessions;
  fc.parallel_sessions = 1;
  return fc;
}

TEST(FleetTileCache, SharedCacheIsIdenticalAtAnyParallelism) {
  core::FleetConfig serial = fast_fleet(8);
  core::FleetConfig parallel = fast_fleet(8);
  parallel.parallel_sessions = 8;
  core::expect_fleet_identical(core::run_fleet(serial),
                               core::run_fleet(parallel));
}

TEST(FleetTileCache, SlotsShareContentAndAggregateTiles) {
  const core::FleetResult fleet = core::run_fleet(fast_fleet(4));
  vv::TileReport sum;
  for (const core::SessionResult& s : fleet.sessions) {
    EXPECT_GT(s.tiles.stitched_tiles, 0u);
    vv::for_each_field(
        [](std::string_view, std::uint64_t& total, std::uint64_t slot) {
          total += slot;
        },
        sum, s.tiles);
  }
  vv::for_each_field(
      [](std::string_view name, std::uint64_t got, std::uint64_t want) {
        EXPECT_EQ(got, want) << name;
      },
      fleet.tiles, sum);
}

TEST(FleetTileCache, KillAndResumeWithSharedCacheIsBitIdentical) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "volcast_tile_ckpt.bin")
          .string();
  std::remove(path.c_str());

  core::FleetConfig killed = fast_fleet(6);
  killed.checkpoint_file = path;
  killed.kill_after_slots = 3;
  EXPECT_THROW((void)core::run_fleet(killed), core::FleetKilled);

  // The resumed run restores 3 slots verbatim and re-runs the rest against
  // a *fresh* shared cache — still bit-identical to an uninterrupted run,
  // because cache state never leaks into results.
  core::FleetConfig resumed = fast_fleet(6);
  resumed.resume_file = path;
  const core::FleetResult a = core::run_fleet(resumed);
  const core::FleetResult b = core::run_fleet(fast_fleet(6));
  core::expect_fleet_identical(a, b);
  std::remove(path.c_str());
}

TEST(FleetTileCache, ContentSeedJoinsTheCheckpointFingerprint) {
  core::FleetConfig a = fast_fleet(2);
  core::FleetConfig b = fast_fleet(2);
  b.session.content_seed = a.session.content_seed + 1;
  EXPECT_NE(core::fleet_fingerprint(a), core::fleet_fingerprint(b));
}

}  // namespace
}  // namespace volcast
