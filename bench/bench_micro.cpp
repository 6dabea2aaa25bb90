// Micro-benchmarks (google-benchmark) for the library's hot paths: codec
// encode/decode, the workload's size-table build, tile encode and
// checksum, frustum culling, visibility
// computation, beam gain evaluation, the per-tick link-state table, AWV
// synthesis and the grouping search.
// These are the budgets that decide whether the cross-layer scheduler can
// run per frame interval (33 ms at 30 FPS) on an edge server.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/units.h"
#include "core/grouping.h"
#include "core/testbed.h"
#include "mmwave/beam_design.h"
#include "mmwave/link.h"
#include "mmwave/link_table.h"
#include "pointcloud/codec.h"
#include "pointcloud/octree_codec.h"
#include "pointcloud/tile_cache.h"
#include "pointcloud/video_generator.h"
#include "pointcloud/video_store.h"
#include "viewport/similarity.h"
#include "viewport/visibility.h"

using namespace volcast;

namespace {

const vv::VideoGenerator& generator() {
  static const vv::VideoGenerator gen([] {
    vv::VideoConfig vc;
    vc.points_per_frame = 100'000;
    vc.frame_count = 4;
    return vc;
  }());
  return gen;
}

void BM_CodecEncode(benchmark::State& state) {
  const auto frame =
      vv::thin(generator().frame_soa(0),
               static_cast<double>(state.range(0)) / 100'000.0);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto blob = vv::encode(frame);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(frame.size()));
  state.counters["bits/pt"] =
      8.0 * static_cast<double>(bytes) / static_cast<double>(frame.size());
}
BENCHMARK(BM_CodecEncode)->Arg(10'000)->Arg(50'000)->Arg(100'000);

void BM_CodecDecode(benchmark::State& state) {
  const auto frame =
      vv::thin(generator().frame_soa(0),
               static_cast<double>(state.range(0)) / 100'000.0);
  const auto blob = vv::encode(frame);
  for (auto _ : state) {
    const auto back = vv::decode_soa(blob);
    benchmark::DoNotOptimize(back.xs().data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_CodecDecode)->Arg(10'000)->Arg(100'000);


void BM_OctreeEncode(benchmark::State& state) {
  const auto frame =
      vv::thin(generator().frame_soa(0),
               static_cast<double>(state.range(0)) / 100'000.0);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto blob = vv::octree_encode(frame);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(frame.size()));
  state.counters["bits/pt"] =
      8.0 * static_cast<double>(bytes) / static_cast<double>(frame.size());
}
BENCHMARK(BM_OctreeEncode)->Arg(10'000)->Arg(100'000);

void BM_OctreeDecode(benchmark::State& state) {
  const auto frame =
      vv::thin(generator().frame_soa(0),
               static_cast<double>(state.range(0)) / 100'000.0);
  const auto blob = vv::octree_encode(frame);
  for (auto _ : state) {
    const auto back = vv::octree_decode(blob);
    benchmark::DoNotOptimize(back.xs().data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_OctreeDecode)->Arg(100'000);

// The size tables a session's workload bundle builds (SessionConfig
// defaults: 120K master points, 60 frames, 0.5 m cells, the paper's tier
// ladder scaled to the master, one exactly encoded sample frame), serially.
void BM_VideoStoreBuild(benchmark::State& state) {
  vv::VideoConfig vc;
  vc.points_per_frame = 120'000;
  vc.frame_count = 60;
  const vv::VideoGenerator gen(vc);
  const vv::CellGrid grid(gen.content_bounds(), 0.5);
  vv::VideoStoreConfig sc;
  sc.tiers = {{"low", 72'000}, {"med", 93'818}, {"high", 120'000}};
  sc.sample_frames = 1;
  for (auto _ : state) {
    const vv::VideoStore store(gen, grid, sc);
    benchmark::DoNotOptimize(store.frame_bytes(0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(vc.frame_count));
}
BENCHMARK(BM_VideoStoreBuild)->Unit(benchmark::kMillisecond);

vv::TileKey bench_tile_key() {
  vv::TileKey key;
  key.content = 0x5eedc0de;
  key.frame = 3;
  key.cell = 42;
  key.tier = 1;
  return key;
}

// The stitch path: one checksum pass over a resident tile, which
// TileCache::get pays on every hit.
void BM_TileChecksum(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const vv::Tile tile = vv::encode_tile(bench_tile_key(), bytes);
  for (auto _ : state) benchmark::DoNotOptimize(vv::stitch_tile(tile));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TileChecksum)->Arg(4 << 10)->Arg(32 << 10)->Arg(128 << 10);

// The first-touch path: keystream, mixing rounds and the checksum.
void BM_TileEncode(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const vv::Tile tile = vv::encode_tile(bench_tile_key(), bytes);
    benchmark::DoNotOptimize(tile.checksum);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TileEncode)->Arg(4 << 10)->Arg(32 << 10)->Arg(128 << 10);

void BM_FrustumCulling(benchmark::State& state) {
  const vv::CellGrid grid(generator().content_bounds(), 0.25);
  const geo::Pose pose = geo::Pose::look_at({2.5, 0, 1.5}, {0, 0, 1.1});
  const geo::Frustum frustum(pose, {});
  for (auto _ : state) {
    std::size_t visible = 0;
    for (vv::CellId c = 0; c < grid.cell_count(); ++c)
      if (frustum.intersects(grid.cell_bounds(c))) ++visible;
    benchmark::DoNotOptimize(visible);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(grid.cell_count()));
}
BENCHMARK(BM_FrustumCulling);

void BM_ComputeVisibility(benchmark::State& state) {
  const vv::CellGrid grid(generator().content_bounds(),
                          state.range(0) / 100.0);
  const auto occupancy = grid.occupancy(generator().frame_soa(0));
  const geo::Pose pose = geo::Pose::look_at({2.5, 0, 1.5}, {0, 0, 1.1});
  for (auto _ : state) {
    const auto map = view::compute_visibility(grid, occupancy, pose, {});
    benchmark::DoNotOptimize(map.visible_count());
  }
}
BENCHMARK(BM_ComputeVisibility)->Arg(25)->Arg(50)->Arg(100);

void BM_BeamGain(benchmark::State& state) {
  const core::Testbed testbed;
  const mmwave::Awv beam = testbed.ap().steer_at({4, 3, 1.5});
  Rng rng(1);
  for (auto _ : state) {
    const geo::Vec3 dir{rng.uniform(-1, 1), rng.uniform(0, 1),
                        rng.uniform(-0.5, 0)};
    benchmark::DoNotOptimize(testbed.ap().gain(beam, dir));
  }
}
BENCHMARK(BM_BeamGain);

void BM_RssEvaluation(benchmark::State& state) {
  const core::Testbed testbed;
  const mmwave::Awv beam = testbed.ap().steer_at({4, 3, 1.5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mmwave::rss_dbm(testbed.ap(), beam, testbed.channel(), {4, 3, 1.5},
                        {}, testbed.budget()));
  }
}
BENCHMARK(BM_RssEvaluation);

// The same RSS read from a prebuilt link-state row (what every in-tick
// query costs) with three blockers.
void BM_RssEvaluationTable(benchmark::State& state) {
  const core::Testbed testbed;
  const geo::Vec3 user{4, 3, 1.5};
  const geo::BodyObstacle bodies[] = {
      {{3, 2, 0}, 0.25, 1.8}, {{5, 4, 0}, 0.25, 1.8}, {{6, 2, 0}, 0.25, 1.8}};
  const mmwave::LinkTable links = testbed.link_table({&user, 1}, bodies);
  const std::vector<std::size_t> blockers = links.all_bodies();
  const auto beam = links.row(0).steer_awv;
  for (auto _ : state)
    benchmark::DoNotOptimize(links.rss_dbm(beam, 0, blockers));
}
BENCHMARK(BM_RssEvaluationTable);

/// Audience seats for the radio benches (room frame).
std::vector<geo::Vec3> audience(const core::Testbed& testbed,
                                std::size_t count) {
  std::vector<geo::Vec3> seats;
  for (std::size_t i = 0; i < count; ++i) {
    const double angle = 0.4 + 2.4 * static_cast<double>(i) /
                                   static_cast<double>(std::max<std::size_t>(
                                       count - 1, 1));
    seats.push_back(
        testbed.to_room({2.2 * std::cos(angle), 2.2 * std::sin(angle), 1.5}));
  }
  return seats;
}

// Best common stock sector for a three-member group: `scan` evaluates
// every (sector, member) array gain from positions, `rows` reads the
// members' precomputed sector gains.
void BM_BestCommonBeam(benchmark::State& state, bool rows) {
  const core::Testbed testbed;
  const std::vector<geo::Vec3> group = audience(testbed, 3);
  const mmwave::LinkTable links = testbed.link_table(group);
  const std::size_t members[] = {0, 1, 2};
  const mmwave::Codebook& codebook = testbed.codebook();
  const mmwave::PhasedArray& ap = testbed.ap();
  for (auto _ : state) {
    if (rows) {
      benchmark::DoNotOptimize(codebook.best_common_beam(links, members));
      continue;
    }
    std::size_t best = 0;
    double best_min = -1.0;
    for (std::size_t i = 0; i < codebook.size(); ++i) {
      double min_gain = 1e300;
      for (const geo::Vec3& t : group)
        min_gain = std::min(
            min_gain, ap.gain(codebook.beam(i), t - ap.pose().position));
      if (min_gain > best_min) {
        best_min = min_gain;
        best = i;
      }
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK_CAPTURE(BM_BestCommonBeam, scan, false);
BENCHMARK_CAPTURE(BM_BestCommonBeam, rows, true);

// One tick's table for one AP: every user's paths, steering terms, body
// losses against everyone, sector gains and steered beam.
void BM_LinkTableBuild(benchmark::State& state) {
  const core::Testbed testbed;
  const std::vector<geo::Vec3> users =
      audience(testbed, static_cast<std::size_t>(state.range(0)));
  std::vector<geo::BodyObstacle> bodies;
  for (const geo::Vec3& u : users) bodies.push_back({u, 0.25, 1.8});
  for (auto _ : state)
    benchmark::DoNotOptimize(testbed.link_table(users, bodies).size());
}
BENCHMARK(BM_LinkTableBuild)->Arg(4)->Arg(16);

void BM_CombineAwvs(benchmark::State& state) {
  const core::Testbed testbed;
  std::vector<mmwave::Awv> beams;
  std::vector<double> rss;
  for (int i = 0; i < state.range(0); ++i) {
    beams.push_back(testbed.ap().steer_at({2.0 + i, 3, 1.5}));
    rss.push_back(1e-6);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mmwave::combine_awvs(beams, rss).data());
  }
}
BENCHMARK(BM_CombineAwvs)->Arg(2)->Arg(4);

void BM_GroupingGreedy(benchmark::State& state) {
  const auto users_count = static_cast<std::size_t>(state.range(0));
  std::vector<view::VisibilityMap> maps(users_count,
                                        view::VisibilityMap(64));
  Rng rng(5);
  for (auto& m : maps)
    for (vv::CellId c = 0; c < 64; ++c)
      if (rng.chance(0.4)) m.set(c);
  std::vector<core::UserState> users(users_count);
  for (std::size_t u = 0; u < users_count; ++u)
    users[u] = {u, &maps[u], 10e6, 1200.0};
  core::GrouperConfig config;
  const core::GroupRateFn rate = [](std::span<const std::size_t>) {
    return 900.0;
  };
  const core::OverlapBitsFn overlap = [&](std::span<const std::size_t> idx) {
    return 4e6 * static_cast<double>(idx.size());
  };
  for (auto _ : state) {
    const auto result = core::form_groups(users, config, rate, overlap);
    benchmark::DoNotOptimize(result.groups.size());
  }
}
BENCHMARK(BM_GroupingGreedy)->Arg(4)->Arg(7)->Arg(12);

void BM_GroupIou(benchmark::State& state) {
  view::VisibilityMap a(1024);
  view::VisibilityMap b(1024);
  Rng rng(9);
  for (vv::CellId c = 0; c < 1024; ++c) {
    if (rng.chance(0.3)) a.set(c);
    if (rng.chance(0.3)) b.set(c);
  }
  for (auto _ : state) benchmark::DoNotOptimize(view::iou(a, b));
}
BENCHMARK(BM_GroupIou);

}  // namespace

BENCHMARK_MAIN();
