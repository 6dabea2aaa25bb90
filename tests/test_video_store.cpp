#include "pointcloud/video_store.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace volcast::vv {
namespace {

VideoGenerator small_generator() {
  VideoConfig c;
  c.points_per_frame = 20'000;
  c.frame_count = 6;
  return VideoGenerator(c);
}

VideoStoreConfig scaled_tiers(bool exact) {
  VideoStoreConfig sc;
  sc.tiers = {{"low", 12'000}, {"med", 16'000}, {"high", 20'000}};
  sc.exact = exact;
  sc.sample_frames = 2;
  return sc;
}

TEST(VideoStore, RejectsBadTiers) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  VideoStoreConfig sc;
  sc.tiers.clear();
  EXPECT_THROW(VideoStore(gen, grid, sc), std::invalid_argument);
  sc.tiers = {{"too-big", 30'000}};
  EXPECT_THROW(VideoStore(gen, grid, sc), std::invalid_argument);
  sc.tiers = {{"zero", 0}};
  EXPECT_THROW(VideoStore(gen, grid, sc), std::invalid_argument);
}

TEST(VideoStore, DimensionsMatchConfig) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore store(gen, grid, scaled_tiers(false));
  EXPECT_EQ(store.frame_count(), 6u);
  EXPECT_EQ(store.tier_count(), 3u);
  EXPECT_DOUBLE_EQ(store.fps(), 30.0);
}

TEST(VideoStore, CellPointsSumToTierBudget) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore store(gen, grid, scaled_tiers(false));
  for (std::size_t q = 0; q < 3; ++q) {
    std::size_t total = 0;
    for (CellId c = 0; c < grid.cell_count(); ++c)
      total += store.cell_points(0, q, c);
    const std::size_t budget = scaled_tiers(false).tiers[q].points_per_frame;
    EXPECT_NEAR(static_cast<double>(total), static_cast<double>(budget),
                static_cast<double>(budget) * 0.05);
  }
}

TEST(VideoStore, HigherTierIsLarger) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore store(gen, grid, scaled_tiers(false));
  for (std::size_t f = 0; f < store.frame_count(); ++f) {
    EXPECT_LT(store.frame_bytes(f, 0), store.frame_bytes(f, 1));
    EXPECT_LT(store.frame_bytes(f, 1), store.frame_bytes(f, 2));
  }
}

TEST(VideoStore, EmptyCellsHaveZeroBytes) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.25);
  const VideoStore store(gen, grid, scaled_tiers(false));
  std::size_t empty_cells = 0;
  for (CellId c = 0; c < grid.cell_count(); ++c) {
    if (store.cell_points(0, 2, c) == 0) {
      EXPECT_EQ(store.cell_bytes(0, 2, c), 0u);
      ++empty_cells;
    } else {
      EXPECT_GT(store.cell_bytes(0, 2, c), 0u);
    }
  }
  EXPECT_GT(empty_cells, 0u);  // a human figure never fills the whole box
}

TEST(VideoStore, ModeledSizesTrackExactSizes) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore exact(gen, grid, scaled_tiers(true));
  const VideoStore modeled(gen, grid, scaled_tiers(false));
  // Frames beyond the sample window are modeled; totals must agree within
  // 15% (the linear model's tolerance).
  for (std::size_t f = 3; f < 6; ++f) {
    const double e = static_cast<double>(exact.frame_bytes(f, 2));
    const double m = static_cast<double>(modeled.frame_bytes(f, 2));
    EXPECT_NEAR(m / e, 1.0, 0.15) << "frame " << f;
  }
}

TEST(VideoStore, BitrateScalesWithPointCount) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore store(gen, grid, scaled_tiers(false));
  const double low = store.tier_bitrate_mbps(0);
  const double high = store.tier_bitrate_mbps(2);
  EXPECT_GT(low, 0.0);
  // 12K -> 20K points is a 1.67x increase; bitrate should grow comparably.
  EXPECT_NEAR(high / low, 20.0 / 12.0, 0.35);
}

TEST(VideoStore, BitsPerPointInCodecRegime) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore store(gen, grid, scaled_tiers(true));
  for (std::size_t q = 0; q < 3; ++q) {
    const double bpp = store.tier_bits_per_point(q);
    EXPECT_GT(bpp, 10.0);
    EXPECT_LT(bpp, 60.0);
  }
}

TEST(VideoStore, AccessorsRangeCheck) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStore store(gen, grid, scaled_tiers(false));
  EXPECT_THROW((void)store.cell_bytes(99, 0, 0), std::out_of_range);
  EXPECT_THROW((void)store.cell_bytes(0, 99, 0), std::out_of_range);
  EXPECT_THROW((void)store.cell_bytes(0, 0, grid.cell_count() + 5),
               std::out_of_range);
}

TEST(VideoStore, OctreeBackendWorks) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  VideoStoreConfig sc = scaled_tiers(false);
  sc.codec_kind = StoreCodec::kOctree;
  const VideoStore store(gen, grid, sc);
  EXPECT_GT(store.tier_bitrate_mbps(2), 0.0);
  // Octree sizing stays within a factor of ~2.5 of the Morton pipeline.
  const VideoStore morton(gen, grid, scaled_tiers(false));
  const double ratio =
      store.tier_bitrate_mbps(2) / morton.tier_bitrate_mbps(2);
  EXPECT_GT(ratio, 0.3);
  EXPECT_LT(ratio, 2.5);
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t table_digest(const VideoStoreConfig& sc) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  return fnv1a64(VideoStore(gen, grid, sc).serialize());
}

TEST(VideoStore, SizeTablesArePinned) {
  // The byte-identity reference for the store build: any change to
  // thinning, cell bucketing, per-cell gather order, either codec or the
  // size-model fit moves one of these digests.
  EXPECT_EQ(table_digest(scaled_tiers(false)), 0x5de1589001015333ULL)
      << "modeled";
  EXPECT_EQ(table_digest(scaled_tiers(true)), 0x98a88ad1a1277464ULL)
      << "exact";
  VideoStoreConfig octree = scaled_tiers(false);
  octree.codec_kind = StoreCodec::kOctree;
  EXPECT_EQ(table_digest(octree), 0xd5da327a7e08d99dULL) << "octree";
  // fraction == 1 keeps every point; 1/20000 keeps a single point.
  VideoStoreConfig edges = scaled_tiers(false);
  edges.tiers = {{"tiny", 1}, {"all", 20'000}};
  EXPECT_EQ(table_digest(edges), 0x171e5d1adf31a46eULL)
      << "edge tiers, modeled";
  edges.exact = true;
  EXPECT_EQ(table_digest(edges), 0x3499c560641f0c41ULL)
      << "edge tiers, exact";
}

TEST(VideoStore, PoolInvariant) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  for (const bool exact : {false, true}) {
    common::ThreadPool one(1);
    common::ThreadPool four(4);
    VideoStoreConfig sc = scaled_tiers(exact);
    sc.pool = &one;
    const auto serial = VideoStore(gen, grid, sc).serialize();
    sc.pool = &four;
    EXPECT_EQ(VideoStore(gen, grid, sc).serialize(), serial)
        << "exact=" << exact;
  }
}

/// Random frame over a 2 x 2 x 2 m box, with some points outside the grid
/// below so the clamped edge cells are exercised.
FrameSoA random_frame(std::size_t n, std::uint64_t seed) {
  volcast::Rng rng(seed);
  FrameSoA frame;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec3 p{rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
                      rng.uniform(-0.2, 2.2)};
    const auto r = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    frame.push_back(p, r, static_cast<std::uint8_t>(r ^ 0x5a),
                    static_cast<std::uint8_t>(i));
  }
  return frame;
}

/// Fractions at the edges of the keep rule: every point, one threshold
/// step below every point, and for a few points i the fraction whose
/// threshold equals i's hash (drops i) and one step either side of it.
std::vector<double> edge_fractions(std::size_t n, volcast::Rng& rng) {
  constexpr double kTwo32 = 4294967296.0;
  std::vector<double> out = {1.0, (kTwo32 - 1.0) / kTwo32};
  for (int k = 0; k < 4; ++k) {
    const auto i = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const std::uint32_t h = i * 2654435761u;
    if (h < 2 || h == 0xffffffffu) continue;
    const ThinRule below(static_cast<double>(h - 1) / kTwo32);
    const ThinRule at(static_cast<double>(h) / kTwo32);
    const ThinRule above(static_cast<double>(h + 1) / kTwo32);
    EXPECT_FALSE(below.keeps(i));
    EXPECT_FALSE(at.keeps(i));
    EXPECT_TRUE(above.keeps(i));
    for (const std::uint32_t t : {h - 1, h, h + 1})
      out.push_back(static_cast<double>(t) / kTwo32);
  }
  return out;
}

TEST(VideoStore, NestedThinningMatchesThinnedCopies) {
  const CellGrid grid({{-1.0, -1.0, 0.0}, {1.0, 1.0, 2.0}}, 0.5);
  volcast::Rng rng(7);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const FrameSoA master = random_frame(1500 * seed, seed);
    const std::vector<CellId> ids = grid.locate_batch(master);
    // Unsorted, with a repeated fraction: the one-pass count must not
    // depend on tier order or distinct thresholds.
    std::vector<double> fractions = edge_fractions(master.size(), rng);
    fractions.push_back(rng.uniform(0.05, 0.95));
    fractions.push_back(fractions.back());
    std::vector<ThinRule> rules;
    for (const double fraction : fractions) rules.emplace_back(fraction);
    const auto rows = tier_occupancy(ids, rules, grid.cell_count());
    ASSERT_EQ(rows.size(), rules.size());
    for (std::size_t k = 0; k < fractions.size(); ++k) {
      const double fraction = fractions[k];
      const ThinRule rule(fraction);
      const FrameSoA thinned = thin(master, fraction);
      ASSERT_EQ(rows[k], grid.occupancy(thinned))
          << "seed " << seed << " fraction " << fraction;
      // The store's exact-frame bucketing of the master.
      const FlatAssignment kept = FlatAssignment::bucket(
          ids, rows[k], [rule](std::uint32_t i) { return rule.keeps(i); });
      const FlatAssignment flat = grid.assign_flat(thinned);
      for (CellId c = 0; c < grid.cell_count(); ++c) {
        const FrameSoA fused = master.gather(kept.cell(c));
        const FrameSoA copied = thinned.gather(flat.cell(c));
        ASSERT_EQ(fused, copied) << "seed " << seed << " cell " << c;
        EXPECT_EQ(fused.bounds().lo, copied.bounds().lo);
        EXPECT_EQ(fused.bounds().hi, copied.bounds().hi);
      }
    }
    // Nested: a point kept at one fraction is kept at every larger one.
    std::sort(fractions.begin(), fractions.end());
    for (std::size_t k = 0; k + 1 < fractions.size(); ++k) {
      const ThinRule rule(fractions[k]);
      const ThinRule larger(fractions[k + 1]);
      EXPECT_LE(rule, larger);
      for (std::uint32_t i = 0; i < master.size(); ++i)
        if (rule.keeps(i)) ASSERT_TRUE(larger.keeps(i)) << i;
    }
  }
}

TEST(VideoStore, RowsMatchThinnedOccupancy) {
  const VideoGenerator gen = small_generator();
  const CellGrid grid(gen.content_bounds(), 0.5);
  const VideoStoreConfig sc = scaled_tiers(true);
  const VideoStore store(gen, grid, sc);
  for (std::size_t f = 0; f < 2; ++f) {
    const FrameSoA master = gen.frame_soa(f);
    for (std::size_t q = 0; q < sc.tiers.size(); ++q) {
      const FrameSoA thinned =
          thin(master, static_cast<double>(sc.tiers[q].points_per_frame) /
                           20'000.0);
      const auto row = store.points(f, q);
      const auto expected = grid.occupancy(thinned);
      ASSERT_TRUE(std::equal(row.begin(), row.end(), expected.begin(),
                             expected.end()))
          << "frame " << f << " tier " << q;
      const FlatAssignment flat = grid.assign_flat(thinned);
      for (CellId c = 0; c < grid.cell_count(); ++c) {
        const auto indices = flat.cell(c);
        const std::size_t bytes =
            indices.empty() ? 0 : encode(thinned.gather(indices)).size();
        EXPECT_EQ(store.cell_bytes(f, q, c), bytes)
            << "frame " << f << " tier " << q << " cell " << c;
      }
    }
  }
}

TEST(VideoStore, PaperTiersAreDefault) {
  const auto tiers = paper_quality_tiers();
  ASSERT_EQ(tiers.size(), 3u);
  EXPECT_EQ(tiers[0].points_per_frame, 330'000u);
  EXPECT_EQ(tiers[1].points_per_frame, 430'000u);
  EXPECT_EQ(tiers[2].points_per_frame, 550'000u);
}

}  // namespace
}  // namespace volcast::vv
