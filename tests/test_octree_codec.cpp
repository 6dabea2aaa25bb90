#include "pointcloud/octree_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "pointcloud/codec.h"
#include "pointcloud/video_generator.h"

namespace volcast::vv {
namespace {

FrameSoA random_frame(std::size_t n, std::uint64_t seed) {
  volcast::Rng rng(seed);
  FrameSoA frame;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec3 p{rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(0, 2)};
    const auto r = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto g = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    frame.push_back(p, r, g, b);
  }
  return frame;
}

TEST(OctreeCodec, EmptyCloudRoundTrips) {
  const auto blob = octree_encode(FrameSoA{});
  EXPECT_TRUE(octree_decode(blob).empty());
  EXPECT_EQ(octree_voxel_count(blob), 0u);
}

TEST(OctreeCodec, SinglePointAtVoxelCenter) {
  FrameSoA frame;
  frame.push_back({0.5, 0.25, 1.0}, 10, 20, 30);
  const FrameSoA back = octree_decode(octree_encode(frame));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.rgb()[0], 10);
  EXPECT_EQ(back.rgb()[1], 20);
  EXPECT_EQ(back.rgb()[2], 30);
}

TEST(OctreeCodec, EveryDecodedVoxelNearAnInputPoint) {
  // Geometry-fidelity property: each decoded voxel center lies within one
  // voxel diagonal of some input point (no phantom geometry).
  const FrameSoA frame = random_frame(1500, 1);
  OctreeCodecConfig config;
  config.depth = 8;
  const FrameSoA back = octree_decode(octree_encode(frame, config));
  const geo::Vec3 extent = frame.bounds().extent();
  const double span = std::max({extent.x, extent.y, extent.z});
  const double voxel_diag = std::sqrt(3.0) * span / 256.0;
  for (std::size_t v = 0; v < back.size(); ++v) {
    double best = 1e18;
    for (std::size_t p = 0; p < frame.size(); ++p)
      best = std::min(best, back.position(v).distance(frame.position(p)));
    ASSERT_LE(best, voxel_diag);
  }
}

TEST(OctreeCodec, DuplicatePointsCollapseToOneVoxel) {
  FrameSoA frame;
  for (int i = 0; i < 50; ++i) frame.push_back({0.1, 0.1, 0.1}, 100, 100, 100);
  frame.push_back({0.9, 0.9, 0.9}, 1, 2, 3);
  const auto blob = octree_encode(frame);
  EXPECT_EQ(octree_voxel_count(blob), 2u);
  EXPECT_EQ(octree_decode(blob).size(), 2u);
}

TEST(OctreeCodec, PositionErrorBoundedByVoxelSize) {
  const FrameSoA frame = random_frame(1000, 2);
  OctreeCodecConfig config;
  config.depth = 10;
  const FrameSoA back = octree_decode(octree_encode(frame, config));
  // Every decoded voxel center lies within half a voxel of the input
  // bounds (centers sit at (q + 0.5) * step).
  const geo::Vec3 extent = frame.bounds().extent();
  const double span = std::max({extent.x, extent.y, extent.z});
  const auto bounds = frame.bounds().padded(span / 1024.0);
  for (std::size_t i = 0; i < back.size(); ++i)
    EXPECT_TRUE(bounds.contains(back.position(i)));
}

TEST(OctreeCodec, ColorsAveragedWithinVoxel) {
  FrameSoA frame;
  frame.push_back({0.2, 0.2, 0.2}, 100, 0, 0);
  frame.push_back({0.2, 0.2, 0.2}, 200, 0, 0);
  frame.push_back({0.8, 0.8, 0.8}, 0, 50, 0);
  const FrameSoA back = octree_decode(octree_encode(frame));
  ASSERT_EQ(back.size(), 2u);
  bool found_average = false;
  for (std::size_t i = 0; i < back.size(); ++i)
    if (back.rgb()[3 * i] == 150) found_average = true;
  EXPECT_TRUE(found_average);
}

TEST(OctreeCodec, NoColorModeGrey) {
  FrameSoA frame;
  frame.push_back({0.1, 0.2, 0.3}, 9, 9, 9);
  OctreeCodecConfig config;
  config.encode_colors = false;
  const FrameSoA back = octree_decode(octree_encode(frame, config));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.rgb()[0], 128);
}

TEST(OctreeCodec, RejectsBadDepth) {
  OctreeCodecConfig config;
  config.depth = 0;
  EXPECT_THROW((void)octree_encode(FrameSoA{}, config),
               std::invalid_argument);
  config.depth = 17;
  EXPECT_THROW((void)octree_encode(FrameSoA{}, config),
               std::invalid_argument);
}

TEST(OctreeCodec, RejectsMalformedHeader) {
  EXPECT_THROW((void)octree_decode(std::vector<std::uint8_t>(10, 0)),
               std::runtime_error);
  std::vector<std::uint8_t> junk(64, 0xcd);
  EXPECT_THROW((void)octree_decode(junk), std::runtime_error);
  EXPECT_THROW((void)octree_voxel_count(junk), std::runtime_error);
}

TEST(OctreeCodec, CompressesRealContentWell) {
  VideoConfig vc;
  vc.points_per_frame = 60'000;
  vc.frame_count = 2;
  const VideoGenerator gen(vc);
  const FrameSoA frame = gen.frame_soa(0);
  const auto blob = octree_encode(frame);
  const std::size_t voxels = octree_voxel_count(blob);
  const double bits_per_voxel =
      8.0 * static_cast<double>(blob.size()) / static_cast<double>(voxels);
  EXPECT_LT(bits_per_voxel, 32.0);
  EXPECT_GT(bits_per_voxel, 4.0);
}

TEST(OctreeCodec, ComparableToMortonDeltaCodec) {
  // The two pipelines compress the same content within ~2x of each other —
  // a sanity check that both are in the realistic PCC regime.
  VideoConfig vc;
  vc.points_per_frame = 40'000;
  vc.frame_count = 2;
  const VideoGenerator gen(vc);
  const FrameSoA frame = gen.frame_soa(0);
  const auto octree_blob = octree_encode(frame);
  const auto morton_blob = encode(frame);
  const double ratio = static_cast<double>(octree_blob.size()) /
                       static_cast<double>(morton_blob.size());
  EXPECT_GT(ratio, 0.3);
  EXPECT_LT(ratio, 2.5);
}

class OctreeDepthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(OctreeDepthSweep, RoundTripsAtAnyDepth) {
  const FrameSoA frame = random_frame(2000, 7);
  OctreeCodecConfig config;
  config.depth = GetParam();
  const auto blob = octree_encode(frame, config);
  const FrameSoA back = octree_decode(blob);
  EXPECT_EQ(back.size(), octree_voxel_count(blob));
  EXPECT_GT(back.size(), 0u);
  // Coarser trees merge more voxels.
  EXPECT_LE(back.size(), frame.size());
}

INSTANTIATE_TEST_SUITE_P(Depths, OctreeDepthSweep,
                         ::testing::Values(1u, 4u, 8u, 10u, 12u, 16u));

TEST(OctreeCodec, DeeperTreesKeepMoreVoxels) {
  const FrameSoA frame = random_frame(5000, 9);
  std::size_t last = 0;
  for (unsigned depth : {4u, 6u, 8u, 10u}) {
    OctreeCodecConfig config;
    config.depth = depth;
    const std::size_t voxels = octree_voxel_count(octree_encode(frame, config));
    EXPECT_GE(voxels, last);
    last = voxels;
  }
}

}  // namespace
}  // namespace volcast::vv
