#include "pointcloud/video_generator.h"

#include <gtest/gtest.h>

namespace volcast::vv {
namespace {

VideoConfig small_config() {
  VideoConfig c;
  c.points_per_frame = 10'000;
  c.frame_count = 30;
  return c;
}

TEST(VideoGenerator, ExactPointBudget) {
  const VideoGenerator gen(small_config());
  EXPECT_EQ(gen.frame_soa(0).size(), 10'000u);
  EXPECT_EQ(gen.frame_soa(7).size(), 10'000u);
}

TEST(VideoGenerator, DeterministicPerIndex) {
  const VideoGenerator a(small_config());
  const VideoGenerator b(small_config());
  const auto fa = a.frame_soa(5);
  const auto fb = b.frame_soa(5);
  EXPECT_TRUE(fa == fb);
}

TEST(VideoGenerator, SeedChangesSampling) {
  VideoConfig c1 = small_config();
  VideoConfig c2 = small_config();
  c2.seed = 999;
  const auto f1 = VideoGenerator(c1).frame_soa(0);
  const auto f2 = VideoGenerator(c2).frame_soa(0);
  int differing = 0;
  for (std::size_t i = 0; i < f1.size(); i += 100)
    if (!(f1.position(i) == f2.position(i))) ++differing;
  EXPECT_GT(differing, 50);
}

TEST(VideoGenerator, FramesStayInsideContentBounds) {
  const VideoGenerator gen(small_config());
  const auto bounds = gen.content_bounds();
  for (std::size_t f = 0; f < 30; f += 5) {
    // Bind the frame: ranging over a temporary's member dangles (the
    // temporary dies before the loop body runs).
    const FrameSoA frame = gen.frame_soa(f);
    for (std::size_t i = 0; i < frame.size(); ++i)
      EXPECT_TRUE(bounds.contains(frame.position(i)));
  }
}

TEST(VideoGenerator, AnimationMovesPoints) {
  const VideoGenerator gen(small_config());
  const auto f0 = gen.frame_soa(0);
  const auto f10 = gen.frame_soa(10);
  double total_motion = 0.0;
  for (std::size_t i = 0; i < f0.size(); i += 50)
    total_motion += f0.position(i).distance(f10.position(i));
  EXPECT_GT(total_motion, 1.0);  // limbs swing
}

TEST(VideoGenerator, TemporalCoherenceBetweenAdjacentFrames) {
  const VideoGenerator gen(small_config());
  const auto f0 = gen.frame_soa(0);
  const auto f1 = gen.frame_soa(1);
  for (std::size_t i = 0; i < f0.size(); i += 111) {
    EXPECT_LT(f0.position(i).distance(f1.position(i)), 0.15)
        << "point " << i << " teleported between adjacent frames";
  }
}

TEST(VideoGenerator, LoopsModuloFrameCount) {
  const VideoGenerator gen(small_config());
  const auto f2 = gen.frame_soa(2);
  const auto f32 = gen.frame_soa(32);  // 32 % 30 == 2
  EXPECT_TRUE(f2 == f32);
}

TEST(VideoGenerator, ContentCenterInsideBounds) {
  const VideoGenerator gen(small_config());
  EXPECT_TRUE(gen.content_bounds().contains(gen.content_center()));
}

TEST(VideoGenerator, HumanlikeVerticalExtent) {
  const VideoGenerator gen(small_config());
  const auto bounds = gen.frame_soa(0).bounds();
  EXPECT_GT(bounds.hi.z - bounds.lo.z, 1.4);  // roughly person-sized
  EXPECT_LT(bounds.hi.z - bounds.lo.z, 2.0);
}

TEST(Thin, FractionOneIsIdentity) {
  const VideoGenerator gen(small_config());
  const auto frame = gen.frame_soa(0);
  EXPECT_EQ(thin(frame, 1.0).size(), frame.size());
  EXPECT_EQ(thin(frame, 2.0).size(), frame.size());
}

TEST(Thin, FractionZeroIsEmpty) {
  const VideoGenerator gen(small_config());
  EXPECT_TRUE(thin(gen.frame_soa(0), 0.0).empty());
  EXPECT_TRUE(thin(gen.frame_soa(0), -1.0).empty());
}

TEST(Thin, ApproximatesRequestedFraction) {
  const VideoGenerator gen(small_config());
  const auto frame = gen.frame_soa(0);
  for (double f : {0.25, 0.5, 0.6, 0.78}) {
    const auto thinned = thin(frame, f);
    const double actual =
        static_cast<double>(thinned.size()) / static_cast<double>(frame.size());
    EXPECT_NEAR(actual, f, 0.03) << "fraction " << f;
  }
}

TEST(Thin, DeterministicAndNested) {
  // Thinning is index-hash based: thinning to 0.3 keeps a subset of the
  // points kept at 0.6 (nested levels of detail).
  const VideoGenerator gen(small_config());
  const auto frame = gen.frame_soa(0);
  const auto t1 = thin(frame, 0.6);
  const auto t2 = thin(frame, 0.6);
  EXPECT_TRUE(t1 == t2);
}

TEST(Thin, PreservesSpatialCoverage) {
  // The thinned frame must still span the figure (uniform thinning).
  const VideoGenerator gen(small_config());
  const auto frame = gen.frame_soa(0);
  const auto thinned = thin(frame, 0.3);
  const auto full_bounds = frame.bounds();
  const auto thin_bounds = thinned.bounds();
  EXPECT_LT(full_bounds.hi.z - thin_bounds.hi.z, 0.1);
  EXPECT_LT(thin_bounds.lo.z - full_bounds.lo.z, 0.1);
}

}  // namespace
}  // namespace volcast::vv
