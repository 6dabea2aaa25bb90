#include "pointcloud/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "pointcloud/octree_codec.h"
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

/// Multiset of quantized (position, color) tuples, for order-free
/// comparison after decode.
std::multiset<std::tuple<long, long, long, int, int, int>> quantized_multiset(
    const FrameSoA& frame, double step) {
  std::multiset<std::tuple<long, long, long, int, int, int>> out;
  const auto rgb = frame.rgb();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const geo::Vec3 p = frame.position(i);
    out.insert({std::lround(p.x / step), std::lround(p.y / step),
                std::lround(p.z / step), rgb[3 * i], rgb[3 * i + 1],
                rgb[3 * i + 2]});
  }
  return out;
}

TEST(Codec, EmptyCloudRoundTrips) {
  const FrameSoA empty;
  const auto blob = encode(empty);
  EXPECT_EQ(blob.size(), kCodecHeaderBytes);
  const FrameSoA back = decode_soa(blob);
  EXPECT_TRUE(back.empty());
}

TEST(Codec, SinglePointRoundTrips) {
  FrameSoA frame;
  frame.push_back({0.5, -0.25, 1.0}, 10, 20, 30);
  const FrameSoA back = decode_soa(encode(frame));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_NEAR(back.xs()[0], 0.5, 1e-9);
  EXPECT_EQ(back.rgb()[0], 10);
  EXPECT_EQ(back.rgb()[1], 20);
  EXPECT_EQ(back.rgb()[2], 30);
}

TEST(Codec, PreservesPointCount) {
  const FrameSoA frame = random_frame(5000, 1);
  EXPECT_EQ(decode_soa(encode(frame)).size(), 5000u);
}

TEST(Codec, PositionErrorBoundedByResolution) {
  const FrameSoA frame = random_frame(2000, 2);
  CodecConfig config;
  config.resolution_m = 0.002;
  const FrameSoA back = decode_soa(encode(frame, config));
  // Match nearest by sorting both multisets in a canonical order is
  // overkill; instead verify every decoded point is within the resolution
  // of the frame bounds and colors survive exactly (delta coding is
  // lossless).
  const auto bounds = frame.bounds().padded(0.002);
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_TRUE(bounds.contains(back.position(i)));
  }
}

TEST(Codec, LosslessInQuantizedDomain) {
  // Encoding an already-quantized frame is exactly lossless: decode ->
  // re-encode -> decode must be a fixed point.
  const FrameSoA frame = random_frame(3000, 3);
  const FrameSoA once = decode_soa(encode(frame));
  const auto blob2 = encode(once);
  const FrameSoA twice = decode_soa(blob2);
  ASSERT_EQ(once.size(), twice.size());
  const auto a = quantized_multiset(once, 1e-6);
  const auto b = quantized_multiset(twice, 1e-6);
  EXPECT_EQ(a, b);
}

TEST(Codec, ColorsSurviveExactly) {
  FrameSoA frame;
  volcast::Rng rng(4);
  std::multiset<std::tuple<int, int, int>> colors_in;
  for (int i = 0; i < 1000; ++i) {
    const auto r = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto g = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const geo::Vec3 p{rng.uniform(), rng.uniform(), rng.uniform()};
    frame.push_back(p, r, g, b);
    colors_in.insert({r, g, b});
  }
  const FrameSoA back = decode_soa(encode(frame));
  std::multiset<std::tuple<int, int, int>> colors_out;
  const auto rgb = back.rgb();
  for (std::size_t i = 0; i < back.size(); ++i)
    colors_out.insert({rgb[3 * i], rgb[3 * i + 1], rgb[3 * i + 2]});
  EXPECT_EQ(colors_in, colors_out);
}

TEST(Codec, NoColorModeReconstructsGrey) {
  FrameSoA frame;
  frame.push_back({0, 0, 0}, 200, 10, 99);
  frame.push_back({1, 1, 1}, 5, 5, 5);
  CodecConfig config;
  config.encode_colors = false;
  const FrameSoA back = decode_soa(encode(frame, config));
  ASSERT_EQ(back.size(), 2u);
  for (const std::uint8_t c : back.rgb()) EXPECT_EQ(c, 128);
}

TEST(Codec, CompressesWellBelowRaw) {
  VideoConfig vc;
  vc.points_per_frame = 50'000;
  vc.frame_count = 2;
  const VideoGenerator gen(vc);
  const FrameSoA frame = gen.frame_soa(0);
  const auto blob = encode(frame);
  EXPECT_LT(blob.size(), frame.raw_size_bytes() / 3);
}

TEST(Codec, RealisticContentHitsPaperBitrateRegime) {
  // The paper's implied budget is ~20-26 bits/point; our figure content
  // must land in that band or Table 1's bitrates drift.
  VideoConfig vc;
  vc.points_per_frame = 100'000;
  vc.frame_count = 2;
  const VideoGenerator gen(vc);
  const FrameSoA frame = gen.frame_soa(0);
  const auto blob = encode(frame);
  const double bits_per_point =
      8.0 * static_cast<double>(blob.size()) /
      static_cast<double>(frame.size());
  EXPECT_GT(bits_per_point, 15.0);
  EXPECT_LT(bits_per_point, 32.0);
}

TEST(Codec, InvalidQuantBitsThrows) {
  CodecConfig config;
  config.resolution_m = 0.0;
  config.quant_bits = 0;
  EXPECT_THROW((void)encode(FrameSoA{}, config), std::invalid_argument);
  config.quant_bits = 22;
  EXPECT_THROW((void)encode(FrameSoA{}, config), std::invalid_argument);
}

TEST(Codec, MalformedHeaderThrows) {
  std::vector<std::uint8_t> junk(kCodecHeaderBytes, 0xab);
  EXPECT_THROW((void)decode_soa(junk), std::runtime_error);
  EXPECT_THROW((void)decode_soa(std::vector<std::uint8_t>{1, 2, 3}),
               std::runtime_error);
}

TEST(Codec, DegeneratePlanarCloudRoundTrips) {
  // All points in a plane (zero extent along z).
  FrameSoA frame;
  volcast::Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const geo::Vec3 p{rng.uniform(), rng.uniform(), 0.7};
    frame.push_back(p, 1, 2, 3);
  }
  const FrameSoA back = decode_soa(encode(frame));
  ASSERT_EQ(back.size(), 500u);
  for (const double z : back.zs()) EXPECT_NEAR(z, 0.7, 1e-9);
}

TEST(Codec, DuplicatePointsPreserved) {
  FrameSoA frame;
  for (int i = 0; i < 64; ++i) frame.push_back({0.25, 0.25, 0.25}, 9, 9, 9);
  EXPECT_EQ(decode_soa(encode(frame)).size(), 64u);
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(CodecDigest, EncodedBytesArePinned) {
  // The byte-identity reference for both codecs: any change to
  // quantization, Morton ordering, the range coder or the octree walk moves
  // one of these digests.
  VideoConfig vc;
  vc.points_per_frame = 20'000;
  vc.frame_count = 1;
  const FrameSoA frame = thin(VideoGenerator(vc).frame_soa(0), 0.6);
  ASSERT_EQ(frame.size(), 12'001u);

  CodecConfig no_colors;
  no_colors.encode_colors = false;
  OctreeCodecConfig octree_no_colors;
  octree_no_colors.encode_colors = false;

  EXPECT_EQ(fnv1a64(encode(frame)), 0x68d0e2d8e6b1c832ULL);
  EXPECT_EQ(fnv1a64(encode(frame, no_colors)), 0x8d81e5fb72dedf6aULL);
  EXPECT_EQ(fnv1a64(octree_encode(frame, {.depth = 10})),
            0x8269c7af2934b791ULL);
  EXPECT_EQ(fnv1a64(octree_encode(frame, octree_no_colors)),
            0x5bc6094e72e3ff87ULL);
}

class CodecSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecSizeSweep, RoundTripsAtAnySize) {
  const FrameSoA frame = random_frame(GetParam(), 42 + GetParam());
  const FrameSoA back = decode_soa(encode(frame));
  EXPECT_EQ(back.size(), frame.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, CodecSizeSweep,
                         ::testing::Values(1, 2, 3, 10, 100, 1000, 10'000));

class CodecResolutionSweep : public ::testing::TestWithParam<double> {};

TEST_P(CodecResolutionSweep, FinerResolutionCostsMoreBits) {
  const FrameSoA frame = random_frame(5000, 11);
  CodecConfig coarse;
  coarse.resolution_m = GetParam() * 2.0;
  CodecConfig fine;
  fine.resolution_m = GetParam();
  EXPECT_LE(encode(frame, coarse).size(), encode(frame, fine).size());
}

INSTANTIATE_TEST_SUITE_P(Resolutions, CodecResolutionSweep,
                         ::testing::Values(0.0005, 0.001, 0.002, 0.004));

}  // namespace
}  // namespace volcast::vv
