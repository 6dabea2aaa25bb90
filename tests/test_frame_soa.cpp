// FrameSoA suite: the frame container itself (state, bounds, columns,
// from_columns, gather) plus the end-to-end pins that the column pipeline
// reproduces the committed session goldens and stays bit-identical at every
// thread count (worker_threads 1/4, parallel_sessions 1/8).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/fleet.h"
#include "pointcloud/point_cloud.h"
#include "session_compare.h"
#include "session_golden.h"

#ifndef VOLCAST_GOLDEN_DIR
#error "VOLCAST_GOLDEN_DIR must point at tests/golden"
#endif

namespace volcast::vv {
namespace {

/// Bit-level double equality: NaN-safe and distinguishes -0.0 from 0.0,
/// which is exactly the strength of guarantee the columns claim.
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

::testing::AssertionResult bounds_bits_equal(const geo::Aabb& a,
                                             const geo::Aabb& b) {
  for (const auto& [x, y] :
       {std::pair{a.lo.x, b.lo.x}, std::pair{a.lo.y, b.lo.y},
        std::pair{a.lo.z, b.lo.z}, std::pair{a.hi.x, b.hi.x},
        std::pair{a.hi.y, b.hi.y}, std::pair{a.hi.z, b.hi.z}}) {
    ::testing::AssertionResult result = bits_equal(x, y);
    if (!result) return result;
  }
  return ::testing::AssertionSuccess();
}

struct Sample {
  geo::Vec3 position;
  std::uint8_t r, g, b;
};

std::vector<Sample> random_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Sample> out(n);
  for (Sample& s : out) {
    s.position = {rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0),
                  rng.uniform(-10.0, 10.0)};
    s.r = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    s.g = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    s.b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return out;
}

FrameSoA frame_of(const std::vector<Sample>& samples) {
  FrameSoA frame;
  frame.reserve(samples.size());
  for (const Sample& s : samples) frame.push_back(s.position, s.r, s.g, s.b);
  return frame;
}

TEST(FrameSoARoundTrip, ExactAcrossSizesSweep) {
  // push_back -> columns is exact: every double and color byte comes back
  // bit for bit, in order, and the maintained bounds equal a fresh scan.
  for (const std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{17},
                              std::size_t{256}, std::size_t{1000},
                              std::size_t{4096}}) {
    const std::vector<Sample> samples = random_samples(n, 0xABCD00 + n);
    const FrameSoA frame = frame_of(samples);
    ASSERT_EQ(frame.size(), n);
    geo::Aabb scan;
    for (std::size_t i = 0; i < n; ++i) {
      const Sample& s = samples[i];
      EXPECT_TRUE(bits_equal(frame.xs()[i], s.position.x));
      EXPECT_TRUE(bits_equal(frame.ys()[i], s.position.y));
      EXPECT_TRUE(bits_equal(frame.zs()[i], s.position.z));
      EXPECT_EQ(frame.rgb()[3 * i], s.r);
      EXPECT_EQ(frame.rgb()[3 * i + 1], s.g);
      EXPECT_EQ(frame.rgb()[3 * i + 2], s.b);
      scan.expand(s.position);
    }
    EXPECT_TRUE(bounds_bits_equal(frame.bounds(), scan));
    EXPECT_EQ(frame.raw_size_bytes(), 15 * n);
  }
}

TEST(FrameSoARoundTrip, EmptyFrame) {
  const FrameSoA frame = FrameSoA::from_columns({}, {}, {}, {});
  EXPECT_TRUE(frame.empty());
  EXPECT_EQ(frame.size(), 0u);
  EXPECT_TRUE(frame == FrameSoA{});
  EXPECT_FALSE(frame.bounds().valid());
}

TEST(FrameSoARoundTrip, SinglePointFrame) {
  FrameSoA frame;
  frame.push_back({-1.5, 0.0, 2.25}, 7, 8, 9);
  ASSERT_EQ(frame.size(), 1u);
  EXPECT_TRUE(bits_equal(frame.xs()[0], -1.5));
  EXPECT_TRUE(bits_equal(frame.ys()[0], 0.0));
  EXPECT_TRUE(bits_equal(frame.zs()[0], 2.25));
  EXPECT_EQ(frame.rgb()[0], 7);
  EXPECT_EQ(frame.rgb()[1], 8);
  EXPECT_EQ(frame.rgb()[2], 9);
  // A single point is its own bounding box.
  EXPECT_TRUE(bounds_bits_equal(frame.bounds(),
                                {frame.position(0), frame.position(0)}));
}

// The point-cloud container state of point_cloud.h's frame type.
TEST(PointCloud, EmptyState) {
  const FrameSoA frame;
  EXPECT_TRUE(frame.empty());
  EXPECT_EQ(frame.size(), 0u);
  EXPECT_FALSE(frame.bounds().valid());
  EXPECT_EQ(frame.raw_size_bytes(), 0u);
}

TEST(FrameSoA, PushBackAndBounds) {
  FrameSoA frame;
  frame.push_back({1, 2, 3}, 255, 0, 0);
  frame.push_back({-1, 0, 5}, 0, 255, 0);
  EXPECT_EQ(frame.size(), 2u);
  EXPECT_EQ(frame.bounds().lo, geo::Vec3(-1, 0, 3));
  EXPECT_EQ(frame.bounds().hi, geo::Vec3(1, 2, 5));
}

TEST(FrameSoA, RawSizeIs15BytesPerPoint) {
  FrameSoA frame;
  for (int i = 0; i < 10; ++i) frame.push_back({}, 0, 0, 0);
  EXPECT_EQ(frame.raw_size_bytes(), 150u);
}

TEST(FrameSoA, ClearEmptiesAndResetsBounds) {
  FrameSoA frame;
  frame.push_back({1, 2, 3}, 4, 5, 6);
  frame.push_back({-1, 0, 5}, 7, 8, 9);
  ASSERT_TRUE(frame.bounds().valid());
  frame.clear();
  EXPECT_TRUE(frame.empty());
  EXPECT_TRUE(frame.rgb().empty());
  EXPECT_FALSE(frame.bounds().valid());
  // The next push starts a fresh box, not one grown from the old points.
  frame.push_back({10, 10, 10}, 0, 0, 0);
  EXPECT_EQ(frame.bounds().lo, geo::Vec3(10, 10, 10));
  EXPECT_EQ(frame.bounds().hi, geo::Vec3(10, 10, 10));
}

TEST(FrameSoAColumns, FromColumnsMatchesPushBack) {
  const FrameSoA pushed = frame_of(random_samples(137, 42));
  FrameSoA adopted = FrameSoA::from_columns(
      {pushed.xs().begin(), pushed.xs().end()},
      {pushed.ys().begin(), pushed.ys().end()},
      {pushed.zs().begin(), pushed.zs().end()},
      {pushed.rgb().begin(), pushed.rgb().end()});
  EXPECT_TRUE(adopted == pushed);
  EXPECT_TRUE(bounds_bits_equal(adopted.bounds(), pushed.bounds()));
}

TEST(FrameSoAColumns, FromColumnsRejectsMismatchedLengths) {
  EXPECT_THROW(FrameSoA::from_columns({1.0, 2.0}, {1.0}, {1.0, 2.0},
                                      std::vector<std::uint8_t>(6)),
               std::invalid_argument);
  EXPECT_THROW(FrameSoA::from_columns({1.0}, {1.0}, {1.0},
                                      std::vector<std::uint8_t>(2)),
               std::invalid_argument);
}

TEST(FrameSoAColumns, GatherMatchesIndexedCopy) {
  const FrameSoA frame = frame_of(random_samples(64, 99));
  const std::vector<std::uint32_t> indices{3, 3, 0, 63, 17};
  const FrameSoA sub = frame.gather(indices);
  ASSERT_EQ(sub.size(), indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::uint32_t i = indices[k];
    EXPECT_TRUE(bits_equal(sub.xs()[k], frame.position(i).x));
    EXPECT_TRUE(bits_equal(sub.ys()[k], frame.position(i).y));
    EXPECT_TRUE(bits_equal(sub.zs()[k], frame.position(i).z));
    EXPECT_EQ(sub.rgb()[3 * k], frame.rgb()[3 * i]);
    EXPECT_EQ(sub.rgb()[3 * k + 1], frame.rgb()[3 * i + 1]);
    EXPECT_EQ(sub.rgb()[3 * k + 2], frame.rgb()[3 * i + 2]);
  }
}

}  // namespace
}  // namespace volcast::vv

namespace volcast::core {
namespace {

/// name -> serialized block of the committed pre-refactor golden file.
std::map<std::string, std::string> load_goldens() {
  const std::string path =
      std::string(VOLCAST_GOLDEN_DIR) + "/session_results.golden";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::map<std::string, std::string> blocks;
  std::string line;
  while (std::getline(in, line)) {
    const auto dot = line.find('.');
    if (dot == std::string::npos) continue;
    blocks[line.substr(0, dot)] += line + '\n';
  }
  return blocks;
}

TEST(FrameSoASession, SoABuiltSessionMatchesPreRefactorGolden) {
  // Spot-check of the bit-equality bar at both worker thread counts: the
  // full ablation matrix runs in the dedicated equivalence suite; here the
  // default and chaos cases prove the SoA-built store/visibility pipeline
  // reproduces the pre-refactor bytes.
  const auto goldens = load_goldens();
  ASSERT_FALSE(goldens.empty());
  for (const GoldenCase& c : golden_matrix()) {
    if (c.name != "default" && c.name != "chaos") continue;
    const auto it = goldens.find(c.name);
    ASSERT_NE(it, goldens.end()) << "no golden block for case " << c.name;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SessionConfig config = c.config;
      config.worker_threads = threads;
      Session session(config);
      EXPECT_EQ(serialize_result(c.name, session.run()), it->second)
          << "case " << c.name << " threads " << threads;
    }
  }
}

TEST(FrameSoAFleet, BitIdenticalAtParallelSessions1And8) {
  FleetConfig fc;
  fc.session.user_count = 2;
  fc.session.duration_s = 1.0;
  fc.session.master_points = 30'000;
  fc.session.video_frames = 20;
  fc.session.worker_threads = 1;
  fc.sessions = 8;

  fc.parallel_sessions = 1;
  const FleetResult serial = run_fleet(fc);
  fc.parallel_sessions = 8;
  const FleetResult parallel = run_fleet(fc);

  ASSERT_EQ(serial.sessions.size(), 8u);
  ASSERT_EQ(parallel.sessions.size(), 8u);
  for (std::size_t k = 0; k < 8; ++k)
    expect_identical(serial.sessions[k], parallel.sessions[k]);
}

}  // namespace
}  // namespace volcast::core
