#include "mmwave/codebook.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.h"
#include "mmwave/link_table.h"

namespace volcast::mmwave {
namespace {

PhasedArray room_array() {
  // AP on a wall looking into the room along +Y, tilted down slightly.
  const geo::Pose pose = geo::Pose::look_at({4, 0.1, 2.6}, {4, 3, 1.2});
  return PhasedArray({}, pose, kMmWaveCarrierHz);
}

/// Link-state rows of `targets` carrying `cb`'s sector gains.
LinkTable sector_rows(const PhasedArray& array, const Codebook& cb,
                      std::span<const geo::Vec3> targets) {
  return {array, &cb, Channel{Room{}}, BlockageModel{}, LinkBudget{},
          targets, {}};
}

std::size_t best_toward(const PhasedArray& array, const Codebook& cb,
                        const geo::Vec3& target) {
  return cb.best_beam_toward(sector_rows(array, cb, {&target, 1}).row(0));
}

std::size_t best_common(const PhasedArray& array, const Codebook& cb,
                        std::span<const geo::Vec3> targets) {
  std::vector<std::size_t> rows(targets.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return cb.best_common_beam(sector_rows(array, cb, targets), rows);
}

TEST(Codebook, SizeMatchesGrid) {
  const auto array = room_array();
  CodebookConfig config;
  config.az_steps = 13;
  config.el_steps = 3;
  const Codebook cb(array, config);
  EXPECT_EQ(cb.size(), 39u);
}

TEST(Codebook, RejectsDegenerateGrid) {
  const auto array = room_array();
  CodebookConfig config;
  config.az_steps = 0;
  EXPECT_THROW(Codebook(array, config), std::invalid_argument);
}

TEST(Codebook, BeamsArePowerNormalized) {
  const auto array = room_array();
  const Codebook cb(array);
  for (std::size_t i = 0; i < cb.size(); ++i) {
    double power = 0.0;
    for (const Complex& c : cb.beam(i)) power += std::norm(c);
    EXPECT_NEAR(power, 1.0, 1e-9) << "beam " << i;
  }
}

TEST(Codebook, SubarrayTaperZeroesEdgeElements) {
  const auto array = room_array();
  CodebookConfig config;
  config.subarray_ny = 6;
  config.subarray_nz = 3;
  const Codebook cb(array, config);
  // 32-element array, 18 active: at least 14 zero weights per beam.
  std::size_t zeros = 0;
  for (const Complex& c : cb.beam(0))
    if (std::norm(c) == 0.0) ++zeros;
  EXPECT_EQ(zeros, 32u - 18u);
}

TEST(Codebook, FullArrayOptionKeepsAllElements) {
  const auto array = room_array();
  CodebookConfig config;
  config.subarray_ny = 0;
  config.subarray_nz = 0;
  const Codebook cb(array, config);
  for (const Complex& c : cb.beam(0)) EXPECT_GT(std::norm(c), 0.0);
}

TEST(Codebook, BestBeamPointsNearTarget) {
  const auto array = room_array();
  const Codebook cb(array);
  const geo::Vec3 target{4.0, 3.0, 1.5};
  const std::size_t best = best_toward(array, cb, target);
  const double g_best =
      array.gain(cb.beam(best), target - array.pose().position);
  // The chosen sector must be within a few dB of the strongest entry and
  // clearly better than a random far sector.
  for (std::size_t i = 0; i < cb.size(); ++i) {
    EXPECT_GE(g_best + 1e-9,
              array.gain(cb.beam(i), target - array.pose().position));
  }
  EXPECT_GT(g_best, 1.0);
}

TEST(Codebook, DifferentTargetsPickDifferentSectors) {
  const auto array = room_array();
  const Codebook cb(array);
  const std::size_t left = best_toward(array, cb, {1.0, 3.0, 1.5});
  const std::size_t right = best_toward(array, cb, {7.0, 3.0, 1.5});
  EXPECT_NE(left, right);
}

TEST(Codebook, CommonBeamMaximizesWorstUser) {
  const auto array = room_array();
  const Codebook cb(array);
  const geo::Vec3 users[] = {{2.5, 3.0, 1.5}, {5.5, 3.0, 1.5}};
  const std::size_t common = best_common(array, cb, users);
  auto min_gain = [&](std::size_t beam) {
    double m = 1e18;
    for (const auto& u : users)
      m = std::min(m, array.gain(cb.beam(beam), u - array.pose().position));
    return m;
  };
  const double chosen = min_gain(common);
  for (std::size_t i = 0; i < cb.size(); ++i)
    EXPECT_GE(chosen + 1e-9, min_gain(i)) << "beam " << i;
}

TEST(Codebook, CommonBeamForSingleUserMatchesBestBeam) {
  const auto array = room_array();
  const Codebook cb(array);
  const geo::Vec3 user{3.0, 2.0, 1.5};
  const geo::Vec3 single[] = {user};
  EXPECT_EQ(best_common(array, cb, single),
            best_toward(array, cb, user));
}

TEST(Codebook, SeparatedUsersGetWorseCommonGainThanUnicast) {
  // The Fig. 3b effect: one sector cannot serve two separated users well.
  const auto array = room_array();
  const Codebook cb(array);
  const geo::Vec3 u1{1.5, 3.0, 1.5};
  const geo::Vec3 u2{6.5, 3.0, 1.5};
  const double unicast_gain =
      array.gain(cb.beam(best_toward(array, cb, u1)),
                 u1 - array.pose().position);
  const geo::Vec3 both[] = {u1, u2};
  const std::size_t common = best_common(array, cb, both);
  const double common_min =
      std::min(array.gain(cb.beam(common), u1 - array.pose().position),
               array.gain(cb.beam(common), u2 - array.pose().position));
  EXPECT_LT(common_min, unicast_gain * 0.25);
}

}  // namespace
}  // namespace volcast::mmwave
