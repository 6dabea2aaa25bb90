#include "core/multi_ap.h"

#include <gtest/gtest.h>

namespace volcast::core {
namespace {

MultiApCoordinator make(std::size_t count) {
  MultiApConfig config;
  config.ap_count = count;
  return MultiApCoordinator(TestbedConfig{}, config);
}

/// interference_factor for a victim of AP 0 at `victim`.
double interference(const MultiApCoordinator& coord, const geo::Vec3& victim,
                    double victim_rss_dbm,
                    std::span<const mmwave::Awv> beams) {
  return coord.interference_factor(coord.link_tables({&victim, 1}), 0, 0,
                                   victim_rss_dbm, beams);
}

TEST(MultiAp, RejectsBadCounts) {
  MultiApConfig zero;
  zero.ap_count = 0;
  EXPECT_THROW(MultiApCoordinator(TestbedConfig{}, zero),
               std::invalid_argument);
  MultiApConfig five;
  five.ap_count = 5;
  EXPECT_THROW(MultiApCoordinator(TestbedConfig{}, five),
               std::invalid_argument);
}

TEST(MultiAp, ApsMountedOnDistinctWalls) {
  const auto coord = make(4);
  EXPECT_EQ(coord.ap_count(), 4u);
  for (std::size_t a = 0; a < 4; ++a)
    for (std::size_t b = a + 1; b < 4; ++b)
      EXPECT_GT(coord.ap(a).ap().pose().position.distance(
                    coord.ap(b).ap().pose().position),
                2.0);
}

TEST(MultiAp, AssignsUsersToNearestStrongAp) {
  const auto coord = make(2);  // front (y=0.1) and back (y=5.9) walls
  const std::vector<geo::Vec3> positions{
      {4.0, 1.2, 1.5},  // near the front wall
      {4.0, 4.8, 1.5},  // near the back wall
  };
  const auto assignment =
      coord.assign_users(coord.link_tables(positions));
  ASSERT_EQ(assignment.size(), 2u);
  EXPECT_EQ(assignment[0], 0u);
  EXPECT_EQ(assignment[1], 1u);
}

TEST(MultiAp, SingleApAssignsEverythingToZero) {
  const auto coord = make(1);
  const std::vector<geo::Vec3> positions{{1, 1, 1.5}, {7, 5, 1.5}};
  for (auto a : coord.assign_users(coord.link_tables(positions)))
    EXPECT_EQ(a, 0u);
}

TEST(MultiAp, NoConcurrentBeamsNoInterference) {
  const auto coord = make(2);
  const std::vector<mmwave::Awv> idle(2);
  EXPECT_DOUBLE_EQ(
      interference(coord, {4.0, 1.0, 1.5}, -55.0, idle), 1.0);
}

TEST(MultiAp, StrongInterferenceDegradesOrKills) {
  const auto coord = make(2);
  // AP 1 (back wall) beams straight at a victim of AP 0.
  const geo::Vec3 victim{4.0, 3.0, 1.5};
  std::vector<mmwave::Awv> beams(2);
  beams[1] = coord.ap(1).ap().steer_at(victim);
  // Weak desired signal vs a beam pointed right at you: factor < 1.
  const double factor =
      interference(coord, victim, -60.0, beams);
  EXPECT_LT(factor, 1.0);
}

TEST(MultiAp, DirectionalityGivesSpatialReuse) {
  const auto coord = make(2);
  // AP 1 serves a user on the back side; a front-side victim keeps its
  // full rate thanks to directionality.
  const geo::Vec3 victim{4.0, 1.0, 1.5};
  std::vector<mmwave::Awv> beams(2);
  beams[1] = coord.ap(1).ap().steer_at({4.0, 5.0, 1.5});
  const double factor =
      interference(coord, victim, -50.0, beams);
  EXPECT_DOUBLE_EQ(factor, 1.0);
}

TEST(MultiAp, VictimApBeamIgnored) {
  const auto coord = make(2);
  const geo::Vec3 victim{4.0, 1.0, 1.5};
  std::vector<mmwave::Awv> beams(2);
  beams[0] = coord.ap(0).ap().steer_at(victim);  // its own serving beam
  EXPECT_DOUBLE_EQ(interference(coord, victim, -50.0, beams), 1.0);
}

}  // namespace
}  // namespace volcast::core
