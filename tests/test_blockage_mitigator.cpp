#include "core/blockage_mitigator.h"

#include <gtest/gtest.h>

#include "core/stages/mitigation_stage.h"
#include "core/stages/session_state.h"
#include "core/stages/tick_context.h"

namespace volcast::core {
namespace {

struct Fixture {
  Testbed testbed;
  BeamDesigner designer{testbed};

  [[nodiscard]] std::vector<geo::Pose> two_users() const {
    std::vector<geo::Pose> poses;
    poses.push_back(geo::Pose::look_at(testbed.to_room({2.0, 0.0, 1.5}),
                                       testbed.to_room({0, 0, 1.1})));
    poses.push_back(geo::Pose::look_at(testbed.to_room({2.0, 1.0, 1.5}),
                                       testbed.to_room({0, 0, 1.1})));
    return poses;
  }
};

view::BlockageForecast forecast(std::size_t user, std::size_t blocker) {
  return {user, blocker, 0.05};
}

TEST(Mitigator, NoForecastsNoActions) {
  Fixture f;
  const BlockageMitigator m(f.testbed, f.designer);
  const auto poses = f.two_users();
  const double rss[] = {-55.0, -55.0};
  EXPECT_TRUE(m.plan({}, poses, rss).empty());
}

TEST(Mitigator, ForecastYieldsPrefetch) {
  Fixture f;
  const BlockageMitigator m(f.testbed, f.designer);
  const auto poses = f.two_users();
  const double rss[] = {-55.0, -55.0};
  const view::BlockageForecast fc[] = {forecast(0, 1)};
  const auto actions = m.plan(fc, poses, rss);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].user, 0u);
  EXPECT_GT(actions[0].extra_prefetch_frames, 0u);
}

TEST(Mitigator, ReflectionBeamWhenItBeatsBlockedLos) {
  Fixture f;
  MitigatorConfig config;
  config.min_reflection_gain_db = 0.0;
  const BlockageMitigator m(f.testbed, f.designer, config);
  const auto poses = f.two_users();
  // Realistic current RSS: blocked estimate = rss - 20 dB; a wall bounce
  // (~ -15 dB below LoS) beats it.
  const double rss[] = {-62.0, -62.0};
  const view::BlockageForecast fc[] = {forecast(0, 1)};
  const auto actions = m.plan(fc, poses, rss);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_TRUE(actions[0].use_reflection_beam);
  EXPECT_FALSE(actions[0].reflection_awv.empty());
  EXPECT_GT(actions[0].reflection_rate_mbps, 0.0);
}

TEST(Mitigator, NoBeamSwitchWhenReflectionTooWeak) {
  Fixture f;
  MitigatorConfig config;
  config.min_reflection_gain_db = 60.0;  // impossible bar
  const BlockageMitigator m(f.testbed, f.designer, config);
  const auto poses = f.two_users();
  const double rss[] = {-50.0, -50.0};
  const view::BlockageForecast fc[] = {forecast(0, 1)};
  const auto actions = m.plan(fc, poses, rss);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_FALSE(actions[0].use_reflection_beam);
}

TEST(Mitigator, DisabledFeaturesYieldNothing) {
  Fixture f;
  MitigatorConfig config;
  config.enable_prefetch = false;
  config.enable_beam_switch = false;
  const BlockageMitigator m(f.testbed, f.designer, config);
  const auto poses = f.two_users();
  const double rss[] = {-50.0, -50.0};
  const view::BlockageForecast fc[] = {forecast(0, 1)};
  EXPECT_TRUE(m.plan(fc, poses, rss).empty());
}

TEST(Mitigator, DuplicateForecastsHandledOnce) {
  Fixture f;
  const BlockageMitigator m(f.testbed, f.designer);
  const auto poses = f.two_users();
  const double rss[] = {-55.0, -55.0};
  const view::BlockageForecast fc[] = {forecast(0, 1), forecast(0, 1)};
  EXPECT_EQ(m.plan(fc, poses, rss).size(), 1u);
}

TEST(Mitigator, OutOfRangeUserIgnored) {
  Fixture f;
  const BlockageMitigator m(f.testbed, f.designer);
  const auto poses = f.two_users();
  const double rss[] = {-55.0, -55.0};
  const view::BlockageForecast fc[] = {forecast(7, 1)};
  EXPECT_TRUE(m.plan(fc, poses, rss).empty());
}

TEST(Mitigator, PrefetchDepthFromConfig) {
  Fixture f;
  MitigatorConfig config;
  config.prefetch_frames = 9;
  config.enable_beam_switch = false;
  const BlockageMitigator m(f.testbed, f.designer, config);
  const auto poses = f.two_users();
  const double rss[] = {-55.0, -55.0};
  const view::BlockageForecast fc[] = {forecast(1, 0)};
  const auto actions = m.plan(fc, poses, rss);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].extra_prefetch_frames, 9u);
}

TEST(MitigationStage, ReflectionAimsAtRoomFramePrediction) {
  // The joint predictor's poses are content-local; the installed
  // reflection beam must be the one designed for the room-frame position.
  SessionConfig config;
  config.user_count = 2;
  config.master_points = 40'000;
  config.video_frames = 30;
  SessionState state(config);
  TickContext ctx;
  ctx.prediction.poses = {
      geo::Pose::look_at({2.0, 0.0, 1.5}, {0, 0, 1.1}),
      geo::Pose::look_at({2.0, 1.0, 1.5}, {0, 0, 1.1})};
  ctx.prediction.blockages = {forecast(0, 1)};
  // A weak current link: any reflection beats its blocked estimate.
  ctx.unicast_rss = {-90.0, -90.0};
  MitigationStage(true).run(state, ctx);

  const Testbed& tb = state.coordinator.ap(0);
  const geo::Vec3 room = tb.to_room(ctx.prediction.poses[0].position);
  const GroupBeam expected =
      state.designers.front().design_reflection(tb.link_table({&room, 1}), 0);
  ASSERT_FALSE(expected.awv.empty());
  EXPECT_GT(state.users[0].reflection_ticks, 0);
  EXPECT_EQ(state.users[0].reflection_awv, expected.awv);
  EXPECT_TRUE(state.users[1].reflection_awv.empty());
}

}  // namespace
}  // namespace volcast::core
