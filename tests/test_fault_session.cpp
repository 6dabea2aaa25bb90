// Fault injection through the full session: graceful degradation under
// AP outages, churn, probe failures, frame loss and decoder stalls, with
// recovery metrics that reproduce bit-identically per (config, plan, seed).
#include <gtest/gtest.h>

#include <string_view>

#include "core/session.h"
#include "fault/fault_plan.h"
#include "session_compare.h"

namespace volcast::core {
namespace {

SessionConfig fast_config() {
  SessionConfig c;
  c.user_count = 3;
  c.duration_s = 3.0;
  c.master_points = 40'000;
  c.video_frames = 30;
  return c;
}

fault::FaultEvent event(double t, fault::FaultKind kind, std::size_t target,
                        double duration = 1.0) {
  fault::FaultEvent e;
  e.t_s = t;
  e.kind = kind;
  e.target = target;
  e.duration_s = duration;
  return e;
}

// The issue's acceptance scenario: an AP blackout plus user churn must be
// survived — the session completes, recovers, and reports how long it took.
TEST(FaultSession, SurvivesApOutageAndChurnWithRecoveryMetrics) {
  SessionConfig c = fast_config();
  c.ap_count = 2;
  c.user_count = 4;
  c.duration_s = 4.0;
  c.fault_plan.add(event(1.0, fault::FaultKind::kApOutage, 0,
                         /*duration=*/1.0));
  c.fault_plan.add(event(1.5, fault::FaultKind::kUserLeave, 1,
                         /*duration=*/1.0));
  const SessionResult result = Session(c).run();

  ASSERT_EQ(result.qoe.users.size(), 4u);
  EXPECT_EQ(result.faults.faults_injected, 2u);
  EXPECT_GT(result.faults.recoveries, 0u);
  EXPECT_GT(result.faults.mean_time_to_recover_s, 0.0);
  EXPECT_GE(result.faults.max_time_to_recover_s,
            result.faults.mean_time_to_recover_s);
  EXPECT_GT(result.faults.group_reformations, 0u);
  EXPECT_GT(result.faults.health_transitions, 0u);
  EXPECT_GT(result.faults.unhealthy_user_ticks, 0u);
  // Users still get served overall; the session does not collapse.
  EXPECT_GT(result.qoe.mean_fps(), 10.0);
}

// Determinism regression: identical (config, plan, seed) => identical
// SessionResult, recovery counters and per-user QoE included.
TEST(FaultSession, DeterministicPerConfigPlanSeed) {
  SessionConfig c = fast_config();
  c.ap_count = 2;
  c.user_count = 4;
  c.fault_plan.add(event(0.8, fault::FaultKind::kApOutage, 0,
                         /*duration=*/0.8));
  c.fault_plan.add(event(1.2, fault::FaultKind::kUserLeave, 2,
                         /*duration=*/0.6));
  fault::FaultEvent loss =
      event(0.5, fault::FaultKind::kFrameLoss, fault::kAllUsers,
            /*duration=*/1.5);
  loss.magnitude = 0.3;
  c.fault_plan.add(loss);

  const SessionResult a = Session(c).run();
  const SessionResult b = Session(c).run();

  expect_identical(a, b);
  expect_tiles_identical(a, b);
}

// The no-fault baseline must be untouched by the fault machinery: every
// recovery counter stays zero and QoE matches a config without the fields.
TEST(FaultSession, EmptyPlanLeavesMetricsZero) {
  const SessionResult result = Session(fast_config()).run();
  fault::for_each_field(
      [](std::string_view name, const auto& v) { EXPECT_EQ(v, 0) << name; },
      result.faults);
}

TEST(FaultSession, FrameLossIsConcealedByThePlayer) {
  SessionConfig c = fast_config();
  fault::FaultEvent loss =
      event(0.5, fault::FaultKind::kFrameLoss, fault::kAllUsers,
            /*duration=*/2.0);
  loss.magnitude = 0.5;
  c.fault_plan.add(loss);
  const SessionResult result = Session(c).run();
  EXPECT_GT(result.faults.concealed_frames, 0u);
  // Concealment keeps displayed motion going despite the losses.
  EXPECT_GT(result.qoe.mean_fps(), 10.0);
}

TEST(FaultSession, ProbeFailureFallsBackToStockBeamsWithRetries) {
  SessionConfig c = fast_config();
  c.user_count = 4;  // enough viewport overlap for multicast groups
  for (std::size_t u = 0; u < 4; ++u)
    c.fault_plan.add(event(0.5, fault::FaultKind::kBeamProbeFail, u,
                           /*duration=*/2.0));
  const SessionResult result = Session(c).run();
  EXPECT_GT(result.faults.probe_retries, 0u);
  EXPECT_GT(result.faults.fallback_stock_beams, 0u);
}

TEST(FaultSession, DecoderStallRegistersAsFaultRebuffer) {
  SessionConfig c = fast_config();
  c.fault_plan.add(event(1.0, fault::FaultKind::kDecoderStall, 0,
                         /*duration=*/1.0));
  const SessionResult result = Session(c).run();
  EXPECT_GT(result.faults.faults_injected, 0u);
  // The stalled user's playback suffers relative to the others.
  const auto& users = result.qoe.users;
  EXPECT_LE(users[0].displayed_fps, users[1].displayed_fps + 1e-9);
}

TEST(FaultSession, ObstacleSpawnDisturbsTheChannel) {
  SessionConfig base = fast_config();
  base.duration_s = 3.0;
  SessionConfig blocked = base;
  fault::FaultEvent ob =
      event(0.5, fault::FaultKind::kObstacleSpawn, 0, /*duration=*/0.0);
  // In the middle of the audience arc (content stands at (4, 3)), where
  // the low ends of the AP->user rays pass.
  ob.position = {4.0, 4.2, 0.0};
  ob.magnitude = 0.8;
  blocked.fault_plan.add(ob);
  const SessionResult r_base = Session(base).run();
  const SessionResult r_blocked = Session(blocked).run();
  // The persistent obstacle must change the channel outcome.
  EXPECT_NE(r_base.qoe.aggregate_goodput_mbps(),
            r_blocked.qoe.aggregate_goodput_mbps());
}

TEST(FaultSession, PermanentUserLeaveEndsTheirDelivery) {
  SessionConfig c = fast_config();
  c.fault_plan.add(event(1.0, fault::FaultKind::kUserLeave, 2,
                         /*duration=*/0.0));
  const SessionResult result = Session(c).run();
  // The departed user stops accumulating frames; others keep streaming.
  EXPECT_LT(result.qoe.users[2].displayed_fps,
            result.qoe.users[0].displayed_fps);
  EXPECT_GT(result.qoe.users[0].displayed_fps, 15.0);
}

TEST(FaultSession, ChaosPlanRunsEndToEnd) {
  SessionConfig c = fast_config();
  c.ap_count = 2;
  c.user_count = 4;
  c.duration_s = 4.0;
  fault::ChaosConfig chaos;
  chaos.seed = c.seed;
  chaos.duration_s = c.duration_s;
  chaos.user_count = c.user_count;
  chaos.ap_count = c.ap_count;
  chaos.intensity = 1.5;
  c.fault_plan = fault::random_plan(chaos);
  ASSERT_FALSE(c.fault_plan.empty());
  const SessionResult result = Session(c).run();
  EXPECT_EQ(result.faults.faults_injected, c.fault_plan.size());
  EXPECT_FALSE(result.faults.summary().empty());
}

TEST(FaultSession, RejectsPlanTargetingMissingUser) {
  SessionConfig c = fast_config();
  c.fault_plan.add(event(1.0, fault::FaultKind::kUserLeave, 99));
  EXPECT_THROW(Session{c}, std::invalid_argument);
}

}  // namespace
}  // namespace volcast::core
