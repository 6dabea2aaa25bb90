// Per-tick data flowing through the staged pipeline.
//
// Each tick the driver (session.cpp) builds one TickContext and hands it
// through the stages in order; every field below is produced by exactly
// one stage and consumed by later ones:
//
//   driver       -> tick / t / frame, fault availability flags
//   Prediction   -> poses, body capsules, shadowing, joint prediction
//   Beam         -> link-state tables, AP assignment refresh, unicast link
//                   state (rate/rss)
//   Adaptation   -> per-user tier decisions (written into SessionState)
//   Mitigation   -> prefetch credit / reflection overrides (SessionState)
//   Grouping     -> per-AP multicast plan (ApPlan)
//   Transport    -> deliveries, app-layer throughput samples
#pragma once

#include <cstdint>
#include <vector>

#include "core/grouping.h"
#include "core/session.h"
#include "geometry/obstacle.h"
#include "geometry/pose.h"
#include "mmwave/link_table.h"
#include "obs/telemetry.h"
#include "viewport/joint_predictor.h"

namespace volcast::core {

/// Per-AP product of the grouping stage, consumed by transport.
struct ApPlan {
  /// False when the AP scheduled nothing this tick (down, no members, or
  /// its round was dropped over backlog): transport skips it entirely.
  bool active = false;
  std::vector<std::size_t> members;  // user ids still needing this frame
  GroupingResult grouping;
};

struct TickContext {
  std::size_t tick = 0;
  std::uint32_t tick32 = 0;
  double t = 0.0;
  std::size_t frame = 0;
  /// The frame the prediction horizon lands on (what adaptation budgets
  /// for); set by the prediction stage.
  std::size_t target_frame = 0;
  /// An AP went dark or came back this tick (forces AP reassignment).
  bool availability_changed = false;

  // Products of the prediction stage (slot per user).
  std::vector<geo::Pose> local_poses;
  std::vector<geo::Vec3> room_pos;
  std::vector<geo::BodyObstacle> bodies;
  std::vector<double> shadow;
  view::JointPrediction prediction;

  // Products of the beam stage. `links` holds one link-state table per AP
  // (row u = user u) over the body list `bodies` followed by the fault
  // obstacles; `blockers[u]` lists, in that order, the bodies that shadow
  // user u's links (every other present user, then every obstacle). Both
  // are read-only after the beam stage and die with the tick.
  std::vector<mmwave::LinkTable> links;
  std::vector<std::vector<std::size_t>> blockers;
  std::vector<double> unicast_rate;
  std::vector<double> unicast_rss;

  // Products of the grouping stage (slot per AP).
  std::vector<ApPlan> ap_plans;

  // Product of the transport stage (slot per user): application-layer
  // throughput samples fed to the bandwidth predictors.
  std::vector<double> app_sample_mbps;

  /// Telemetry sink (null = disabled), so stage instrumentation is written
  /// once: `auto span = ctx.span(obs::Stage::kLink);`.
  obs::Telemetry* tel = nullptr;

  [[nodiscard]] obs::Span span(obs::Stage stage,
                               std::uint32_t ap = obs::kNoId) const noexcept {
    return obs::Span(tel, stage, tick32, ap);
  }
};

}  // namespace volcast::core
