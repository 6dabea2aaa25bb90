// Proactive blockage mitigation (paper Section 4.1).
//
// Consumes the joint predictor's blockage forecasts and decides, per user,
// what the AP should do *before* the body crosses the line of sight:
// prefetch frames while the link is still fast, and/or pre-compute a
// reflection beam to switch to the instant RSS collapses — avoiding the
// 5-20 ms beam re-search the paper says a reactive system pays.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/beam_designer.h"
#include "viewport/joint_predictor.h"

namespace volcast::core {

/// Mitigation plan for one user with an imminent blockage.
struct MitigationAction {
  std::size_t user = 0;
  std::size_t extra_prefetch_frames = 0;  // fetch-ahead depth while fast
  bool use_reflection_beam = false;       // switch when the drop lands
  mmwave::Awv reflection_awv;             // precomputed NLoS beam
  double reflection_rate_mbps = 0.0;
};

/// Mitigator configuration.
struct MitigatorConfig {
  bool enable_prefetch = true;
  bool enable_beam_switch = true;
  std::size_t prefetch_frames = 3;
  /// Only switch beams when the reflection actually beats the blocked LoS
  /// estimate by this margin (dB); otherwise ride out the partial blockage.
  double min_reflection_gain_db = 3.0;
  /// Estimated LoS loss of a forecast blockage (matches BlockageModel's
  /// dead-center loss; used before the blockage materializes).
  double assumed_blockage_loss_db = 20.0;
};

/// Turns forecasts into per-user actions.
class BlockageMitigator {
 public:
  BlockageMitigator(const Testbed& testbed, const BeamDesigner& designer,
                    MitigatorConfig config = {});

  /// `forecasts` from JointViewportPredictor; `positions` the predicted
  /// user poses in room coordinates; `current_rss_dbm` each user's current
  /// (unblocked) RSS.
  [[nodiscard]] std::vector<MitigationAction> plan(
      std::span<const view::BlockageForecast> forecasts,
      std::span<const geo::Pose> positions,
      std::span<const double> current_rss_dbm) const;

  [[nodiscard]] const MitigatorConfig& config() const noexcept {
    return config_;
  }

 private:
  const Testbed* testbed_;
  const BeamDesigner* designer_;
  MitigatorConfig config_;
};

}  // namespace volcast::core
