#include "core/blockage_mitigator.h"

#include <algorithm>

namespace volcast::core {

BlockageMitigator::BlockageMitigator(const Testbed& testbed,
                                     const BeamDesigner& designer,
                                     MitigatorConfig config)
    : testbed_(&testbed), designer_(&designer), config_(config) {}

std::vector<MitigationAction> BlockageMitigator::plan(
    std::span<const view::BlockageForecast> forecasts,
    std::span<const geo::Pose> positions,
    std::span<const double> current_rss_dbm) const {
  std::vector<MitigationAction> actions;
  std::vector<bool> handled(positions.size(), false);

  for (const view::BlockageForecast& forecast : forecasts) {
    if (forecast.user >= positions.size() || handled[forecast.user]) continue;
    handled[forecast.user] = true;

    MitigationAction action;
    action.user = forecast.user;
    if (config_.enable_prefetch)
      action.extra_prefetch_frames = config_.prefetch_frames;

    if (config_.enable_beam_switch) {
      // design_reflection reads only the row's paths and body losses, so
      // the row skips the codebook's sector gains and steered AWV.
      const geo::Vec3& position = positions[forecast.user].position;
      const GroupBeam reflection =
          designer_->design_reflection(testbed_->path_table({&position, 1}), 0);
      const double blocked_rss_estimate =
          (forecast.user < current_rss_dbm.size()
               ? current_rss_dbm[forecast.user]
               : -200.0) -
          config_.assumed_blockage_loss_db;
      if (!reflection.awv.empty() &&
          reflection.min_member_rss_dbm >=
              blocked_rss_estimate + config_.min_reflection_gain_db) {
        action.use_reflection_beam = true;
        action.reflection_awv = reflection.awv;
        action.reflection_rate_mbps = reflection.multicast_rate_mbps;
      }
    }
    if (action.extra_prefetch_frames > 0 || action.use_reflection_beam)
      actions.push_back(std::move(action));
  }
  return actions;
}

}  // namespace volcast::core
