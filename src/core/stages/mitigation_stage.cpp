#include "core/stages/mitigation_stage.h"

#include <algorithm>
#include <vector>

#include "core/blockage_mitigator.h"
#include "core/stages/session_state.h"
#include "core/stages/tick_context.h"

namespace volcast::core {

void MitigationStage::run(SessionState& state, TickContext& ctx) {
  if (!enabled_) return;
  obs::Span mitigate_span = ctx.span(obs::Stage::kMitigate);
  mitigate_span.add_cost(ctx.prediction.blockages.size());
  // The joint predictor works in content-local coordinates; reflection
  // beams are designed in the room.
  std::vector<geo::Pose> predicted;
  predicted.reserve(ctx.prediction.poses.size());
  for (const geo::Pose& pose : ctx.prediction.poses)
    predicted.push_back(state.coordinator.ap(0).to_room(pose));
  const auto actions = state.mitigator.plan(ctx.prediction.blockages,
                                            predicted, ctx.unicast_rss);
  for (const MitigationAction& action : actions) {
    SessionState::User& u = state.users[action.user];
    u.prefetch_credit = std::max(u.prefetch_credit, action.extra_prefetch_frames);
    if (action.use_reflection_beam) {
      u.reflection_awv = action.reflection_awv;
      u.reflection_ticks = 15;  // half a second of override
    }
  }
}

}  // namespace volcast::core
