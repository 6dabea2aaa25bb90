// Quality-of-experience accounting for streaming sessions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/stats.h"

namespace volcast::sim {

/// Per-user session outcome.
struct UserQoe {
  std::size_t user = 0;
  double displayed_fps = 0.0;     // played frames / session duration
  double stall_time_s = 0.0;
  double stall_ratio = 0.0;       // stall / duration
  double mean_quality_tier = 0.0; // 0 = lowest tier
  std::size_t quality_switches = 0;
  double mean_goodput_mbps = 0.0; // delivered application bits / duration
  /// Fraction of cells the user actually needed at display time that the
  /// (prediction-driven) fetch missed; 0 = perfect viewport prediction.
  double viewport_miss_ratio = 0.0;
  /// Motion-to-photon latency: pose observation -> frame decoded and
  /// playable (transmission queueing + airtime + decode). The paper's
  /// stated goal for multicast is reducing exactly this.
  double mean_m2p_latency_s = 0.0;
  double max_m2p_latency_s = 0.0;
};

/// Visits every member in checkpoint order (see common/fields.h).
template <class V, common::FieldsOf<UserQoe>... R>
void for_each_field(V&& v, R&... r) {
  v("user", r.user...);
  v("displayed_fps", r.displayed_fps...);
  v("stall_time_s", r.stall_time_s...);
  v("stall_ratio", r.stall_ratio...);
  v("mean_quality_tier", r.mean_quality_tier...);
  v("quality_switches", r.quality_switches...);
  v("mean_goodput_mbps", r.mean_goodput_mbps...);
  v("viewport_miss_ratio", r.viewport_miss_ratio...);
  v("mean_m2p_latency_s", r.mean_m2p_latency_s...);
  v("max_m2p_latency_s", r.max_m2p_latency_s...);
}

/// Whole-session outcome with convenience aggregates.
struct SessionQoe {
  double duration_s = 0.0;
  std::vector<UserQoe> users;

  [[nodiscard]] double mean_fps() const noexcept;
  [[nodiscard]] double min_fps() const noexcept;
  [[nodiscard]] double total_stall_s() const noexcept;
  [[nodiscard]] double mean_quality_tier() const noexcept;
  [[nodiscard]] double aggregate_goodput_mbps() const noexcept;

  /// Fraction of users whose displayed FPS reaches `threshold` (Table 1's
  /// "supported at 30 FPS" criterion uses threshold 29.5).
  [[nodiscard]] double fraction_at_fps(double threshold) const noexcept;

  /// Jain's fairness index over per-user goodputs, in (0, 1]; 1 = all
  /// users got equal throughput. Multicast grouping should not starve the
  /// users outside the big groups.
  [[nodiscard]] double fairness_index() const noexcept;

  /// Multi-line human-readable summary.
  [[nodiscard]] std::string summary() const;
};

}  // namespace volcast::sim
