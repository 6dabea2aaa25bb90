// The standard experiment environment shared by benches, examples and the
// streaming session: an 8 x 6 x 3 m room, volumetric content near the room
// center, a ceiling-mounted 8x4-element 802.11ad AP on the front wall, and
// the calibrated link budget. Mirrors the paper's testbed (Fig. 3a).
#pragma once

#include "geometry/pose.h"
#include "mmwave/channel.h"
#include "mmwave/codebook.h"
#include "mmwave/link.h"
#include "mmwave/link_table.h"
#include "mmwave/mcs.h"
#include "mmwave/phased_array.h"

namespace volcast::core {

/// Environment parameters (defaults = the calibrated reproduction setup).
struct TestbedConfig {
  mmwave::Room room{};  // 8 x 6 x 3 m
  geo::Vec3 content_floor{4.0, 3.0, 0.0};  // content stands mid-room
  geo::Vec3 ap_position{4.0, 0.1, 2.6};    // front wall, near ceiling
  mmwave::ArrayGeometry array{};           // 8 x 4 elements
  mmwave::CodebookConfig codebook{};       // stock wide sectors
  mmwave::LinkBudget budget{};             // calibrated to Fig. 3b
  mmwave::BlockageModel blockage{};        // partial-degradation body model
  double shadowing_sigma_db = 2.5;
  double shadowing_coherence_s = 0.5;
};

/// Owns the immutable radio environment of one experiment.
class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  [[nodiscard]] const TestbedConfig& config() const noexcept { return config_; }
  [[nodiscard]] const mmwave::Channel& channel() const noexcept {
    return channel_;
  }
  [[nodiscard]] const mmwave::PhasedArray& ap() const noexcept { return ap_; }
  [[nodiscard]] const mmwave::Codebook& codebook() const noexcept {
    return codebook_;
  }
  [[nodiscard]] const mmwave::McsTable& mcs() const noexcept { return mcs_; }
  [[nodiscard]] const mmwave::LinkBudget& budget() const noexcept {
    return config_.budget;
  }
  [[nodiscard]] const mmwave::BlockageModel& blockage() const noexcept {
    return config_.blockage;
  }

  /// Link-state rows toward this AP for room-frame `positions`, against
  /// `bodies` (see mmwave/link_table.h); `evals` counts RSS queries.
  [[nodiscard]] mmwave::LinkTable link_table(
      std::span<const geo::Vec3> positions,
      std::span<const geo::BodyObstacle> bodies = {},
      obs::Counter* evals = nullptr) const;

  /// Link-state rows without the codebook: paths and body losses only (no
  /// sector gains, no steered AWV). Enough for rss_dbm() and reflection
  /// design, which never read the rest, and much cheaper to build.
  [[nodiscard]] mmwave::LinkTable path_table(
      std::span<const geo::Vec3> positions) const;

  /// Translates a pose from content-local coordinates (content at the
  /// origin, as the trace generator produces) into room coordinates.
  [[nodiscard]] geo::Pose to_room(const geo::Pose& content_local) const;
  [[nodiscard]] geo::Vec3 to_room(const geo::Vec3& content_local) const;

 private:
  TestbedConfig config_;
  mmwave::Channel channel_;
  mmwave::PhasedArray ap_;
  mmwave::Codebook codebook_;
  mmwave::McsTable mcs_;
};

}  // namespace volcast::core
