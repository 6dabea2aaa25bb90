// Multi-AP coordination (paper Section 5, "Multiple APs Coordination").
//
// Several 802.11ad APs on the room walls serve disjoint multicast groups
// concurrently. Directionality gives spatial reuse, but multi-lobe beams
// can leak into another AP's clients, so the coordinator (a) assigns each
// user to the AP with the best unblocked RSS and (b) screens concurrent
// transmissions for cross-AP interference, degrading the victim's MCS when
// the signal-to-interference ratio is poor.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/testbed.h"

namespace volcast::core {

/// Coordinator options.
struct MultiApConfig {
  std::size_t ap_count = 2;  // 1..4 (front, back, left, right walls)
  /// SIR below this means the victim falls back to the control PHY.
  double outage_sir_db = 3.0;
  /// SIR below this (but above outage) halves the victim's goodput.
  double degraded_sir_db = 10.0;
};

/// Owns one Testbed per AP (same room, different wall mounts).
class MultiApCoordinator {
 public:
  /// Builds `config.ap_count` testbeds derived from `base` (AP positions
  /// replaced by wall mounts). Throws std::invalid_argument for count 0 or
  /// > 4.
  MultiApCoordinator(const TestbedConfig& base, const MultiApConfig& config);

  [[nodiscard]] std::size_t ap_count() const noexcept { return aps_.size(); }
  [[nodiscard]] const Testbed& ap(std::size_t index) const {
    return *aps_.at(index);
  }
  [[nodiscard]] const MultiApConfig& config() const noexcept { return config_; }

  /// One link-state table per AP for the same room-frame `positions` and
  /// `bodies` (see mmwave/link_table.h): row u of every table is user u.
  [[nodiscard]] std::vector<mmwave::LinkTable> link_tables(
      std::span<const geo::Vec3> positions,
      std::span<const geo::BodyObstacle> bodies = {},
      obs::Counter* evals = nullptr) const;

  /// Assigns each row of `links` (one table per AP, from link_tables()) to
  /// the AP with the strongest unblocked stock-sector RSS. Only APs with
  /// `available[a]` true are candidates (fault tolerance — an AP in outage
  /// serves nobody; an empty span means all are up). When no AP is
  /// available every user keeps index 0; callers must treat a down AP's
  /// users as unserved.
  [[nodiscard]] std::vector<std::size_t> assign_users(
      std::span<const mmwave::LinkTable> links,
      std::span<const bool> available = {}) const;

  /// Goodput multiplier in [0, 1] for the victim row `victim` served by
  /// `victim_ap` with signal `victim_rss_dbm`, while every other AP
  /// transmits with the given beams (indexed by AP; empty AWVs are idle).
  [[nodiscard]] double interference_factor(
      std::span<const mmwave::LinkTable> links, std::size_t victim_ap,
      std::size_t victim, double victim_rss_dbm,
      std::span<const mmwave::Awv> concurrent_beams) const;

 private:
  MultiApConfig config_;
  std::vector<std::unique_ptr<Testbed>> aps_;
};

}  // namespace volcast::core
