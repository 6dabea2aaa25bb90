#include "core/multi_ap.h"

#include <algorithm>
#include <limits>
#include <stdexcept>


namespace volcast::core {

MultiApCoordinator::MultiApCoordinator(const TestbedConfig& base,
                                       const MultiApConfig& config)
    : config_(config) {
  if (config.ap_count == 0 || config.ap_count > 4)
    throw std::invalid_argument("MultiApCoordinator: ap_count must be 1..4");
  const double w = base.room.width_m;
  const double l = base.room.length_m;
  const double z = base.ap_position.z;
  // Order matters: the second AP goes on a side wall, which keeps a
  // moderate distance to an audience anywhere in the room (the wall
  // opposite the primary AP would sit on top of a far-side audience).
  const geo::Vec3 mounts[4] = {
      {w * 0.5, 0.1, z},      // front wall (primary)
      {w - 0.1, l * 0.5, z},  // right wall
      {0.1, l * 0.5, z},      // left wall
      {w * 0.5, l - 0.1, z},  // back wall
  };
  for (std::size_t i = 0; i < config.ap_count; ++i) {
    TestbedConfig derived = base;
    derived.ap_position = mounts[i];
    aps_.push_back(std::make_unique<Testbed>(derived));
  }
}

std::vector<mmwave::LinkTable> MultiApCoordinator::link_tables(
    std::span<const geo::Vec3> positions,
    std::span<const geo::BodyObstacle> bodies, obs::Counter* evals) const {
  std::vector<mmwave::LinkTable> tables;
  tables.reserve(aps_.size());
  for (const auto& tb : aps_)
    tables.push_back(tb->link_table(positions, bodies, evals));
  return tables;
}

std::vector<std::size_t> MultiApCoordinator::assign_users(
    std::span<const mmwave::LinkTable> links,
    std::span<const bool> available) const {
  std::vector<std::size_t> assignment;
  if (links.empty()) return assignment;
  assignment.reserve(links.front().size());
  for (std::size_t u = 0; u < links.front().size(); ++u) {
    std::size_t best_ap = 0;
    double best_rss = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < aps_.size() && a < links.size(); ++a) {
      if (a < available.size() && !available[a]) continue;
      const mmwave::Codebook& codebook = aps_[a]->codebook();
      const std::size_t sector = codebook.best_beam_toward(links[a].row(u));
      const double rss = links[a].rss_dbm(codebook.beam(sector), u, {});
      if (rss > best_rss) {
        best_rss = rss;
        best_ap = a;
      }
    }
    assignment.push_back(best_ap);
  }
  return assignment;
}

double MultiApCoordinator::interference_factor(
    std::span<const mmwave::LinkTable> links, std::size_t victim_ap,
    std::size_t victim, double victim_rss_dbm,
    std::span<const mmwave::Awv> concurrent_beams) const {
  double strongest_interference = -std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < links.size() && a < concurrent_beams.size();
       ++a) {
    if (a == victim_ap || concurrent_beams[a].empty()) continue;
    const double leak = links[a].rss_dbm(concurrent_beams[a], victim, {});
    strongest_interference = std::max(strongest_interference, leak);
  }
  if (strongest_interference ==
      -std::numeric_limits<double>::infinity())
    return 1.0;
  const double sir = victim_rss_dbm - strongest_interference;
  if (sir < config_.outage_sir_db) return 0.0;
  if (sir < config_.degraded_sir_db) return 0.5;
  return 1.0;
}

}  // namespace volcast::core
