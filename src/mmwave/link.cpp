#include "mmwave/link.h"

#include <algorithm>
#include <cmath>

#include "mmwave/link_table.h"

namespace volcast::mmwave {

double rss_dbm(const PhasedArray& tx, const Awv& w, const Channel& channel,
               const geo::Vec3& rx_pos,
               std::span<const geo::BodyObstacle> bodies,
               const LinkBudget& budget, const BlockageModel& blockage,
               obs::Counter* evals) {
  const LinkTable table(tx, nullptr, channel, blockage, budget, {&rx_pos, 1},
                        bodies, evals);
  return table.rss_dbm(w, 0, table.all_bodies());
}

double best_beam_rss_dbm(const PhasedArray& tx, const Codebook& codebook,
                         const Channel& channel, const geo::Vec3& rx_pos,
                         std::span<const geo::BodyObstacle> bodies,
                         const LinkBudget& budget,
                         const BlockageModel& blockage, obs::Counter* evals) {
  const LinkTable table(tx, &codebook, channel, blockage, budget, {&rx_pos, 1},
                        bodies, evals);
  const std::size_t beam = codebook.best_beam_toward(table.row(0));
  return table.rss_dbm(codebook.beam(beam), 0, table.all_bodies());
}

ShadowingProcess::ShadowingProcess(double sigma_db, double coherence_time_s,
                                   std::uint64_t seed)
    : sigma_db_(sigma_db),
      coherence_time_s_(std::max(coherence_time_s, 1e-3)),
      rng_(seed) {
  value_db_ = rng_.normal(0.0, sigma_db_);
}

double ShadowingProcess::step(double dt_s) {
  // AR(1) / Gauss-Markov: rho = exp(-dt / tau) keeps the marginal variance
  // at sigma^2 for any step size.
  const double rho = std::exp(-std::max(dt_s, 0.0) / coherence_time_s_);
  const double innovation_sigma = sigma_db_ * std::sqrt(1.0 - rho * rho);
  value_db_ = rho * value_db_ + rng_.normal(0.0, innovation_sigma);
  return value_db_;
}

}  // namespace volcast::mmwave
