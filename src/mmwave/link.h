// Link budget: AWV + multipath channel -> RSS -> MCS -> rate.
#pragma once

#include <span>

#include "common/rng.h"
#include "mmwave/channel.h"
#include "mmwave/codebook.h"
#include "mmwave/mcs.h"
#include "mmwave/phased_array.h"

namespace volcast::obs {
class Counter;
}  // namespace volcast::obs

namespace volcast::mmwave {

/// Fixed terms of the link budget. Defaults are calibrated so that the
/// default-codebook RSS distribution over the user-study positions matches
/// the paper's Fig. 3b anchor (-68 dBm coverage of ~96.5% for one user).
struct LinkBudget {
  double tx_power_dbm = 7.5;   // conducted power (FCC-friendly EIRP once
                               // the ~20 dBi array gain is added)
  double rx_gain_dbi = 6.0;    // client quasi-omni receive gain
  double implementation_loss_db = 10.0;  // RF chain, pointing, polarization
};

/// Computes the received signal strength at `rx_pos` for transmit AWV `w`:
/// non-coherent power sum over all channel paths of
///   P_tx + G_tx(path direction) - FSPL(length) - extra losses + G_rx.
/// (Non-coherent summing models the wideband 802.11ad waveform, whose
/// symbol bandwidth decorrelates path phases.)
/// `evals`, when non-null, counts link-budget evaluations (telemetry; an
/// atomic bump, safe from parallel lanes and free of RNG interaction).
/// A one-row LinkTable evaluation (link_table.h); code that queries the
/// same position more than once should build the table itself.
[[nodiscard]] double rss_dbm(const PhasedArray& tx, const Awv& w,
                             const Channel& channel, const geo::Vec3& rx_pos,
                             std::span<const geo::BodyObstacle> bodies = {},
                             const LinkBudget& budget = {},
                             const BlockageModel& blockage = {},
                             obs::Counter* evals = nullptr);

/// Convenience: RSS with the best codebook beam for this receiver (the
/// unicast SLS outcome).
[[nodiscard]] double best_beam_rss_dbm(
    const PhasedArray& tx, const Codebook& codebook, const Channel& channel,
    const geo::Vec3& rx_pos, std::span<const geo::BodyObstacle> bodies = {},
    const LinkBudget& budget = {}, const BlockageModel& blockage = {},
    obs::Counter* evals = nullptr);

/// Slow log-normal shadowing as an AR(1) process in dB; gives the RSS
/// time series the jitter a real testbed shows without breaking
/// reproducibility.
class ShadowingProcess {
 public:
  ShadowingProcess(double sigma_db, double coherence_time_s,
                   std::uint64_t seed);

  /// Advances by dt and returns the current shadowing term in dB.
  double step(double dt_s);

  [[nodiscard]] double current_db() const noexcept { return value_db_; }

 private:
  double sigma_db_;
  double coherence_time_s_;
  Rng rng_;
  double value_db_ = 0.0;
};

}  // namespace volcast::mmwave
