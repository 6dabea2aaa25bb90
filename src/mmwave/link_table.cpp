#include "mmwave/link_table.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/units.h"
#include "obs/metrics.h"

namespace volcast::mmwave {

LinkTable::LinkTable(const PhasedArray& array, const Codebook* codebook,
                     const Channel& channel, const BlockageModel& blockage,
                     const LinkBudget& budget,
                     std::span<const geo::Vec3> positions,
                     std::span<const geo::BodyObstacle> bodies,
                     obs::Counter* evals)
    : budget_(budget), body_count_(bodies.size()), evals_(evals) {
  const geo::Vec3 tx = array.pose().position;
  // Trace every position first so each buffer is sized once (the spans
  // handed out below stay valid because no buffer ever reallocates).
  // Traced without bodies: the geometry does not depend on them, and the
  // only loss left on each path is its wall bounces.
  std::vector<std::vector<Path>> traced;
  traced.reserve(positions.size());
  std::size_t path_count = 0;
  std::size_t segment_count = 0;
  for (const geo::Vec3& rx : positions) {
    traced.push_back(channel.paths(tx, rx, {}, blockage));
    path_count += traced.back().size();
    for (const Path& path : traced.back())
      segment_count += static_cast<std::size_t>(path.bounces) + 1;
  }
  const std::size_t sectors = codebook != nullptr ? codebook->size() : 0;
  const std::size_t awvs = codebook != nullptr ? positions.size() : 0;
  terms_.reserve((path_count + awvs) * array.element_count());
  paths_.reserve(path_count);
  values_.resize(segment_count * body_count_ + positions.size() * sectors);
  rows_.reserve(positions.size());
  // Next `elements` slots of terms_, inside the reserved capacity.
  const std::size_t elements = array.element_count();
  const auto grow_terms = [this, elements] {
    terms_.resize(terms_.size() + elements);
    return std::span<Complex>(terms_.data() + terms_.size() - elements,
                              elements);
  };
  std::vector<Complex> aim(elements);

  double* loss = values_.data();
  double* gains = values_.data() + segment_count * body_count_;
  for (std::size_t r = 0; r < positions.size(); ++r) {
    const geo::Vec3& rx = positions[r];
    LinkRow row;
    row.position = rx;
    const std::size_t first_path = paths_.size();
    const double* row_loss = loss;
    std::size_t segment = 0;  // within the row
    for (const Path& path : traced[r]) {
      LinkPath link;
      const std::span<Complex> terms = grow_terms();
      link.element_gain = array.steering(path.tx_direction, terms);
      link.terms = terms;
      link.fspl_db = channel.fspl_db(path.length_m);
      link.reflection_loss_db = path.extra_loss_db;
      link.first_segment = segment;
      link.segments = static_cast<std::size_t>(path.bounces) + 1;
      link.line_of_sight = path.line_of_sight;
      // tx -> bounce points -> rx, the segments Channel::paths shadows.
      geo::Vec3 points[4] = {tx, path.bounce_point, path.second_bounce_point,
                             rx};
      points[link.segments] = rx;
      for (std::size_t s = 0; s < link.segments; ++s, ++segment)
        for (std::size_t b = 0; b < body_count_; ++b)
          *loss++ =
              blockage.segment_loss_db(points[s], points[s + 1], bodies[b]);
      paths_.push_back(link);
    }
    row.paths = std::span<const LinkPath>(paths_.data() + first_path,
                                          paths_.size() - first_path);
    row.body_loss_db = std::span<const double>(row_loss, loss);
    if (codebook != nullptr) {
      // Sector sweep and steered beam both aim along rx - tx.
      const double aim_gain = array.steering(rx - tx, aim);
      for (std::size_t i = 0; i < sectors; ++i)
        gains[i] = PhasedArray::gain(codebook->beam(i), aim, aim_gain);
      row.codebook_gain = std::span<const double>(gains, sectors);
      gains += sectors;
      const Awv steered = PhasedArray::steer(aim);
      const std::span<Complex> awv = grow_terms();
      std::copy(steered.begin(), steered.end(), awv.begin());
      row.steer_awv = awv;
    }
    rows_.push_back(row);
  }
}

std::vector<std::size_t> LinkTable::all_bodies() const {
  std::vector<std::size_t> ids(body_count_);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  return ids;
}

double LinkTable::rss_dbm(std::span<const Complex> w, std::size_t user,
                          std::span<const std::size_t> bodies) const {
  if (evals_ != nullptr) evals_->add();
  const LinkRow& r = rows_.at(user);
  for (const std::size_t b : bodies)
    if (b >= body_count_)
      throw std::out_of_range("LinkTable::rss_dbm: body index out of range");
  double total_mw = 0.0;
  for (const LinkPath& path : r.paths) {
    // Reflection loss, then each segment's body sum (from 0.0, in the
    // caller's order): the association Channel::paths uses.
    double extra_loss_db = path.reflection_loss_db;
    for (std::size_t s = 0; s < path.segments; ++s) {
      const double* loss =
          r.body_loss_db.data() + (path.first_segment + s) * body_count_;
      double segment_db = 0.0;
      for (const std::size_t b : bodies) segment_db += loss[b];
      extra_loss_db += segment_db;
    }
    const double gain_db =
        ratio_to_db(std::max(
            PhasedArray::gain(w, path.terms, path.element_gain), 1e-12));
    const double rx_dbm = budget_.tx_power_dbm + gain_db - path.fspl_db -
                          extra_loss_db + budget_.rx_gain_dbi -
                          budget_.implementation_loss_db;
    total_mw += dbm_to_mw(rx_dbm);
  }
  if (total_mw <= 0.0) return -200.0;
  return mw_to_dbm(total_mw);
}

}  // namespace volcast::mmwave
