#include "core/beam_designer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/units.h"
#include "obs/metrics.h"

namespace volcast::core {

BeamDesigner::BeamDesigner(const Testbed& testbed, BeamDesignerConfig config)
    : testbed_(&testbed), config_(config) {
  if (config_.metrics != nullptr) {
    unicast_designs_ = &config_.metrics->counter("beam.unicast_designs");
    multicast_designs_ = &config_.metrics->counter("beam.multicast_designs");
    reflection_designs_ =
        &config_.metrics->counter("beam.reflection_designs");
    custom_selected_ = &config_.metrics->counter("beam.custom_selected");
    stock_selected_ = &config_.metrics->counter("beam.stock_selected");
    probe_rejects_ = &config_.metrics->counter("beam.probe_rejects");
  }
}

GroupBeam BeamDesigner::finish(mmwave::Awv awv, bool custom,
                                const mmwave::LinkTable& links,
                                std::span<const std::size_t> members,
                                std::span<const std::size_t> bodies) const {
  GroupBeam out;
  out.awv = std::move(awv);
  out.custom = custom;
  out.min_member_rss_dbm = std::numeric_limits<double>::infinity();
  for (const std::size_t u : members)
    out.min_member_rss_dbm =
        std::min(out.min_member_rss_dbm, links.rss_dbm(out.awv, u, bodies));
  if (members.empty()) out.min_member_rss_dbm = -200.0;
  out.multicast_rate_mbps =
      testbed_->mcs().goodput_mbps(out.min_member_rss_dbm);
  return out;
}

GroupBeam BeamDesigner::design_unicast(
    const mmwave::LinkTable& links, std::size_t user,
    std::span<const std::size_t> bodies) const {
  const std::size_t members[] = {user};
  if (unicast_designs_ != nullptr) unicast_designs_->add();
  if (config_.enable_custom_beams) {
    // Predicted-position steering: full aperture, no beam search.
    if (custom_selected_ != nullptr) custom_selected_->add();
    const auto steered = links.row(user).steer_awv;
    return finish(mmwave::Awv(steered.begin(), steered.end()), true, links,
                  members, bodies);
  }
  const mmwave::Codebook& codebook = testbed_->codebook();
  const std::size_t sector = codebook.best_beam_toward(links.row(user));
  if (stock_selected_ != nullptr) stock_selected_->add();
  return finish(codebook.beam(sector), false, links, members, bodies);
}

GroupBeam BeamDesigner::design_multicast(
    const mmwave::LinkTable& links, std::span<const std::size_t> members,
    std::span<const std::size_t> bodies,
    std::span<const std::size_t> others) const {
  if (members.empty())
    throw std::invalid_argument("design_multicast: empty group");
  if (multicast_designs_ != nullptr) multicast_designs_->add();

  // Stock fallback: the best common sector of the default codebook.
  const mmwave::Codebook& codebook = testbed_->codebook();
  const std::size_t common = codebook.best_common_beam(links, members);
  GroupBeam stock =
      finish(codebook.beam(common), false, links, members, bodies);
  if (members.size() == 1 || !config_.enable_custom_beams) {
    if (stock_selected_ != nullptr) stock_selected_->add();
    return stock;
  }

  // Fast path from the paper: if every member already has high RSS under
  // the stock common beam, keep it.
  if (stock.min_member_rss_dbm >= config_.default_beam_good_dbm) {
    if (stock_selected_ != nullptr) stock_selected_->add();
    return stock;
  }

  // Synthesize the multi-lobe beam from per-member steered beams weighted
  // by measured per-member RSS (linear).
  std::vector<mmwave::Awv> beams;
  std::vector<double> rss_mw;
  beams.reserve(members.size());
  rss_mw.reserve(members.size());
  for (const std::size_t u : members) {
    const auto individual = links.row(u).steer_awv;
    const double member_rss = links.rss_dbm(individual, u, bodies);
    beams.emplace_back(individual.begin(), individual.end());
    rss_mw.push_back(std::max(dbm_to_mw(member_rss), 1e-15));
  }
  GroupBeam custom = finish(mmwave::combine_awvs(beams, rss_mw), true, links,
                            members, bodies);

  // Probe before use (Section 5): the custom beam must actually improve the
  // weakest member and must not blast a non-member.
  if (custom.min_member_rss_dbm <
      stock.min_member_rss_dbm + config_.min_improvement_db) {
    if (probe_rejects_ != nullptr) probe_rejects_->add();
    if (stock_selected_ != nullptr) stock_selected_->add();
    return stock;
  }
  for (const std::size_t other : others) {
    if (links.rss_dbm(custom.awv, other, bodies) > config_.max_spill_dbm) {
      if (probe_rejects_ != nullptr) probe_rejects_->add();
      if (stock_selected_ != nullptr) stock_selected_->add();
      return stock;
    }
  }
  if (custom_selected_ != nullptr) custom_selected_->add();
  return custom;
}

GroupBeam BeamDesigner::design_reflection(
    const mmwave::LinkTable& links, std::size_t user,
    std::span<const std::size_t> bodies) const {
  // Try a beam at every bounce point (ignoring bodies along the candidate
  // paths — the whole point is to route around them) and keep the one with
  // the best *achievable* RSS: the geometrically shortest bounce can sit
  // behind the array's element pattern and be useless.
  if (reflection_designs_ != nullptr) reflection_designs_->add();
  GroupBeam best{};
  const std::size_t members[] = {user};
  for (const mmwave::LinkPath& path : links.row(user).paths) {
    if (path.line_of_sight) continue;
    GroupBeam candidate = finish(mmwave::PhasedArray::steer(path.terms),
                                 true, links, members, bodies);
    if (best.awv.empty() ||
        candidate.min_member_rss_dbm > best.min_member_rss_dbm)
      best = std::move(candidate);
  }
  return best;
}

}  // namespace volcast::core
