// Bit-exact property tests for the per-tick link-state table: every RSS,
// sector choice and beam design read from a LinkTable must equal, to the
// last bit, the position-based computation it replaces — the room traced
// with the blockers in it and one sin/cos array-gain evaluation per path
// and per query. The references below are that computation, written out.
#include "mmwave/link_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "common/units.h"
#include "core/beam_designer.h"
#include "obs/metrics.h"

namespace volcast {
namespace {

using mmwave::Awv;
using mmwave::Complex;

// ---- references: the position-based radio model ---------------------------

/// Per-element phases k e_i . u toward `dir` (element grid rebuilt from the
/// geometry), and the direction's cosine off boresight.
std::vector<double> element_phases(const core::Testbed& tb,
                                   const geo::Vec3& dir, double& cos_theta) {
  const mmwave::ArrayGeometry& g = tb.ap().geometry();
  const geo::Pose& pose = tb.ap().pose();
  const double lambda = wavelength_m(tb.channel().carrier_hz());
  const double d = g.spacing_wavelengths * lambda;
  const geo::Vec3 u = dir.normalized();
  const geo::Vec3 local{u.dot(pose.forward()), u.dot(pose.left()),
                        u.dot(pose.up())};
  const double k = 2.0 * std::numbers::pi / lambda;
  const double y0 = -0.5 * d * (g.ny - 1);
  const double z0 = -0.5 * d * (g.nz - 1);
  std::vector<double> phases;
  for (unsigned iz = 0; iz < g.nz; ++iz) {
    for (unsigned iy = 0; iy < g.ny; ++iy) {
      const geo::Vec3 e{0.0, y0 + d * static_cast<double>(iy),
                        z0 + d * static_cast<double>(iz)};
      phases.push_back(k * e.dot(local));
    }
  }
  cos_theta = local.x;
  return phases;
}

/// Array gain with one sin/cos per element per call.
double reference_gain(const core::Testbed& tb, const Awv& w,
                      const geo::Vec3& dir) {
  double cos_theta = 0.0;
  const std::vector<double> phases = element_phases(tb, dir, cos_theta);
  if (w.size() != phases.size()) return 0.0;
  Complex af{0.0, 0.0};
  for (std::size_t i = 0; i < w.size(); ++i)
    af += w[i] * Complex{std::cos(phases[i]), std::sin(phases[i])};
  return std::norm(af) * mmwave::PhasedArray::element_gain(cos_theta);
}

/// Conjugate-steered AWV with its own sin/cos.
Awv reference_steer(const core::Testbed& tb, const geo::Vec3& dir) {
  double cos_theta = 0.0;
  Awv w;
  for (const double phase : element_phases(tb, dir, cos_theta))
    w.emplace_back(std::cos(phase), -std::sin(phase));
  return mmwave::power_normalized(std::move(w));
}

/// RSS from a fresh trace of the room with `bodies` in it.
double reference_rss(const core::Testbed& tb, const Awv& w,
                     const geo::Vec3& rx,
                     std::span<const geo::BodyObstacle> bodies) {
  const mmwave::LinkBudget& budget = tb.budget();
  double total_mw = 0.0;
  for (const mmwave::Path& path : tb.channel().paths(
           tb.ap().pose().position, rx, bodies, tb.blockage())) {
    const double gain_db = ratio_to_db(
        std::max(reference_gain(tb, w, path.tx_direction), 1e-12));
    const double rx_dbm = budget.tx_power_dbm + gain_db -
                          tb.channel().fspl_db(path.length_m) -
                          path.extra_loss_db + budget.rx_gain_dbi -
                          budget.implementation_loss_db;
    total_mw += dbm_to_mw(rx_dbm);
  }
  if (total_mw <= 0.0) return -200.0;
  return mw_to_dbm(total_mw);
}

std::size_t reference_best_beam(const core::Testbed& tb,
                                const geo::Vec3& target) {
  std::size_t best = 0;
  double best_gain = -1.0;
  for (std::size_t i = 0; i < tb.codebook().size(); ++i) {
    const double g = reference_gain(tb, tb.codebook().beam(i),
                                    target - tb.ap().pose().position);
    if (g > best_gain) {
      best_gain = g;
      best = i;
    }
  }
  return best;
}

std::size_t reference_common_beam(const core::Testbed& tb,
                                  std::span<const geo::Vec3> targets) {
  std::size_t best = 0;
  double best_min = -1.0;
  for (std::size_t i = 0; i < tb.codebook().size(); ++i) {
    double min_gain = std::numeric_limits<double>::infinity();
    for (const geo::Vec3& t : targets)
      min_gain = std::min(
          min_gain, reference_gain(tb, tb.codebook().beam(i),
                                   t - tb.ap().pose().position));
    if (min_gain > best_min) {
      best_min = min_gain;
      best = i;
    }
  }
  return best;
}

struct RefBeam {
  Awv awv;
  bool custom = false;
  double min_rss = -200.0;
};

RefBeam reference_finish(const core::Testbed& tb, Awv awv, bool custom,
                         std::span<const geo::Vec3> positions,
                         std::span<const geo::BodyObstacle> bodies) {
  RefBeam out{std::move(awv), custom, std::numeric_limits<double>::infinity()};
  for (const geo::Vec3& p : positions)
    out.min_rss = std::min(out.min_rss, reference_rss(tb, out.awv, p, bodies));
  return out;
}

/// The designer's multicast rule (stock common sector, RSS-weighted
/// multi-lobe beam, probe) over fresh traces.
RefBeam reference_multicast(const core::Testbed& tb,
                            const core::BeamDesignerConfig& config,
                            std::span<const geo::Vec3> positions,
                            std::span<const geo::BodyObstacle> bodies,
                            std::span<const geo::Vec3> others) {
  RefBeam stock = reference_finish(
      tb, tb.codebook().beam(reference_common_beam(tb, positions)), false,
      positions, bodies);
  if (positions.size() == 1 || !config.enable_custom_beams ||
      stock.min_rss >= config.default_beam_good_dbm)
    return stock;
  std::vector<Awv> beams;
  std::vector<double> rss_mw;
  for (const geo::Vec3& p : positions) {
    beams.push_back(reference_steer(tb, p - tb.ap().pose().position));
    rss_mw.push_back(std::max(
        dbm_to_mw(reference_rss(tb, beams.back(), p, bodies)), 1e-15));
  }
  RefBeam custom = reference_finish(tb, mmwave::combine_awvs(beams, rss_mw),
                                    true, positions, bodies);
  if (custom.min_rss < stock.min_rss + config.min_improvement_db)
    return stock;
  for (const geo::Vec3& other : others)
    if (reference_rss(tb, custom.awv, other, bodies) > config.max_spill_dbm)
      return stock;
  return custom;
}

RefBeam reference_reflection(const core::Testbed& tb, const geo::Vec3& pos,
                             std::span<const geo::BodyObstacle> bodies) {
  RefBeam best{};
  const geo::Vec3 positions[] = {pos};
  for (const mmwave::Path& path :
       tb.channel().paths(tb.ap().pose().position, pos, {}, tb.blockage())) {
    if (path.line_of_sight) continue;
    RefBeam candidate =
        reference_finish(tb, reference_steer(tb, path.tx_direction),
                         true, positions, bodies);
    if (best.awv.empty() || candidate.min_rss > best.min_rss)
      best = std::move(candidate);
  }
  return best;
}

// ---- scenes ----------------------------------------------------------------

/// Audience seats on rings around the content (room frame).
std::vector<geo::Vec3> seats(const core::Testbed& tb) {
  std::vector<geo::Vec3> out;
  for (const double radius : {1.2, 2.0, 2.6})
    for (double angle = -3.0; angle < 3.2; angle += 0.5)
      out.push_back(tb.to_room(
          {radius * std::cos(angle), radius * std::sin(angle), 1.5}));
  return out;
}

/// People on the seats plus two fault-style obstacles: a wide pillar near
/// the AP and a short crate the ceiling bounces pass over.
std::vector<geo::BodyObstacle> bodies_for(const core::Testbed& tb,
                                          std::span<const geo::Vec3> people) {
  std::vector<geo::BodyObstacle> bodies;
  for (const geo::Vec3& p : people) bodies.push_back({p, 0.25, 1.8});
  const geo::Vec3 ap = tb.ap().pose().position;
  bodies.push_back({{ap.x + 0.4, ap.y + 1.2, 0.0}, 0.45, 2.2});
  bodies.push_back({tb.to_room({0.3, -1.0, 0.0}), 0.4, 1.0});
  return bodies;
}

/// Body-index subsets, including unsorted and obstacle-only ones.
std::vector<std::vector<std::size_t>> subsets(std::size_t user,
                                              std::size_t people,
                                              std::size_t total) {
  std::vector<std::vector<std::size_t>> out{{}};
  std::vector<std::size_t> everyone_else;
  for (std::size_t v = 0; v < total; ++v)
    if (v != user) everyone_else.push_back(v);
  out.push_back(everyone_else);
  std::vector<std::size_t> reversed(everyone_else.rbegin(),
                                    everyone_else.rend());
  out.push_back(reversed);
  std::vector<std::size_t> obstacles;
  for (std::size_t j = people; j < total; ++j) obstacles.push_back(j);
  out.push_back(obstacles);
  out.push_back({total - 1, (user + 1) % people, total - 2});
  return out;
}

std::vector<geo::BodyObstacle> pick(std::span<const geo::BodyObstacle> all,
                                    std::span<const std::size_t> ids) {
  std::vector<geo::BodyObstacle> out;
  for (const std::size_t id : ids) out.push_back(all[id]);
  return out;
}

core::TestbedConfig room_config(bool reflections, int order) {
  core::TestbedConfig config;
  config.room.enable_reflections = reflections;
  config.room.max_reflection_order = order;
  return config;
}

// ---- tests -----------------------------------------------------------------

TEST(LinkTable, RssMatchesFreshTraceOverSeatSweep) {
  const core::Testbed tb;
  const std::vector<geo::Vec3> people = seats(tb);
  const std::vector<geo::BodyObstacle> bodies = bodies_for(tb, people);
  const mmwave::LinkTable links = tb.link_table(people, bodies);
  ASSERT_EQ(links.size(), people.size());
  ASSERT_EQ(links.body_count(), bodies.size());
  for (std::size_t u = 0; u < people.size(); ++u) {
    const Awv beams[] = {tb.ap().steer_at(people[u]),
                         tb.codebook().beam(u % tb.codebook().size()),
                         tb.ap().steer_at(people[(u + 3) % people.size()])};
    for (const auto& ids : subsets(u, people.size(), bodies.size())) {
      const auto blockers = pick(bodies, ids);
      for (const Awv& w : beams)
        EXPECT_EQ(links.rss_dbm(w, u, ids),
                  reference_rss(tb, w, people[u], blockers))
            << "seat " << u << ", " << ids.size() << " blockers";
    }
  }
}

class LinkTableRoom
    : public ::testing::TestWithParam<std::pair<bool, int>> {};

TEST_P(LinkTableRoom, RssMatchesFreshTraceAtEveryReflectionOrder) {
  const auto [reflections, order] = GetParam();
  const core::Testbed tb(room_config(reflections, order));
  const std::vector<geo::Vec3> people = seats(tb);
  const std::vector<geo::BodyObstacle> bodies = bodies_for(tb, people);
  const mmwave::LinkTable links = tb.link_table(people, bodies);
  for (std::size_t u = 0; u < people.size(); ++u) {
    const std::size_t expected_paths =
        tb.channel().paths(tb.ap().pose().position, people[u]).size();
    EXPECT_EQ(links.row(u).paths.size(), expected_paths);
    const Awv w = tb.ap().steer_at(people[u]);
    for (const auto& ids : subsets(u, people.size(), bodies.size()))
      EXPECT_EQ(links.rss_dbm(w, u, ids),
                reference_rss(tb, w, people[u], pick(bodies, ids)))
          << "seat " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, LinkTableRoom,
    ::testing::Values(std::pair{true, 0}, std::pair{true, 1},
                      std::pair{true, 2}, std::pair{false, 1}));

TEST(LinkTable, RowsHoldTheSteeredBeamAndSectorGains) {
  const core::Testbed tb;
  const std::vector<geo::Vec3> people = seats(tb);
  const mmwave::LinkTable links = tb.link_table(people);
  for (std::size_t u = 0; u < people.size(); ++u) {
    const mmwave::LinkRow& row = links.row(u);
    EXPECT_EQ(Awv(row.steer_awv.begin(), row.steer_awv.end()),
              reference_steer(tb, people[u] - tb.ap().pose().position));
    ASSERT_EQ(row.codebook_gain.size(), tb.codebook().size());
    for (std::size_t i = 0; i < tb.codebook().size(); ++i)
      EXPECT_EQ(row.codebook_gain[i],
                reference_gain(tb, tb.codebook().beam(i),
                               people[u] - tb.ap().pose().position));
  }
}

TEST(LinkTable, SectorChoicesMatchGainScan) {
  const core::Testbed tb;
  const std::vector<geo::Vec3> people = seats(tb);
  const mmwave::LinkTable links = tb.link_table(people);
  const mmwave::Codebook& cb = tb.codebook();
  for (std::size_t u = 0; u < people.size(); ++u) {
    EXPECT_EQ(cb.best_beam_toward(links.row(u)),
              reference_best_beam(tb, people[u]));
    const std::size_t v = (u + 5) % people.size();
    const std::size_t w = (u + 11) % people.size();
    const std::size_t group[] = {u, v, w};
    const geo::Vec3 targets[] = {people[u], people[v], people[w]};
    EXPECT_EQ(cb.best_common_beam(links, group),
              reference_common_beam(tb, targets));
  }
}

TEST(LinkTable, TiedSectorsKeepTheFirstIndex) {
  // Two identical elevation rows: every sector of the second row ties its
  // twin in the first, so a strict-> scan must never leave the first row.
  core::TestbedConfig twin_rows;
  twin_rows.codebook.el_min_rad = -0.3;
  twin_rows.codebook.el_max_rad = -0.3;
  twin_rows.codebook.el_steps = 2;
  const core::Testbed tb(twin_rows);
  const std::vector<geo::Vec3> people = seats(tb);
  const mmwave::LinkTable links = tb.link_table(people);
  const std::size_t row_len = twin_rows.codebook.az_steps;
  for (std::size_t u = 0; u < people.size(); ++u) {
    const std::size_t best = tb.codebook().best_beam_toward(links.row(u));
    EXPECT_LT(best, row_len);
    EXPECT_EQ(links.row(u).codebook_gain[best],
              links.row(u).codebook_gain[best + row_len]);
    EXPECT_EQ(best, reference_best_beam(tb, people[u]));
    const std::size_t pair[] = {u, (u + 7) % people.size()};
    EXPECT_LT(tb.codebook().best_common_beam(links, pair), row_len);
  }

  // One sector repeated everywhere: all gains tie, index 0 wins.
  core::TestbedConfig one_sector;
  one_sector.codebook.az_min_rad = one_sector.codebook.az_max_rad = 0.2;
  one_sector.codebook.el_min_rad = one_sector.codebook.el_max_rad = -0.4;
  const core::Testbed flat(one_sector);
  const mmwave::LinkTable flat_links = flat.link_table(people);
  const std::size_t all[] = {0, 1, 2};
  EXPECT_EQ(flat.codebook().best_beam_toward(flat_links.row(4)), 0u);
  EXPECT_EQ(flat.codebook().best_common_beam(flat_links, all), 0u);
}

TEST(LinkTable, DesignerMatchesFreshTraceDesign) {
  const core::Testbed tb;
  const std::vector<geo::Vec3> people = seats(tb);
  const std::vector<geo::BodyObstacle> bodies = bodies_for(tb, people);
  const mmwave::LinkTable links = tb.link_table(people, bodies);
  core::BeamDesignerConfig lax;
  core::BeamDesignerConfig strict;
  strict.max_spill_dbm = -75.0;  // the spill probe rejects some beams
  core::BeamDesignerConfig stock_only;
  stock_only.enable_custom_beams = false;
  std::size_t custom = 0;
  std::size_t stock = 0;
  for (const auto& config : {lax, strict, stock_only}) {
    const core::BeamDesigner designer(tb, config);
    for (std::size_t u = 0; u < people.size(); ++u) {
      const auto ids = subsets(u, people.size(), bodies.size())[1];
      const auto blockers = pick(bodies, ids);

      const core::GroupBeam uni = designer.design_unicast(links, u, ids);
      const RefBeam ref_uni =
          config.enable_custom_beams
              ? reference_finish(tb,
                                 reference_steer(tb, people[u] -
                                                              tb.ap().pose()
                                                                  .position),
                                 true, {&people[u], 1}, blockers)
              : reference_finish(
                    tb, tb.codebook().beam(reference_best_beam(tb, people[u])),
                    false, {&people[u], 1}, blockers);
      EXPECT_EQ(uni.awv, ref_uni.awv);
      EXPECT_EQ(uni.min_member_rss_dbm, ref_uni.min_rss);

      const std::size_t v = (u + 6) % people.size();
      const std::size_t group[] = {u, v};
      const geo::Vec3 positions[] = {people[u], people[v]};
      std::vector<std::size_t> others;
      std::vector<geo::Vec3> other_positions;
      for (std::size_t o = 0; o < people.size(); ++o)
        if (o != u && o != v && o % 4 == 0) {
          others.push_back(o);
          other_positions.push_back(people[o]);
        }
      const core::GroupBeam multi =
          designer.design_multicast(links, group, ids, others);
      const RefBeam ref_multi = reference_multicast(
          tb, config, positions, blockers, other_positions);
      EXPECT_EQ(multi.awv, ref_multi.awv) << "group " << u << "," << v;
      EXPECT_EQ(multi.custom, ref_multi.custom);
      EXPECT_EQ(multi.min_member_rss_dbm, ref_multi.min_rss);
      (multi.custom ? custom : stock) += 1;

      const core::GroupBeam refl = designer.design_reflection(links, u, ids);
      const RefBeam ref_refl = reference_reflection(tb, people[u], blockers);
      EXPECT_EQ(refl.awv, ref_refl.awv);
      if (!refl.awv.empty())
        EXPECT_EQ(refl.min_member_rss_dbm, ref_refl.min_rss);
    }
  }
  // The sweep exercised both outcomes of the design rule.
  EXPECT_GT(custom, 0u);
  EXPECT_GT(stock, 0u);
}

TEST(LinkTable, FreeFunctionsAreOneRowTables) {
  const core::Testbed tb;
  const std::vector<geo::Vec3> people = seats(tb);
  const std::vector<geo::BodyObstacle> bodies = bodies_for(tb, people);
  for (std::size_t u = 0; u < people.size(); u += 3) {
    const Awv w = tb.ap().steer_at(people[(u + 1) % people.size()]);
    EXPECT_EQ(mmwave::rss_dbm(tb.ap(), w, tb.channel(), people[u], bodies,
                              tb.budget(), tb.blockage()),
              reference_rss(tb, w, people[u], bodies));
    const Awv& sector =
        tb.codebook().beam(reference_best_beam(tb, people[u]));
    EXPECT_EQ(mmwave::best_beam_rss_dbm(tb.ap(), tb.codebook(), tb.channel(),
                                        people[u], bodies, tb.budget(),
                                        tb.blockage()),
              reference_rss(tb, sector, people[u], bodies));
  }
}

TEST(LinkTable, CountsEveryRssQuery) {
  const core::Testbed tb;
  const std::vector<geo::Vec3> people = seats(tb);
  obs::MetricRegistry metrics;
  obs::Counter& evals = metrics.counter("mmwave.rss_evals");
  const mmwave::LinkTable links = tb.link_table(people, {}, &evals);
  EXPECT_EQ(evals.value(), 0u);
  (void)links.rss_dbm(links.row(0).steer_awv, 0, {});
  EXPECT_EQ(evals.value(), 1u);
  // A designer's queries count too: stock + two members + custom, ...
  const core::BeamDesigner designer(tb);
  const std::size_t pair[] = {0, 6};
  (void)designer.design_multicast(links, pair);
  EXPECT_GE(evals.value(), 3u);
}

TEST(LinkTable, RejectsBadIndicesAndMissingSectorGains) {
  const core::Testbed tb;
  const geo::Vec3 seat = tb.to_room({2.0, 0.0, 1.5});
  const geo::BodyObstacle body{tb.to_room({1.0, 0.0, 0.0}), 0.25, 1.8};
  const mmwave::LinkTable links = tb.link_table({&seat, 1}, {&body, 1});
  const auto w = links.row(0).steer_awv;
  const std::size_t bad_body[] = {1};
  EXPECT_THROW((void)links.rss_dbm(w, 0, bad_body), std::out_of_range);
  EXPECT_THROW((void)links.rss_dbm(w, 1, {}), std::out_of_range);
  const mmwave::LinkTable bare(tb.ap(), nullptr, tb.channel(), tb.blockage(),
                               tb.budget(), {&seat, 1}, {});
  EXPECT_TRUE(bare.row(0).codebook_gain.empty());
  EXPECT_THROW((void)tb.codebook().best_beam_toward(bare.row(0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace volcast
