// Per-tick link-state table for the radio layer.
//
// Within one tick the only inputs of an (AP, user) link budget that change
// between queries are the transmit AWV and which bodies count as blockers.
// The propagation paths, their steering terms and free-space losses, the
// shadowing each body casts on each path segment, the stock sectors' gains
// toward the user and the user's steered AWV are all fixed by the user's
// position and the tick's body list. A LinkTable computes them once per
// (AP, user) row; every RSS, codebook and beam-design query of the tick then
// reads the row instead of re-tracing the room and re-running sin/cos.
//
// Bit-identity: each stored value is computed by the same expression the
// position-based link budget used, and rss_dbm() adds the terms in the same
// order (reflection loss, then each segment's body loss in segment order),
// so a table RSS equals the value Channel::paths + PhasedArray::gain gave.
//
// Body-index contract: an RSS query names its blockers as indices into the
// body list the table was built with. Each segment's body loss is summed
// from 0.0 in the caller's index order, so listing the bodies in the order
// a BodyObstacle vector used to hold them reproduces that vector's sum.
//
// Lifetime: a session builds one table per AP at the start of each tick
// and drops it with the tick; callers with other positions (a frozen sector
// sweep, a predicted pose, a test seat) build a small table of their own.
// Nothing is cached across ticks, and a built table is read-only, so any
// number of threads may query it at once.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geometry/obstacle.h"
#include "geometry/vec3.h"
#include "mmwave/channel.h"
#include "mmwave/codebook.h"
#include "mmwave/link.h"
#include "mmwave/phased_array.h"

namespace volcast::obs {
class Counter;
}  // namespace volcast::obs

namespace volcast::mmwave {

/// One propagation path of a row: everything about it that does not depend
/// on the transmit AWV or on which bodies are counted.
struct LinkPath {
  /// Steering terms toward the path's departure direction and the element
  /// gain there (PhasedArray::steering).
  std::span<const Complex> terms;
  double element_gain = 0.0;
  double fspl_db = 0.0;             // free-space loss over its length
  double reflection_loss_db = 0.0;  // wall-bounce losses (0 for LoS)
  std::size_t first_segment = 0;    // its first segment in body_loss_db
  std::size_t segments = 1;         // bounces + 1
  bool line_of_sight = true;
};

/// The link state of one user toward one AP. The spans view the owning
/// table's buffers.
struct LinkRow {
  geo::Vec3 position{};
  std::span<const LinkPath> paths;  // Channel::paths order, LoS first
  /// Loss each body casts on each path segment:
  /// [segment * body_count + body].
  std::span<const double> body_loss_db;
  /// Gain of each stock sector toward the position, and the steered AWV
  /// PhasedArray::steer_at(position). Both empty when the table was built
  /// without a codebook (a link budget for one-off RSS queries).
  std::span<const double> codebook_gain;
  std::span<const Complex> steer_awv;
};

/// Rows for a set of positions toward one AP, against one body list. All
/// rows share four buffers, so a table costs a handful of allocations
/// whatever its size. Move-only: rows view the table's own buffers.
class LinkTable {
 public:
  /// Builds one row per position. `codebook` may be null (no sector gains
  /// and no steered AWVs).
  /// `evals`, when non-null, counts rss_dbm() calls (an atomic bump, safe
  /// from parallel lanes).
  LinkTable(const PhasedArray& array, const Codebook* codebook,
            const Channel& channel, const BlockageModel& blockage,
            const LinkBudget& budget, std::span<const geo::Vec3> positions,
            std::span<const geo::BodyObstacle> bodies,
            obs::Counter* evals = nullptr);
  LinkTable(const LinkTable&) = delete;
  LinkTable& operator=(const LinkTable&) = delete;
  LinkTable(LinkTable&&) noexcept = default;
  LinkTable& operator=(LinkTable&&) noexcept = default;
  ~LinkTable() = default;

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t body_count() const noexcept { return body_count_; }
  [[nodiscard]] const LinkRow& row(std::size_t user) const {
    return rows_.at(user);
  }

  /// Every body index, in build order.
  [[nodiscard]] std::vector<std::size_t> all_bodies() const;

  /// RSS at row `user` for transmit weights `w` with the bodies `bodies`
  /// (indices into the build-time body list) as blockers: the non-coherent
  /// power sum over the row's paths of
  ///   P_tx + G_tx(path) - FSPL - reflection and body losses + G_rx.
  /// Throws std::out_of_range for a bad row or body index.
  [[nodiscard]] double rss_dbm(std::span<const Complex> w, std::size_t user,
                               std::span<const std::size_t> bodies) const;

 private:
  LinkBudget budget_;
  std::size_t body_count_;
  obs::Counter* evals_;
  std::vector<Complex> terms_;  // every path's steering terms, every AWV
  std::vector<LinkPath> paths_;
  std::vector<double> values_;  // every row's body losses, then sector gains
  std::vector<LinkRow> rows_;
};

}  // namespace volcast::mmwave
