#include "pointcloud/cell_grid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace volcast::vv {

CellGrid::CellGrid(const geo::Aabb& content_bounds, double cell_size_m)
    : bounds_(content_bounds), cell_size_(cell_size_m) {
  if (!(cell_size_m > 0.0))
    throw std::invalid_argument("CellGrid: cell size must be positive");
  if (!content_bounds.valid())
    throw std::invalid_argument("CellGrid: invalid content bounds");
  const geo::Vec3 extent = content_bounds.extent();
  auto cells_along = [cell_size_m](double len) {
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::ceil(len / cell_size_m - 1e-9)));
  };
  nx_ = cells_along(extent.x);
  ny_ = cells_along(extent.y);
  nz_ = cells_along(extent.z);
  if (cell_count() > 16u * 1024u * 1024u)
    throw std::invalid_argument("CellGrid: too many cells");
}

geo::Aabb CellGrid::cell_bounds(CellId id) const {
  if (id >= cell_count()) throw std::out_of_range("CellGrid::cell_bounds");
  const std::uint32_t ix = id % nx_;
  const std::uint32_t iy = (id / nx_) % ny_;
  const std::uint32_t iz = id / (nx_ * ny_);
  const geo::Vec3 lo = bounds_.lo + geo::Vec3{ix * cell_size_, iy * cell_size_,
                                              iz * cell_size_};
  return {lo, lo + geo::Vec3{cell_size_, cell_size_, cell_size_}};
}

geo::Vec3 CellGrid::cell_center(CellId id) const {
  return cell_bounds(id).center();
}

CellId CellGrid::locate(const geo::Vec3& p) const noexcept {
  auto clamp_axis = [this](double v, double lo, std::uint32_t n) {
    const auto raw = static_cast<std::int64_t>((v - lo) / cell_size_);
    return static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(raw, 0, static_cast<std::int64_t>(n) - 1));
  };
  const std::uint32_t ix = clamp_axis(p.x, bounds_.lo.x, nx_);
  const std::uint32_t iy = clamp_axis(p.y, bounds_.lo.y, ny_);
  const std::uint32_t iz = clamp_axis(p.z, bounds_.lo.z, nz_);
  return ix + nx_ * (iy + ny_ * iz);
}

std::vector<CellId> CellGrid::locate_batch(const FrameSoA& frame) const {
  const std::size_t n = frame.size();
  std::vector<CellId> ids(n);
  for (std::size_t i = 0; i < n; ++i)
    ids[i] = locate(frame.position(i));
  return ids;
}

FlatAssignment CellGrid::assign_flat(const FrameSoA& frame) const {
  const std::vector<CellId> ids = locate_batch(frame);
  std::vector<std::uint32_t> counts(cell_count(), 0);
  for (const CellId id : ids) ++counts[id];
  return FlatAssignment::bucket(ids, counts,
                                [](std::uint32_t) { return true; });
}

std::vector<std::uint32_t> CellGrid::occupancy(const FrameSoA& frame) const {
  std::vector<std::uint32_t> counts(cell_count(), 0);
  for (const CellId id : locate_batch(frame)) ++counts[id];
  return counts;
}

}  // namespace volcast::vv
