#include "pointcloud/cell_grid.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"

namespace volcast::vv {
namespace {

const geo::Aabb kUnitBox({0, 0, 0}, {1, 1, 1});

TEST(CellGrid, RejectsBadArguments) {
  EXPECT_THROW(CellGrid(kUnitBox, 0.0), std::invalid_argument);
  EXPECT_THROW(CellGrid(kUnitBox, -1.0), std::invalid_argument);
  EXPECT_THROW(CellGrid(geo::Aabb{}, 0.5), std::invalid_argument);
}

TEST(CellGrid, CellCountsMatchDimensions) {
  const CellGrid grid(geo::Aabb({0, 0, 0}, {2, 1, 0.5}), 0.5);
  EXPECT_EQ(grid.nx(), 4u);
  EXPECT_EQ(grid.ny(), 2u);
  EXPECT_EQ(grid.nz(), 1u);
  EXPECT_EQ(grid.cell_count(), 8u);
}

TEST(CellGrid, CellLargerThanContentGivesOneCell) {
  const CellGrid grid(kUnitBox, 5.0);
  EXPECT_EQ(grid.cell_count(), 1u);
}

TEST(CellGrid, PaperCellSizes) {
  // The paper's three partition granularities over a ~1.6x1.6x1.9 m body.
  const geo::Aabb body({-0.8, -0.8, 0.0}, {0.8, 0.8, 1.9});
  EXPECT_EQ(CellGrid(body, 1.00).cell_count(), 2u * 2u * 2u);
  EXPECT_EQ(CellGrid(body, 0.50).cell_count(), 4u * 4u * 4u);
  EXPECT_EQ(CellGrid(body, 0.25).cell_count(),
            7u * 7u * 8u);
}

TEST(CellGrid, CellBoundsTileTheBox) {
  const CellGrid grid(kUnitBox, 0.5);
  double total = 0.0;
  for (CellId c = 0; c < grid.cell_count(); ++c)
    total += grid.cell_bounds(c).volume();
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(CellGrid, CellBoundsOutOfRangeThrows) {
  const CellGrid grid(kUnitBox, 0.5);
  EXPECT_THROW((void)grid.cell_bounds(grid.cell_count()), std::out_of_range);
}

TEST(CellGrid, LocateRoundTripsWithCellBounds) {
  const CellGrid grid(kUnitBox, 0.3);
  for (CellId c = 0; c < grid.cell_count(); ++c) {
    EXPECT_EQ(grid.locate(grid.cell_center(c)), c);
  }
}

TEST(CellGrid, LocateClampsOutOfBoundsPoints) {
  const CellGrid grid(kUnitBox, 0.5);
  EXPECT_EQ(grid.locate({-5, -5, -5}), grid.locate({0, 0, 0}));
  EXPECT_EQ(grid.locate({5, 5, 5}), grid.locate({1, 1, 1}));
}

TEST(CellGrid, AssignPartitionsAllPoints) {
  const CellGrid grid(kUnitBox, 0.5);
  FrameSoA frame;
  for (int i = 0; i < 100; ++i) {
    const double v = i / 100.0;
    frame.push_back({v, 1.0 - v, 0.5}, 0, 0, 0);
  }
  const FlatAssignment flat = grid.assign_flat(frame);
  std::size_t total = 0;
  for (CellId c = 0; c < grid.cell_count(); ++c) total += flat.cell(c).size();
  EXPECT_EQ(total, frame.size());
  // Indices must be valid and unique.
  std::vector<bool> seen(frame.size(), false);
  for (CellId c = 0; c < grid.cell_count(); ++c) {
    for (auto i : flat.cell(c)) {
      ASSERT_LT(i, frame.size());
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
}

TEST(CellGrid, OccupancyMatchesAssign) {
  const CellGrid grid(kUnitBox, 0.34);
  FrameSoA frame;
  volcast::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const geo::Vec3 p{rng.uniform(), rng.uniform(), rng.uniform()};
    frame.push_back(p, 0, 0, 0);
  }
  const FlatAssignment flat = grid.assign_flat(frame);
  const auto counts = grid.occupancy(frame);
  ASSERT_EQ(flat.offsets.size(), counts.size() + 1);
  for (CellId c = 0; c < counts.size(); ++c)
    EXPECT_EQ(counts[c], flat.cell(c).size());
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 500u);
}

TEST(CellGrid, BatchKernelsMatchLocate) {
  // locate() is the one-point definition; locate_batch, assign_flat and
  // occupancy must agree with it on random points, on points exactly on
  // interior cell boundaries (lo + k * cell_size) and one ulp either side,
  // where a multiply by the reciprocal can truncate into a different cell
  // than locate()'s divide, and on points outside the box, which clamp into
  // edge cells.
  const geo::Aabb box({-0.8, -0.8, 0.0}, {0.8, 0.8, 2.0});
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double cell : {0.1, 0.25, 0.3, 0.34}) {
    const CellGrid grid(box, cell);
    volcast::Rng rng(17);
    FrameSoA frame;
    for (int i = 0; i < 2000; ++i) {
      const geo::Vec3 p{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                        rng.uniform(-0.2, 2.2)};
      frame.push_back(p, 0, 0, 0);
    }
    const std::array<std::uint32_t, 3> cells{grid.nx(), grid.ny(), grid.nz()};
    const std::array<double, 3> lo{box.lo.x, box.lo.y, box.lo.z};
    for (std::size_t axis = 0; axis < 3; ++axis) {
      for (std::uint32_t k = 1; k < cells[axis]; ++k) {
        const double edge = lo[axis] + static_cast<double>(k) * cell;
        for (const double v : {std::nextafter(edge, -kInf), edge,
                               std::nextafter(edge, kInf)}) {
          geo::Vec3 p{rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8),
                      rng.uniform(0.0, 2.0)};
          (axis == 0 ? p.x : axis == 1 ? p.y : p.z) = v;
          frame.push_back(p, 0, 0, 0);
        }
      }
    }
    frame.push_back({-5.0, -5.0, -5.0}, 0, 0, 0);
    frame.push_back({5.0, 5.0, 5.0}, 0, 0, 0);
    frame.push_back(box.hi, 0, 0, 0);

    const std::vector<CellId> ids = grid.locate_batch(frame);
    ASSERT_EQ(ids.size(), frame.size());
    for (std::size_t i = 0; i < frame.size(); ++i)
      ASSERT_EQ(ids[i], grid.locate(frame.position(i)))
          << "cell size " << cell << " point " << i;

    const FlatAssignment flat = grid.assign_flat(frame);
    ASSERT_EQ(flat.offsets.size(), grid.cell_count() + 1);
    ASSERT_EQ(flat.indices.size(), frame.size());
    std::vector<bool> seen(frame.size(), false);
    for (CellId c = 0; c < grid.cell_count(); ++c) {
      const auto members = flat.cell(c);
      for (std::size_t k = 0; k < members.size(); ++k) {
        const std::uint32_t i = members[k];
        ASSERT_LT(i, frame.size());
        EXPECT_FALSE(seen[i]) << "index " << i << " assigned twice";
        seen[i] = true;
        EXPECT_EQ(grid.locate(frame.position(i)), c);
        if (k > 0) EXPECT_LT(members[k - 1], i) << "cell " << c;
      }
    }

    const std::vector<std::uint32_t> counts = grid.occupancy(frame);
    ASSERT_EQ(counts.size(), grid.cell_count());
    for (CellId c = 0; c < grid.cell_count(); ++c)
      EXPECT_EQ(counts[c], flat.cell(c).size()) << "cell " << c;
  }
}

TEST(CellGrid, PointsLandInContainingCell) {
  const CellGrid grid(kUnitBox, 0.25);
  volcast::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const geo::Vec3 p{rng.uniform(), rng.uniform(), rng.uniform()};
    const CellId c = grid.locate(p);
    // The located cell's padded bounds must contain the point (padding for
    // boundary points assigned to the lower cell).
    EXPECT_TRUE(grid.cell_bounds(c).padded(1e-9).contains(p));
  }
}

class CellGridSizeSweep : public ::testing::TestWithParam<double> {};

TEST_P(CellGridSizeSweep, FinerGridsHaveMoreCells) {
  const double size = GetParam();
  const CellGrid coarse(kUnitBox, size * 2.0);
  const CellGrid fine(kUnitBox, size);
  EXPECT_GE(fine.cell_count(), coarse.cell_count());
}

INSTANTIATE_TEST_SUITE_P(Sizes, CellGridSizeSweep,
                         ::testing::Values(0.1, 0.2, 0.25, 0.3, 0.5));

}  // namespace
}  // namespace volcast::vv
