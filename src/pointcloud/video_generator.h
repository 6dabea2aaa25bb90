// Procedural volumetric-video source.
//
// Stands in for the 8i "soldier" dynamic voxelized point cloud used by the
// paper (Section 3): an articulated human figure (head, torso, limbs built
// from ellipsoid shells) performing a walk-in-place cycle at 30 FPS. What the
// experiments need from the dataset — human-shaped cell occupancy, temporal
// coherence, 330K/430K/550K points per frame, ~2 m spatial extent — is all
// reproduced; see DESIGN.md substitution table.
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "geometry/aabb.h"
#include "pointcloud/point_cloud.h"

namespace volcast::vv {

/// Generator parameters.
struct VideoConfig {
  std::size_t points_per_frame = 550'000;
  std::size_t frame_count = 300;
  double fps = 30.0;
  std::uint64_t seed = 1;
  /// Walk-cycle rate; one full gait cycle per 1/rate seconds.
  double walk_rate_hz = 0.9;
  /// Slow whole-body yaw oscillation amplitude (radians), mimicking the
  /// subject turning in place.
  double yaw_amplitude_rad = 0.5;
};

/// Deterministic articulated-figure video. `frame_soa(i)` is a pure function
/// of (config, i): the same index always yields the same frame, so streaming
/// components can regenerate frames instead of buffering them.
///
/// Thread safety: the generator holds only its (const) config, so
/// frame_soa() and every other member may be called concurrently without
/// locking — sessions sharing one core::WorkloadBundle do exactly that.
class VideoGenerator {
 public:
  explicit VideoGenerator(VideoConfig config);

  [[nodiscard]] const VideoConfig& config() const noexcept { return config_; }

  /// Generates frame `index` (wraps modulo frame_count for looping playback).
  [[nodiscard]] FrameSoA frame_soa(std::size_t index) const;

  /// Analytic bound that contains the figure in every frame; used to build
  /// the stable CellGrid.
  [[nodiscard]] geo::Aabb content_bounds() const noexcept;

  /// Approximate centroid of the content (the "look-at" target for traces).
  [[nodiscard]] geo::Vec3 content_center() const noexcept;

 private:
  struct PartSample {
    std::uint16_t part = 0;
    geo::Vec3 local{};       // offset from the part pivot, already scaled
    std::uint8_t r = 0, g = 0, b = 0;
  };

  VideoConfig config_;
  std::vector<PartSample> samples_;  // one entry per output point
};

/// thin()'s keep rule: point i survives thinning to `fraction` iff
/// uint32(i * 2654435761) < uint32(fraction * 2^32), a Knuth multiplicative
/// hash of the index — stable, order-free, and nested: a point kept at one
/// fraction is kept at every larger one. A fraction >= 1 keeps every point,
/// one <= 0 none. VideoStore counts every quality tier from one pass over
/// the master frame with this rule instead of thinning copies.
class ThinRule {
 public:
  explicit constexpr ThinRule(double fraction) noexcept
      : threshold_(fraction >= 1.0   ? std::uint64_t{1} << 32
                   : fraction <= 0.0 ? 0
                                     : static_cast<std::uint32_t>(
                                           fraction * 4294967296.0)) {}

  [[nodiscard]] constexpr bool keeps(std::uint32_t i) const noexcept {
    return std::uint32_t{i * 2654435761u} < threshold_;
  }

  /// Orders rules by how many points they keep: a <= b means b keeps every
  /// point a keeps.
  friend constexpr auto operator<=>(const ThinRule&,
                                    const ThinRule&) = default;

 private:
  std::uint64_t threshold_;
};

/// Deterministically thins a frame to ~`fraction` of its points, uniformly
/// across the frame (ThinRule above). Used to derive the 430K / 330K
/// quality tiers from the 550K master, and for distance-based
/// level-of-detail.
[[nodiscard]] FrameSoA thin(const FrameSoA& frame, double fraction);

}  // namespace volcast::vv
