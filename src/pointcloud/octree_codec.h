// Octree occupancy codec — the compression family of GROOT and MPEG G-PCC,
// which the paper cites as the other practical volumetric pipeline
// (GROOT's GPU decoder consumes exactly this kind of occupancy-mask
// stream).
//
// Encode: voxelize to a 2^depth cubic grid, sort by Morton code, then walk
// the implicit octree depth-first emitting one 8-bit child-occupancy mask
// per internal node; masks are entropy-coded bit-by-bit with contexts per
// (tree level, child index). Colors are per-voxel averages, delta-coded in
// traversal order.
//
// Semantics differ from the Morton-delta codec in codec.h: the octree
// stream stores *voxels*, so duplicate points collapse (standard
// voxelization semantics); decode returns one point per occupied voxel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pointcloud/point_cloud.h"

namespace volcast::vv {

/// Octree codec parameters.
struct OctreeCodecConfig {
  /// Tree depth = bits per axis (1..16). Depth 10 over a ~2 m figure is a
  /// ~2 mm voxel.
  unsigned depth = 10;
  bool encode_colors = true;
};

/// Encodes a frame as an octree occupancy stream. Empty frames are valid.
/// Throws std::invalid_argument for an out-of-range depth.
[[nodiscard]] std::vector<std::uint8_t> octree_encode(
    const FrameSoA& frame, const OctreeCodecConfig& config = {});

/// Decodes a stream produced by octree_encode: one point per occupied
/// voxel, positioned at the voxel center. Throws std::runtime_error on a
/// malformed header.
[[nodiscard]] FrameSoA octree_decode(std::span<const std::uint8_t> data);

/// Number of occupied voxels the encoded stream holds (reads the header).
[[nodiscard]] std::size_t octree_voxel_count(
    std::span<const std::uint8_t> data);

}  // namespace volcast::vv
