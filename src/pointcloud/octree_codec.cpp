#include "pointcloud/octree_codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/endian.h"
#include "geometry/morton.h"
#include "pointcloud/range_coder.h"

namespace volcast::vv {
namespace {

constexpr std::array<std::uint8_t, 4> kMagic{'V', 'O', 'C', '1'};
constexpr unsigned kMaxDepth = 16;
constexpr std::size_t kHeaderBytes = 4 + 4 + 1 + 1 + 6 * 8;

using common::get_f64;
using common::get_u32;
using common::put_f64;
using common::put_u32;

/// Occupancy-bit contexts: (level bucket, child index).
struct OccupancyModels {
  static constexpr unsigned kLevelBuckets = 8;
  std::array<BitModel, kLevelBuckets * 8> models;

  BitModel& at(unsigned level, unsigned child) {
    const unsigned bucket = std::min(level, kLevelBuckets - 1);
    return models[bucket * 8 + child];
  }
};

struct ColorCoder {
  BitModel zero[3];
  // Simple adaptive magnitude coding: unary length + raw payload.
  std::array<BitModel, 9> length[3];
  std::array<std::uint8_t, 3> previous{128, 128, 128};

  void encode(RangeEncoder& enc, const std::array<std::uint8_t, 3>& color) {
    for (int ch = 0; ch < 3; ++ch) {
      const auto chan = static_cast<std::size_t>(ch);
      const int diff = int{color[chan]} - int{previous[chan]};
      enc.encode_bit(zero[chan], diff != 0);
      if (diff != 0) {
        const auto mag = static_cast<std::uint32_t>(
            (diff > 0 ? diff * 2 - 1 : -diff * 2) - 1);  // zigzag - 1
        unsigned len = 0;
        while ((mag >> len) != 0 && len < 9) ++len;
        for (unsigned i = 0; i < len; ++i)
          enc.encode_bit(length[chan][i], true);
        if (len < 9) enc.encode_bit(length[chan][len], false);
        if (len > 1)
          enc.encode_raw(mag & ((1u << (len - 1)) - 1), len - 1);
      }
      previous[chan] = color[chan];
    }
  }

  std::array<std::uint8_t, 3> decode(RangeDecoder& dec) {
    for (int ch = 0; ch < 3; ++ch) {
      const auto chan = static_cast<std::size_t>(ch);
      if (dec.decode_bit(zero[chan])) {
        unsigned len = 0;
        while (len < 9 && dec.decode_bit(length[chan][len])) ++len;
        std::uint32_t mag = 0;
        if (len > 0) {
          mag = 1;
          if (len > 1)
            mag = (mag << (len - 1)) |
                  static_cast<std::uint32_t>(dec.decode_raw(len - 1));
        }
        const auto zig = mag + 1;
        const int diff = (zig & 1) ? static_cast<int>((zig + 1) / 2)
                                   : -static_cast<int>(zig / 2);
        previous[chan] =
            static_cast<std::uint8_t>(int{previous[chan]} + diff);
      }
    }
    return previous;
  }
};

struct Voxel {
  std::uint64_t code;  // Morton code at full depth
  std::uint32_t r_sum, g_sum, b_sum, count;
};

}  // namespace

std::vector<std::uint8_t> octree_encode(const FrameSoA& frame,
                                        const OctreeCodecConfig& config) {
  if (config.depth == 0 || config.depth > kMaxDepth)
    throw std::invalid_argument("octree codec: depth out of range [1, 16]");

  const geo::Aabb stored =
      frame.empty() ? geo::Aabb{{0, 0, 0}, {0, 0, 0}} : frame.bounds();

  // Voxelize: quantize into the cubic 2^depth grid, merge duplicates,
  // average colors.
  const double max_q = static_cast<double>((1u << config.depth) - 1);
  const geo::Vec3 extent = stored.extent();
  const double span = std::max({extent.x, extent.y, extent.z, 1e-12});
  auto quantize = [&](double v, double lo) {
    const double q = std::floor((v - lo) / span * (max_q + 1.0));
    return static_cast<std::uint32_t>(std::clamp(q, 0.0, max_q));
  };

  const std::span<const double> xs = frame.xs();
  const std::span<const double> ys = frame.ys();
  const std::span<const double> zs = frame.zs();
  const std::span<const std::uint8_t> rgb = frame.rgb();
  std::vector<Voxel> voxels;
  voxels.reserve(frame.size());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const auto code = geo::morton_encode(quantize(xs[i], stored.lo.x),
                                         quantize(ys[i], stored.lo.y),
                                         quantize(zs[i], stored.lo.z));
    voxels.push_back({code, rgb[3 * i], rgb[3 * i + 1], rgb[3 * i + 2], 1});
  }
  std::sort(voxels.begin(), voxels.end(),
            [](const Voxel& a, const Voxel& b) { return a.code < b.code; });
  // Merge equal codes.
  std::size_t write = 0;
  for (std::size_t i = 0; i < voxels.size(); ++i) {
    if (write > 0 && voxels[write - 1].code == voxels[i].code) {
      voxels[write - 1].r_sum += voxels[i].r_sum;
      voxels[write - 1].g_sum += voxels[i].g_sum;
      voxels[write - 1].b_sum += voxels[i].b_sum;
      voxels[write - 1].count += voxels[i].count;
    } else {
      voxels[write++] = voxels[i];
    }
  }
  voxels.resize(write);

  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + voxels.size());
  for (const std::uint8_t b : kMagic) out.push_back(b);
  put_u32(out, static_cast<std::uint32_t>(voxels.size()));
  out.push_back(static_cast<std::uint8_t>(config.depth));
  out.push_back(config.encode_colors ? 1 : 0);
  put_f64(out, stored.lo.x);
  put_f64(out, stored.lo.y);
  put_f64(out, stored.lo.z);
  put_f64(out, stored.hi.x);
  put_f64(out, stored.hi.y);
  put_f64(out, stored.hi.z);
  if (voxels.empty()) return out;

  RangeEncoder enc;
  OccupancyModels occupancy;
  ColorCoder colors;

  // Depth-first over the implicit octree: a node is a contiguous range of
  // the Morton-sorted voxels sharing a code prefix.
  struct Node {
    std::size_t begin, end;
    unsigned level;  // 0 = root
  };
  std::vector<Node> stack{{0, voxels.size(), 0}};
  const unsigned depth = config.depth;
  while (!stack.empty()) {
    const Node node = stack.back();
    stack.pop_back();
    if (node.level == depth) {
      if (config.encode_colors) {
        const Voxel& v = voxels[node.begin];
        colors.encode(enc, {static_cast<std::uint8_t>(v.r_sum / v.count),
                            static_cast<std::uint8_t>(v.g_sum / v.count),
                            static_cast<std::uint8_t>(v.b_sum / v.count)});
      }
      continue;
    }
    // Partition the range by the 3-bit child index at this level.
    const unsigned shift = 3 * (depth - 1 - node.level);
    std::array<std::size_t, 9> edges{};
    edges[0] = node.begin;
    std::size_t pos = node.begin;
    for (unsigned child = 0; child < 8; ++child) {
      while (pos < node.end &&
             ((voxels[pos].code >> shift) & 7u) == child)
        ++pos;
      edges[child + 1] = pos;
    }
    // Emit the occupancy mask, then push occupied children in reverse so
    // the DFS visits them in ascending Morton order.
    for (unsigned child = 0; child < 8; ++child) {
      enc.encode_bit(occupancy.at(node.level, child),
                     edges[child + 1] > edges[child]);
    }
    for (unsigned child = 8; child-- > 0;) {
      if (edges[child + 1] > edges[child])
        stack.push_back({edges[child], edges[child + 1], node.level + 1});
    }
  }
  const auto payload = enc.finish();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

FrameSoA octree_decode(std::span<const std::uint8_t> data) {
  if (data.size() < kHeaderBytes ||
      !std::equal(kMagic.begin(), kMagic.end(), data.begin()))
    throw std::runtime_error("octree codec: bad header");
  const std::uint32_t voxel_count = get_u32(data, 4);
  const unsigned depth = data[8];
  const bool has_colors = data[9] != 0;
  if (depth == 0 || depth > kMaxDepth)
    throw std::runtime_error("octree codec: corrupt depth");
  if (voxel_count > 64 * 8 * (data.size() - kHeaderBytes) + 64)
    throw std::runtime_error("octree codec: corrupt voxel count");
  geo::Aabb bounds;
  bounds.lo = {get_f64(data, 10), get_f64(data, 18), get_f64(data, 26)};
  bounds.hi = {get_f64(data, 34), get_f64(data, 42), get_f64(data, 50)};

  if (voxel_count == 0) return {};

  const double max_q = static_cast<double>((1u << depth) - 1);
  const geo::Vec3 extent = bounds.extent();
  const double span = std::max({extent.x, extent.y, extent.z, 1e-12});
  const double step = span / (max_q + 1.0);
  auto voxel_center = [&](std::uint32_t q, double lo) {
    return lo + (static_cast<double>(q) + 0.5) * step;
  };

  RangeDecoder dec(data.subspan(kHeaderBytes));
  OccupancyModels occupancy;
  ColorCoder colors;

  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
  std::vector<std::uint8_t> rgb;
  x.reserve(voxel_count);
  y.reserve(voxel_count);
  z.reserve(voxel_count);
  rgb.reserve(3 * std::size_t{voxel_count});

  struct Node {
    std::uint64_t prefix;
    unsigned level;
  };
  std::vector<Node> stack{{0, 0}};
  while (!stack.empty() && x.size() < voxel_count) {
    const Node node = stack.back();
    stack.pop_back();
    if (node.level == depth) {
      const auto coords = geo::morton_decode(node.prefix);
      x.push_back(voxel_center(coords.x, bounds.lo.x));
      y.push_back(voxel_center(coords.y, bounds.lo.y));
      z.push_back(voxel_center(coords.z, bounds.lo.z));
      const std::array<std::uint8_t, 3> c =
          has_colors ? colors.decode(dec)
                     : std::array<std::uint8_t, 3>{128, 128, 128};
      rgb.insert(rgb.end(), c.begin(), c.end());
      continue;
    }
    std::array<bool, 8> mask{};
    for (unsigned child = 0; child < 8; ++child)
      mask[child] = dec.decode_bit(occupancy.at(node.level, child));
    for (unsigned child = 8; child-- > 0;) {
      if (mask[child])
        stack.push_back({(node.prefix << 3) | child, node.level + 1});
    }
  }
  return FrameSoA::from_columns(std::move(x), std::move(y), std::move(z),
                                std::move(rgb));
}

std::size_t octree_voxel_count(std::span<const std::uint8_t> data) {
  if (data.size() < kHeaderBytes ||
      !std::equal(kMagic.begin(), kMagic.end(), data.begin()))
    throw std::runtime_error("octree codec: bad header");
  return get_u32(data, 4);
}

}  // namespace volcast::vv
