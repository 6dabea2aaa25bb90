#include "pointcloud/video_store.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/endian.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace volcast::vv {

std::vector<QualityTier> paper_quality_tiers() {
  return {{"330K", 330'000}, {"430K", 430'000}, {"550K", 550'000}};
}

std::vector<std::vector<std::uint32_t>> tier_occupancy(
    std::span<const CellId> ids, std::span<const ThinRule> rules,
    std::size_t cell_count) {
  // The rules nest, so the number of rules keeping point i (its level)
  // says which ones do: rule q keeps i iff level(i) >= need[q], the number
  // of rules that keep at least what q keeps. One histogram over
  // (cell, level) then yields every row.
  const std::size_t levels = rules.size() + 1;
  std::vector<std::uint32_t> hist(cell_count * levels, 0);
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    std::size_t level = 0;
    for (const ThinRule& rule : rules) level += rule.keeps(i) ? 1u : 0u;
    ++hist[ids[i] * levels + level];
  }
  std::vector<std::vector<std::uint32_t>> rows(rules.size());
  for (std::size_t q = 0; q < rules.size(); ++q) {
    const auto need = static_cast<std::size_t>(std::count_if(
        rules.begin(), rules.end(),
        [&](const ThinRule& r) { return r >= rules[q]; }));
    rows[q].assign(cell_count, 0);
    for (std::size_t c = 0; c < cell_count; ++c)
      for (std::size_t l = need; l < levels; ++l)
        rows[q][c] += hist[c * levels + l];
  }
  return rows;
}

namespace {

/// Exactly encodes each occupied cell of one tier of a master frame, from
/// the master's cell ids and the tier's row of counts: cell c's frame is
/// master.gather() of the master indices the tier keeps there, ascending —
/// the same points, order and bounds, hence the same bytes, as the cell
/// of thin(master, fraction) that assign_flat() and gather() carve out.
/// Appends (points, bytes) pairs for the size model.
void encode_tier_exact(const FrameSoA& master, std::span<const CellId> ids,
                       ThinRule rule, std::span<const std::uint32_t> counts,
                       const VideoStoreConfig& config,
                       std::vector<std::uint32_t>& bytes_out,
                       std::vector<double>* model_points,
                       std::vector<double>* model_bytes) {
  const FlatAssignment buckets = FlatAssignment::bucket(
      ids, counts, [rule](std::uint32_t i) { return rule.keeps(i); });
  bytes_out.assign(counts.size(), 0);
  for (CellId c = 0; c < counts.size(); ++c) {
    const auto indices = buckets.cell(c);
    if (indices.empty()) continue;
    const FrameSoA cell_frame = master.gather(indices);
    const auto blob = config.codec_kind == StoreCodec::kOctree
                          ? octree_encode(cell_frame, config.octree)
                          : encode(cell_frame, config.codec);
    bytes_out[c] = static_cast<std::uint32_t>(blob.size());
    if (model_points != nullptr) {
      model_points->push_back(static_cast<double>(indices.size()));
      model_bytes->push_back(static_cast<double>(blob.size()));
    }
  }
}

}  // namespace

VideoStore::VideoStore(const VideoGenerator& generator, const CellGrid& grid,
                       VideoStoreConfig config)
    : config_(std::move(config)), grid_(&grid), fps_(generator.config().fps) {
  if (config_.tiers.empty())
    throw std::invalid_argument("VideoStore: no quality tiers");
  const std::size_t master_points = generator.config().points_per_frame;
  std::vector<ThinRule> rules;
  for (const QualityTier& tier : config_.tiers) {
    if (tier.points_per_frame == 0 || tier.points_per_frame > master_points)
      throw std::invalid_argument(
          "VideoStore: tier point count must be in (0, generator points]");
    rules.emplace_back(static_cast<double>(tier.points_per_frame) /
                       static_cast<double>(master_points));
  }

  const std::size_t n_frames = generator.config().frame_count;
  const std::size_t n_tiers = config_.tiers.size();
  frames_.resize(n_frames);

  // Per-tier linear size model fitted from exactly encoded sample frames.
  std::vector<std::vector<double>> model_points(n_tiers);
  std::vector<std::vector<double>> model_bytes(n_tiers);
  std::vector<LinearFit> fits(n_tiers);
  const std::size_t sample_count =
      config_.exact ? n_frames
                    : std::min(std::max<std::size_t>(config_.sample_frames, 1),
                               n_frames);

  // frame_soa(f) is a pure function of the generator config, and each frame
  // fills only its own slot of frames_, so frames precompute in parallel
  // with bit-identical tables. Only the size-model fit couples frames: the
  // sample frames run serially first (their (points, bytes) pairs feed the
  // fit in frame order), then the modeled remainder fans out.
  //
  // One pass per frame serves every tier: the tiers are nested subsets of
  // the master under ThinRule, so one frame_soa() and one locate_batch()
  // give each point's cell, and point i counts toward tier q iff rules[q]
  // keeps it (tier_occupancy; encode_tier_exact for sample frames).
  const auto build_frame = [&](std::size_t f, bool exact_frame,
                               std::vector<double>* mp,
                               std::vector<double>* mb) {
    const FrameSoA master = generator.frame_soa(f);
    const std::vector<CellId> ids = grid.locate_batch(master);
    FrameSizes& sizes = frames_[f];
    sizes.points = tier_occupancy(ids, rules, grid.cell_count());
    sizes.bytes.resize(n_tiers);
    for (std::size_t q = 0; q < n_tiers; ++q) {
      const std::vector<std::uint32_t>& counts = sizes.points[q];
      if (exact_frame) {
        encode_tier_exact(master, ids, rules[q], counts, config_,
                          sizes.bytes[q], mp != nullptr ? &mp[q] : nullptr,
                          mb != nullptr ? &mb[q] : nullptr);
      } else {
        // Modeled sizing: occupancy is exact, bytes come from the fit.
        sizes.bytes[q].assign(grid.cell_count(), 0);
        for (CellId c = 0; c < counts.size(); ++c) {
          if (counts[c] == 0) continue;
          const double predicted = fits[q].at(static_cast<double>(counts[c]));
          const double floor_bytes = static_cast<double>(kCodecHeaderBytes);
          sizes.bytes[q][c] = static_cast<std::uint32_t>(
              std::max(predicted, floor_bytes));
        }
      }
    }
  };

  if (config_.exact) {
    // Every frame is exact and independent (no size model to fit).
    common::ThreadPool::run(config_.pool, n_frames, [&](std::size_t f) {
      build_frame(f, true, nullptr, nullptr);
    });
  } else {
    for (std::size_t f = 0; f < sample_count; ++f)
      build_frame(f, true, model_points.data(), model_bytes.data());
    for (std::size_t q = 0; q < n_tiers; ++q)
      fits[q] = fit_line(model_points[q], model_bytes[q]);
    common::ThreadPool::run(
        config_.pool, n_frames - sample_count,
        [&](std::size_t i) {
          build_frame(sample_count + i, false, nullptr, nullptr);
        });
  }
}

std::size_t VideoStore::cell_bytes(std::size_t frame, std::size_t tier,
                                   CellId cell) const {
  return frames_.at(frame).bytes.at(tier).at(cell);
}

std::uint32_t VideoStore::cell_points(std::size_t frame, std::size_t tier,
                                      CellId cell) const {
  return frames_.at(frame).points.at(tier).at(cell);
}

std::span<const std::uint32_t> VideoStore::points(std::size_t frame,
                                                  std::size_t tier) const {
  return frames_.at(frame).points.at(tier);
}

std::size_t VideoStore::frame_bytes(std::size_t frame,
                                    std::size_t tier) const {
  const auto& bytes = frames_.at(frame).bytes.at(tier);
  std::size_t total = 0;
  for (std::uint32_t b : bytes) total += b;
  return total;
}

double VideoStore::tier_bitrate_mbps(std::size_t tier) const {
  if (frames_.empty()) return 0.0;
  double total_bits = 0.0;
  for (std::size_t f = 0; f < frames_.size(); ++f)
    total_bits += byte_bits(static_cast<double>(frame_bytes(f, tier)));
  const double mean_bits_per_frame =
      total_bits / static_cast<double>(frames_.size());
  return bits_to_megabits(mean_bits_per_frame * fps_);
}

double VideoStore::tier_bits_per_point(std::size_t tier) const {
  double bits = 0.0;
  double points = 0.0;
  for (const FrameSizes& f : frames_) {
    for (std::uint32_t b : f.bytes.at(tier)) bits += byte_bits(b);
    for (std::uint32_t n : f.points.at(tier)) points += n;
  }
  return points > 0.0 ? bits / points : 0.0;
}

namespace {

constexpr std::uint8_t kStoreMagic[4] = {'V', 'S', 'T', 'R'};
constexpr std::uint32_t kStoreVersion = 1;
constexpr std::size_t kMaxTiers = 64;
constexpr std::size_t kMaxFrames = 1u << 20;
constexpr std::size_t kMaxNameLen = 256;

std::uint64_t fnv1a(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

using common::put_u32;
using common::put_u64;

/// Bounds-checked little-endian reader; every decode failure throws.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = common::get_u32(data_, pos_);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = common::get_u64(data_, pos_);
    pos_ += 8;
    return v;
  }
  std::string str(std::size_t len) {
    need(len);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

 private:
  void need(std::size_t bytes) const {
    if (pos_ + bytes > data_.size())
      throw std::runtime_error("VideoStore: truncated blob");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> VideoStore::serialize() const {
  // Header (magic, version, fps, three counts), tier records, both size
  // tables and the checksum, sized up front: one allocation, and no
  // growth from an empty vector for GCC's -Wstringop-overflow to misread.
  std::size_t size = sizeof kStoreMagic + 4 + 8 + 4 + 4 + 8 + 8;
  for (const QualityTier& tier : config_.tiers)
    size += 4 + tier.name.size() + 8;
  for (const FrameSizes& frame : frames_)
    for (std::size_t q = 0; q < config_.tiers.size(); ++q)
      size += 4 * (frame.bytes.at(q).size() + frame.points.at(q).size());
  std::vector<std::uint8_t> out;
  out.reserve(size);
  for (std::uint8_t b : kStoreMagic) out.push_back(b);
  put_u32(out, kStoreVersion);
  common::put_f64(out, fps_);
  put_u32(out, static_cast<std::uint32_t>(config_.tiers.size()));
  put_u32(out, static_cast<std::uint32_t>(frames_.size()));
  put_u64(out, grid_ != nullptr ? grid_->cell_count() : 0);
  for (const QualityTier& tier : config_.tiers) {
    put_u32(out, static_cast<std::uint32_t>(tier.name.size()));
    out.insert(out.end(), tier.name.begin(), tier.name.end());
    put_u64(out, tier.points_per_frame);
  }
  for (const FrameSizes& frame : frames_) {
    for (std::size_t q = 0; q < config_.tiers.size(); ++q) {
      for (std::uint32_t b : frame.bytes.at(q)) put_u32(out, b);
      for (std::uint32_t p : frame.points.at(q)) put_u32(out, p);
    }
  }
  put_u64(out, fnv1a(out));
  return out;
}

VideoStore VideoStore::deserialize(const CellGrid& grid,
                                   std::span<const std::uint8_t> blob) {
  if (blob.size() < sizeof kStoreMagic + 8)
    throw std::runtime_error("VideoStore: blob too small");
  Reader checksum_reader(blob.subspan(blob.size() - 8));
  const std::uint64_t expected = checksum_reader.u64();
  if (fnv1a(blob.subspan(0, blob.size() - 8)) != expected)
    throw std::runtime_error("VideoStore: checksum mismatch");

  Reader in(blob.subspan(0, blob.size() - 8));
  if (std::memcmp(in.str(4).data(), kStoreMagic, 4) != 0)
    throw std::runtime_error("VideoStore: bad magic");
  if (in.u32() != kStoreVersion)
    throw std::runtime_error("VideoStore: unsupported version");
  VideoStore store;
  const double fps = std::bit_cast<double>(in.u64());
  if (!(fps > 0.0) || !std::isfinite(fps))
    throw std::runtime_error("VideoStore: invalid fps");
  store.fps_ = fps;
  const std::size_t n_tiers = in.u32();
  const std::size_t n_frames = in.u32();
  const std::uint64_t n_cells = in.u64();
  if (n_tiers == 0 || n_tiers > kMaxTiers)
    throw std::runtime_error("VideoStore: tier count out of range");
  if (n_frames > kMaxFrames)
    throw std::runtime_error("VideoStore: frame count out of range");
  if (n_cells != grid.cell_count())
    throw std::runtime_error("VideoStore: cell count does not match grid");
  store.config_.tiers.clear();
  for (std::size_t q = 0; q < n_tiers; ++q) {
    const std::size_t name_len = in.u32();
    if (name_len > kMaxNameLen)
      throw std::runtime_error("VideoStore: tier name too long");
    QualityTier tier;
    tier.name = in.str(name_len);
    tier.points_per_frame = in.u64();
    store.config_.tiers.push_back(std::move(tier));
  }
  store.grid_ = &grid;
  store.frames_.resize(n_frames);
  for (FrameSizes& frame : store.frames_) {
    frame.bytes.resize(n_tiers);
    frame.points.resize(n_tiers);
    for (std::size_t q = 0; q < n_tiers; ++q) {
      frame.bytes[q].resize(n_cells);
      for (std::uint64_t c = 0; c < n_cells; ++c) frame.bytes[q][c] = in.u32();
      frame.points[q].resize(n_cells);
      for (std::uint64_t c = 0; c < n_cells; ++c)
        frame.points[q][c] = in.u32();
    }
  }
  if (in.pos() != blob.size() - 8)
    throw std::runtime_error("VideoStore: trailing bytes in blob");
  return store;
}

}  // namespace volcast::vv
