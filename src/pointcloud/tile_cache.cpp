#include "pointcloud/tile_cache.h"

#include <bit>
#include <cstring>
#include <utility>

namespace volcast::vv {

namespace {

// XXH64 (Collet's xxHash, 64-bit variant) primes.
constexpr std::uint64_t kXxPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kXxPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kXxPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kXxPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kXxPrime5 = 0x27d4eb2f165667c5ULL;

// XXH64 reads its input as little-endian words.
static_assert(std::endian::native == std::endian::little,
              "tile_checksum loads words in host order");

std::uint64_t load64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t load32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t xxh64_round(std::uint64_t acc, std::uint64_t lane) noexcept {
  acc += lane * kXxPrime2;
  return std::rotl(acc, 31) * kXxPrime1;
}

std::uint64_t xxh64_merge(std::uint64_t h, std::uint64_t acc) noexcept {
  h ^= xxh64_round(0, acc);
  return h * kXxPrime1 + kXxPrime4;
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t TileKey::hash() const noexcept {
  std::uint64_t state = content;
  state ^= (static_cast<std::uint64_t>(frame) << 32) |
           (static_cast<std::uint64_t>(tier) << 24) | cell;
  return splitmix64(state);
}

std::uint64_t tile_checksum(std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t left = data.size();
  std::uint64_t h;
  if (left >= 32) {
    std::uint64_t v1 = kXxPrime1 + kXxPrime2;  // seed 0
    std::uint64_t v2 = kXxPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kXxPrime1;
    do {
      v1 = xxh64_round(v1, load64(p));
      v2 = xxh64_round(v2, load64(p + 8));
      v3 = xxh64_round(v3, load64(p + 16));
      v4 = xxh64_round(v4, load64(p + 24));
      p += 32;
      left -= 32;
    } while (left >= 32);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh64_merge(h, v1);
    h = xxh64_merge(h, v2);
    h = xxh64_merge(h, v3);
    h = xxh64_merge(h, v4);
  } else {
    h = kXxPrime5;
  }
  h += data.size();
  for (; left >= 8; p += 8, left -= 8) {
    h ^= xxh64_round(0, load64(p));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
  }
  if (left >= 4) {
    h ^= load32(p) * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) {
    h ^= *p * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
  }
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

bool Tile::valid() const noexcept { return tile_checksum(payload) == checksum; }

std::uint64_t tile_content_fingerprint(
    std::uint64_t video_seed, std::size_t master_points,
    std::size_t video_frames, double cell_size_m,
    std::span<const std::size_t> tier_points) {
  constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
  const auto fold = [](std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= kFnvPrime;
    }
    return h;
  };
  std::uint64_t h = kFnvOffset;
  h = fold(h, video_seed);
  h = fold(h, master_points);
  h = fold(h, video_frames);
  h = fold(h, std::bit_cast<std::uint64_t>(cell_size_m));
  h = fold(h, tier_points.size());
  for (std::size_t points : tier_points) h = fold(h, points);
  return h;
}

Tile encode_tile(const TileKey& key, std::size_t bytes) {
  Tile tile;
  tile.key = key;
  tile.payload.resize(bytes);
  // The keystream models the codec's output; the extra mixing rounds per
  // word model the rate-distortion search a real per-cell encode performs.
  // Both feed the payload bytes, so the work cannot be elided — this is
  // what makes encode ~9-13x the cost of the stitch path's checksum pass.
  std::uint64_t state = key.hash();
  std::size_t at = 0;
  while (at < bytes) {
    std::uint64_t word = splitmix64(state);
    word ^= splitmix64(state);
    word ^= splitmix64(state);
    const std::size_t take = bytes - at < 8 ? bytes - at : 8;
    for (std::size_t i = 0; i < take; ++i)
      tile.payload[at + i] = static_cast<std::uint8_t>(word >> (8 * i));
    at += take;
  }
  tile.checksum = tile_checksum(tile.payload);
  return tile;
}

std::uint64_t stitch_tile(const Tile& tile) noexcept {
  return tile_checksum(tile.payload);
}

std::shared_ptr<const Tile> TileCache::get(const TileKey& key) {
  std::shared_ptr<const Tile> tile;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) tile = it->second.tile;
  }
  // Tiles are immutable, so the checksum pass needs no lock: concurrent
  // readers of hot tiles validate in parallel instead of queueing on mu_.
  if (tile != nullptr && tile->valid()) {
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
    return tile;
  }
  if (tile != nullptr) {
    // Bit rot (or a hostile writer): never serve a bad bitstream. Evict
    // the entry so the next encoder repopulates it — unless it was already
    // replaced while we validated, in which case the new entry is not ours
    // to judge.
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end() && it->second.tile == tile) {
      bytes_ -= tile->payload.size();
      stats_.payload_bytes.store(bytes_, std::memory_order_relaxed);
      map_.erase(it);
    }
    stats_.corrupt_rejected.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

std::shared_ptr<const Tile> TileCache::put(Tile tile) {
  auto owned = std::make_shared<const Tile>(std::move(tile));
  if (frozen()) return owned;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(owned->key);
  // First-in wins: a concurrent encoder produced identical bytes.
  if (it != map_.end()) return it->second.tile;
  const std::size_t incoming = owned->payload.size();
  if (max_bytes_ != 0 && incoming > max_bytes_) return owned;  // never fits
  evict_for(incoming);
  bytes_ += incoming;
  stats_.payload_bytes.store(bytes_, std::memory_order_relaxed);
  stats_.insertions.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t seq = next_seq_++;
  fifo_.push_back({owned->key, seq});
  map_.emplace(owned->key, Entry{owned, seq});
  return owned;
}

std::shared_ptr<const Tile> TileCache::encode_once(
    const TileKey& key, const std::function<Tile()>& encode) {
  if (frozen()) return std::make_shared<const Tile>(encode());
  std::shared_ptr<const Tile> resident;
  {
    std::unique_lock<std::mutex> lock(mu_);
    encoded_.wait(lock, [&] { return !encoding_.contains(key); });
    const auto it = map_.find(key);
    if (it != map_.end())
      resident = it->second.tile;
    else
      encoding_.insert(key);
  }
  if (resident != nullptr) {
    if (resident->valid()) return resident;
    // Corrupted since it was stored: serve a fresh copy and leave the
    // eviction to the next get().
    return std::make_shared<const Tile>(encode());
  }
  // Encode outside the lock. The key leaves the in-flight set even when
  // encode() throws, so waiters never hang on it.
  struct Done {
    TileCache& cache;
    const TileKey& key;
    ~Done() {
      {
        std::lock_guard<std::mutex> lock(cache.mu_);
        cache.encoding_.erase(key);
      }
      cache.encoded_.notify_all();
    }
  } done{*this, key};
  return put(encode());
}

bool TileCache::corrupt(const TileKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end() || it->second.tile->payload.empty()) return false;
  // Payloads are immutable shared_ptrs (readers may hold the old one):
  // replace the entry with a damaged copy instead of mutating in place.
  // The entry keeps its insertion sequence: bit rot is not a re-insert.
  Tile damaged = *it->second.tile;
  damaged.payload[damaged.payload.size() / 2] ^= 0x40;
  it->second.tile = std::make_shared<const Tile>(std::move(damaged));
  return true;
}

void TileCache::evict_for(std::size_t incoming) {
  if (max_bytes_ == 0) return;
  while (bytes_ + incoming > max_bytes_ && !fifo_.empty()) {
    const FifoSlot victim = fifo_.front();
    fifo_.pop_front();
    const auto it = map_.find(victim.key);
    // Stale slot: the key was evicted as corrupt (and maybe re-inserted
    // under a newer sequence number, which has its own slot further back).
    if (it == map_.end() || it->second.seq != victim.seq) continue;
    bytes_ -= it->second.tile->payload.size();
    map_.erase(it);
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.payload_bytes.store(bytes_, std::memory_order_relaxed);
}

std::size_t TileCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::size_t TileCache::payload_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace volcast::vv
