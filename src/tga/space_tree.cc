#include "tga/space_tree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "tga/nybble_stats.h"

namespace v6::tga {

using v6::net::Ipv6Addr;

// ---- RegionCursor ------------------------------------------------------

RegionCursor::RegionCursor(Ipv6Addr base, std::vector<int> free_nybbles)
    : base_(base), free_(std::move(free_nybbles)) {
  std::sort(free_.begin(), free_.end());
  // Zero the free positions of the base so enumeration starts at the
  // region origin.
  for (const int pos : free_) base_ = base_.with_nybble(pos, 0);
}

std::uint64_t RegionCursor::capacity() const {
  if (free_.size() >= 16) return ~0ULL;  // effectively unbounded
  return 1ULL << (4 * free_.size());
}

std::optional<Ipv6Addr> RegionCursor::next() {
  if (counter_ >= capacity()) return std::nullopt;
  Ipv6Addr addr = base_;
  std::uint64_t c = counter_;
  // Rightmost free position spins fastest.
  for (std::size_t j = 0; j < free_.size(); ++j) {
    const int pos = free_[free_.size() - 1 - j];
    addr = addr.with_nybble(pos, static_cast<std::uint8_t>(c & 0xF));
    c >>= 4;
  }
  ++counter_;
  return addr;
}

bool RegionCursor::extend() {
  // Free the rightmost currently-fixed nybble.
  std::array<bool, Ipv6Addr::kNybbles> is_free{};
  for (const int pos : free_) is_free[static_cast<std::size_t>(pos)] = true;
  for (int pos = Ipv6Addr::kNybbles - 1; pos >= 0; --pos) {
    if (!is_free[static_cast<std::size_t>(pos)]) {
      free_.push_back(pos);
      std::sort(free_.begin(), free_.end());
      base_ = base_.with_nybble(pos, 0);
      counter_ = 0;  // restart enumeration over the enlarged space
      return true;
    }
  }
  return false;
}

// ---- RangeCursor ---------------------------------------------------------

RangeCursor::RangeCursor(Ipv6Addr base, std::vector<int> positions,
                         std::vector<std::vector<std::uint8_t>> values)
    : base_(base), positions_(std::move(positions)), values_(std::move(values)) {}

std::uint64_t RangeCursor::capacity() const {
  std::uint64_t c = 1;
  for (const auto& v : values_) {
    c *= v.size();
    if (c > (1ULL << 62)) return 1ULL << 62;
  }
  return c;
}

std::optional<Ipv6Addr> RangeCursor::next() {
  if (counter_ >= capacity()) return std::nullopt;
  Ipv6Addr addr = base_;
  std::uint64_t c = counter_;
  for (std::size_t j = 0; j < positions_.size(); ++j) {
    const std::size_t i = positions_.size() - 1 - j;  // rightmost fastest
    const auto& vals = values_[i];
    addr = addr.with_nybble(positions_[i], vals[c % vals.size()]);
    c /= vals.size();
  }
  ++counter_;
  return addr;
}

bool RangeCursor::widen() {
  // Narrowest position (rightmost on ties) gains one adjacent value.
  int best = -1;
  for (int i = static_cast<int>(values_.size()) - 1; i >= 0; --i) {
    const auto& v = values_[static_cast<std::size_t>(i)];
    if (v.size() >= 16) continue;
    if (best < 0 ||
        v.size() < values_[static_cast<std::size_t>(best)].size()) {
      best = i;
    }
  }
  if (best < 0) return false;
  auto& vals = values_[static_cast<std::size_t>(best)];
  // Prefer max+1, fall back to min-1, else the first gap.
  if (vals.back() < 15) {
    vals.push_back(static_cast<std::uint8_t>(vals.back() + 1));
  } else if (vals.front() > 0) {
    vals.insert(vals.begin(), static_cast<std::uint8_t>(vals.front() - 1));
  } else {
    for (std::uint8_t v = 0; v < 16; ++v) {
      if (!std::binary_search(vals.begin(), vals.end(), v)) {
        vals.insert(std::lower_bound(vals.begin(), vals.end(), v), v);
        break;
      }
    }
  }
  counter_ = 0;
  return true;
}

// ---- SpaceTree -----------------------------------------------------------

namespace {

/// Split decisions on nodes over this many seeds come from a stride sample.
constexpr std::size_t kSampleCap = 4096;

/// The OR of `seeds[i] ^ seeds[idx[0]]` over every `stride`-th index of
/// `idx`: a nybble of the result is non-zero exactly when that position
/// takes more than one value among the visited seeds.
Ipv6Addr varying_mask(std::span<const Ipv6Addr> seeds,
                      std::span<const std::uint32_t> idx,
                      std::size_t stride) {
  const Ipv6Addr first = seeds[idx.front()];
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  for (std::size_t i = 0; i < idx.size(); i += stride) {
    hi |= seeds[idx[i]].hi() ^ first.hi();
    lo |= seeds[idx[i]].lo() ^ first.lo();
  }
  return Ipv6Addr(hi, lo);
}

/// 6Tree's split: the leftmost varying position, or -1.
int leftmost_split(const Ipv6Addr& varying) {
  if (varying.hi() != 0) return std::countl_zero(varying.hi()) / 4;
  if (varying.lo() != 0) return 16 + std::countl_zero(varying.lo()) / 4;
  return -1;
}

/// DET's split: the varying position of least entropy over the visited
/// seeds (the leftmost one on a tie), or -1. Histograms only the varying
/// positions, all in one pass, and leaves the chosen position's
/// histogram in `counts`.
int min_entropy_split(std::span<const Ipv6Addr> seeds,
                      std::span<const std::uint32_t> idx, std::size_t stride,
                      const Ipv6Addr& varying, NybbleHistogram& counts) {
  // The j-th varying position is nybble (half >> shift[j]) & 0xF of the
  // upper half of an address for j < k_hi, of its lower half after that.
  std::array<int, Ipv6Addr::kNybbles> positions{};
  std::array<int, Ipv6Addr::kNybbles> shift{};
  std::size_t k = 0;
  std::size_t k_hi = 0;
  for (int pos = 0; pos < Ipv6Addr::kNybbles; ++pos) {
    if (varying.nybble(pos) == 0) continue;
    if (pos < 16) ++k_hi;
    positions[k] = pos;
    shift[k++] = (15 - pos % 16) * 4;
  }
  std::array<NybbleHistogram, Ipv6Addr::kNybbles> hist{};
  for (std::size_t i = 0; i < idx.size(); i += stride) {
    const std::uint64_t hi = seeds[idx[i]].hi();
    const std::uint64_t lo = seeds[idx[i]].lo();
    for (std::size_t j = 0; j < k_hi; ++j) {
      ++hist[j].count[(hi >> shift[j]) & 0xF];
    }
    for (std::size_t j = k_hi; j < k; ++j) {
      ++hist[j].count[(lo >> shift[j]) & 0xF];
    }
  }
  std::size_t best = k;
  double best_h = 5.0;  // above the 4-bit maximum
  for (std::size_t j = 0; j < k; ++j) {
    const double e = hist[j].entropy();
    if (e < best_h) {
      best_h = e;
      best = j;
    }
  }
  if (best == k) return -1;
  counts = hist[best];
  return positions[best];
}

}  // namespace

SpaceTree::SpaceTree(std::span<const Ipv6Addr> seeds, Options options)
    : options_(options) {
  if (seeds.empty()) return;
  std::vector<std::uint32_t> idx(seeds.size());
  for (std::uint32_t i = 0; i < seeds.size(); ++i) idx[i] = i;
  std::vector<std::uint32_t> scratch(seeds.size());
  build(seeds, idx, scratch, 0);
  std::sort(regions_.begin(), regions_.end(),
            [](const TreeRegion& a, const TreeRegion& b) {
              if (a.density != b.density) return a.density > b.density;
              return a.base < b.base;
            });
}

void SpaceTree::build(std::span<const Ipv6Addr> seeds,
                      std::span<std::uint32_t> idx,
                      std::span<std::uint32_t> scratch, int depth) {
  ++node_count_;

  // Leaf-sized nodes take no split statistics. Split decisions on large
  // nodes are made from a stride sample; a node whose sample does not
  // vary is a leaf and takes its exact varying set below.
  const std::size_t n = idx.size();
  if (n > options_.max_leaf_seeds && depth < Ipv6Addr::kNybbles) {
    const std::size_t stride = n > kSampleCap ? n / kSampleCap : 1;
    const Ipv6Addr varying = varying_mask(seeds, idx, stride);
    NybbleHistogram counts;
    const int split =
        options_.policy == SplitPolicy::kLeftmost
            ? leftmost_split(varying)
            : min_entropy_split(seeds, idx, stride, varying, counts);
    if (split >= 0) {
      // A min-entropy histogram over the whole node counts its children.
      const bool counted =
          options_.policy == SplitPolicy::kMinEntropy && stride == 1;
      partition(seeds, idx, scratch, split, counted ? &counts : nullptr,
                depth);
      return;
    }
    if (stride == 1) {
      add_leaf(seeds, idx, varying);
      return;
    }
  }
  add_leaf(seeds, idx, varying_mask(seeds, idx, 1));
}

void SpaceTree::partition(std::span<const Ipv6Addr> seeds,
                          std::span<std::uint32_t> idx,
                          std::span<std::uint32_t> scratch, int split,
                          const NybbleHistogram* counts, int depth) {
  // Stable counting partition on the split nybble: every child keeps its
  // indices in ascending seed order.
  std::array<std::size_t, 17> offset{};
  if (counts != nullptr) {
    std::copy(counts->count.begin(), counts->count.end(), offset.begin() + 1);
  } else {
    for (const std::uint32_t i : idx) ++offset[seeds[i].nybble(split) + 1u];
  }
  for (std::size_t v = 0; v < 16; ++v) offset[v + 1] += offset[v];
  std::array<std::size_t, 16> next{};
  std::copy_n(offset.begin(), 16, next.begin());
  for (const std::uint32_t i : idx) scratch[next[seeds[i].nybble(split)]++] = i;
  for (std::size_t v = 0; v < 16; ++v) {
    const std::size_t len = offset[v + 1] - offset[v];
    if (len == 0) continue;
    build(seeds, scratch.subspan(offset[v], len), idx.subspan(offset[v], len),
          depth + 1);
  }
}

void SpaceTree::add_leaf(std::span<const Ipv6Addr> seeds,
                         std::span<const std::uint32_t> idx,
                         const Ipv6Addr& varying) {
  std::array<int, Ipv6Addr::kNybbles> positions{};
  int k = 0;
  for (int pos = 0; pos < Ipv6Addr::kNybbles; ++pos) {
    if (varying.nybble(pos) != 0) {
      positions[static_cast<std::size_t>(k++)] = pos;
    }
  }
  // Keep at most max_free dimensions; prefer the rightmost (host-side)
  // ones, which vary most in structured allocations.
  const int keep = std::clamp(options_.max_free, 0, k);
  TreeRegion region;
  region.free.assign(positions.begin() + (k - keep), positions.begin() + k);
  if (region.free.empty()) {
    // Identical (or single) seeds: expand around the host nybble.
    region.free.push_back(Ipv6Addr::kNybbles - 1);
  }
  region.base = seeds[idx.front()];
  for (const int pos : region.free) {
    region.base = region.base.with_nybble(pos, 0);
  }
  region.seed_count = static_cast<std::uint32_t>(idx.size());
  // (n - 0.5) rather than n: a singleton region's density estimate is
  // discounted so true multi-seed patterns outrank lone addresses.
  region.density = (static_cast<double>(idx.size()) - 0.5) /
                   std::pow(16.0, static_cast<double>(region.free.size()));
  regions_.push_back(std::move(region));
}

}  // namespace v6::tga
