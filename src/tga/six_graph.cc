#include "tga/six_graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <span>
#include <unordered_map>

namespace v6::tga {

using v6::net::Ipv6Addr;

namespace {

/// Disjoint-set forest for leaf merging.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// Unites unless the merged component would exceed `cap` members —
  /// unbounded transitive merging chains unrelated patterns into one
  /// dilute mega-cluster.
  void unite(std::uint32_t a, std::uint32_t b, std::uint32_t cap) {
    a = find(a);
    b = find(b);
    if (a == b || size_[a] + size_[b] > cap) return;
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

/// Key identifying a leaf pattern with one extra position wildcarded:
/// the base address (free + wildcard positions zeroed) and the bitmask of
/// wildcarded positions.
struct PatternKey {
  Ipv6Addr base;
  std::uint64_t free_mask;
  bool operator==(const PatternKey&) const = default;
};

struct PatternKeyHash {
  std::size_t operator()(const PatternKey& k) const noexcept {
    return v6::net::Ipv6AddrHash{}(k.base) ^
           (k.free_mask * 0x9E3779B97F4A7C15ULL);
  }
};

std::uint64_t free_mask_of(const std::vector<int>& free) {
  std::uint64_t m = 0;
  for (const int pos : free) m |= 1ULL << pos;
  return m;
}

/// The first (leaf, wildcard position) to claim each PatternKey, as an
/// open-addressing table sized once for every key the leaves can make.
/// A slot stores the claiming (leaf, pos) and 24 bits of its key's hash,
/// which keeps slots at 8 bytes — the pattern mining makes up to 31 keys
/// per leaf. A probe recomputes a slot's key from its leaf only when
/// the tags agree; unequal tags mean unequal keys.
class FirstWithKey {
 public:
  FirstWithKey(std::span<const TreeRegion> leaves,
               std::span<const std::uint64_t> free_masks,
               std::size_t max_keys)
      : leaves_(leaves), free_masks_(free_masks) {
    std::size_t capacity = 16;
    while (capacity * 7 < max_keys * 10) capacity <<= 1;  // load <= 70%
    slots_.assign(capacity, Slot{});
  }

  /// The leaf that first claimed (leaf, pos)'s key; claims it for `leaf`
  /// (and returns `leaf`) if nobody has.
  std::uint32_t claim(std::uint32_t leaf, int pos) {
    const PatternKey key = key_of(leaf, pos);
    const std::uint64_t hash = PatternKeyHash{}(key);
    const auto tag = static_cast<std::uint32_t>(hash >> 40);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.leaf == kEmpty) {
        slot = {leaf, (tag << 8) | static_cast<std::uint32_t>(pos)};
        return leaf;
      }
      if ((slot.tag_pos >> 8) == tag &&
          key_of(slot.leaf, static_cast<int>(slot.tag_pos & 0xFF)) == key) {
        return slot.leaf;
      }
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = ~0u;

  struct Slot {
    std::uint32_t leaf = kEmpty;
    std::uint32_t tag_pos = 0;  // hash tag in the high 24 bits, pos below
  };

  PatternKey key_of(std::uint32_t leaf, int pos) const {
    return {leaves_[leaf].base.with_nybble(pos, 0),
            free_masks_[leaf] | (1ULL << pos)};
  }

  std::span<const TreeRegion> leaves_;
  std::span<const std::uint64_t> free_masks_;
  std::vector<Slot> slots_;
};

}  // namespace

void SixGraph::reset_model() {
  clusters_.clear();
  turn_ = 0;

  const SpaceTree& tree =
      seed_index().tree({.policy = SplitPolicy::kMinEntropy,
                         .max_leaf_seeds = options_.max_leaf_seeds,
                         .max_free = options_.max_free});
  const auto leaves = tree.regions();
  if (leaves.empty()) return;

  // Connect leaves that agree on their pattern once any single fixed
  // nybble is wildcarded (an edge in 6Graph's pattern-similarity graph).
  // Only tight leaves participate in pattern mining: a leaf with many
  // free dimensions is noise, and merging through it would fuse
  // unrelated patterns into one dilute cluster.
  std::vector<std::uint64_t> free_masks(leaves.size());
  std::size_t max_keys = 0;
  for (std::uint32_t li = 0; li < leaves.size(); ++li) {
    free_masks[li] = free_mask_of(leaves[li].free);
    if (leaves[li].free.size() <= 2) {
      max_keys += Ipv6Addr::kNybbles - leaves[li].free.size();
    }
  }
  UnionFind uf(leaves.size());
  FirstWithKey first_with_key(leaves, free_masks, max_keys);
  for (std::uint32_t li = 0; li < leaves.size(); ++li) {
    if (leaves[li].free.size() > 2) continue;
    for (int pos = 0; pos < Ipv6Addr::kNybbles; ++pos) {
      if (free_masks[li] & (1ULL << pos)) continue;
      const std::uint32_t first = first_with_key.claim(li, pos);
      if (first != li) uf.unite(first, li, /*cap=*/16);
    }
  }

  // Materialize components into pattern clusters. A cluster's pattern
  // wildcards (a) the members' free dimensions over the full nybble range
  // and (b) the positions where member bases differ over the *observed*
  // values only — 6Graph expands mined patterns, it does not enumerate
  // blind space between them.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> components;
  for (std::uint32_t li = 0; li < leaves.size(); ++li) {
    components[uf.find(li)].push_back(li);
  }

  struct Scored {
    Cluster cluster;
    double density;
    Ipv6Addr base;
  };
  std::vector<Scored> scored;
  scored.reserve(components.size());
  // Every component lands in `scored`, later sorted by (density, base)
  // — a total order since bases are distinct per component.
  // v6lint: allow(unordered-iteration)
  for (const auto& [root, members] : components) {
    // Union of free positions; observed values at differing positions.
    std::uint64_t free_mask = 0;
    std::array<std::uint16_t, Ipv6Addr::kNybbles> value_bits{};
    std::uint32_t seeds = 0;
    double member_capacity = 0.0;
    std::uint32_t best_seed_count = 0;
    Ipv6Addr base = leaves[members.front()].base;
    for (const std::uint32_t li : members) {
      const TreeRegion& leaf = leaves[li];
      free_mask |= free_mask_of(leaf.free);
      for (int pos = 0; pos < Ipv6Addr::kNybbles; ++pos) {
        value_bits[static_cast<std::size_t>(pos)] |=
            static_cast<std::uint16_t>(1u << leaf.base.nybble(pos));
      }
      seeds += leaf.seed_count;
      member_capacity +=
          std::pow(16.0, static_cast<double>(leaf.free.size()));
      if (leaf.seed_count > best_seed_count) {
        best_seed_count = leaf.seed_count;
        base = leaf.base;
      }
    }

    std::vector<int> positions;
    std::vector<std::vector<std::uint8_t>> values;
    double span_log16 = 0.0;
    for (int pos = 0; pos < Ipv6Addr::kNybbles; ++pos) {
      // A free position takes all 16 values.
      const std::uint16_t bits =
          ((free_mask >> pos) & 1) != 0
              ? std::uint16_t{0xFFFF}
              : value_bits[static_cast<std::size_t>(pos)];
      const int count = std::popcount(bits);
      if (count <= 1) continue;  // constant across members
      std::vector<std::uint8_t> vals;
      vals.reserve(static_cast<std::size_t>(count));
      for (std::uint8_t v = 0; v < 16; ++v) {
        if ((bits >> v) & 1u) vals.push_back(v);
      }
      span_log16 += std::log2(static_cast<double>(vals.size())) / 4.0;
      positions.push_back(pos);
      values.push_back(std::move(vals));
      if (span_log16 > static_cast<double>(options_.max_cluster_free)) break;
    }
    if (span_log16 > static_cast<double>(options_.max_cluster_free)) {
      continue;  // pattern too wide to enumerate
    }
    if (positions.empty()) {
      positions.push_back(Ipv6Addr::kNybbles - 1);
      std::vector<std::uint8_t> all16(16);
      for (int v = 0; v < 16; ++v) all16[static_cast<std::size_t>(v)] =
          static_cast<std::uint8_t>(v);
      values.push_back(std::move(all16));
    }

    Scored s;
    s.base = base;
    s.cluster.cursor = RangeCursor(base, std::move(positions),
                                   std::move(values));
    s.cluster.chunk = std::max<std::uint64_t>(
        options_.min_chunk, options_.chunk_per_seed * seeds);
    // Density over the member space: fusing leaves into one pattern must
    // not demote the pattern below its constituent parts.
    s.density = (static_cast<double>(seeds) - 0.5) /
                std::max(1.0, member_capacity);
    scored.push_back(std::move(s));
  }

  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.density != b.density) return a.density > b.density;
    return a.base < b.base;
  });
  clusters_.reserve(scored.size());
  for (Scored& s : scored) clusters_.push_back(std::move(s.cluster));
}

std::vector<Ipv6Addr> SixGraph::next_batch(std::size_t n) {
  std::vector<Ipv6Addr> out;
  out.reserve(n);
  if (clusters_.empty()) return out;

  std::size_t stall = 0;
  while (out.size() < n && stall < clusters_.size() * 2) {
    Cluster& cluster = clusters_[turn_ % clusters_.size()];
    ++turn_;
    std::uint64_t taken = 0;
    while (taken < cluster.chunk && out.size() < n) {
      auto addr = cluster.cursor.next();
      if (!addr) {
        if (cluster.extensions >= options_.max_extensions ||
            !cluster.cursor.widen()) {
          break;
        }
        ++cluster.extensions;
        break;  // widened space waits for the next scheduling round
      }
      if (emit(*addr, out)) ++taken;
    }
    stall = taken == 0 ? stall + 1 : 0;
  }
  return out;
}

}  // namespace v6::tga
