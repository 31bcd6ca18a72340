#include "tga/six_forest.h"

#include <algorithm>
#include <unordered_set>

namespace v6::tga {

using v6::net::Ipv6Addr;

void SixForest::reset_model() {
  regions_.clear();
  turn_ = 0;
  if (seeds().empty()) return;

  struct Scored {
    TreeRegion region;
    double density;
  };
  std::vector<Scored> forest_regions;

  // Bootstrap partitions by stride, alternating split heuristics so the
  // ensemble members disagree (the point of a forest).
  const int trees = std::max(1, options_.trees);
  for (int t = 0; t < trees; ++t) {
    std::vector<Ipv6Addr> partition;
    partition.reserve(seeds().size() / static_cast<std::size_t>(trees) + 1);
    for (std::size_t i = static_cast<std::size_t>(t); i < seeds().size();
         i += static_cast<std::size_t>(trees)) {
      partition.push_back(seeds()[i]);
    }
    if (partition.empty()) continue;
    const SplitPolicy policy =
        t % 2 == 0 ? SplitPolicy::kLeftmost : SplitPolicy::kMinEntropy;
    SpaceTree tree(partition, {.policy = policy,
                               .max_leaf_seeds = options_.max_leaf_seeds,
                               .max_free = options_.max_free});
    const auto leaves = tree.regions();
    if (leaves.empty()) continue;

    // Outlier isolation: drop the bottom density quantile of this tree.
    // regions() is density-sorted descending, so the cut is positional.
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(leaves.size()) *
               (1.0 - options_.outlier_quantile)));
    for (std::size_t i = 0; i < keep; ++i) {
      forest_regions.push_back({leaves[i], leaves[i].density});
    }
  }

  // Merge the forest: dedupe identical regions discovered by several
  // trees (same base pattern and free set).
  std::sort(forest_regions.begin(), forest_regions.end(),
            [](const Scored& a, const Scored& b) {
              if (a.density != b.density) return a.density > b.density;
              if (a.region.base != b.region.base) {
                return a.region.base < b.region.base;
              }
              return a.region.free < b.region.free;
            });
  struct Key {
    Ipv6Addr base;
    std::vector<int> free;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::size_t h = v6::net::Ipv6AddrHash{}(k.base);
      for (const int pos : k.free) {
        h = h * 31 + static_cast<std::size_t>(pos);
      }
      return h;
    }
  };
  std::unordered_set<Key, KeyHash> seen;
  regions_.reserve(forest_regions.size());
  for (const Scored& scored : forest_regions) {
    if (!seen.insert({scored.region.base, scored.region.free}).second) {
      continue;
    }
    Region region;
    region.cursor = RegionCursor(scored.region.base, scored.region.free);
    region.chunk = std::max<std::uint64_t>(
        options_.min_chunk,
        options_.chunk_per_seed * scored.region.seed_count);
    regions_.push_back(std::move(region));
  }
}

std::vector<Ipv6Addr> SixForest::next_batch(std::size_t n) {
  std::vector<Ipv6Addr> out;
  out.reserve(n);
  if (regions_.empty()) return out;

  std::size_t stall = 0;
  while (out.size() < n && stall < regions_.size() * 2) {
    Region& region = regions_[turn_ % regions_.size()];
    ++turn_;
    std::uint64_t taken = 0;
    while (taken < region.chunk && out.size() < n) {
      auto addr = region.cursor.next();
      if (!addr) {
        if (region.extensions >= options_.max_extensions ||
            !region.cursor.extend()) {
          break;
        }
        ++region.extensions;
        break;  // widened space waits for the next scheduling round
      }
      if (emit(*addr, out)) ++taken;
    }
    stall = taken == 0 ? stall + 1 : 0;
  }
  return out;
}

}  // namespace v6::tga
