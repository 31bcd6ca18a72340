#include "tga/six_tree.h"

#include <algorithm>
#include <cmath>

namespace v6::tga {

using v6::net::Ipv6Addr;

void SixTree::reset_model() {
  regions_.clear();
  turn_ = 0;
  const SpaceTree& tree =
      seed_index().tree({.policy = SplitPolicy::kLeftmost,
                         .max_leaf_seeds = options_.max_leaf_seeds,
                         .max_free = options_.max_free});
  regions_.reserve(tree.regions().size());
  for (const TreeRegion& r : tree.regions()) {
    Region region;
    region.cursor = RegionCursor(r.base, r.free);
    region.chunk = std::max<std::uint64_t>(
        options_.min_chunk, options_.chunk_per_seed * r.seed_count);
    regions_.push_back(std::move(region));
  }
}

std::vector<Ipv6Addr> SixTree::next_batch(std::size_t n) {
  std::vector<Ipv6Addr> out;
  out.reserve(n);
  if (regions_.empty()) return out;

  std::size_t stall = 0;  // consecutive turns yielding nothing
  while (out.size() < n && stall < regions_.size() * 2) {
    Region& region = regions_[turn_ % regions_.size()];
    ++turn_;
    std::uint64_t taken = 0;
    while (taken < region.chunk && out.size() < n) {
      auto addr = region.cursor.next();
      if (!addr) {
        // Region space exhausted: widen it (expand a parent dimension),
        // as 6Tree does when a leaf is fully enumerated — but only a
        // bounded number of times, since each widening multiplies the
        // space by 16 with no feedback to detect waste.
        if (region.extensions >= options_.max_extensions ||
            !region.cursor.extend()) {
          break;
        }
        ++region.extensions;
        // End the visit: the widened (16x larger) space only receives
        // budget on later scheduling rounds, after denser regions.
        break;
      }
      if (emit(*addr, out)) ++taken;
    }
    stall = taken == 0 ? stall + 1 : 0;
  }
  return out;
}

}  // namespace v6::tga
