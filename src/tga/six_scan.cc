#include "tga/six_scan.h"

#include <algorithm>
#include <numeric>

namespace v6::tga {

using v6::net::Ipv6Addr;

void SixScan::reset_model() {
  regions_.clear();
  const SpaceTree& tree =
      seed_index().tree({.policy = SplitPolicy::kLeftmost,
                         .max_leaf_seeds = options_.max_leaf_seeds,
                         .max_free = options_.max_free});
  regions_.reserve(tree.regions().size());
  for (const TreeRegion& r : tree.regions()) {
    Region region;
    region.cursor = RegionCursor(r.base, r.free);
    region.seed_count = r.seed_count;
    regions_.push_back(std::move(region));
  }
}

std::uint64_t SixScan::drain(Region& region, std::uint32_t region_id,
                             std::uint64_t want,
                             std::vector<Ipv6Addr>& out) {
  std::uint64_t taken = 0;
  while (taken < want) {
    auto addr = region.cursor.next();
    if (!addr) {
      if (region.extensions >= options_.max_extensions ||
          !region.cursor.extend()) {
        region.dead = true;
      } else {
        ++region.extensions;
      }
      break;  // widened space waits for a later round's ranking
    }
    ++region.emitted;
    if (emit(*addr, out, region_id)) ++taken;
  }
  return taken;
}

std::vector<Ipv6Addr> SixScan::next_batch(std::size_t n) {
  std::vector<Ipv6Addr> out;
  out.reserve(n);
  if (regions_.empty()) return out;

  // Rank regions by last round's hits, then by seed density (the initial
  // round has no feedback and degenerates to 6Tree's ordering).
  std::vector<std::uint32_t> order(regions_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     const Region& ra = regions_[a];
                     const Region& rb = regions_[b];
                     if (ra.hits_last_round != rb.hits_last_round) {
                       return ra.hits_last_round > rb.hits_last_round;
                     }
                     return ra.seed_count > rb.seed_count;
                   });
  for (Region& r : regions_) r.hits_last_round = 0;

  const std::uint64_t explore_budget = static_cast<std::uint64_t>(
      static_cast<double>(n) * options_.explore_fraction);
  const std::uint64_t exploit_budget = n - explore_budget;

  // Exploit: spread over the top-ranked live regions.
  const std::size_t k =
      std::min(options_.regions_per_round, regions_.size());
  std::uint64_t remaining = exploit_budget;
  for (std::size_t i = 0; i < order.size() && remaining > 0; ++i) {
    Region& region = regions_[order[i]];
    if (region.dead) continue;
    const std::uint64_t share =
        std::max<std::uint64_t>(1, exploit_budget / (i < k ? k : order.size()));
    remaining -= drain(region, order[i], std::min(share, remaining), out);
  }

  // Explore: touch regions that have never been probed.
  std::uint64_t explore_remaining = explore_budget + remaining;
  for (std::size_t i = 0; i < order.size() && explore_remaining > 0; ++i) {
    Region& region = regions_[order[i]];
    if (region.dead || region.emitted > 0) continue;
    explore_remaining -=
        drain(region, order[i], std::min<std::uint64_t>(16, explore_remaining),
              out);
  }
  // Whatever is left goes to the best region.
  for (std::size_t i = 0; i < order.size() && out.size() < n; ++i) {
    Region& region = regions_[order[i]];
    if (region.dead) continue;
    drain(region, order[i], n - out.size(), out);
  }
  return out;
}

void SixScan::observe(const Ipv6Addr& addr, bool active) {
  const std::optional<std::uint64_t> route = take_route(addr);
  if (!route.has_value() || !active) return;
  Region& region = regions_[static_cast<std::size_t>(*route)];
  ++region.hits_total;
  ++region.hits_last_round;
}

}  // namespace v6::tga
