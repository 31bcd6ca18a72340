#include "tga/det.h"

#include <algorithm>
#include <cmath>

namespace v6::tga {

using v6::net::Ipv6Addr;

namespace {
constexpr std::uint32_t kLastIndex = ~std::uint32_t{0};
}  // namespace

void Det::reset_model() {
  regions_.clear();
  groups_.clear();
  total_emitted_ = 0;
  const SpaceTree& tree =
      seed_index().tree({.policy = SplitPolicy::kMinEntropy,
                         .max_leaf_seeds = options_.max_leaf_seeds,
                         .max_free = options_.max_free});
  regions_.reserve(tree.regions().size());
  for (const TreeRegion& r : tree.regions()) {
    Region region;
    region.cursor = RegionCursor(r.base, r.free);
    region.seed_mass = static_cast<double>(r.seed_count);
    regions_.push_back(std::move(region));
    link(static_cast<std::uint32_t>(regions_.size() - 1));
  }
}

void Det::unlink(std::uint32_t i) {
  const Region& region = regions_[i];
  if (region.dead) return;
  const auto group = groups_.find(region.emitted);
  group->second.erase({region.exploit, i});
  if (group->second.empty()) groups_.erase(group);
}

void Det::link(std::uint32_t i) {
  Region& region = regions_[i];
  if (region.dead) return;
  region.exploit =
      region.seed_mass / static_cast<double>(region.emitted + 16);
  groups_[region.emitted].insert({region.exploit, i});
}

std::size_t Det::select() const {
  // A region's UCB score is exploit + explore, and explore depends only
  // on the region's emitted count. Rounded addition is monotone in each
  // operand, so within a group the score never rises down the exploit
  // order: each group is walked from its front while it still beats or
  // ties the best so far. The terms are computed exactly as a per-region
  // evaluation would, so the choice is bit-for-bit the linear scan's.
  const double log_total = std::log(static_cast<double>(total_emitted_ + 2));
  std::size_t best = regions_.size();
  double best_score = 0.0;
  for (const auto& [emitted, group] : groups_) {
    const double explore =
        options_.exploration *
        std::sqrt(log_total / static_cast<double>(emitted + 1));
    for (auto it = group.begin(); it != group.end();) {
      const double score = it->exploit + explore;
      if (best == regions_.size() || score > best_score) {
        best = it->index;
        best_score = score;
      } else if (score < best_score) {
        break;
      } else {
        best = std::min<std::size_t>(best, it->index);
      }
      // The rest of a run of equal exploit terms has higher indices and
      // cannot win: jump past it.
      const double exploit = it->exploit;
      if (++it != group.end() && it->exploit == exploit) {
        it = group.upper_bound({exploit, kLastIndex});
      }
    }
  }
  return best;
}

std::vector<Ipv6Addr> Det::next_batch(std::size_t n) {
  std::vector<Ipv6Addr> out;
  out.reserve(n);
  if (regions_.empty()) return out;

  std::size_t consecutive_failures = 0;
  while (out.size() < n && consecutive_failures < regions_.size() + 8) {
    const std::size_t best = select();
    if (best == regions_.size()) break;  // every region is dead
    const auto index = static_cast<std::uint32_t>(best);
    Region& region = regions_[best];
    unlink(index);

    std::uint64_t taken = 0;
    while (taken < options_.chunk && out.size() < n) {
      auto addr = region.cursor.next();
      if (!addr) {
        if (!region.cursor.extend()) {
          region.dead = true;
        }
        break;  // re-score before spending into the widened space
      }
      ++region.emitted;
      ++total_emitted_;
      if (emit(*addr, out, index)) ++taken;
    }
    link(index);
    consecutive_failures = taken == 0 ? consecutive_failures + 1 : 0;
  }
  return out;
}

void Det::observe(const Ipv6Addr& addr, bool active) {
  const std::optional<std::uint64_t> route = take_route(addr);
  if (!route.has_value() || !active) return;
  const auto index = static_cast<std::uint32_t>(*route);
  unlink(index);
  regions_[index].seed_mass += options_.hit_weight;
  link(index);
}

}  // namespace v6::tga
