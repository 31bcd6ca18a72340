#include "tga/six_hit.h"

#include <algorithm>

namespace v6::tga {

using v6::net::Ipv6Addr;

SpaceTree::Options SixHit::tree_options() const {
  return {.policy = SplitPolicy::kLeftmost,
          .max_leaf_seeds = options_.max_leaf_seeds,
          .max_free = options_.max_free};
}

void SixHit::build_regions(const SpaceTree& tree) {
  regions_.clear();
  regions_.reserve(tree.regions().size());
  double max_density = 0.0;
  for (const TreeRegion& r : tree.regions()) {
    max_density = std::max(max_density, r.density);
  }
  for (const TreeRegion& r : tree.regions()) {
    Region region;
    region.cursor = RegionCursor(r.base, r.free);
    // Flat optimism plus a density prior: unexplored regions stay
    // attractive until feedback says otherwise.
    region.q =
        0.2 + (max_density > 0 ? 0.3 * r.density / max_density : 0.0);
    regions_.push_back(std::move(region));
  }
  greedy_.assign(regions_.size(),
                 [this](std::size_t i) { return regions_[i].q; });
}

void SixHit::rekey(std::size_t i) {
  greedy_.set(i, regions_[i].dead ? MaxTournament::kOut : regions_[i].q);
}

void SixHit::reset_model() {
  discovered_.clear();
  hits_since_rebuild_ = 0;
  build_regions(seed_index().tree(tree_options()));
}

void SixHit::recreate_tree() {
  std::vector<Ipv6Addr> combined(seeds().begin(), seeds().end());
  combined.insert(combined.end(), discovered_.begin(), discovered_.end());
  // Region indices are about to name the new tree's leaves.
  drop_routes();
  build_regions(SpaceTree(combined, tree_options()));
  hits_since_rebuild_ = 0;
}

bool SixHit::absorb_seeds(std::span<const Ipv6Addr> added) {
  if (absorb_into_index(added) == 0) return true;  // nothing new to learn
  // Same fold as the hit-threshold recreation in next_batch. emitted_
  // and the RNG stream are untouched, so the generator neither
  // re-emits old candidates nor replays old draws.
  recreate_tree();
  return true;
}

std::vector<Ipv6Addr> SixHit::next_batch(std::size_t n) {
  std::vector<Ipv6Addr> out;
  out.reserve(n);
  if (regions_.empty()) return out;

  if (hits_since_rebuild_ >= options_.rebuild_after_hits) recreate_tree();

  std::size_t consecutive_failures = 0;
  while (out.size() < n && consecutive_failures < regions_.size() + 8) {
    std::size_t pick;
    if (v6::net::chance(rng_, options_.epsilon)) {
      pick = v6::net::uniform_int<std::size_t>(rng_, 0, regions_.size() - 1);
    } else {
      pick = greedy_.winner();  // region 0 when every region is dead
    }
    Region& region = regions_[pick];
    if (region.dead) {
      ++consecutive_failures;
      continue;
    }
    std::uint64_t taken = 0;
    while (taken < options_.chunk && out.size() < n) {
      auto addr = region.cursor.next();
      if (!addr) {
        if (!region.cursor.extend()) {
          region.dead = true;
        } else {
          // The widened space is 16x more dilute; discount its value so
          // selection moves on unless feedback re-confirms it.
          region.q *= 0.5;
        }
        rekey(pick);
        break;
      }
      if (emit(*addr, out, pick)) ++taken;
    }
    consecutive_failures = taken == 0 ? consecutive_failures + 1 : 0;
  }
  return out;
}

void SixHit::observe(const Ipv6Addr& addr, bool active) {
  const std::optional<std::uint64_t> route = take_route(addr);
  if (!route.has_value()) return;
  const auto pick = static_cast<std::size_t>(*route);
  Region& region = regions_[pick];
  const double reward = active ? 1.0 : 0.0;
  region.q += options_.learning_rate * (reward - region.q);
  rekey(pick);
  if (active) {
    discovered_.push_back(addr);
    ++hits_since_rebuild_;
  }
}

}  // namespace v6::tga
