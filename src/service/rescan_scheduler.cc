#include "service/rescan_scheduler.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "check/contracts.h"

namespace v6::service {

using v6::net::Ipv6Addr;

RescanScheduler::History& RescanScheduler::entry(const Ipv6Addr& addr) {
  const auto [pos, inserted] =
      index_.insert(addr, entries_.size(), entry_key());
  if (inserted) entries_.push_back({.addr = addr, .history = {}});
  return entries_[pos].history;
}

void RescanScheduler::track(const Ipv6Addr& addr) { entry(addr); }

bool RescanScheduler::contains(const Ipv6Addr& addr) const {
  return index_.contains(addr, entry_key());
}

void RescanScheduler::note_result(const Ipv6Addr& addr, bool responsive,
                                  std::uint64_t cycle) {
  History& h = entry(addr);
  h.last_probed = cycle;
  h.probed_once = true;
  if (responsive) {
    h.miss_streak = 0;
    h.responsive = true;
  } else {
    ++h.miss_streak;
    h.responsive = false;
  }
}

template <typename Pred>
std::vector<Ipv6Addr> RescanScheduler::sorted_matches(Pred pred) const {
  const auto collect = [&](std::span<const Entry> entries,
                           std::vector<Ipv6Addr>& out) {
    for (const Entry& e : entries) {
      if (pred(e.history)) out.push_back(e.addr);
    }
  };
  const std::span<const Entry> all(entries_);
  std::vector<Ipv6Addr> out;
  out.reserve(entries_.size());
  collect(all.first(sorted_), out);
  const std::ptrdiff_t from_prefix = std::ssize(out);
  collect(all.subspan(sorted_), out);
  // The tail's matches are in insertion order: sort them, merge them in.
  const auto mid = out.begin() + from_prefix;
  std::sort(mid, out.end());
  std::inplace_merge(out.begin(), mid, out.end());
  return out;
}

std::vector<Ipv6Addr> RescanScheduler::due(std::uint64_t cycle) const {
  // Never-probed addresses (fresh seeds, fresh discoveries fed via
  // track) are always due; probed ones wait out the interval. The
  // difference cannot wrap the way last_probed + interval could.
  return sorted_matches([&](const History& h) {
    return !h.probed_once || (cycle >= h.last_probed &&
                              cycle - h.last_probed >= policy_.rescan_interval);
  });
}

std::vector<Ipv6Addr> RescanScheduler::responsive() const {
  return sorted_matches([](const History& h) { return h.responsive; });
}

std::size_t RescanScheduler::evict_churned() {
  const auto by_addr = [](const Entry& a, const Entry& b) {
    return a.addr < b.addr;
  };
  const auto tail = entries_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  const bool had_tail = tail != entries_.end();
  std::sort(tail, entries_.end(), by_addr);
  std::inplace_merge(entries_.begin(), tail, entries_.end(), by_addr);
  const std::size_t evicted = std::erase_if(entries_, [this](const Entry& e) {
    return e.history.probed_once && !e.history.responsive &&
           e.history.miss_streak >= policy_.max_miss_streak;
  });
  sorted_ = entries_.size();
  // The index cannot erase: when anything moved, refill the table
  // (clear() keeps its slots) with the compacted positions.
  if (had_tail || evicted > 0) {
    index_.clear();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      index_.insert(entries_[i].addr, i, entry_key());
    }
  }
  return evicted;
}

BanditAllocator::BanditAllocator(std::size_t arms, std::uint64_t seed,
                                 double explore_floor)
    : stats_(arms),
      explore_floor_(explore_floor),
      rng_(v6::net::make_rng(seed, /*tag=*/0xBA4D17)) {
  V6_REQUIRE_MSG(arms > 0, "bandit needs at least one arm");
  V6_REQUIRE_MSG(explore_floor >= 0.0 &&
                     explore_floor * static_cast<double>(arms) <= 1.0,
                 "explore floor must leave a non-negative remainder");
}

double BanditAllocator::score(std::size_t arm) const {
  const ArmStats& s = stats_[arm];
  return (static_cast<double>(s.hits) + 1.0) /
         (static_cast<double>(s.probes) + 2.0);
}

void BanditAllocator::reward(std::size_t arm, std::uint64_t probes,
                             std::uint64_t hits) {
  stats_[arm].probes += probes;
  stats_[arm].hits += hits;
}

std::vector<std::uint64_t> BanditAllocator::allocate(std::uint64_t budget) {
  const std::size_t n = stats_.size();
  std::vector<std::uint64_t> shares(n, 0);
  if (budget == 0) return shares;

  // Guaranteed exploration floor per arm.
  const auto floor_share = static_cast<std::uint64_t>(
      static_cast<double>(budget) * explore_floor_);
  std::uint64_t remaining = budget;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t give = std::min(floor_share, remaining);
    shares[i] += give;
    remaining -= give;
  }

  // Remainder proportional to smoothed hit ratios, largest-remainder
  // rounding so the shares sum exactly to the budget.
  if (remaining > 0) {
    double total_score = 0.0;
    for (std::size_t i = 0; i < n; ++i) total_score += score(i);
    std::vector<double> fractional(n, 0.0);
    std::uint64_t assigned = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double exact =
          static_cast<double>(remaining) * score(i) / total_score;
      const auto whole = static_cast<std::uint64_t>(exact);
      shares[i] += whole;
      assigned += whole;
      fractional[i] = exact - static_cast<double>(whole);
    }
    // Hand out the rounding leftovers by descending fractional part;
    // ties by arm index, rotated by one seeded draw so a flat start
    // does not permanently favor arm 0.
    std::uint64_t leftover = remaining - assigned;
    if (leftover > 0) {
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      const std::size_t rotate =
          v6::net::uniform_int<std::size_t>(rng_, 0, n - 1);
      std::rotate(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(rotate),
                  order.end());
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return fractional[a] > fractional[b];
                       });
      for (std::size_t k = 0; leftover > 0; k = (k + 1) % n, --leftover) {
        ++shares[order[k]];
      }
    }
  }
  return shares;
}

}  // namespace v6::service
