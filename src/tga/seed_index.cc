#include "tga/seed_index.h"

#include <algorithm>

namespace v6::tga {

using v6::net::Ipv6Addr;

SeedIndex::SeedIndex(std::span<const Ipv6Addr> seeds)
    : seeds_(seeds), borrowed_(true) {
  index_seeds();
}

SeedIndex::SeedIndex(std::vector<Ipv6Addr>&& seeds)
    : owned_(std::move(seeds)), seeds_(owned_) {
  index_seeds();
}

void SeedIndex::index_seeds() {
  members_.clear();
  members_.reserve(seeds_.size(), v6::net::key_in(seeds_));
  for (std::size_t i = 0; i < seeds_.size(); ++i) {
    members_.insert(seeds_[i], i, v6::net::key_in(seeds_));
  }
}

const SpaceTree& SeedIndex::tree(const SpaceTree::Options& options) const {
  CachedTree* entry = nullptr;
  {
    const std::lock_guard lock(trees_mutex_);
    for (const std::unique_ptr<CachedTree>& t : trees_) {
      if (t->options == options) entry = t.get();
    }
    if (entry == nullptr) {
      entry = trees_.emplace_back(std::make_unique<CachedTree>(options)).get();
    }
  }
  std::call_once(entry->built, [this, entry] {
    entry->tree.emplace(seeds_, entry->options);
    builds_.fetch_add(1, std::memory_order_relaxed);
  });
  return *entry->tree;
}

void SeedIndex::begin_change() {
  if (borrowed_) {
    owned_.assign(seeds_.begin(), seeds_.end());
    borrowed_ = false;
  }
  trees_.clear();
  builds_.store(0, std::memory_order_relaxed);
}

void SeedIndex::clear() {
  borrowed_ = false;
  begin_change();
  owned_.clear();
  members_.clear();
  seeds_ = owned_;
}

std::size_t SeedIndex::add(std::span<const Ipv6Addr> added) {
  const auto known = [this](const Ipv6Addr& addr) { return contains(addr); };
  if (std::ranges::all_of(added, known)) return 0;
  begin_change();
  const std::size_t before = owned_.size();
  for (const Ipv6Addr& addr : added) {
    if (members_.insert(addr, owned_.size(), v6::net::key_in(owned_)).second) {
      owned_.push_back(addr);
    }
  }
  seeds_ = owned_;
  return owned_.size() - before;
}

bool SeedIndex::remove(std::span<const Ipv6Addr> removed) {
  v6::net::AddrIndexMap doomed;
  for (const Ipv6Addr& addr : removed) {
    if (contains(addr)) doomed.insert(addr, 0);
  }
  if (doomed.empty()) return false;
  begin_change();
  std::erase_if(owned_, [&doomed](const Ipv6Addr& addr) {
    return doomed.contains(addr);
  });
  // The table cannot erase: rebuild it over what is left.
  seeds_ = owned_;
  index_seeds();
  return true;
}

}  // namespace v6::tga
