#include "service/hitlist_store.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "check/contracts.h"

namespace v6::service {

using v6::net::Ipv6Addr;

namespace {

/// Highest share of an epoch index's slots in use, in percent. Keeps at
/// least one slot empty, so every probe run ends, and absent addresses'
/// runs short.
constexpr std::size_t kMaxLoadPercent = 70;

/// The membership index over the sorted, unique `addrs` (see
/// HitlistEpoch::slots_).
std::vector<std::uint32_t> build_index(std::span<const Ipv6Addr> addrs) {
  V6_REQUIRE_MSG(addrs.size() < std::numeric_limits<std::uint32_t>::max(),
                 "epoch positions must fit a 32-bit slot");
  std::size_t capacity = 1;
  while (capacity * kMaxLoadPercent < addrs.size() * 100) capacity <<= 1;
  std::vector<std::uint32_t> slots(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::size_t position = 0; position < addrs.size(); ++position) {
    std::size_t i = v6::net::Ipv6AddrHash{}(addrs[position]) & mask;
    while (slots[i] != 0) i = (i + 1) & mask;
    slots[i] = static_cast<std::uint32_t>(position + 1);
  }
  return slots;
}

}  // namespace

bool HitlistEpoch::contains(const Ipv6Addr& addr) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = v6::net::Ipv6AddrHash{}(addr) & mask;;
       i = (i + 1) & mask) {
    const std::uint32_t slot = slots_[i];
    if (slot == 0) return false;
    if (addrs[slot - 1] == addr) return true;
  }
}

std::uint64_t epoch_fingerprint(std::uint64_t version,
                                std::span<const Ipv6Addr> addrs) {
  std::uint64_t chain = v6::net::splitmix64(version ^ 0xE90C4A11);
  for (const Ipv6Addr& addr : addrs) {
    chain = v6::net::splitmix64(chain ^ addr.hi());
    chain = v6::net::splitmix64(chain ^ addr.lo());
  }
  return chain;
}

HitlistStore::HitlistStore() {
  std::unique_ptr<HitlistEpoch> root(new HitlistEpoch());
  root->slots_ = build_index(root->addrs);
  root->fingerprint = epoch_fingerprint(0, root->addrs);
  head_.store(root.get(), std::memory_order_release);
  epochs_.push_back(std::move(root));
}

std::size_t HitlistStore::epoch_count() const {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  return epochs_.size();
}

const HitlistEpoch& HitlistStore::publish_epoch(EpochBuilder&& builder) {
  std::unique_ptr<HitlistEpoch> next(new HitlistEpoch());
  next->addrs = std::move(builder.addrs_);
  std::sort(next->addrs.begin(), next->addrs.end());
  next->addrs.erase(std::unique(next->addrs.begin(), next->addrs.end()),
                    next->addrs.end());
  next->slots_ = build_index(next->addrs);

  const std::lock_guard<std::mutex> lock(writer_mutex_);
  next->version = epochs_.back()->version + 1;
  next->fingerprint = epoch_fingerprint(next->version, next->addrs);
  const HitlistEpoch* published = next.get();
  epochs_.push_back(std::move(next));
  // The single point of publication: everything written above
  // happens-before any reader's acquire load of the new head.
  head_.store(published, std::memory_order_release);
  return *published;
}

}  // namespace v6::service
