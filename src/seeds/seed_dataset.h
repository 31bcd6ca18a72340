// Seed dataset container: a unique address set with per-address source
// provenance, supporting the overlap analyses of Figures 1 and 2.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "check/contracts.h"
#include "net/addr_index.h"
#include "net/ipv6.h"
#include "seeds/source.h"

namespace v6::seeds {

class SeedDataset {
 public:
  /// Records that `addr` was observed by `source`. Idempotent per
  /// (addr, source); an address may carry several source bits.
  void add(const v6::net::Ipv6Addr& addr, SeedSource source);

  /// Pre-sizes the stores for `n` unique addresses.
  void reserve(std::size_t n);

  /// Unique addresses in first-seen order.
  const std::vector<v6::net::Ipv6Addr>& addrs() const { return addrs_; }

  /// The position of `addr` in addrs(), or nullopt if absent.
  std::optional<std::uint32_t> find(const v6::net::Ipv6Addr& addr) const {
    return index_.find(addr, v6::net::key_in(addrs_));
  }

  /// Source membership bitmask of addrs()[i].
  std::uint16_t sources_of(std::size_t i) const {
    V6_REQUIRE_MSG(i < masks_.size(), "index must come from addrs()");
    return masks_[i];
  }

  /// Source membership bitmask for `addr` (0 if absent).
  std::uint16_t sources_of(const v6::net::Ipv6Addr& addr) const;

  bool contains(const v6::net::Ipv6Addr& addr) const {
    return find(addr).has_value();
  }

  std::size_t size() const { return addrs_.size(); }
  bool empty() const { return addrs_.empty(); }

  /// All addresses carrying `source`'s bit.
  std::vector<v6::net::Ipv6Addr> from_source(SeedSource source) const;

  /// Number of addresses carrying `source`'s bit.
  std::size_t count(SeedSource source) const;

 private:
  std::vector<v6::net::Ipv6Addr> addrs_;
  std::vector<std::uint16_t> masks_;
  /// addr -> its position in addrs_ and masks_.
  v6::net::AddrIndex index_;
};

}  // namespace v6::seeds
