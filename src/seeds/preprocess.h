// Seed-dataset preprocessing: the operations whose impact the paper
// quantifies in RQ1 and RQ2 — removing unresponsive seeds and
// restricting to port-specific responsive seeds. Dealiasing seeds is
// dealias::Dealiaser::filter itself (experiment::Workbench::dealiased).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/addr_index.h"
#include "net/ipv6.h"
#include "net/service.h"
#include "probe/scanner.h"

namespace v6::seeds {

/// Per-address responsiveness across the four studied probe types,
/// obtained by scanning the seeds (the paper's "Active" determination,
/// §5.3).
class ActivityMap {
 public:
  /// Responsiveness mask of `addr` (0 if never scanned or unresponsive).
  v6::net::ServiceMask of(const v6::net::Ipv6Addr& addr) const {
    const std::uint32_t* i = index_.find(addr);
    return i == nullptr ? 0 : masks_[*i];
  }

  bool active_on(const v6::net::Ipv6Addr& addr, v6::net::ProbeType t) const {
    return v6::net::has_service(of(addr), t);
  }

  bool active_any(const v6::net::Ipv6Addr& addr) const { return of(addr) != 0; }

  void set(const v6::net::Ipv6Addr& addr, v6::net::ServiceMask m) {
    slot(addr) = m;
  }

  void merge_bit(const v6::net::Ipv6Addr& addr, v6::net::ProbeType t) {
    slot(addr) |= v6::net::service_bit(t);
  }

  std::size_t size() const { return masks_.size(); }

 private:
  /// The mask stored for `addr`, inserted as 0 if absent.
  v6::net::ServiceMask& slot(const v6::net::Ipv6Addr& addr) {
    const auto [i, inserted] =
        index_.emplace(addr, static_cast<std::uint32_t>(masks_.size()));
    if (inserted) masks_.push_back(0);
    return masks_[i];
  }

  /// addr -> its position in masks_.
  v6::net::AddrIndexMap index_;
  std::vector<v6::net::ServiceMask> masks_;
};

/// Scans `addrs` on all four probe types and records per-address
/// responsiveness. Only positive replies (per the paper's hit rules)
/// count.
ActivityMap scan_activity(std::span<const v6::net::Ipv6Addr> addrs,
                          v6::probe::Scanner& scanner);

/// Keeps addresses responsive on at least one probe type ("All Active").
std::vector<v6::net::Ipv6Addr> filter_active_any(
    std::span<const v6::net::Ipv6Addr> addrs, const ActivityMap& activity);

/// Keeps addresses responsive on `type` (the port-specific datasets of
/// RQ2).
std::vector<v6::net::Ipv6Addr> filter_active_on(
    std::span<const v6::net::Ipv6Addr> addrs, const ActivityMap& activity,
    v6::net::ProbeType type);

}  // namespace v6::seeds
