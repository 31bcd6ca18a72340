// Seed-dataset preprocessing: the operations whose impact the paper
// quantifies in RQ1 and RQ2 — removing unresponsive seeds and
// restricting to port-specific responsive seeds. Dealiasing seeds is
// dealias::Dealiaser::filter itself (experiment::Workbench::dealiased).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "check/contracts.h"
#include "net/ipv6.h"
#include "net/service.h"
#include "seeds/seed_dataset.h"

namespace v6::seeds {

/// Per-address responsiveness across the four studied probe types,
/// obtained by scanning the seeds (the paper's "Active" determination,
/// §5.3). It keeps one mask per address of a seed dataset, at that
/// address's position in addrs(), and finds positions through the
/// dataset's own index, so it stores no address.
class ActivityMap {
 public:
  /// Covers no address.
  ActivityMap() = default;
  /// Covers `seeds`' addresses, all unresponsive until marked. `seeds` is
  /// borrowed and must outlive the map and not change.
  explicit ActivityMap(const SeedDataset& seeds)
      : seeds_(&seeds), masks_(seeds.size(), 0) {}

  /// Responsiveness mask of `addr` (0 if not covered or unresponsive).
  v6::net::ServiceMask of(const v6::net::Ipv6Addr& addr) const {
    const std::optional<std::uint32_t> i = position(addr);
    return i.has_value() ? masks_[*i] : 0;
  }

  bool active_on(const v6::net::Ipv6Addr& addr, v6::net::ProbeType t) const {
    return v6::net::has_service(of(addr), t);
  }

  bool active_any(const v6::net::Ipv6Addr& addr) const { return of(addr) != 0; }

  /// Marks `addr`, which must be covered, responsive on `t`.
  void merge_bit(const v6::net::Ipv6Addr& addr, v6::net::ProbeType t) {
    const std::optional<std::uint32_t> i = position(addr);
    V6_REQUIRE_MSG(i.has_value(), "address is not in the covered dataset");
    masks_[*i] |= v6::net::service_bit(t);
  }

  /// Addresses covered.
  std::size_t size() const { return masks_.size(); }

 private:
  std::optional<std::uint32_t> position(const v6::net::Ipv6Addr& addr) const {
    return seeds_ == nullptr ? std::nullopt : seeds_->find(addr);
  }

  const SeedDataset* seeds_ = nullptr;
  /// masks_[i] is the mask of seeds_->addrs()[i].
  std::vector<v6::net::ServiceMask> masks_;
};

/// Scans `seeds` on all four probe types and records per-address
/// responsiveness. `scan(targets, type, on_reply)` probes `targets` on
/// `type` and calls `on_reply(addr, reply)` with each probed address's
/// final reply (an experiment's ScanRig::scan, say). Only positive
/// replies (per the paper's hit rules) count.
template <typename Scan>
ActivityMap scan_activity(const SeedDataset& seeds, Scan&& scan) {
  ActivityMap activity(seeds);
  for (const v6::net::ProbeType type : v6::net::kAllProbeTypes) {
    scan(seeds.addrs(), type,
         [&](const v6::net::Ipv6Addr& addr, v6::net::ProbeReply reply) {
           if (v6::net::is_hit(type, reply)) activity.merge_bit(addr, type);
         });
  }
  return activity;
}

/// Keeps addresses responsive on at least one probe type ("All Active").
std::vector<v6::net::Ipv6Addr> filter_active_any(
    std::span<const v6::net::Ipv6Addr> addrs, const ActivityMap& activity);

/// Keeps addresses responsive on `type` (the port-specific datasets of
/// RQ2).
std::vector<v6::net::Ipv6Addr> filter_active_on(
    std::span<const v6::net::Ipv6Addr> addrs, const ActivityMap& activity,
    v6::net::ProbeType type);

}  // namespace v6::seeds
