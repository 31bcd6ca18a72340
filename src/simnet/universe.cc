#include "simnet/universe.h"

namespace v6::simnet {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;

bool Universe::addr_coin(const Ipv6Addr& addr, std::uint64_t salt, double p) {
  std::uint64_t h = v6::net::splitmix64(addr.hi() ^ v6::net::splitmix64(salt));
  h = v6::net::splitmix64(h ^ addr.lo());
  // Map to [0, 1) with 53 bits of precision.
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < p;
}

namespace {

/// High 64 bits of a 64x64 multiply: maps a full-range hash into [0, n)
/// as hash * n / 2^64 (Lemire's multiply-shift). One mul instead of the
/// ~30-cycle 64-bit division a `% n` costs — this runs once per reply on
/// the instrumented-scan hot path. Bias vs a true modulo is < 2^-37 for
/// the ranges used here, invisible in a latency model.
inline std::uint64_t map_to_range(std::uint64_t hash, std::uint64_t n) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(hash) * n) >> 64);
}

}  // namespace

std::uint64_t Universe::rtt_nanos(const Ipv6Addr& addr) {
  // Per-/48 base latency: everything in one site shares a path to us.
  // The site is the top 48 bits of hi() — masked inline, no Ipv6Addr.
  const std::uint64_t site_hi = addr.hi() & ~std::uint64_t{0xFFFF};
  const std::uint64_t base_hash = v6::net::splitmix64(site_hi ^ 0x177C);
  const std::uint64_t base =
      5'000'000 + map_to_range(base_hash, 180'000'000);  // 5–185 ms
  // Per-address jitter on top (last-hop / host scheduling). One odd-
  // constant multiply is enough mixing here: map_to_range keeps only the
  // high bits, which a multiply spreads well, and jitter only has to
  // decorrelate neighbours — the heavy lifting is in base_hash.
  const std::uint64_t jitter_hash =
      (addr.lo() ^ base_hash) * 0x9E3779B97F4A7C15ULL;
  return base + map_to_range(jitter_hash, 20'000'000);  // + 0–20 ms
}

const HostRecord* Universe::host(const Ipv6Addr& addr) const {
  V6_REQUIRE(!procedural_);
  const std::optional<std::uint32_t> pos = host_index_.find(addr, host_key());
  return pos.has_value() ? &hosts_[*pos] : nullptr;
}

bool Universe::lookup_host(const Ipv6Addr& addr, HostRecord& out) const {
  if (procedural_) return model_.lookup(config_, addr, out);
  const std::optional<std::uint32_t> pos = host_index_.find(addr, host_key());
  if (!pos.has_value()) return false;
  out = hosts_[*pos];
  return true;
}

bool Universe::host_active(const Ipv6Addr& addr, ProbeType type) const {
  HostRecord h;
  return lookup_host(addr, h) && v6::net::has_service(h.services, type);
}

const Universe::CountCache& Universe::counts() const {
  // counts_ itself is allocated eagerly by the builder for procedural
  // universes, so only the fill needs synchronizing.
  std::call_once(counts_->once, [this] {
    for_each_host([this](const HostRecord& h) {
      ++counts_->total;
      if (h.services != 0) ++counts_->any;
      for (ProbeType type : v6::net::kAllProbeTypes) {
        if (v6::net::has_service(h.services, type)) {
          ++counts_->by_type[static_cast<int>(type)];
        }
      }
    });
  });
  return *counts_;
}

std::size_t Universe::active_host_count(ProbeType type) const {
  if (procedural_) return counts().by_type[static_cast<int>(type)];
  std::size_t n = 0;
  for (const HostRecord& h : hosts_) {
    if (v6::net::has_service(h.services, type)) ++n;
  }
  return n;
}

std::size_t Universe::active_host_count_any() const {
  if (procedural_) return counts().any;
  std::size_t n = 0;
  for (const HostRecord& h : hosts_) {
    if (h.services != 0) ++n;
  }
  return n;
}

std::size_t Universe::host_count() const {
  if (procedural_) return counts().total;
  return hosts_.size();
}

}  // namespace v6::simnet
