#include "topo/traceroute.h"

#include <algorithm>

#include "net/addr_index.h"

namespace v6::topo {

using v6::net::Ipv6Addr;
using v6::net::LazyMt64;
using v6::net::Rng;
using v6::simnet::HostKind;

const std::vector<std::uint32_t> TracerouteEngine::kEmpty;

namespace {

double addr_unit(const Ipv6Addr& addr) {
  const std::uint64_t h =
      v6::net::splitmix64(addr.hi() ^ v6::net::splitmix64(addr.lo()));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

TracerouteEngine::TracerouteEngine(const v6::simnet::Universe& universe,
                                   std::uint64_t seed)
    : universe_(&universe), seed_(seed) {
  // Index router interfaces per AS (streaming: same order and content
  // on materialized and procedural universes).
  universe.for_each_host([this](const v6::simnet::HostRecord& host) {
    if (host.kind == HostKind::kRouter && host.historic_services != 0) {
      routers_[host.asn].push_back({host.addr, addr_unit(host.addr)});
    }
  });
  // Transit pool: ASes with several routers act as providers.  Both
  // loops feed transit_pool_, which is sorted (ASNs are unique keys)
  // before anyone reads it, so hash order cannot escape.
  // v6lint: allow(unordered-iteration)
  for (const auto& [asn, addrs] : routers_) {
    if (addrs.size() >= 3) transit_pool_.push_back(asn);
  }
  std::sort(transit_pool_.begin(), transit_pool_.end());
  if (transit_pool_.empty()) {
    // v6lint: allow(unordered-iteration)
    for (const auto& [asn, addrs] : routers_) transit_pool_.push_back(asn);
    std::sort(transit_pool_.begin(), transit_pool_.end());
  }

  // Synthesize 1-3 upstream providers per AS, deterministically. Each
  // AS draws at most four values, so its engine seeds lazily.
  for (const auto& info : universe.asdb().all()) {
    LazyMt64 rng(v6::net::derive_seed(seed, 0x109 ^ info.asn));
    const int n = transit_pool_.empty()
                      ? 0
                      : v6::net::uniform_int(rng, 1, 3);
    std::vector<std::uint32_t> ups;
    for (int i = 0; i < n; ++i) {
      const std::uint32_t provider = transit_pool_[v6::net::uniform_int<
          std::size_t>(rng, 0, transit_pool_.size() - 1)];
      if (provider != info.asn &&
          std::find(ups.begin(), ups.end(), provider) == ups.end()) {
        ups.push_back(provider);
      }
    }
    upstreams_.emplace(info.asn, std::move(ups));
  }
}

const std::vector<std::uint32_t>& TracerouteEngine::upstreams(
    std::uint32_t asn) const {
  const auto it = upstreams_.find(asn);
  return it == upstreams_.end() ? kEmpty : it->second;
}

void TracerouteEngine::visible_routers(std::uint32_t asn,
                                       const VantageProfile& vantage,
                                       std::vector<Ipv6Addr>& out) const {
  out.clear();
  const auto it = routers_.find(asn);
  if (it == routers_.end()) return;
  for (const Router& router : it->second) {
    if (router.unit >= vantage.band_lo && router.unit < vantage.band_hi) {
      out.push_back(router.addr);
    }
  }
}

std::vector<TraceHop> TracerouteEngine::trace(
    const Ipv6Addr& target, const VantageProfile& vantage) const {
  std::vector<TraceHop> path;
  std::vector<Ipv6Addr> visible;
  trace_into(target, vantage, path, visible);
  return path;
}

void TracerouteEngine::trace_into(const Ipv6Addr& target,
                                  const VantageProfile& vantage,
                                  std::vector<TraceHop>& path,
                                  std::vector<Ipv6Addr>& visible) const {
  path.clear();
  const auto dest_asn = universe_->asn_of(target);
  if (!dest_asn) return;

  // One engine per trace, for at most ~20 draws: seeded lazily.
  LazyMt64 rng(v6::net::derive_seed(
      seed_, v6::net::splitmix64(target.hi() ^ target.lo()) ^ 0x7124CE));
  int ttl = 1;

  auto push_from_as = [&](std::uint32_t asn, int max_hops) {
    visible_routers(asn, vantage, visible);
    if (visible.empty()) return;
    const int hops =
        std::min<int>(max_hops, v6::net::uniform_int(rng, 1, 2));
    for (int h = 0; h < hops; ++h) {
      TraceHop hop;
      hop.addr = visible[v6::net::uniform_int<std::size_t>(
          rng, 0, visible.size() - 1)];
      hop.asn = asn;
      hop.ttl = ttl++;
      hop.responded = v6::net::chance(rng, vantage.hop_response_prob);
      path.push_back(hop);
    }
  };

  // Provider chain: up to two levels of upstreams, then the destination.
  const auto& ups = upstreams(*dest_asn);
  if (!ups.empty()) {
    const std::uint32_t first =
        ups[v6::net::uniform_int<std::size_t>(rng, 0, ups.size() - 1)];
    const auto& grand = upstreams(first);
    if (!grand.empty()) {
      push_from_as(grand[v6::net::uniform_int<std::size_t>(
                       rng, 0, grand.size() - 1)],
                   2);
    }
    push_from_as(first, 2);
  }
  push_from_as(*dest_asn, 2);
}

std::vector<Ipv6Addr> TracerouteEngine::campaign(
    std::size_t num_targets, const VantageProfile& vantage,
    std::uint64_t campaign_tag) const {
  std::vector<Ipv6Addr> out;
  v6::net::AddrIndex seen;  // positions in `out`
  Rng rng = v6::net::make_rng(seed_, 0xCA4 ^ campaign_tag);
  const auto& announcements = universe_->routes().announcements();
  if (announcements.empty()) return out;

  std::vector<TraceHop> path;
  std::vector<Ipv6Addr> visible;
  for (std::size_t i = 0; i < num_targets; ++i) {
    const auto& [prefix, asn] = announcements[v6::net::uniform_int<
        std::size_t>(rng, 0, announcements.size() - 1)];
    const Ipv6Addr target = v6::net::random_in_prefix(rng, prefix);
    trace_into(target, vantage, path, visible);
    for (const TraceHop& hop : path) {
      if (!hop.responded) continue;
      if (seen.insert(hop.addr, out.size(), v6::net::key_in(out)).second) {
        out.push_back(hop.addr);
      }
    }
  }
  return out;
}

}  // namespace v6::topo
