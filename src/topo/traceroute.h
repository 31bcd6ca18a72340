// Simulated traceroute: the topology-discovery substrate behind the
// Scamper (CAIDA Ark) and RIPE Atlas seed sources.
//
// The universe has no explicit link graph, so one is synthesized
// deterministically: every AS gets 1-3 upstream providers (hash-derived,
// biased toward large transit-ish ASes), and a trace toward a target
// walks transit routers down to the destination AS's infrastructure
// routers. Distinct vantage points expose different router interfaces —
// the reason Scamper and RIPE Atlas overlap so little in the paper's
// Figure 1 — modeled as a hash band over interface addresses.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/ipv6.h"
#include "net/rng.h"
#include "simnet/universe.h"

namespace v6::topo {

struct TraceHop {
  v6::net::Ipv6Addr addr;
  std::uint32_t asn = 0;
  int ttl = 0;
  /// False when the hop dropped the TTL-exceeded reply (anonymous hop).
  bool responded = true;
};

struct VantageProfile {
  /// Interface hash band visible from this vantage set.
  double band_lo = 0.0;
  double band_hi = 1.0;
  /// Probability an on-path router answers with TTL-exceeded.
  double hop_response_prob = 0.85;
};

/// Immutable after construction: trace() and campaign() are const, so
/// concurrent campaigns may share one engine.
class TracerouteEngine {
 public:
  TracerouteEngine(const v6::simnet::Universe& universe, std::uint64_t seed);

  /// Traces toward `target`; hop interfaces are drawn from the synthetic
  /// provider chain plus the destination AS. Deterministic per
  /// (engine seed, target, vantage).
  std::vector<TraceHop> trace(const v6::net::Ipv6Addr& target,
                              const VantageProfile& vantage) const;

  /// Runs a campaign: traces toward `num_targets` addresses spread over
  /// announced space and returns the unique responding interfaces
  /// (historically active routers; includes since-churned ones, as a
  /// real archive would).
  std::vector<v6::net::Ipv6Addr> campaign(std::size_t num_targets,
                                          const VantageProfile& vantage,
                                          std::uint64_t campaign_tag) const;

  /// The synthesized upstream providers of `asn`.
  const std::vector<std::uint32_t>& upstreams(std::uint32_t asn) const;

 private:
  /// A router interface with its interface hash as a unit value, the
  /// number a vantage band selects on.
  struct Router {
    v6::net::Ipv6Addr addr;
    double unit = 0.0;
  };

  /// Replaces `out` with the routers of one AS whose interface hash lies
  /// inside the vantage band, in index order.
  void visible_routers(std::uint32_t asn, const VantageProfile& vantage,
                       std::vector<v6::net::Ipv6Addr>& out) const;

  /// trace() into caller-owned buffers: replaces `path` with the hops,
  /// and uses `visible` as scratch. A campaign reuses both per trace.
  void trace_into(const v6::net::Ipv6Addr& target,
                  const VantageProfile& vantage, std::vector<TraceHop>& path,
                  std::vector<v6::net::Ipv6Addr>& visible) const;

  const v6::simnet::Universe* universe_;
  std::uint64_t seed_;
  /// asn -> interfaces of its (historically active) routers. Addresses,
  /// not indices: there is no materialized host table to index into on
  /// a procedural universe.
  std::unordered_map<std::uint32_t, std::vector<Router>> routers_;
  /// asn -> upstream provider ASNs.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> upstreams_;
  /// Transit-capable ASNs (provider pool).
  std::vector<std::uint32_t> transit_pool_;
  static const std::vector<std::uint32_t> kEmpty;
};

}  // namespace v6::topo
