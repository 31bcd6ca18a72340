// The simulated IPv6 Internet: ground truth the scanner probes against.
//
// A Universe holds every aliased region, the dense AS12322-analogue
// region, the AS database and routing table — and its host population in
// one of two representations. A *materialized* universe (the legacy
// default) stores every synthesized HostRecord in one array, indexed by
// a net::AddrIndex whose 8-byte {tag, position} slots read each address
// from the record itself (an 8 MiB table for the Workbench's 401,386
// hosts); a *procedural* universe (UniverseConfig::procedural) stores
// only one PrefixPlan per announced /32 and rederives any host on demand
// from (seed, address) via src/simnet/site_model.h, so memory scales
// with the routing table instead of the host count (docs/SCALE.md).
// Either way it answers probes with wire-level replies (including
// rate-limiting and background ICMP errors) and exposes ground-truth
// queries used only by evaluation code (never by TGAs or the scanner
// themselves).
//
// Host-population access goes through lookup_host() (one address) and
// for_each_host() (ordered streaming enumeration); the materialized
// hosts() span exists for evaluation code and tests on legacy builds
// only, and the v6lint `materialized-span` rule bars library code
// outside simnet from reaching for it.
//
// prefetch() hints the cache to load the host-index slot a probe of an
// address will read first (a miss reads nothing else of the table). A
// scan loop issues it some probes ahead of probe() (StreamScanner's
// lookahead walk), so the table's cache misses overlap instead of
// paying their latency one after another. It changes no reply.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "asdb/as_database.h"
#include "asdb/routing_table.h"
#include "check/contracts.h"
#include "net/addr_index.h"
#include "net/ipv6.h"
#include "net/prefix_trie.h"
#include "net/rng.h"
#include "net/service.h"
#include "simnet/alias_region.h"
#include "simnet/host.h"
#include "simnet/site_model.h"
#include "simnet/universe_config.h"

namespace v6::simnet {

/// Description of the dense, trivially-enumerable ICMP region modeled on
/// AS12322 (paper §4.1): addresses inside `prefix` whose low 64 bits are
/// exactly ::1 respond to ICMP with probability `active_prob`.
struct DenseRegion {
  v6::net::Prefix prefix;
  std::uint32_t asn = 0;
  double active_prob = 0.35;
};

class Universe {
 public:
  Universe() = default;
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;
  Universe(Universe&&) = default;
  Universe& operator=(Universe&&) = default;

  // ---- Wire behaviour (what the scanner sees) -------------------------

  /// Answers one probe packet. `rng` supplies loss randomness for
  /// rate-limited regions; everything else is a deterministic function of
  /// the address. Generic over the URBG so the sequential SimTransport
  /// stream (net::Rng) and the streaming scanner's per-probe stateless
  /// engines (net::SplitMixRng) share one reply model; the engine choice
  /// only matters for the few regions that actually draw randomness.
  template <typename Urbg>
  v6::net::ProbeReply probe(const v6::net::Ipv6Addr& addr,
                            v6::net::ProbeType type, Urbg& rng) const;

  /// Hints the cache to load the host-index slot where a probe of `addr`
  /// looks the host up. Does nothing on a procedural universe, which has
  /// no host table. The alias and route tables get no hint: they are
  /// small enough to stay cached.
  void prefetch(const v6::net::Ipv6Addr& addr) const {
    if (!procedural_) host_index_.prefetch(addr);
  }

  // ---- Ground truth (evaluation only) ---------------------------------

  /// True if `addr` lies inside any aliased region.
  bool is_aliased(const v6::net::Ipv6Addr& addr) const {
    return alias_trie_.covers(addr);
  }

  /// The alias region containing `addr`, if any.
  const AliasRegion* alias_region_of(const v6::net::Ipv6Addr& addr) const {
    const std::uint32_t* idx = alias_trie_.longest_match(addr);
    return idx == nullptr ? nullptr : &alias_regions_[*idx];
  }

  /// True if `addr` belongs to the AS12322-analogue dense-pattern region
  /// (whether or not the particular address is active).
  bool in_dense_region(const v6::net::Ipv6Addr& addr) const {
    return dense_region_ && dense_region_->prefix.contains(addr);
  }

  /// True if a (non-aliased) host at `addr` currently answers `type`.
  bool host_active(const v6::net::Ipv6Addr& addr,
                   v6::net::ProbeType type) const;

  /// Resolves the host at `addr` into `out`. Works in both
  /// representations (index lookup when materialized, O(1) site-model
  /// derivation when procedural); returns false if no host exists there.
  /// This is the host-population query library code should use.
  bool lookup_host(const v6::net::Ipv6Addr& addr, HostRecord& out) const;

  /// Host record at `addr`, if one exists. Materialized universes only
  /// (a procedural universe has no stored record to point into) — use
  /// lookup_host() for representation-independent access.
  const HostRecord* host(const v6::net::Ipv6Addr& addr) const;

  /// Streams every host to `fn(const HostRecord&)` in canonical builder
  /// order — identical between a procedural universe and its
  /// materialized twin, so seed synthesis and evaluation passes are
  /// representation-independent. O(hosts) time, O(1) memory.
  template <typename Fn>
  void for_each_host(Fn&& fn) const {
    if (procedural_) {
      model_.for_each_host(config_, std::forward<Fn>(fn));
      return;
    }
    for (const HostRecord& h : hosts_) fn(h);
  }

  /// True when this universe derives hosts procedurally.
  bool procedural() const { return procedural_; }

  // ---- Topology & metadata --------------------------------------------

  const v6::asdb::AsDatabase& asdb() const { return asdb_; }
  const v6::asdb::RoutingTable& routes() const { return routes_; }

  /// Origin ASN of `addr` per the routing table.
  std::optional<std::uint32_t> asn_of(const v6::net::Ipv6Addr& addr) const {
    return routes_.asn_of(addr);
  }

  /// The materialized host table. Legacy/evaluation access only: empty
  /// on a procedural universe (contract-checked in sanitizer builds) —
  /// stream with for_each_host() instead.
  std::span<const HostRecord> hosts() const {
    V6_REQUIRE(!procedural_);
    return hosts_;
  }
  std::span<const AliasRegion> alias_regions() const { return alias_regions_; }
  const std::optional<DenseRegion>& dense_region() const {
    return dense_region_;
  }
  const UniverseConfig& config() const { return config_; }

  // ---- Summary statistics ----------------------------------------------

  /// Hosts currently responsive on `type` (excluding aliases and the dense
  /// region). On a procedural universe the counts are derived by one full
  /// enumeration, computed lazily on first call and cached (thread-safe).
  std::size_t active_host_count(v6::net::ProbeType type) const;

  /// Hosts currently responsive on any probe type.
  std::size_t active_host_count_any() const;

  /// Total hosts in existence (responsive or churned). Cheap on both
  /// representations once the count cache is warm.
  std::size_t host_count() const;

  /// Deterministic modeled round-trip time for a reply from `addr`, in
  /// integer nanoseconds: a per-/48-site base (5–185 ms, continental
  /// spread) plus per-address jitter (0–20 ms). A pure splitmix64 hash —
  /// no RNG stream is consumed, so calling (or not calling) this can
  /// never perturb scan outcomes, and repeated probes of one address
  /// agree. Feeds the virtual-time `transport.<TYPE>.rtt` histograms.
  static std::uint64_t rtt_nanos(const v6::net::Ipv6Addr& addr);

 private:
  friend class UniverseBuilder;

  /// Deterministic per-address coin used for background noise and the
  /// dense region, so repeated probes of one address agree.
  static bool addr_coin(const v6::net::Ipv6Addr& addr, std::uint64_t salt,
                        double p);

  /// Lazily-computed population counts of a procedural universe. Lives
  /// behind a unique_ptr because std::once_flag is immovable and
  /// Universe is move-only.
  struct CountCache {
    std::once_flag once;
    std::array<std::size_t, v6::net::kNumProbeTypes> by_type{};
    std::size_t any = 0;
    std::size_t total = 0;
  };
  const CountCache& counts() const;

  /// host_index_'s key accessor: the address of hosts_[pos].
  auto host_key() const {
    return [this](std::uint32_t pos) -> const v6::net::Ipv6Addr& {
      return hosts_[pos].addr;
    };
  }

  /// Appends `rec` and indexes it, unless a host already sits at its
  /// address.
  void add_host(const HostRecord& rec) {
    if (host_index_.insert(rec.addr, hosts_.size(), host_key()).second) {
      hosts_.push_back(rec);
    }
  }

  UniverseConfig config_;
  v6::asdb::AsDatabase asdb_;
  v6::asdb::RoutingTable routes_;
  std::vector<HostRecord> hosts_;
  /// addr -> its position in hosts_. One find() per probe packet makes
  /// this the hottest lookup in the materialized simulator.
  v6::net::AddrIndex host_index_;
  /// Procedural twin of (hosts_, host_index_): per-/32 plans + LPM trie.
  bool procedural_ = false;
  ProceduralModel model_;
  mutable std::unique_ptr<CountCache> counts_;
  std::vector<AliasRegion> alias_regions_;
  v6::net::PrefixTrie<std::uint32_t> alias_trie_;
  std::optional<DenseRegion> dense_region_;
};

// Defined in the header because it is a template (see the declaration);
// the non-template helpers it calls (lookup_host, addr_coin) stay in
// the .cc.
template <typename Urbg>
v6::net::ProbeReply Universe::probe(const v6::net::Ipv6Addr& addr,
                                    v6::net::ProbeType type, Urbg& rng) const {
  using v6::net::ProbeReply;
  using v6::net::ProbeType;

  // 1. Aliased regions answer for every address inside them.
  if (const AliasRegion* region = alias_region_of(addr); region != nullptr) {
    if (v6::net::has_service(region->services, type)) {
      if (!region->rate_limited ||
          v6::net::uniform01(rng) < region->response_prob) {
        return v6::net::positive_reply(type);
      }
      return ProbeReply::kTimeout;  // probe dropped by the rate limiter
    }
    // Service closed on the aliased device: TCP gets a RST.
    if (type == ProbeType::kTcp80 || type == ProbeType::kTcp443) {
      return ProbeReply::kRst;
    }
    return ProbeReply::kTimeout;
  }

  // 2. The dense AS12322-analogue pattern: low64 == ::1, ~35% ICMP-active.
  if (dense_region_ && dense_region_->prefix.contains(addr)) {
    if (type == ProbeType::kIcmp && addr.lo() == 1 &&
        addr_coin(addr, /*salt=*/0xDE45E, dense_region_->active_prob)) {
      return ProbeReply::kEchoReply;
    }
    return ProbeReply::kTimeout;
  }

  // 3. Regular hosts. Host-level faults (rate-limited hosts, reply
  // loss) draw from the transport RNG only when the universe actually
  // enables them, so default (lossless) configs keep the exact RNG
  // stream — and so the exact replies — of pre-fault builds.
  if (HostRecord h; lookup_host(addr, h)) {
    if (v6::net::has_service(h.services, type)) {
      if (h.rate_limited &&
          v6::net::uniform01(rng) >= config_.host_rate_limited_response_prob) {
        return ProbeReply::kTimeout;  // reply suppressed by the limiter
      }
      if (config_.host_loss_prob > 0.0 &&
          v6::net::uniform01(rng) < config_.host_loss_prob) {
        return ProbeReply::kTimeout;  // reply lost in the network
      }
      return v6::net::positive_reply(type);
    }
    // Host up but port closed: TCP stacks typically send RST; a UDP probe
    // may draw an ICMP Port Unreachable (classified as DestUnreachable).
    if (h.services != 0) {
      if (type == ProbeType::kTcp80 || type == ProbeType::kTcp443) {
        return ProbeReply::kRst;
      }
      if (type == ProbeType::kUdp53 &&
          addr_coin(addr, /*salt=*/0x0D53, 0.5)) {
        return ProbeReply::kDestUnreachable;
      }
    }
    return ProbeReply::kTimeout;
  }

  // 4. Background: routed-but-unused space occasionally draws an ICMP
  // Destination Unreachable from an on-path router.
  if (routes_.asn_of(addr).has_value() &&
      addr_coin(addr, /*salt=*/0xBAC6, config_.background_unreachable_prob)) {
    return ProbeReply::kDestUnreachable;
  }
  return ProbeReply::kTimeout;
}

}  // namespace v6::simnet
