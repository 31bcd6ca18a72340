// Seed collection: samples the simulated Internet the way each real-world
// feed samples the real one (paper §5).
//
// Domain-derived feeds (Censys CT, Rapid7 FDNS, the five toplists, CAIDA
// DNS) are collected the way the paper collects them: synthesize the
// feed's *domain list*, then resolve it with the batch AAAA resolver
// (the ZDNS analogue). Traceroute feeds (Scamper, RIPE Atlas) run
// traceroute campaigns through the topology substrate from
// vantage-specific viewpoints. Hitlist feeds (IPv6 Hitlist, AddrMiner)
// sample known-host space directly, alias residue and all.
//
// The bias profiles are tuned so the dataset-composition shapes of
// Table 3 and Figures 1-2 emerge: traceroute sources give AS breadth,
// domains give IP depth with heavy mutual overlap, the hitlist is the
// best single source of responsive IPs, and AddrMiner carries the bulk
// of the aliases.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dns/domain_lists.h"
#include "dns/resolver.h"
#include "dns/zone_db.h"
#include "net/ipv6.h"
#include "obs/telemetry.h"
#include "seeds/seed_dataset.h"
#include "seeds/source.h"
#include "simnet/universe.h"
#include "topo/traceroute.h"

namespace v6::seeds {

/// Bias profile for one seed source.
struct SourceProfile {
  double as_coverage = 0.5;   // probability an AS is visible to the feed
  double router_p = 0.0;      // inclusion probability per host role,
  double web_p = 0.0;         //   given the AS is visible
  double dns_p = 0.0;
  double endhost_p = 0.0;
  bool popular_only = false;  // toplists: only popular web properties
  double popular_boost = 1.0; // multiplier for popular hosts
  bool china_only = false;    // SecRank: China-region ASes only
  double stale_mult = 1.0;    // multiplier for churned-host inclusion
  /// Router vantage band: traceroute feeds observe the subset of router
  /// interfaces whose address hash falls in [lo, hi) — different vantage
  /// points see mostly different interfaces.
  double router_band_lo = 0.0;
  double router_band_hi = 1.0;
  /// Traceroute campaign size (traceroute feeds only).
  std::size_t campaign_targets = 0;
  std::size_t alias_samples = 0;  // addresses drawn from aliased regions
  std::size_t dense_samples = 0;  // addresses from the AS12322 pattern
  double junk_fraction = 0.0;     // extra never-active routed addresses
};

/// The default profile for each source.
SourceProfile default_profile(SeedSource source);

/// The timer collect_all() records a source's collection under:
/// `seeds.collect.` and the source's name, lowercased, with every other
/// character an underscore (`seeds.collect.ipv6_hitlist`).
std::string timer_name(SeedSource source);

class SeedCollector {
 public:
  /// `seed` controls all sampling; collection is deterministic in
  /// (universe, seed). Builds the topology substrate; the DNS zone is
  /// built on first use.
  SeedCollector(const v6::simnet::Universe& universe, std::uint64_t seed);

  /// Collects one source's address feed (may contain stale, aliased and
  /// junk addresses — preprocessing is a separate, studied step).
  /// Sources draw only from their own RNG streams, so concurrent calls
  /// for different sources are safe and give the serial results.
  std::vector<v6::net::Ipv6Addr> collect(SeedSource source) const;

  /// Collects every source into one provenance-tagged dataset: the
  /// merge, in kAllSeedSources order, of collect() over every source.
  /// The four sources that need no DNS zone (the two traceroute
  /// campaigns, the IPv6 Hitlist, AddrMiner) run on one worker while the
  /// calling thread builds the zone and collects the eight domain feeds
  /// (inline when runtime::default_jobs() is 1). With `telemetry`,
  /// records the zone build as the `seeds.collect.zone` timer and each
  /// source as timer_name(source), one sample each, in kAllSeedSources
  /// order after the lanes join.
  SeedDataset collect_all(v6::obs::Telemetry* telemetry = nullptr) const;

  /// The synthetic DNS zone used for domain-feed resolution, built by
  /// the first call (thread-safe).
  const v6::dns::ZoneDb& zone() const;

 private:
  /// Deterministic per-(source, ASN) visibility coin.
  bool as_visible(SeedSource source, std::uint32_t asn,
                  const SourceProfile& profile) const;

  /// Direct host-space sampling (hitlists; small extras for RIPE Atlas).
  void sample_hosts(SeedSource source, const SourceProfile& profile,
                    v6::net::Rng& rng,
                    std::vector<v6::net::Ipv6Addr>& out) const;

  /// Aliased-region, dense-region, and junk augmentation.
  void sample_extras(SeedSource source, const SourceProfile& profile,
                     v6::net::Rng& rng,
                     std::vector<v6::net::Ipv6Addr>& out) const;

  /// AddrMiner: a genuinely TGA-generated hitlist. Bootstraps a DET-style
  /// generator from a host-space sample (paper: AddrMiner extends DET for
  /// long-term measurement) and accumulates its responsive discoveries —
  /// aliases included, since the miner does not dealias its archive.
  void collect_addrminer(const SourceProfile& profile, v6::net::Rng& rng,
                         std::vector<v6::net::Ipv6Addr>& out) const;

  const v6::simnet::Universe* universe_;
  std::uint64_t seed_;
  v6::topo::TracerouteEngine topo_;
  mutable std::once_flag zone_once_;
  mutable std::optional<v6::dns::ZoneDb> zone_;
};

}  // namespace v6::seeds
