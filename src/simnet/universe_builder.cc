#include "simnet/universe_builder.h"

#include <algorithm>
#include <string>

#include "net/rng.h"
#include "simnet/site_model.h"

namespace v6::simnet {
namespace {

using v6::asdb::AsInfo;
using v6::asdb::OrgType;
using v6::asdb::Region;
using v6::net::Ipv6Addr;
using v6::net::Prefix;
using v6::net::ProbeType;
using v6::net::Rng;
using v6::net::ServiceMask;
using v6::net::SplitMixRng;

// The sampling distributions, IID patterns, and kServiceWords/kOuis
// tables historically defined here now live in simnet/site_model.h,
// shared (as URBG templates) between this builder and the procedural
// model. Instantiated with net::Rng they are byte-identical to the old
// local copies, so every legacy stream — and every golden pinned to
// one — is untouched.

std::string make_as_name(OrgType org, Region region, std::uint32_t asn) {
  std::string name{v6::asdb::to_string(org)};
  name += '-';
  name += v6::asdb::to_string(region);
  name += '-';
  name += std::to_string(asn);
  return name;
}

/// Address of the /32 slot `s`: top nybble 2, slot number in the next 28
/// bits. Every AS prefix in the universe is carved from 2000::/4.
Ipv6Addr slot_base(std::uint32_t s) {
  return Ipv6Addr((0x2ULL << 60) | (static_cast<std::uint64_t>(s) << 32), 0);
}

/// The dense AS12322-analogue region occupies slot 0 in every build mode.
/// Takes the universe members directly: these helpers live outside
/// UniverseBuilder and so outside Universe's friendship.
void add_dense_region(const UniverseConfig& config, v6::asdb::AsDatabase& asdb,
                      v6::asdb::RoutingTable& routes,
                      std::optional<DenseRegion>& dense) {
  if (!config.include_dense_region) return;
  constexpr std::uint32_t kDenseAsn = 12322;
  AsInfo info;
  info.asn = kDenseAsn;
  info.org_type = OrgType::kIsp;
  info.region = Region::kEurope;
  info.name = "ISP-EU-12322-densenet";
  asdb.add(info);
  // With low64 == ::1 the pattern space is 2^(64 - len) addresses,
  // ~35% of them ICMP-active — the scaled analogue of the paper's
  // 16.7M-address, 35%-active AS12322 pattern.
  const Prefix prefix(slot_base(0), config.dense_region_prefix_len);
  routes.announce(prefix, kDenseAsn);
  dense = DenseRegion{prefix, kDenseAsn, config.dense_region_active_prob};
}

/// Aliased regions of one /32, drawn from `rng` (clouds/hosters/CDNs
/// only). Shared verbatim between the legacy path (which passes the
/// global alias mt19937 stream) and the v2 path (a per-prefix SplitMix
/// stream) — the draw sequence is identical, only the engine differs.
template <typename Urbg>
void add_alias_regions(const UniverseConfig& config, Urbg& rng,
                       const Prefix& as_prefix, const AsInfo& info,
                       v6::net::PrefixTrie<std::uint32_t>& alias_trie,
                       std::vector<AliasRegion>& alias_regions) {
  const bool alias_candidate = info.org_type == OrgType::kCloud ||
                               info.org_type == OrgType::kHosting ||
                               info.org_type == OrgType::kCdn ||
                               info.org_type == OrgType::kSecurity;
  if (!alias_candidate || !v6::net::chance(rng, config.alias_as_fraction)) {
    return;
  }
  const int regions = v6::net::uniform_int(rng, 1, 4);
  for (int r = 0; r < regions; ++r) {
    AliasRegion region;
    // Place the alias inside the same dense site space the AS's
    // real hosts occupy: aliases correlate with the patterns TGAs
    // exploit (paper §6.1).
    const std::uint64_t a_site = v6::net::uniform_int<std::uint64_t>(rng, 0, 24);
    const std::uint64_t a_sn = v6::net::uniform_int<std::uint64_t>(rng, 0, 12);
    const Ipv6Addr base(as_prefix.addr().hi() | (a_site << 16) | a_sn, 0);
    const int len = v6::net::chance(rng, 0.5)
                        ? 64
                        : (v6::net::chance(rng, 0.5) ? 80 : 96);
    region.prefix = Prefix(base, len);
    region.asn = info.asn;
    region.services =
        v6::net::chance(rng, 0.6)
            ? v6::net::kAllServices
            : static_cast<ServiceMask>(
                  v6::net::service_bit(ProbeType::kIcmp) |
                  v6::net::service_bit(ProbeType::kTcp80) |
                  v6::net::service_bit(ProbeType::kTcp443));
    region.published =
        v6::net::chance(rng, config.alias_published_fraction);
    region.rate_limited =
        v6::net::chance(rng, config.alias_rate_limited_fraction);
    region.response_prob =
        region.rate_limited ? config.rate_limited_response_prob : 1.0;
    alias_trie.insert(region.prefix,
                      static_cast<std::uint32_t>(alias_regions.size()));
    alias_regions.push_back(region);
  }
}

}  // namespace

/// Legacy materializing build: three shared mt19937 streams, hosts
/// synthesized inline. Byte-for-byte the historical algorithm — the
/// pinned goldens (golden_sweep, golden_quantiles, BENCH_rq1_rq2)
/// depend on this exact draw order.
Universe UniverseBuilder::build_legacy(const UniverseConfig& config) {
  Universe u;
  u.config_ = config;

  Rng as_rng = v6::net::make_rng(config.seed, /*tag=*/1);
  Rng host_rng = v6::net::make_rng(config.seed, /*tag=*/2);
  Rng alias_rng = v6::net::make_rng(config.seed, /*tag=*/3);

  std::uint32_t next_slot = 1;  // slot 0 reserved for the dense region
  add_dense_region(config, u.asdb_, u.routes_, u.dense_region_);

  for (int i = 0; i < config.num_ases; ++i) {
    AsInfo info;
    info.asn = 1000 + static_cast<std::uint32_t>(i) * 13 +
               v6::net::uniform_int<std::uint32_t>(as_rng, 0, 12);
    info.org_type = sample_org_type(as_rng);
    info.region = sample_region(as_rng);
    info.name = make_as_name(info.org_type, info.region, info.asn);
    u.asdb_.add(info);

    const SizeClass size = sample_size_class(as_rng, info.org_type);
    std::size_t remaining =
        sample_host_count(as_rng, size, config.host_scale);

    const int num_prefixes =
        size == SizeClass::kLarge
            ? v6::net::uniform_int(as_rng, 1, 3)
            : (size == SizeClass::kMedium ? v6::net::uniform_int(as_rng, 1, 2)
                                          : 1);
    for (int p = 0; p < num_prefixes; ++p) {
      const Prefix as_prefix(slot_base(next_slot++), 32);
      u.routes_.announce(as_prefix, info.asn);
      const std::size_t share =
          remaining / static_cast<std::size_t>(num_prefixes - p);
      remaining -= share;

      // Guaranteed infrastructure subnet: every routed prefix exposes a
      // couple of router interfaces at <prefix>:ffff:0::1.. (traceroute
      // sources see almost every AS through these).
      {
        const Ipv6Addr infra_base(as_prefix.addr().hi() | (0xFFFFULL << 16),
                                  0);
        const std::size_t routers =
            v6::net::uniform_int<std::size_t>(host_rng, 1, 3);
        for (std::size_t h = 0; h < routers; ++h) {
          HostRecord rec;
          rec.addr = Ipv6Addr(infra_base.hi(), h + 1);
          rec.asn = info.asn;
          rec.kind = HostKind::kRouter;
          rec.historic_services = sample_services(host_rng, HostKind::kRouter);
          if (rec.historic_services == 0) {
            rec.historic_services =
                v6::net::service_bit(ProbeType::kIcmp);
          }
          rec.services = v6::net::chance(host_rng, config.churn_fraction)
                             ? v6::net::ServiceMask{0}
                             : rec.historic_services;
          // Short-circuit keeps the draw (and so the whole host RNG
          // stream) out of default builds, where the fraction is 0.
          rec.rate_limited =
              config.host_rate_limited_fraction > 0.0 &&
              v6::net::chance(host_rng, config.host_rate_limited_fraction);
          u.add_host(rec);
        }
      }

      // Fill the prefix site by site (/48), subnet by subnet (/64).
      std::size_t placed = 0;
      std::uint64_t site = 0;
      // Some orgs stride their site allocations, a pattern TGAs must learn.
      const std::uint64_t site_stride =
          v6::net::chance(as_rng, 0.25) ? 0x10 : 1;
      while (placed < share && site < 0xFFFF) {
        const int subnets_in_site = v6::net::uniform_int(host_rng, 1, 12);
        for (int sn = 0; sn < subnets_in_site && placed < share; ++sn) {
          const Ipv6Addr subnet_base(
              as_prefix.addr().hi() | (site << 16) |
                  static_cast<std::uint64_t>(sn),
              0);
          const HostKind kind = sample_host_kind(host_rng, info.org_type);
          const Low64Pattern pattern = sample_pattern(host_rng, kind);
          std::size_t count = 0;
          switch (kind) {
            case HostKind::kRouter:
              count = v6::net::uniform_int<std::size_t>(host_rng, 1, 6);
              break;
            case HostKind::kWebServer:
            case HostKind::kDnsServer:
              count = v6::net::uniform_int<std::size_t>(host_rng, 4, 200);
              break;
            case HostKind::kEndhost:
              count = v6::net::uniform_int<std::size_t>(host_rng, 4, 48);
              break;
          }
          count = std::min(count, share - placed);
          const double popular_base =
              (info.org_type == OrgType::kCdn ||
               info.org_type == OrgType::kCloud)
                  ? 0.05
                  : 0.02;
          for (std::size_t h = 0; h < count; ++h) {
            HostRecord rec;
            rec.addr = Ipv6Addr(subnet_base.hi(),
                                make_low64(host_rng, pattern, h));
            rec.asn = info.asn;
            rec.kind = kind;
            rec.historic_services = sample_services(host_rng, kind);
            if (rec.historic_services == 0) continue;  // dark host, skip
            if (v6::net::chance(host_rng, config.churn_fraction)) {
              rec.services = 0;  // fully churned: in feeds, answers nothing
            } else if (v6::net::chance(host_rng, 0.05)) {
              // Partial churn: lost one service since observation.
              ServiceMask m = rec.historic_services;
              for (const ProbeType t : v6::net::kAllProbeTypes) {
                if (v6::net::has_service(m, t)) {
                  m &= static_cast<ServiceMask>(~v6::net::service_bit(t));
                  break;
                }
              }
              rec.services = m;
            } else {
              rec.services = rec.historic_services;
            }
            rec.popular = kind == HostKind::kWebServer &&
                          v6::net::chance(host_rng, popular_base);
            rec.rate_limited =
                config.host_rate_limited_fraction > 0.0 &&
                v6::net::chance(host_rng, config.host_rate_limited_fraction);
            u.add_host(rec);
            ++placed;
          }
        }
        site += site_stride;
      }

      add_alias_regions(config, alias_rng, as_prefix, info, u.alias_trie_,
                        u.alias_regions_);
    }
  }

  return u;
}

// v2 build: the shared mt19937 streams are replaced by hierarchical
// SplitMix keys (seed -> AS -> prefix -> site -> subnet -> slot), so any
// level of the structure can be rederived without replaying the levels
// before it. That is what makes the procedural representation possible;
// the materialized twin walks the identical derivation and only differs
// in storing the results.
Universe UniverseBuilder::build_v2(const UniverseConfig& config,
                                  bool materialize_hosts) {
  using site_detail::kPhi;

  Universe u;
  u.config_ = config;
  u.procedural_ = !materialize_hosts;

  std::uint32_t next_slot = 1;  // slot 0 reserved for the dense region
  add_dense_region(config, u.asdb_, u.routes_, u.dense_region_);

  const std::uint64_t asn_salt = v6::net::derive_seed(config.seed, 0xA5A);

  for (int i = 0; i < config.num_ases; ++i) {
    AsInfo info;
    info.asn = 1000 + static_cast<std::uint32_t>(i) * 13 +
               static_cast<std::uint32_t>(
                   v6::net::splitmix64(asn_salt ^
                                       static_cast<std::uint64_t>(i)) %
                   13);
    // Per-AS sub-stream: every AS-level draw comes from a key derived
    // from (seed, asn), so AS j's structure is independent of how much
    // randomness AS j-1 consumed.
    const std::uint64_t as_key = v6::net::splitmix64(config.seed + info.asn);
    SplitMixRng as_rng(as_key);
    info.org_type = sample_org_type(as_rng);
    info.region = sample_region(as_rng);
    info.name = make_as_name(info.org_type, info.region, info.asn);
    u.asdb_.add(info);

    const SizeClass size = sample_size_class(as_rng, info.org_type);
    std::size_t remaining =
        sample_host_count(as_rng, size, config.host_scale);

    const int num_prefixes =
        size == SizeClass::kLarge
            ? v6::net::uniform_int(as_rng, 1, 3)
            : (size == SizeClass::kMedium ? v6::net::uniform_int(as_rng, 1, 2)
                                          : 1);
    for (int p = 0; p < num_prefixes; ++p) {
      const Prefix as_prefix(slot_base(next_slot++), 32);
      u.routes_.announce(as_prefix, info.asn);
      const std::size_t share =
          remaining / static_cast<std::size_t>(num_prefixes - p);
      remaining -= share;

      PrefixPlan plan;
      plan.key = v6::net::splitmix64(
          as_key ^ ((static_cast<std::uint64_t>(p) + 1) * kPhi));
      plan.base_hi = as_prefix.addr().hi();
      plan.asn = info.asn;
      plan.org = info.org_type;
      SplitMixRng p_rng(plan.key);
      plan.infra_routers = v6::net::uniform_int<std::uint16_t>(p_rng, 1, 3);
      plan.site_stride = v6::net::chance(p_rng, 0.25) ? 0x10 : 1;

      // Walk the derived site/subnet structure until the prefix's host
      // budget runs out, recording the truncation boundary. O(#subnets):
      // no per-host derivation happens here, because a slot's existence
      // (unlike its darkness) is decided at the subnet level.
      std::uint64_t placed = 0;
      for (std::uint64_t k = 0;
           k * plan.site_stride < 0xFFFF && placed < share; ++k) {
        const std::uint64_t site = k * plan.site_stride;
        const int subnets = site_subnets(plan, site);
        for (int sn = 0; sn < subnets && placed < share; ++sn) {
          const SubnetPlan sub = subnet_plan(plan, site, sn);
          const std::uint64_t take = std::min<std::uint64_t>(
              sub.count, static_cast<std::uint64_t>(share) - placed);
          placed += take;
          plan.site_count = static_cast<std::uint32_t>(k + 1);
          plan.last_site_subnets = static_cast<std::uint16_t>(sn + 1);
          plan.last_subnet_count = take;
        }
      }
      u.model_.total_slots += placed + plan.infra_routers;

      u.model_.plan_trie.insert(
          as_prefix, static_cast<std::uint32_t>(u.model_.plans.size()));
      u.model_.plans.push_back(plan);

      // Aliases are always materialized (a few thousand regions at
      // most); a per-prefix stream keeps them order-independent too.
      SplitMixRng a_rng(v6::net::splitmix64(plan.key ^ 0xA11A5));
      add_alias_regions(config, a_rng, as_prefix, info, u.alias_trie_,
                        u.alias_regions_);
    }
  }

  if (materialize_hosts) {
    u.model_.for_each_host(config,
                           [&u](const HostRecord& rec) { u.add_host(rec); });
  } else {
    u.counts_ = std::make_unique<Universe::CountCache>();
  }

  return u;
}

Universe UniverseBuilder::build(const UniverseConfig& config) {
  config.validate();
  if (config.procedural) return build_v2(config, /*materialize_hosts=*/false);
  return build_legacy(config);
}

Universe UniverseBuilder::materialize(const UniverseConfig& config) {
  config.validate();
  return build_v2(config, /*materialize_hosts=*/true);
}

void UniverseBuilder::age(Universe& u, const AgingConfig& config) {
  V6_REQUIRE(!u.procedural_);
  Rng rng = v6::net::make_rng(config.seed, /*tag=*/0xA6E);

  // Deterministic per-(epoch, /64) coin for clustered subnet death.
  const std::uint64_t subnet_salt = v6::net::splitmix64(config.seed ^ 0x5B);
  auto subnet_dies = [&](std::uint64_t hi) {
    const std::uint64_t h = v6::net::splitmix64(hi ^ subnet_salt);
    return static_cast<double>(h >> 11) * 0x1.0p-53 <
           config.subnet_death_prob;
  };

  std::vector<HostRecord> births;
  for (HostRecord& host : u.hosts_) {
    if (host.services != 0) {
      if (subnet_dies(host.addr.hi()) ||
          v6::net::chance(rng, config.death_prob)) {
        host.services = 0;
        continue;
      }
      if (v6::net::chance(rng, config.service_loss_prob)) {
        for (const ProbeType t : v6::net::kAllProbeTypes) {
          if (v6::net::has_service(host.services, t)) {
            host.services &=
                static_cast<ServiceMask>(~v6::net::service_bit(t));
            break;
          }
        }
      }
      // Growth clusters where addressing is structured: a counter host
      // gains a sibling at the next identifier.
      if (host.addr.lo() < 0x10000 &&
          v6::net::chance(rng, config.birth_prob)) {
        HostRecord sibling = host;
        sibling.addr = Ipv6Addr(host.addr.hi(), host.addr.lo() + 1);
        sibling.popular = false;
        births.push_back(sibling);
      }
    } else if (host.historic_services != 0 &&
               v6::net::chance(rng, config.revival_prob)) {
      host.services = host.historic_services;
    }
  }

  for (const HostRecord& born : births) u.add_host(born);
}

}  // namespace v6::simnet
