// Simulated DNS: the zone database mapping domain names to AAAA records.
//
// The paper's domain-derived seed sources (Censys CT, Rapid7 FDNS, the
// five toplists, CAIDA DNS) all reduce to "a list of names, resolved via
// AAAA lookups" (they used ZDNS against Google Public DNS). This module
// synthesizes the DNS side of the simulated Internet: every web/dns host
// may be named by one or more domains, popular properties carry toplist
// rank, and some names are stale (point at churned hosts) or dangling
// (point at unused space) — the failure modes a real resolution campaign
// encounters.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/addr_index.h"
#include "net/ipv6.h"
#include "simnet/universe.h"

namespace v6::dns {

// GCC 12's -fanalyzer reports a -Wanalyzer-null-dereference in this
// struct's implicit move constructor, on the path where
// std::vector::_M_realloc_insert relocates records into storage it
// models as possibly null (it does not see that the grown length is at
// least 1). A false positive of libstdc++'s relocation path, suppressed
// for this struct only (docs/STATIC_ANALYSIS.md).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wanalyzer-null-dereference"
#endif
/// One zone entry: a name and its AAAA record set.
struct DomainRecord {
  std::string name;
  /// AAAA records (a name may map to several addresses: round-robin,
  /// multi-homing, CDN edges).
  std::vector<v6::net::Ipv6Addr> aaaa;
  /// Toplist popularity rank; 0 = not ranked.
  std::uint32_t rank = 0;
  /// Owning ASN of the first record (denormalized for samplers).
  std::uint32_t asn = 0;
  /// Name backs a DNS server (rarely appears in CT logs or toplists).
  bool dns_host = false;
};
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

struct ZoneDbConfig {
  std::uint64_t seed = 42;
  /// Probability a web server is named at all (some serve by IP / SNI
  /// fronting only).
  double web_named_prob = 0.75;
  /// Probability a DNS server is named.
  double dns_named_prob = 0.7;
  /// Extra aliases-of-the-name: www./cdn./mail. variants.
  double extra_label_prob = 0.35;
  /// Fraction of names that dangle into unused (junk) space.
  double dangling_prob = 0.05;
  /// Fraction of popular names resolving into aliased (CDN) space.
  double popular_cdn_prob = 0.25;
};

/// The global synthetic zone: built deterministically from a Universe.
class ZoneDb {
 public:
  /// Synthesizes the zone for `universe`.
  static ZoneDb build(const v6::simnet::Universe& universe,
                      const ZoneDbConfig& config);

  /// Looks up a name's AAAA records; nullptr if NXDOMAIN.
  const DomainRecord* find(std::string_view name) const;

  std::span<const DomainRecord> records() const { return records_; }

  /// Records with a toplist rank, ordered by rank (1 = most popular).
  std::span<const std::uint32_t> ranked() const { return ranked_; }

  std::size_t size() const { return records_.size(); }

 private:
  /// Name -> id over records_[id].name: 8-byte slots, no key copies.
  auto name_at() const {
    return [this](std::uint32_t id) -> const std::string& {
      return records_[id].name;
    };
  }

  std::vector<DomainRecord> records_;
  v6::net::AddrIndex index_;
  std::vector<std::uint32_t> ranked_;  // indices into records_
};

}  // namespace v6::dns
