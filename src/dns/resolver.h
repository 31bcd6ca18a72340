// Batch AAAA resolver over the synthetic zone — the ZDNS analogue the
// paper uses to turn domain lists into seed addresses. Models the
// failure modes of a real resolution campaign: NXDOMAIN, no-AAAA,
// transient timeouts and SERVFAILs; caches by name.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/zone_db.h"
#include "net/rng.h"

namespace v6::dns {

enum class RCode : std::uint8_t {
  kNoError,
  kNxDomain,
  kNoAaaa,    // name exists, no AAAA records (v4-only)
  kTimeout,
  kServFail,
};

constexpr std::string_view to_string(RCode r) {
  switch (r) {
    case RCode::kNoError: return "NOERROR";
    case RCode::kNxDomain: return "NXDOMAIN";
    case RCode::kNoAaaa: return "NOAAAA";
    case RCode::kTimeout: return "TIMEOUT";
    case RCode::kServFail: return "SERVFAIL";
  }
  return "?";
}

struct Resolution {
  RCode rcode = RCode::kNxDomain;
  std::vector<v6::net::Ipv6Addr> aaaa;
};

struct ResolverConfig {
  std::uint64_t seed = 42;
  double timeout_prob = 0.015;
  double servfail_prob = 0.005;
  /// Probability a zone name is v4-only at resolution time.
  double no_aaaa_prob = 0.04;
  int retries = 2;  // retransmissions on timeout/servfail
};

struct ResolveStats {
  std::uint64_t queries = 0;      // names submitted
  std::uint64_t packets = 0;      // wire queries incl. retries
  std::uint64_t cache_hits = 0;
  std::uint64_t noerror = 0;
  std::uint64_t nxdomain = 0;
  std::uint64_t no_aaaa = 0;
  std::uint64_t failed = 0;       // timeout/servfail after retries
  std::uint64_t addresses = 0;    // AAAA records returned
};

class Resolver {
 public:
  Resolver(const ZoneDb& zone, ResolverConfig config);

  /// Resolves one name (cached after the first query).
  Resolution resolve(std::string_view name);

  /// Resolves a batch; returns the unique-per-call flattened address
  /// list in input order.
  std::vector<v6::net::Ipv6Addr> resolve_all(
      std::span<const std::string> names);

  const ResolveStats& stats() const { return stats_; }

 private:
  /// Hashes names as std::hash<std::string_view>, so the cache finds a
  /// string_view (with std::equal_to<>) without building a temporary
  /// string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  /// An answer as cached: the rcode and, for NOERROR, the zone record
  /// whose AAAA set it returns (the zone outlives the resolver).
  struct Answer {
    RCode rcode = RCode::kNxDomain;
    const DomainRecord* record = nullptr;
  };

  /// resolve() without copying the AAAA set out of the zone.
  Answer answer(std::string_view name);

  const ZoneDb* zone_;
  ResolverConfig config_;
  v6::net::Rng rng_;
  std::unordered_map<std::string, Answer, NameHash, std::equal_to<>> cache_;
  ResolveStats stats_;
};

}  // namespace v6::dns
