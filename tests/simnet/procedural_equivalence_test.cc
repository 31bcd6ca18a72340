// Differential battery: a procedural universe and its materialized twin
// built from the same UniverseConfig must be indistinguishable — same
// host population in the same canonical order, same O(1) lookups, same
// probe replies under both URBG engines, same ground-truth queries, and
// same summary counts. This is the proof obligation that lets every
// consumer (seed synthesis, scanners, evaluation) treat the two
// representations as one universe (docs/SCALE.md).
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "net/rng.h"
#include "net/service.h"
#include "probe/stateless_transport.h"
#include "probe/transport.h"
#include "simnet/universe.h"
#include "simnet/universe_builder.h"

namespace {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;
using v6::simnet::HostRecord;
using v6::simnet::Universe;
using v6::simnet::UniverseBuilder;
using v6::simnet::UniverseConfig;

UniverseConfig base_config() {
  UniverseConfig config;
  config.seed = 777;
  config.num_ases = 120;
  config.host_scale = 0.2;
  config.dense_region_prefix_len = 52;
  config.procedural = true;
  return config;
}

/// Same structure with every host-level fault source enabled, so the
/// rate-limit/loss draws in probe() are exercised too.
UniverseConfig faulted_config() {
  UniverseConfig config = base_config();
  config.seed = 778;
  config.host_rate_limited_fraction = 0.25;
  config.host_rate_limited_response_prob = 0.4;
  config.host_loss_prob = 0.05;
  return config;
}

std::vector<HostRecord> collect_hosts(const Universe& u) {
  std::vector<HostRecord> out;
  u.for_each_host([&out](const HostRecord& h) { out.push_back(h); });
  return out;
}

void expect_same_record(const HostRecord& a, const HostRecord& b) {
  EXPECT_EQ(a.addr, b.addr);
  EXPECT_EQ(a.asn, b.asn);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.services, b.services);
  EXPECT_EQ(a.historic_services, b.historic_services);
  EXPECT_EQ(a.popular, b.popular);
  EXPECT_EQ(a.rate_limited, b.rate_limited);
}

/// A probe-order worth of addresses: every host address plus structured
/// perturbations of it (neighbours, cleared low bits, flipped site
/// bits) — the near-misses a TGA-driven scan actually sends — plus
/// uniform random addresses inside announced space.
std::vector<Ipv6Addr> probe_targets(const Universe& u, std::uint64_t seed) {
  std::vector<Ipv6Addr> targets;
  u.for_each_host([&targets](const HostRecord& h) {
    targets.push_back(h.addr);
    targets.push_back(Ipv6Addr(h.addr.hi(), h.addr.lo() + 1));
    targets.push_back(Ipv6Addr(h.addr.hi(), h.addr.lo() ^ 0x8000));
    targets.push_back(Ipv6Addr(h.addr.hi() ^ 0x1, h.addr.lo()));
  });
  v6::net::Rng rng = v6::net::make_rng(seed, /*tag=*/0xD1FF);
  const auto& announcements = u.routes().announcements();
  for (int i = 0; i < 2000 && !announcements.empty(); ++i) {
    const auto& [prefix, asn] = announcements[v6::net::uniform_int<
        std::size_t>(rng, 0, announcements.size() - 1)];
    (void)asn;
    targets.push_back(v6::net::random_in_prefix(rng, prefix));
  }
  return targets;
}

class ProceduralEquivalenceTest : public ::testing::TestWithParam<bool> {
 protected:
  UniverseConfig config() const {
    return GetParam() ? faulted_config() : base_config();
  }
};

INSTANTIATE_TEST_SUITE_P(Configs, ProceduralEquivalenceTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Faulted" : "Default";
                         });

TEST_P(ProceduralEquivalenceTest, HostPopulationsIdentical) {
  const UniverseConfig cfg = config();
  const Universe proc = UniverseBuilder::build(cfg);
  const Universe mat = UniverseBuilder::materialize(cfg);
  ASSERT_TRUE(proc.procedural());
  ASSERT_FALSE(mat.procedural());

  const std::vector<HostRecord> ph = collect_hosts(proc);
  const std::vector<HostRecord> mh = collect_hosts(mat);
  ASSERT_GT(ph.size(), 1000u);
  ASSERT_EQ(ph.size(), mh.size());
  for (std::size_t i = 0; i < ph.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_record(ph[i], mh[i]);
    if (ph[i].addr != mh[i].addr) break;  // avoid cascading noise
  }
  // The materialized twin's span agrees with its own enumeration (the
  // canonical order *is* insertion order).
  ASSERT_EQ(mh.size(), mat.hosts().size());
}

TEST_P(ProceduralEquivalenceTest, LookupMatchesEnumeration) {
  const UniverseConfig cfg = config();
  const Universe proc = UniverseBuilder::build(cfg);
  const Universe mat = UniverseBuilder::materialize(cfg);

  std::size_t checked = 0;
  mat.for_each_host([&](const HostRecord& expected) {
    HostRecord got;
    ASSERT_TRUE(proc.lookup_host(expected.addr, got))
        << "host missing procedurally: " << checked;
    expect_same_record(got, expected);
    ++checked;
  });
  EXPECT_GT(checked, 1000u);
}

TEST_P(ProceduralEquivalenceTest, MembershipAgreesOnArbitraryAddresses) {
  const UniverseConfig cfg = config();
  const Universe proc = UniverseBuilder::build(cfg);
  const Universe mat = UniverseBuilder::materialize(cfg);

  std::size_t present = 0;
  for (const Ipv6Addr& addr : probe_targets(mat, cfg.seed)) {
    HostRecord a;
    HostRecord b;
    const bool in_proc = proc.lookup_host(addr, a);
    const bool in_mat = mat.lookup_host(addr, b);
    ASSERT_EQ(in_proc, in_mat) << "membership divergence";
    if (in_proc) {
      expect_same_record(a, b);
      ++present;
    }
  }
  EXPECT_GT(present, 0u);
}

TEST_P(ProceduralEquivalenceTest, ProbeRepliesIdenticalMt19937) {
  const UniverseConfig cfg = config();
  const Universe proc = UniverseBuilder::build(cfg);
  const Universe mat = UniverseBuilder::materialize(cfg);
  const std::vector<Ipv6Addr> targets = probe_targets(mat, cfg.seed);

  for (const ProbeType type : v6::net::kAllProbeTypes) {
    // Identical engines: replies must match draw for draw, so any
    // stochastic divergence would desynchronize the streams and show up
    // immediately.
    v6::net::Rng rng_a = v6::net::make_rng(cfg.seed, /*tag=*/0x9E9E);
    v6::net::Rng rng_b = v6::net::make_rng(cfg.seed, /*tag=*/0x9E9E);
    for (const Ipv6Addr& addr : targets) {
      const ProbeReply a = proc.probe(addr, type, rng_a);
      const ProbeReply b = mat.probe(addr, type, rng_b);
      ASSERT_EQ(a, b) << "probe divergence, type "
                      << static_cast<int>(type);
    }
    ASSERT_EQ(rng_a(), rng_b()) << "engines desynchronized";
  }
}

TEST_P(ProceduralEquivalenceTest, ProbeRepliesIdenticalSplitMix) {
  const UniverseConfig cfg = config();
  const Universe proc = UniverseBuilder::build(cfg);
  const Universe mat = UniverseBuilder::materialize(cfg);
  const std::vector<Ipv6Addr> targets = probe_targets(mat, cfg.seed);

  for (const ProbeType type : v6::net::kAllProbeTypes) {
    for (const Ipv6Addr& addr : targets) {
      // Per-probe engines keyed the way the streaming scanner keys them.
      v6::net::SplitMixRng rng_a(
          v6::net::splitmix64(addr.hi() ^ addr.lo() ^ cfg.seed));
      v6::net::SplitMixRng rng_b(
          v6::net::splitmix64(addr.hi() ^ addr.lo() ^ cfg.seed));
      ASSERT_EQ(proc.probe(addr, type, rng_a), mat.probe(addr, type, rng_b));
    }
  }
}

TEST_P(ProceduralEquivalenceTest, GroundTruthQueriesAgree) {
  const UniverseConfig cfg = config();
  const Universe proc = UniverseBuilder::build(cfg);
  const Universe mat = UniverseBuilder::materialize(cfg);

  for (const Ipv6Addr& addr : probe_targets(mat, cfg.seed)) {
    ASSERT_EQ(proc.is_aliased(addr), mat.is_aliased(addr));
    ASSERT_EQ(proc.in_dense_region(addr), mat.in_dense_region(addr));
    ASSERT_EQ(proc.asn_of(addr), mat.asn_of(addr));
    for (const ProbeType type : v6::net::kAllProbeTypes) {
      ASSERT_EQ(proc.host_active(addr, type), mat.host_active(addr, type));
    }
  }
}

TEST_P(ProceduralEquivalenceTest, SummaryCountsAgree) {
  const UniverseConfig cfg = config();
  const Universe proc = UniverseBuilder::build(cfg);
  const Universe mat = UniverseBuilder::materialize(cfg);

  EXPECT_EQ(proc.host_count(), mat.host_count());
  EXPECT_EQ(proc.active_host_count_any(), mat.active_host_count_any());
  for (const ProbeType type : v6::net::kAllProbeTypes) {
    EXPECT_EQ(proc.active_host_count(type), mat.active_host_count(type));
  }
  EXPECT_EQ(proc.alias_regions().size(), mat.alias_regions().size());
  EXPECT_EQ(proc.asdb().all().size(), mat.asdb().all().size());
  EXPECT_EQ(proc.routes().announcements().size(),
            mat.routes().announcements().size());
}

TEST_P(ProceduralEquivalenceTest, StatelessTransportParity) {
  const UniverseConfig cfg = config();
  const Universe proc = UniverseBuilder::build(cfg);
  const Universe mat = UniverseBuilder::materialize(cfg);
  const std::vector<Ipv6Addr> targets = probe_targets(mat, cfg.seed);

  // The streaming scanner's transport: replies are a pure function of
  // (seed, addr, attempt), so parity here transfers to any scan order.
  v6::probe::StatelessSimTransport ta(proc, /*seed=*/99);
  v6::probe::StatelessSimTransport tb(mat, /*seed=*/99);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Ipv6Addr& addr = targets[i];
    // The scanner's lookahead hint, issued a few targets ahead: a
    // prefetch changes no reply on either representation.
    const Ipv6Addr& ahead = targets[(i + 8) % targets.size()];
    proc.prefetch(ahead);
    mat.prefetch(ahead);
    ASSERT_EQ(ta.send(addr, ProbeType::kIcmp), tb.send(addr, ProbeType::kIcmp));
    // A retransmission to the same address draws an independent coin.
    ASSERT_EQ(ta.send(addr, ProbeType::kIcmp), tb.send(addr, ProbeType::kIcmp));
  }
  EXPECT_EQ(ta.packets_sent(), tb.packets_sent());
}

TEST(ProceduralDeterminismTest, RebuildIsBitIdentical) {
  const UniverseConfig cfg = base_config();
  const Universe a = UniverseBuilder::build(cfg);
  const Universe b = UniverseBuilder::build(cfg);
  const std::vector<HostRecord> ha = collect_hosts(a);
  const std::vector<HostRecord> hb = collect_hosts(b);
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) {
    expect_same_record(ha[i], hb[i]);
    if (ha[i].addr != hb[i].addr) break;
  }
  EXPECT_EQ(a.active_host_count_any(), b.active_host_count_any());
}

TEST(ProceduralDeterminismTest, SeedChangesPopulation) {
  UniverseConfig cfg = base_config();
  const Universe a = UniverseBuilder::build(cfg);
  cfg.seed = 1777;
  const Universe b = UniverseBuilder::build(cfg);
  EXPECT_NE(a.host_count(), b.host_count());
}

}  // namespace
