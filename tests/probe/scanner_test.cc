#include "probe/scanner.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/rng.h"
#include "probe/transport.h"
#include "testutil/fixtures.h"

namespace v6::probe {
namespace {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;

/// Scripted transport: replies from a per-address script, with optional
/// leading timeouts to exercise retry behaviour.
class FakeTransport final : public ProbeTransport {
 public:
  struct Behaviour {
    ProbeReply reply = ProbeReply::kTimeout;
    int timeouts_before_reply = 0;
  };

  void set(const Ipv6Addr& addr, ProbeReply reply, int timeouts_first = 0) {
    behaviour_[addr] = {reply, timeouts_first};
  }

  ProbeReply send(const Ipv6Addr& addr, ProbeType) override {
    ++packets_;
    ++per_addr_sends_[addr];
    const auto it = behaviour_.find(addr);
    if (it == behaviour_.end()) return ProbeReply::kTimeout;
    if (it->second.timeouts_before_reply > 0) {
      --it->second.timeouts_before_reply;
      return ProbeReply::kTimeout;
    }
    return it->second.reply;
  }

  std::uint64_t packets_sent() const override { return packets_; }
  int sends_to(const Ipv6Addr& addr) const {
    const auto it = per_addr_sends_.find(addr);
    return it == per_addr_sends_.end() ? 0 : it->second;
  }

 private:
  std::map<Ipv6Addr, Behaviour> behaviour_;
  std::map<Ipv6Addr, int> per_addr_sends_;
  std::uint64_t packets_ = 0;
};

Ipv6Addr addr_n(std::uint64_t n) {
  return Ipv6Addr(0x20010db800000000ULL, n);
}

TEST(Scanner, ClassifiesReplies) {
  FakeTransport transport;
  transport.set(addr_n(1), ProbeReply::kEchoReply);
  transport.set(addr_n(2), ProbeReply::kRst);
  transport.set(addr_n(3), ProbeReply::kDestUnreachable);
  // addr 4: timeout.
  Scanner scanner(transport, nullptr, {.max_retries = 0, .seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1), addr_n(2), addr_n(3),
                                         addr_n(4)};
  const ScanStats stats =
      scanner.scan(targets, ProbeType::kIcmp, nullptr);
  EXPECT_EQ(stats.probed, 4u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.rsts, 1u);
  EXPECT_EQ(stats.unreachables, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
}

TEST(Scanner, RstIsNotAHit) {
  FakeTransport transport;
  transport.set(addr_n(1), ProbeReply::kRst);
  Scanner scanner(transport, nullptr, {.seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1)};
  const auto result = scanner.scan_hits(targets, ProbeType::kTcp80);
  EXPECT_TRUE(result.hits.empty());
}

TEST(Scanner, DestUnreachableIsNotAHit) {
  FakeTransport transport;
  transport.set(addr_n(1), ProbeReply::kDestUnreachable);
  Scanner scanner(transport, nullptr, {.seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1)};
  EXPECT_TRUE(scanner.scan_hits(targets, ProbeType::kIcmp).hits.empty());
}

TEST(Scanner, MismatchedPositiveReplyIsNotAHit) {
  // A SYN-ACK in response to an ICMP echo is a verification failure.
  FakeTransport transport;
  transport.set(addr_n(1), ProbeReply::kSynAck);
  Scanner scanner(transport, nullptr, {.seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1)};
  EXPECT_TRUE(scanner.scan_hits(targets, ProbeType::kIcmp).hits.empty());
}

TEST(Scanner, DeduplicatesTargets) {
  FakeTransport transport;
  transport.set(addr_n(1), ProbeReply::kEchoReply);
  Scanner scanner(transport, nullptr, {.max_retries = 0, .seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1), addr_n(1), addr_n(1)};
  const ScanStats stats = scanner.scan(targets, ProbeType::kIcmp, nullptr);
  EXPECT_EQ(stats.targets, 3u);
  EXPECT_EQ(stats.deduped, 2u);
  EXPECT_EQ(stats.probed, 1u);
  EXPECT_EQ(transport.sends_to(addr_n(1)), 1);
}

TEST(Scanner, RetriesRecoverLostReplies) {
  FakeTransport transport;
  transport.set(addr_n(1), ProbeReply::kEchoReply, /*timeouts_first=*/2);
  Scanner scanner(transport, nullptr, {.max_retries = 2, .seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1)};
  const auto result = scanner.scan_hits(targets, ProbeType::kIcmp);
  EXPECT_EQ(result.hits.size(), 1u);
  EXPECT_EQ(transport.sends_to(addr_n(1)), 3);
}

TEST(Scanner, RetriesExhausted) {
  FakeTransport transport;
  transport.set(addr_n(1), ProbeReply::kEchoReply, /*timeouts_first=*/3);
  Scanner scanner(transport, nullptr, {.max_retries = 2, .seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1)};
  EXPECT_TRUE(scanner.scan_hits(targets, ProbeType::kIcmp).hits.empty());
}

TEST(Scanner, BlocklistedAddressesNeverProbed) {
  FakeTransport transport;
  transport.set(addr_n(1), ProbeReply::kEchoReply);
  Blocklist blocklist;
  blocklist.add(v6::net::Prefix::must_parse("2001:db8::/32"));
  Scanner scanner(transport, &blocklist, {.seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1), addr_n(2)};
  const ScanStats stats = scanner.scan(targets, ProbeType::kIcmp, nullptr);
  EXPECT_EQ(stats.blocked, 2u);
  EXPECT_EQ(stats.probed, 0u);
  EXPECT_EQ(transport.packets_sent(), 0u);
}

TEST(Scanner, ScratchReuseKeepsScansIndependent) {
  // Back-to-back scans through one scanner must dedup per call, not
  // across calls (the scratch set is reused but cleared).
  FakeTransport transport;
  transport.set(addr_n(1), ProbeReply::kEchoReply);
  Scanner scanner(transport, nullptr, {.max_retries = 0, .seed = 1});
  const std::vector<Ipv6Addr> targets = {addr_n(1), addr_n(1)};
  const ScanStats first = scanner.scan(targets, ProbeType::kIcmp, nullptr);
  const ScanStats second = scanner.scan(targets, ProbeType::kIcmp, nullptr);
  EXPECT_EQ(first.probed, 1u);
  EXPECT_EQ(second.probed, 1u);
  EXPECT_EQ(first.deduped, 1u);
  EXPECT_EQ(second.deduped, 1u);
  EXPECT_EQ(transport.sends_to(addr_n(1)), 2);
}

TEST(Scanner, CallbackSeesEveryProbedAddress) {
  FakeTransport transport;
  transport.set(addr_n(1), ProbeReply::kEchoReply);
  Scanner scanner(transport, nullptr, {.max_retries = 0, .seed = 1});
  std::vector<Ipv6Addr> targets;
  for (std::uint64_t i = 0; i < 50; ++i) targets.push_back(addr_n(i));
  std::size_t callbacks = 0;
  scanner.scan(targets, ProbeType::kIcmp,
               [&](const Ipv6Addr&, ProbeReply) { ++callbacks; });
  EXPECT_EQ(callbacks, 50u);
}

TEST(Scanner, VirtualTimeAccountsForRate) {
  FakeTransport transport;
  Scanner scanner(transport, nullptr,
                  {.max_retries = 0, .max_pps = 1000.0, .seed = 1});
  std::vector<Ipv6Addr> targets;
  for (std::uint64_t i = 0; i < 5000; ++i) targets.push_back(addr_n(i));
  const ScanStats stats = scanner.scan(targets, ProbeType::kIcmp, nullptr);
  EXPECT_NEAR(stats.virtual_seconds, 5.0, 0.2);
}

TEST(Scanner, DeterministicAgainstSimUniverse) {
  const auto& universe = v6::testutil::small_universe();
  std::vector<Ipv6Addr> targets;
  for (const auto& host : universe.hosts()) {
    targets.push_back(host.addr);
    if (targets.size() >= 5000) break;
  }
  auto run = [&] {
    SimTransport transport(universe, 77);
    Scanner scanner(transport, nullptr, {.seed = 77});
    auto result = scanner.scan_hits(targets, ProbeType::kIcmp);
    return std::pair(std::move(result.hits), result.stats.packets);
  };
  const auto [hits_a, packets_a] = run();
  const auto [hits_b, packets_b] = run();
  EXPECT_EQ(hits_a, hits_b);
  EXPECT_EQ(packets_a, packets_b);
  EXPECT_FALSE(hits_a.empty());
}

}  // namespace
}  // namespace v6::probe
