// Per-probe stateless simulated transport for the streaming scanner.
//
// SimTransport draws loss randomness from one sequential mt19937_64
// stream, so the reply to probe #k depends on every probe before it —
// fine for a single sequential scanner, fatal for sharding, where the
// contract (docs/SCANNER.md) is that merged shard outcomes are
// bit-identical to a single-shard scan. StatelessSimTransport instead
// builds a fresh counter-based engine per send(), keyed by
// (seed, addr, type, attempt): every reply is a pure function of the
// probe itself, independent of ordering, interleaving, and shard count.
// The type is part of the key so each probe type sent to an address
// draws its own loss coin, as separate packets on a live wire do; ICMP
// (type 0) adds nothing to the key.
//
// `attempt` is tracked by counting consecutive sends to the same
// address — exactly the retransmission pattern the scanner emits — so a
// rate-limited region that dropped the first probe can still answer the
// retry with an independent coin, matching live-scan semantics. Call
// reset() between scans so attempt numbering can never leak across
// scans (shard-invariance depends on it).
#pragma once

#include <cstdint>

#include "net/ipv6.h"
#include "net/rng.h"
#include "probe/transport.h"
#include "simnet/universe.h"

namespace v6::probe {

class StatelessSimTransport final : public ProbeTransport {
 public:
  StatelessSimTransport(const v6::simnet::Universe& universe,
                        std::uint64_t seed)
      : universe_(&universe),
        base_(v6::net::derive_seed(seed, /*tag=*/0x57A7E)) {}

  v6::net::ProbeReply send(const v6::net::Ipv6Addr& addr,
                           v6::net::ProbeType type) override {
    if (has_last_ && addr == last_addr_) {
      ++attempt_;
    } else {
      attempt_ = 0;
    }
    has_last_ = true;
    ++packets_;
    // Engine keyed by the probe identity; the universe draws from it
    // only for the few regions that are actually stochastic.
    v6::net::SplitMixRng rng(
        v6::net::splitmix64(v6::net::splitmix64(base_ ^ addr.hi()) ^
                            addr.lo()) ^
        attempt_ ^ (static_cast<std::uint64_t>(type) * kTypeMix));
    const v6::net::ProbeReply reply = universe_->probe(addr, type, rng);
    last_addr_ = addr;
    last_replied_ = reply != v6::net::ProbeReply::kTimeout;
    return reply;
  }

  std::uint64_t packets_sent() const override { return packets_; }

  std::uint64_t last_wire_nanos() const override {
    return last_replied_ ? v6::simnet::Universe::rtt_nanos(last_addr_) : 0;
  }

  /// Clears the consecutive-send attempt tracking (not the packet
  /// counter). Must be called at the start of each scan.
  void reset() {
    attempt_ = 0;
    has_last_ = false;
    last_replied_ = false;
  }

 private:
  /// Odd multiplier spreading the probe type over all 64 key bits.
  static constexpr std::uint64_t kTypeMix = 0x9E3779B97F4A7C15ULL;

  const v6::simnet::Universe* universe_;
  std::uint64_t base_;
  std::uint64_t packets_ = 0;
  std::uint64_t attempt_ = 0;
  v6::net::Ipv6Addr last_addr_;
  bool has_last_ = false;
  bool last_replied_ = false;
};

}  // namespace v6::probe
