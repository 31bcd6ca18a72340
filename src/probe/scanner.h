// The scan engine: dedup, blocklist, randomized order, retries, reply
// classification, and per-reply statistics.
//
// This plays the role of Scanv6 in the paper (§4.2): a list-driven scanner
// with blocklisting and response verification that the TGA pipeline and
// the dealiasers share.
//
// Dedup copies each target's first occurrence into a uniquified list and
// indexes positions in that list (net::AddrIndex, 8-byte slots), so no
// address is stored twice.
//
// StreamScanner (stream_scanner.h) shares ScanStats::tally,
// ScanStats::publish and retry_counters() with it; the engines differ
// in probe order, wire, pacing clock and jitter draw.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/addr_index.h"
#include "net/ipv6.h"
#include "net/rng.h"
#include "net/service.h"
#include "obs/telemetry.h"
#include "probe/blocklist.h"
#include "probe/rate_limiter.h"
#include "probe/transport.h"

namespace v6::probe {

/// Prefix length grouping targets for the adaptive timeout streak
/// (ScanOptions::adaptive_threshold).
inline constexpr int kAdaptivePrefixLen = 48;

/// Scanner configuration. Defaults story: a default-constructed
/// ScanOptions is the paper's regular scan — 1 retry, shuffled order,
/// 10K pps, seed 0, uninstrumented. Override with designated
/// initializers or the fluent `with_*` chain:
///
///   Scanner s(transport, nullptr, ScanOptions{}.with_seed(7).with_retries(3));
struct ScanOptions {
  /// Extra transmissions after a timeout (paper uses 3 packet retries for
  /// dealiasing probes; regular scan probes use 1 retry).
  int max_retries = 1;
  /// Sustained packet rate; drives the virtual clock only.
  double max_pps = 10000.0;
  /// Seed for shuffle order (and nothing else).
  std::uint64_t seed = 0;
  /// Optional instrumentation context (borrowed). When set, the scanner
  /// opens a `scanner.scan` span per scan() call and keeps
  /// `scanner.*` counters, including a per-retry histogram
  /// (`scanner.retry.<k>`). Never alters scan results.
  v6::obs::Telemetry* telemetry = nullptr;

  // --- Robust-scanner path (docs/ROBUSTNESS.md). All defaults are off,
  // so a default-constructed ScanOptions behaves exactly as before the
  // fault plane existed: no extra waits, no extra RNG draws.

  /// Virtual seconds charged per unanswered probe — the wait before the
  /// scanner declares a timeout. 0 keeps the legacy instant-timeout
  /// model. Waits advance the rate limiter's clock AND the transport
  /// chain (ProbeTransport::advance), so fault-plane token buckets
  /// refill while the scanner waits.
  double probe_timeout_s = 0.0;
  /// Base wait before the k-th retransmission: 2^(k-1) * retry_backoff_s
  /// (exponential backoff). 0 retransmits immediately.
  double retry_backoff_s = 0.0;
  /// Fractional jitter on each backoff wait, drawn from a dedicated
  /// seeded RNG (net/rng.h): the wait is scaled by a uniform factor in
  /// [1-jitter, 1+jitter]. Deterministic per seed; 0 draws nothing.
  double retry_jitter = 0.0;
  /// Consecutive final timeouts inside one /kAdaptivePrefixLen bucket
  /// that trip an adaptive cool-down (rate-limit back-pressure signal).
  /// 0 disables adaptive backoff.
  int adaptive_threshold = 0;
  /// Cool-down wait in virtual seconds when the threshold trips.
  double adaptive_backoff_s = 0.0;

  ScanOptions& with_retries(int v) { max_retries = v; return *this; }
  ScanOptions& with_max_pps(double v) { max_pps = v; return *this; }
  ScanOptions& with_seed(std::uint64_t v) { seed = v; return *this; }
  ScanOptions& with_telemetry(v6::obs::Telemetry* t) { telemetry = t; return *this; }
  ScanOptions& with_probe_timeout(double seconds) { probe_timeout_s = seconds; return *this; }
  ScanOptions& with_retry_backoff(double base_s, double jitter = 0.0) {
    retry_backoff_s = base_s;
    retry_jitter = jitter;
    return *this;
  }
  ScanOptions& with_adaptive_backoff(int threshold, double wait_s) {
    adaptive_threshold = threshold;
    adaptive_backoff_s = wait_s;
    return *this;
  }

  /// Bounds-checks every field through the shared check/validate.h
  /// path; throws check::ConfigError with a uniform
  /// "ScanOptions.<field>: <constraint>" message. Both engines'
  /// constructors call it, so a negative retry count, a NaN rate or a
  /// jitter above 1 never reaches a scan.
  void validate() const;
};

struct ScanStats {
  std::uint64_t targets = 0;       // addresses submitted
  std::uint64_t deduped = 0;       // duplicates removed
  std::uint64_t blocked = 0;       // skipped by blocklist
  std::uint64_t probed = 0;        // unique addresses actually probed
  std::uint64_t packets = 0;       // packets emitted (incl. retries)
  std::uint64_t hits = 0;          // positive replies
  std::uint64_t rsts = 0;          // TCP RSTs (not hits)
  std::uint64_t unreachables = 0;  // ICMP errors (not hits)
  std::uint64_t timeouts = 0;
  double virtual_seconds = 0.0;    // wire time at max_pps (incl. waits)
  // Robust-scanner path accounting (all zero when the path is off):
  std::uint64_t retransmissions = 0;  // retry packets actually sent
  std::uint64_t backoffs = 0;         // backoff waits taken (retry + adaptive)
  double backoff_seconds = 0.0;       // virtual time spent in those waits

  /// Counts one probed address by its final reply on `type`.
  void tally(v6::net::ProbeType type, v6::net::ProbeReply reply) {
    using v6::net::ProbeReply;
    ++probed;
    timeouts += reply == ProbeReply::kTimeout ? 1 : 0;
    rsts += reply == ProbeReply::kRst ? 1 : 0;
    unreachables += reply == ProbeReply::kDestUnreachable ? 1 : 0;
    hits += v6::net::is_hit(type, reply) ? 1 : 0;
  }

  /// Adds a finished scan to `registry`'s `scanner.*` counters and its
  /// per-batch histograms (once per scan, never per packet).
  void publish(v6::obs::Registry& registry) const;
};

/// The `scanner.retry.<k>` counters of `telemetry`, k = 1..max_retries:
/// element k-1 counts addresses that needed a k-th retransmission.
/// Empty when `telemetry` is null.
std::vector<v6::obs::Counter*> retry_counters(v6::obs::Telemetry* telemetry,
                                              int max_retries);

/// What a hit-collecting scan returns: the positive responders plus the
/// full statistics of the pass that found them.
struct ScanResult {
  std::vector<v6::net::Ipv6Addr> hits;
  ScanStats stats;
};

/// Probes a target list once per unique address and classifies replies.
class Scanner {
 public:
  /// `blocklist` may be null (no blocklisting). The transport is borrowed
  /// and must outlive the scanner. Throws check::ConfigError on invalid
  /// options (ScanOptions::validate).
  Scanner(ProbeTransport& transport, const Blocklist* blocklist,
          ScanOptions options);

  using ReplyCallback =
      std::function<void(const v6::net::Ipv6Addr&, v6::net::ProbeReply)>;

  /// Scans `targets` on `type`. Invokes `on_reply` for every probed
  /// address with its final classified reply (after retries). Pass an
  /// empty callback to collect statistics only.
  ScanStats scan(std::span<const v6::net::Ipv6Addr> targets,
                 v6::net::ProbeType type, const ReplyCallback& on_reply);

  /// Convenience: collects the addresses that replied positively ("hits"
  /// per the paper's rules: echo reply / SYN-ACK / UDP reply only)
  /// together with the scan's statistics.
  ScanResult scan_hits(std::span<const v6::net::Ipv6Addr> targets,
                       v6::net::ProbeType type);

  /// Cumulative virtual wire time across all scans by this scanner.
  double virtual_seconds() const { return limiter_.virtual_now(); }

 private:
  /// The shared send loop: rate-limited transmissions until a non-timeout
  /// reply or retries are exhausted, with optional timeout waits and
  /// exponential backoff between attempts. Does NOT consult the
  /// blocklist.
  v6::net::ProbeReply probe_with_retries(const v6::net::Ipv6Addr& addr,
                                         v6::net::ProbeType type,
                                         ScanStats& stats);

  /// Lets `seconds` of virtual time pass: advances the pacing limiter
  /// and the transport chain (fault-plane buckets refill). Never sleeps.
  void wait(double seconds);

  /// Feeds the adaptive-backoff streak tracker with `addr`'s final
  /// classified reply; may take a cool-down wait.
  void note_reply(const v6::net::Ipv6Addr& addr, v6::net::ProbeReply reply,
                  ScanStats& stats);

  ProbeTransport* transport_;
  const Blocklist* blocklist_;
  ScanOptions options_;
  RateLimiter limiter_;
  v6::net::Rng shuffle_rng_;
  /// Backoff jitter stream, independent of the shuffle stream; only ever
  /// drawn when retry_jitter > 0, so the default path consumes nothing.
  v6::net::Rng jitter_rng_;
  /// Consecutive-timeout streak per /kAdaptivePrefixLen bucket. Kept
  /// across scan() calls (the back-pressure signal outlives a batch);
  /// only populated when adaptive_threshold > 0.
  std::unordered_map<v6::net::Ipv6Addr, int, v6::net::Ipv6AddrHash>
      timeout_streaks_;
  /// retry_counters(options.telemetry, options.max_retries), resolved
  /// once at construction.
  std::vector<v6::obs::Counter*> retry_counters_;
  /// Per-scan dedup scratch, reused across batches so the hot loop does
  /// not reallocate its table every call: address -> its position in
  /// unique_scratch_ (net/addr_index.h), 8 bytes per slot, no per-node
  /// allocation, and an address read back from unique_scratch_ only
  /// where a slot's tag matches. Scanner is therefore not reentrant
  /// from its own ReplyCallback (it never was: the transport and rate
  /// limiter are shared state too).
  v6::net::AddrIndex seen_scratch_;
  std::vector<v6::net::Ipv6Addr> unique_scratch_;
};

}  // namespace v6::probe
