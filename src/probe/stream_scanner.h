// The streaming stateless scan engine (docs/SCANNER.md).
//
// Scanner (scanner.h) materializes, dedups, and shuffles the whole
// target list, then probes it sequentially. StreamScanner instead walks
// a seeded full-cycle permutation of the target index space
// (shard_walk.h) — no shuffle buffer is ever materialized — and splits
// the cycle into shards the ZMap way: each shard walks its own slice on
// its own worker, with its own transport chain and retry/backoff state,
// and keeps one byte per target it owns (blocked, or the reply). After
// the workers join, the calling thread re-walks the one-shard order,
// takes each position's reply from its shard's next byte, classifies
// it, and folds per-shard tallies in shard order.
// Nothing is shared between workers, so there is no queue, no lock, and
// no reply to authenticate.
//
// Dedup runs on the calling thread before any walk: a net::AddrIndex of
// positions in the caller's target span marks each address's first
// occurrence in keep_. Its 8-byte slots copy no address (1.5M targets
// take a 32 MiB table), and it reads a target back only where a slot's
// tag matches, so a new address costs one slot probe.
//
// Every shard count runs one probe loop, scan()'s slice loop; only what
// it does with a kept target's outcome differs. With shards == 1 it runs
// on the calling thread and classifies each outcome at once (the fused
// loop), and the multi-shard merge must stay bit-identical to it.
// bench/bench_throughput.cpp compares its per-probe cost with the batch
// Scanner's and gates it at 1.05× on single-core hosts; docs/SCANNER.md
// records the measured ratios, which are above 1 at every size.
//
// Every walk of a scan (each slice loop and the caller's merge) runs a
// fixed distance ahead of its loop: a 16-item
// ring prefetches each target and its keep byte as it enters, and 8
// items before a kept target is probed, its host-table slot
// (Universe::prefetch; the merge probes nothing and skips this stage).
// The hints change no value; they let the cache misses of neighbouring
// probes overlap instead of each paying its full latency in turn.
//
// Determinism contract (tested in tests/probe/stream_scanner_test.cc):
// every lane sees the same targets in the same order for a given shard
// count, and with faults and adaptive backoff off, hits,
// classifications, packets, and every ScanStats counter are
// bit-identical across shard counts — replies are pure functions of
// (addr, type, attempt, seed), the walk's cycle positions are
// shard-count-independent, and all wait accounting is summed in integer
// nanoseconds. Reply callbacks fire after the scan in canonical
// cycle-position order (== the 1-shard probe order).
//
// Caveats, documented in docs/SCANNER.md: virtual_seconds uses the
// analytic model packets/max_pps + waits (not the batch engine's token
// bucket), adaptive backoff's *wait accounting* is a per-shard control
// loop (classifications stay shard-invariant), and fault decorators are
// per-shard-deterministic but not shard-invariant.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/addr_index.h"
#include "net/ipv6.h"
#include "net/service.h"
#include "probe/blocklist.h"
#include "probe/scanner.h"
#include "simnet/universe.h"

namespace v6::obs {
class StallWatchdog;
}  // namespace v6::obs

namespace v6::probe {

/// Streaming-engine configuration wrapping the shared ScanOptions knobs.
struct StreamScanOptions {
  /// Decorates a shard's wire transport (e.g. wraps it in a fault
  /// injector). Called once per shard at construction; the returned
  /// transport owns nothing but may borrow `inner`. Lets callers layer
  /// src/fault into the chain without this library depending on it.
  using Decorator = std::function<std::unique_ptr<ProbeTransport>(
      ProbeTransport& inner, unsigned shard)>;

  /// Shard (= prober worker) count. Each shard covers a disjoint slice
  /// of the permutation cycle. `scan.max_pps` is the whole scan's rate:
  /// the analytic virtual clock charges every packet at it, whatever the
  /// shard count.
  unsigned shards = 1;
  /// The shared scan knobs (retries, pacing, seed, telemetry, robust
  /// path). `seed` drives the permutation, the stateless reply engines,
  /// and backoff jitter.
  ScanOptions scan;
  Decorator decorate;
  /// Optional liveness plane (borrowed; may be null): each shard's
  /// worker registers a heartbeat (`stream.prober.<s>`; `stream.scan`
  /// for the fused single-shard loop), armed for the duration of a scan
  /// and beaten once per probe. Purely wall-side observation — a
  /// watchdog never changes what the scan computes
  /// (docs/OBSERVABILITY.md "Live introspection").
  v6::obs::StallWatchdog* watchdog = nullptr;

  StreamScanOptions& with_shards(unsigned v) { shards = v; return *this; }
  StreamScanOptions& with_scan(ScanOptions v) { scan = v; return *this; }
  StreamScanOptions& with_decorator(Decorator v) {
    decorate = std::move(v);
    return *this;
  }
  StreamScanOptions& with_watchdog(v6::obs::StallWatchdog* v) {
    watchdog = v;
    return *this;
  }

  /// Bounds-checks the shard count ("StreamScanOptions.shards: ...")
  /// and then the wrapped ScanOptions (ScanOptions::validate,
  /// "ScanOptions.<field>: ..."), throwing check::ConfigError. The
  /// StreamScanner constructor calls this, so a bad config fails the
  /// same way whether it reaches the engine directly or via
  /// PipelineConfig.
  void validate() const;
};

/// Sharded streaming counterpart of Scanner. Owns its transport chain
/// (one per shard, built over `universe`) because stateless per-probe
/// replies are what make sharding sound — a caller-supplied sequential
/// transport could not be split. The same scan()/scan_hits() surface and
/// ScanStats/ScanResult types as Scanner, so results are comparable
/// field by field.
class StreamScanner {
 public:
  /// `blocklist` may be null. `universe` and `options.scan.telemetry`
  /// are borrowed and must outlive the scanner.
  StreamScanner(const v6::simnet::Universe& universe,
                const Blocklist* blocklist, StreamScanOptions options);
  ~StreamScanner();

  StreamScanner(const StreamScanner&) = delete;
  StreamScanner& operator=(const StreamScanner&) = delete;

  using ReplyCallback = Scanner::ReplyCallback;

  /// Scans `targets` on `type` over every shard. `on_reply` fires once
  /// per probed address with its final classified reply, in canonical
  /// cycle-position order, after all shard workers have joined. If a
  /// worker throws, scan() rethrows the first failure (in shard order)
  /// once every worker has joined; the scanner stays usable.
  ScanStats scan(std::span<const v6::net::Ipv6Addr> targets,
                 v6::net::ProbeType type, const ReplyCallback& on_reply);

  /// Collects positive responders plus the pass's statistics.
  ScanResult scan_hits(std::span<const v6::net::Ipv6Addr> targets,
                       v6::net::ProbeType type);

  /// Cumulative analytic virtual wire time across all scans.
  double virtual_seconds() const { return total_virtual_seconds_; }

  /// Cumulative packets emitted across all shards.
  std::uint64_t packets_sent() const;

  /// Replies that failed validation. Always 0: every reply is produced
  /// by the lane that sent its probe and never leaves the process, so
  /// there is nothing to validate (probe_auth.h models the live check).
  std::uint64_t invalid_replies() const { return 0; }

  unsigned shards() const { return static_cast<unsigned>(lanes_.size()); }

  /// Folds per-shard telemetry (transport.* registries, scanner.retry.*
  /// tallies) into the attached Telemetry in shard order. Idempotent per
  /// accumulation; called automatically on destruction.
  void flush_telemetry();

 private:
  struct Lane;

  /// Shard-worker helpers (each touches only its own lane's state).
  v6::net::ProbeReply lane_probe(Lane& lane, const v6::net::Ipv6Addr& addr,
                                 v6::net::ProbeType type) const;
  void note_reply(Lane& lane, const v6::net::Ipv6Addr& addr,
                  v6::net::ProbeReply reply) const;

  const v6::simnet::Universe* universe_;
  const Blocklist* blocklist_;
  StreamScanOptions options_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Dedup scratch reused across scans: target address -> its first
  /// position in the scanned span. Holds no pointer to the span.
  v6::net::AddrIndex dedup_;
  std::vector<std::uint8_t> keep_;
  /// Stateless backoff-jitter key (same stream tag as Scanner's
  /// jitter_rng_, but mixed per (addr, attempt) so shards agree).
  std::uint64_t jitter_base_ = 0;
  /// `scanner.retry.<k>` counters, resolved eagerly like Scanner's so
  /// instrumented reports carry the same counter set.
  std::vector<v6::obs::Counter*> retry_counters_;
  double total_virtual_seconds_ = 0.0;
};

}  // namespace v6::probe
