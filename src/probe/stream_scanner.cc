#include "probe/stream_scanner.h"

#include <array>
#include <chrono>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "check/contracts.h"
#include "check/validate.h"
#include "net/rng.h"
#include "obs/watchdog.h"
#include "probe/instrumented_transport.h"
#include "probe/shard_walk.h"
#include "probe/stateless_transport.h"
#include "runtime/worker_group.h"

namespace v6::probe {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;

namespace {

/// All streaming wait accounting is integer nanoseconds: uint64 sums are
/// order-free, so folding per-shard tallies gives the same totals for
/// every shard count (double sums would not).
std::uint64_t to_nanos(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

/// Per-(addr, attempt) key for the stateless jitter engine.
std::uint64_t probe_key(std::uint64_t base, const Ipv6Addr& addr,
                        std::uint64_t attempt) {
  return v6::net::splitmix64(v6::net::splitmix64(base ^ addr.hi()) ^
                             addr.lo()) ^
         attempt;
}

}  // namespace

/// One shard's private world: transport chain, retry and adaptive state,
/// and plain-integer tallies. A Lane is touched by exactly one prober
/// thread during a scan and by the caller thread outside it; nothing
/// here is shared.
struct StreamScanner::Lane {
  Lane(const v6::simnet::Universe& universe, const StreamScanOptions& options,
       unsigned shard)
      : wire(universe, options.scan.seed) {
    ProbeTransport* top = &wire;
    if (options.decorate) {
      decorated = options.decorate(wire, shard);
      if (decorated != nullptr) top = decorated.get();
    }
    v6::obs::Telemetry* const telemetry = options.scan.telemetry;
    if (telemetry != nullptr) {
      counting.emplace(*top, telemetry->registry());
      top = &*counting;
    }
    transport = top;
    if (options.scan.max_retries > 0) {
      retry_tallies.assign(static_cast<std::size_t>(options.scan.max_retries),
                           0);
    }
  }

  StatelessSimTransport wire;
  std::unique_ptr<ProbeTransport> decorated;
  std::optional<CountingTransport> counting;
  ProbeTransport* transport = nullptr;

  /// Charges a virtual (never wall) wait: the transport chain's fault
  /// buckets move forward, as in Scanner::wait, and the analytic clock's
  /// wait tally grows. Returns the wait in integer nanoseconds.
  std::uint64_t wait(double seconds) {
    transport->advance(seconds);
    const std::uint64_t nanos = to_nanos(seconds);
    wait_nanos += nanos;
    return nanos;
  }

  /// `scanner.retry.<k>` tallies; summed across lanes in shard order at
  /// flush_telemetry (atomics would serialize the probers for nothing).
  std::vector<std::uint64_t> retry_tallies;
  /// Adaptive-backoff streaks, per lane: the back-pressure control loop
  /// reacts to the shard's own probe sequence (docs/SCANNER.md caveat).
  std::unordered_map<Ipv6Addr, int, v6::net::Ipv6AddrHash> timeout_streaks;
  /// One byte per kept target of this shard's slice, in walk order:
  /// 0 = blocked, otherwise 1 + the reply (multi-shard scans only).
  std::vector<std::uint8_t> outcomes;

  // Per-scan tallies, reset by scan() before the workers start. Probed
  // targets are counted where their replies are classified.
  std::uint64_t blocked = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t backoffs = 0;
  std::uint64_t backoff_nanos = 0;
  std::uint64_t wait_nanos = 0;
  std::uint64_t packets_before = 0;
};

namespace {

/// A walk run a fixed distance ahead of its consumer, prefetching what
/// the consumer will read: group prefetching of hash probes (Chen,
/// Ailamaki, Gibbons and Mowry, ICDE 2004). The next kRing items of the
/// walk wait in a ring.
///   - When an item enters the ring, kRing items before it is returned,
///     its target and keep byte are prefetched.
///   - kProbeAhead items before it is returned, both are cached: if the
///     target is kept, the universe's host-table slot for it is
///     prefetched. A null `universe` skips this stage.
/// It emits exactly the walk's own sequence; the hints change no value.
class LookaheadWalk {
 public:
  LookaheadWalk(const ShardWalk& walk, std::span<const Ipv6Addr> targets,
                const std::uint8_t* keep, const v6::simnet::Universe* universe)
      : walk_(walk),
        targets_(targets.data()),
        keep_(keep),
        universe_(universe) {
    while (size_ < kRing && walk_.next(&ring_[size_])) {
      fetch_inputs(ring_[size_]);
      ++size_;
    }
    for (std::size_t i = 0; i < size_ && i < kProbeAhead; ++i) {
      fetch_slot(ring_[i]);
    }
  }

  bool next(ShardItem* out) {
    if (size_ == 0) return false;
    *out = ring_[head_];
    // The ring is full until the walk runs dry, so the walk's next item
    // takes the slot just returned.
    if (walk_.next(&ring_[head_])) {
      fetch_inputs(ring_[head_]);
    } else {
      --size_;
    }
    head_ = (head_ + 1) % kRing;
    if (size_ >= kProbeAhead) {
      fetch_slot(ring_[(head_ + kProbeAhead - 1) % kRing]);
    }
    return true;
  }

 private:
  static constexpr std::size_t kRing = 16;
  static constexpr std::size_t kProbeAhead = 8;

  void fetch_inputs(const ShardItem& item) const {
    __builtin_prefetch(&targets_[item.index]);
    __builtin_prefetch(&keep_[item.index]);
  }

  void fetch_slot(const ShardItem& item) const {
    if (universe_ != nullptr && keep_[item.index] != 0) {
      universe_->prefetch(targets_[item.index]);
    }
  }

  ShardWalk walk_;
  const Ipv6Addr* targets_;
  const std::uint8_t* keep_;
  const v6::simnet::Universe* universe_;
  std::array<ShardItem, kRing> ring_{};
  std::size_t head_ = 0;  // the next item to return
  std::size_t size_ = 0;  // items in the ring
};

}  // namespace

void StreamScanOptions::validate() const {
  const v6::check::Validator v("StreamScanOptions");
  v.positive(shards, "shards");
  scan.validate();
}

StreamScanner::StreamScanner(const v6::simnet::Universe& universe,
                             const Blocklist* blocklist,
                             StreamScanOptions options)
    : universe_(&universe),
      blocklist_(blocklist),
      options_(std::move(options)) {
  options_.validate();
  jitter_base_ = v6::net::derive_seed(options_.scan.seed, /*tag=*/0xBACC0F);
  lanes_.reserve(options_.shards);
  for (unsigned s = 0; s < options_.shards; ++s) {
    lanes_.push_back(std::make_unique<Lane>(*universe_, options_, s));
  }
  retry_counters_ =
      retry_counters(options_.scan.telemetry, options_.scan.max_retries);
}

StreamScanner::~StreamScanner() { flush_telemetry(); }

void StreamScanner::flush_telemetry() {
  v6::obs::Telemetry* const telemetry = options_.scan.telemetry;
  if (telemetry == nullptr) return;
  // Shard order, so repeated runs publish identically; the per-lane
  // tallies are zeroed by the flush, which makes this idempotent.
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    if (lane->counting.has_value()) lane->counting->flush();
  }
  for (std::size_t k = 0; k < retry_counters_.size(); ++k) {
    std::uint64_t total = 0;
    for (const std::unique_ptr<Lane>& lane : lanes_) {
      total += lane->retry_tallies[k];
      lane->retry_tallies[k] = 0;
    }
    if (total != 0) retry_counters_[k]->add(total);
  }
}

std::uint64_t StreamScanner::packets_sent() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    total += lane->transport->packets_sent();
  }
  return total;
}

ProbeReply StreamScanner::lane_probe(Lane& lane, const Ipv6Addr& addr,
                                     ProbeType type) const {
  ProbeReply reply = ProbeReply::kTimeout;
  for (int attempt = 0; attempt <= options_.scan.max_retries; ++attempt) {
    if (attempt > 0) {
      if (!lane.retry_tallies.empty()) {
        ++lane.retry_tallies[static_cast<std::size_t>(attempt - 1)];
      }
      ++lane.retransmissions;
      if (options_.scan.retry_backoff_s > 0.0) {
        const int exponent = attempt - 1 < 62 ? attempt - 1 : 62;
        double backoff = options_.scan.retry_backoff_s *
                         static_cast<double>(1ULL << exponent);
        if (options_.scan.retry_jitter > 0.0) {
          // Stateless jitter: a fresh engine per (addr, attempt), so the
          // draw is identical no matter which shard retries the address.
          v6::net::SplitMixRng jitter_rng(
              probe_key(jitter_base_, addr,
                        static_cast<std::uint64_t>(attempt)));
          backoff *= 1.0 + options_.scan.retry_jitter *
                               (2.0 * v6::net::uniform01(jitter_rng) - 1.0);
        }
        lane.backoff_nanos += lane.wait(backoff);
        ++lane.backoffs;
      }
    }
    reply = lane.transport->send(addr, type);
    if (reply != ProbeReply::kTimeout) break;
    if (options_.scan.probe_timeout_s > 0.0) {
      lane.wait(options_.scan.probe_timeout_s);
    }
  }
  return reply;
}

void StreamScanner::note_reply(Lane& lane, const Ipv6Addr& addr,
                               ProbeReply reply) const {
  if (options_.scan.adaptive_threshold <= 0) return;
  int& streak = lane.timeout_streaks[addr.masked(kAdaptivePrefixLen)];
  if (reply != ProbeReply::kTimeout) {
    streak = 0;
    return;
  }
  if (++streak >= options_.scan.adaptive_threshold) {
    lane.backoff_nanos += lane.wait(options_.scan.adaptive_backoff_s);
    ++lane.backoffs;
    streak = 0;
  }
}

ScanStats StreamScanner::scan(std::span<const Ipv6Addr> targets,
                              ProbeType type, const ReplyCallback& on_reply) {
  v6::obs::Span span(options_.scan.telemetry, "scanner.scan");
  ScanStats stats;
  stats.targets = targets.size();
  // Wall-side observability state: stage heartbeats for the watchdog
  // and the scan's wall start, exempt from the shard/jobs determinism
  // contract (docs/OBSERVABILITY.md).
  v6::obs::StallWatchdog* const watchdog = options_.watchdog;
  const auto wall_start = std::chrono::steady_clock::now();

  // Dedup on the caller thread: one pass over an index of positions in
  // `targets` marks the first occurrence of each address. The walks
  // then skip indices with keep_[i] unset — no uniquified copy of the
  // target list is built.
  const auto target_at = v6::net::key_in(targets);
  dedup_.clear();
  dedup_.reserve(targets.size(), target_at);
  keep_.assign(targets.size(), 0);
  std::uint64_t unique_count = 0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (dedup_.insert(targets[i], i, target_at).second) {
      keep_[i] = 1;
      ++unique_count;
    } else {
      ++stats.deduped;
    }
  }

  const unsigned num_shards = shards();
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    lane->wire.reset();
    lane->blocked = 0;
    lane->retransmissions = 0;
    lane->backoffs = 0;
    lane->backoff_nanos = 0;
    lane->wait_nanos = 0;
    lane->outcomes.clear();
    lane->packets_before = lane->transport->packets_sent();
  }

  // The permutation plan is a pure function of (n, seed), shared by all
  // walks; built once on the caller thread.
  const ShardPlan plan(targets.size(), options_.scan.seed);
  // Every walk runs ahead of its loop; `universe` is null for the merge,
  // which probes nothing.
  auto make_walk = [&](unsigned shard, unsigned count,
                       const v6::simnet::Universe* universe) {
    return LookaheadWalk(ShardWalk(plan, shard, count), targets, keep_.data(),
                         universe);
  };

  // Classification fold: the only step that touches ScanStats and the
  // caller's callback. Runs on the caller thread in canonical
  // (cycle-position) order for every shard count. `outcome` is a kept
  // target's byte: 0 when the blocklist dropped it, else 1 + the reply.
  auto classify = [&](const Ipv6Addr& addr, std::uint8_t outcome) {
    if (outcome == 0) return;
    const auto reply = static_cast<ProbeReply>(outcome - 1);
    stats.tally(type, reply);
    if (on_reply) on_reply(addr, reply);
  };

  // The one probe loop: walks shard `s` of `count` on lane s, skips
  // duplicates, and hands each kept target's outcome byte to
  // `on_outcome`. The shard count decides only what that does.
  auto probe_slice = [&](unsigned s, unsigned count,
                         v6::obs::Heartbeat* heartbeat, auto&& on_outcome) {
    Lane& lane = *lanes_[s];
    v6::obs::ArmedStage stage(heartbeat);
    LookaheadWalk walk = make_walk(s, count, universe_);
    ShardItem item;
    while (walk.next(&item)) {
      if (keep_[item.index] == 0) continue;
      const Ipv6Addr& addr = targets[item.index];
      if (blocklist_ != nullptr && blocklist_->blocked(addr)) {
        ++lane.blocked;
        on_outcome(addr, std::uint8_t{0});
        continue;
      }
      const ProbeReply reply = lane_probe(lane, addr, type);
      note_reply(lane, addr, reply);
      on_outcome(addr, static_cast<std::uint8_t>(1 + static_cast<int>(reply)));
      stage.beat();
    }
  };

  if (num_shards == 1) {
    // One shard classifies each outcome at once, on the caller thread:
    // the walk already emits in canonical pos order, so there is nothing
    // to keep or merge. bench_throughput's single-core gate holds this
    // path to the batch engine's per-probe cost, and the multi-shard
    // merge must stay bit-identical to it (stream_scanner_test compares
    // the two).
    probe_slice(0, 1,
                watchdog != nullptr ? &watchdog->stage("stream.scan") : nullptr,
                classify);
  } else {
    // Each shard walks its own slice of the cycle on its own lane and
    // appends each outcome to the lane's own bytes, so shards never
    // write each other's cache lines. Nothing crosses a thread until
    // join().
    std::vector<v6::obs::Heartbeat*> prober_hbs(num_shards, nullptr);
    if (watchdog != nullptr) {
      for (unsigned s = 0; s < num_shards; ++s) {
        prober_hbs[s] = &watchdog->stage("stream.prober." + std::to_string(s));
      }
    }
    v6::runtime::WorkerGroup workers;
    // join() can only rethrow one exception; route the rest through the
    // telemetry sink (scanner.suppressed_errors counter + one kMessage
    // each) instead of losing them silently.
    if (v6::obs::Telemetry* const telemetry = options_.scan.telemetry;
        telemetry != nullptr) {
      workers.on_suppressed(
          [telemetry](std::size_t worker, const std::exception_ptr& error) {
            telemetry->registry().counter("scanner.suppressed_errors").inc();
            v6::obs::Event event;
            event.kind = v6::obs::Event::Kind::kMessage;
            event.path = "scanner.suppressed_error";
            event.value = worker;
            try {
              std::rethrow_exception(error);
            } catch (const std::exception& e) {
              event.detail = e.what();
            } catch (...) {
              event.detail = "non-std exception";
            }
            telemetry->emit(event);
          });
    }
    for (unsigned s = 0; s < num_shards; ++s) {
      workers.spawn([this, s, num_shards, &probe_slice, &prober_hbs]() {
        std::vector<std::uint8_t>& outcomes = lanes_[s]->outcomes;
        probe_slice(s, num_shards, prober_hbs[s],
                    [&outcomes](const Ipv6Addr&, std::uint8_t outcome) {
                      outcomes.push_back(outcome);
                    });
      });
    }
    workers.join();  // all joined; rethrows the first shard's failure

    // Canonical order: re-walk the one-shard cycle, which visits
    // positions in increasing order — exactly the order the fused loop
    // probes in. Position p belongs to shard p mod S, and each shard
    // kept its outcomes in its own walk order, so the next unread byte
    // of shard p mod S is position p's.
    std::vector<std::size_t> cursors(num_shards, 0);
    LookaheadWalk walk = make_walk(0, 1, nullptr);
    ShardItem item;
    while (walk.next(&item)) {
      if (keep_[item.index] == 0) continue;
      const std::size_t s = item.pos % num_shards;
      const std::vector<std::uint8_t>& outcomes = lanes_[s]->outcomes;
      V6_INVARIANT_MSG(cursors[s] < outcomes.size(),
                       "a shard kept fewer outcomes than its slice");
      classify(targets[item.index], outcomes[cursors[s]++]);
    }
    for (unsigned s = 0; s < num_shards; ++s) {
      V6_ENSURE_MSG(cursors[s] == lanes_[s]->outcomes.size(),
                    "every shard's outcomes must be consumed");
    }
  }

  // Fold lane tallies in shard order (integer sums, order-free anyway).
  std::uint64_t wait_nanos = 0;
  std::uint64_t backoff_nanos = 0;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    stats.blocked += lane->blocked;
    stats.retransmissions += lane->retransmissions;
    stats.backoffs += lane->backoffs;
    stats.packets += lane->transport->packets_sent() - lane->packets_before;
    wait_nanos += lane->wait_nanos;
    backoff_nanos += lane->backoff_nanos;
  }
  stats.backoff_seconds = static_cast<double>(backoff_nanos) * 1e-9;
  // Analytic wire-time model: emission time at the aggregate rate plus
  // the explicit waits (docs/SCANNER.md explains how this differs from
  // the batch engine's token-bucket clock).
  const double pps = options_.scan.max_pps > 0 ? options_.scan.max_pps : 1.0;
  stats.virtual_seconds = static_cast<double>(stats.packets) / pps +
                          static_cast<double>(wait_nanos) * 1e-9;
  total_virtual_seconds_ += stats.virtual_seconds;

  V6_ENSURE_MSG(stats.probed + stats.blocked == unique_count,
                "every unique target must be probed or blocked");
  V6_ENSURE_MSG(stats.deduped + unique_count == stats.targets,
                "dedup accounting must cover the target list");

  v6::obs::Telemetry* const telemetry = options_.scan.telemetry;
  if (telemetry != nullptr) {
    v6::obs::Registry& registry = telemetry->registry();
    stats.publish(registry);
    // The scan's wall duration (docs/OBSERVABILITY.md "Live
    // introspection"): scheduling-dependent, hence the `.wall` suffix —
    // the equivalence suites exempt it from the shard/jobs bit-identity
    // checks.
    registry.gauge("stream.scan.wall_nanos.wall")
        .set(std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - wall_start)
                 .count());
  }
  return stats;
}

ScanResult StreamScanner::scan_hits(std::span<const Ipv6Addr> targets,
                                    ProbeType type) {
  ScanResult result;
  result.stats =
      scan(targets, type, [&](const Ipv6Addr& addr, ProbeReply reply) {
        if (v6::net::is_hit(type, reply)) result.hits.push_back(addr);
      });
  return result;
}

}  // namespace v6::probe
