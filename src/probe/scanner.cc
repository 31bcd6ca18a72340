#include "probe/scanner.h"

#include <algorithm>
#include <string>

#include "check/validate.h"

namespace v6::probe {

using v6::net::Ipv6Addr;
using v6::net::ProbeReply;
using v6::net::ProbeType;

void ScanOptions::validate() const {
  const v6::check::Validator v("ScanOptions");
  v.non_negative(max_retries, "max_retries");
  v.positive(max_pps, "max_pps");
  v.non_negative(probe_timeout_s, "probe_timeout_s");
  v.non_negative(retry_backoff_s, "retry_backoff_s");
  v.unit_interval(retry_jitter, "retry_jitter");
  v.non_negative(adaptive_threshold, "adaptive_threshold");
  v.non_negative(adaptive_backoff_s, "adaptive_backoff_s");
}

void ScanStats::publish(v6::obs::Registry& registry) const {
  registry.counter("scanner.targets").add(targets);
  registry.counter("scanner.deduped").add(deduped);
  registry.counter("scanner.blocked").add(blocked);
  registry.counter("scanner.probed").add(probed);
  registry.counter("scanner.packets").add(packets);
  registry.counter("scanner.hits").add(hits);
  registry.counter("scanner.timeouts").add(timeouts);
  // Robust-path counters appear only when the path actually fired, so
  // legacy (no-fault) reports keep their exact counter set.
  if (retransmissions != 0) {
    registry.counter("scanner.retransmissions").add(retransmissions);
  }
  if (backoffs != 0) registry.counter("scanner.backoffs").add(backoffs);
  // Per-batch distributions, both on the virtual clock (deterministic
  // across jobs counts — see docs/OBSERVABILITY.md).
  registry.histogram("scanner.batch.targets")
      .record(static_cast<double>(targets));
  registry.histogram("scanner.batch.virtual_seconds").record(virtual_seconds);
}

std::vector<v6::obs::Counter*> retry_counters(v6::obs::Telemetry* telemetry,
                                              int max_retries) {
  std::vector<v6::obs::Counter*> counters;
  if (telemetry == nullptr) return counters;
  for (int k = 1; k <= max_retries; ++k) {
    counters.push_back(
        &telemetry->registry().counter("scanner.retry." + std::to_string(k)));
  }
  return counters;
}

Scanner::Scanner(ProbeTransport& transport, const Blocklist* blocklist,
                 ScanOptions options)
    : transport_(&transport),
      blocklist_(blocklist),
      options_(options),
      limiter_(options.max_pps),
      shuffle_rng_(v6::net::make_rng(options.seed, /*tag=*/0x5CA4)),
      jitter_rng_(v6::net::make_rng(options.seed, /*tag=*/0xBACC0F)),
      retry_counters_(retry_counters(options.telemetry, options.max_retries)) {
  options_.validate();
}

void Scanner::wait(double seconds) {
  // Waiting is always virtual: the limiter's clock and the transport
  // chain's fault clock move forward, wall time does not (tools/lint
  // forbids real sleeps in retry paths).
  limiter_.advance(seconds);
  transport_->advance(seconds);
}

ProbeReply Scanner::probe_with_retries(const Ipv6Addr& addr, ProbeType type,
                                       ScanStats& stats) {
  ProbeReply reply = ProbeReply::kTimeout;
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    // Everything below the first send sits on the retry path only, which
    // is already the slow (timed-out) case — the common first-attempt
    // send pays nothing.
    if (attempt > 0) {
      if (!retry_counters_.empty()) {
        retry_counters_[static_cast<std::size_t>(attempt - 1)]->inc();
      }
      ++stats.retransmissions;
      if (options_.retry_backoff_s > 0.0) {
        // Exponential backoff: 1x, 2x, 4x, ... the base (exponent capped
        // so absurd retry counts cannot overflow the shift), optionally
        // jittered by a deterministic seeded draw.
        const int exponent = attempt - 1 < 62 ? attempt - 1 : 62;
        double backoff =
            options_.retry_backoff_s * static_cast<double>(1ULL << exponent);
        if (options_.retry_jitter > 0.0) {
          backoff *= 1.0 + options_.retry_jitter *
                               (2.0 * v6::net::uniform01(jitter_rng_) - 1.0);
        }
        wait(backoff);
        ++stats.backoffs;
        stats.backoff_seconds += backoff;
      }
    }
    limiter_.acquire();
    reply = transport_->send(addr, type);
    if (reply != ProbeReply::kTimeout) break;
    // Charge the time spent waiting for the reply that never came.
    if (options_.probe_timeout_s > 0.0) wait(options_.probe_timeout_s);
  }
  return reply;
}

void Scanner::note_reply(const Ipv6Addr& addr, ProbeReply reply,
                         ScanStats& stats) {
  if (options_.adaptive_threshold <= 0) return;
  int& streak = timeout_streaks_[addr.masked(kAdaptivePrefixLen)];
  if (reply != ProbeReply::kTimeout) {
    streak = 0;
    return;
  }
  if (++streak >= options_.adaptive_threshold) {
    // The prefix looks rate-limited (a run of silent probes): cool down
    // so its token bucket refills before we spend more packets there.
    wait(options_.adaptive_backoff_s);
    ++stats.backoffs;
    stats.backoff_seconds += options_.adaptive_backoff_s;
    streak = 0;
  }
}

ScanStats Scanner::scan(std::span<const Ipv6Addr> targets, ProbeType type,
                        const ReplyCallback& on_reply) {
  v6::obs::Span span(options_.telemetry, "scanner.scan");
  ScanStats stats;
  stats.targets = targets.size();

  // Dedup while preserving first-seen order, then shuffle (paper
  // Appendix A) — every address is probed at most once per scan (paper
  // §4.2 combines and uniquifies targets to minimize per-address
  // probes). The scratch containers are members: clear() keeps their
  // buckets/capacity, so steady-state batches allocate nothing here.
  std::vector<Ipv6Addr>& unique = unique_scratch_;
  unique.clear();
  unique.reserve(targets.size());
  {
    v6::net::AddrIndex& seen = seen_scratch_;
    seen.clear();
    seen.reserve(targets.size(), v6::net::key_in(unique));
    for (const Ipv6Addr& a : targets) {
      if (seen.insert(a, unique.size(), v6::net::key_in(unique)).second) {
        unique.push_back(a);
      } else {
        ++stats.deduped;
      }
    }
  }
  std::shuffle(unique.begin(), unique.end(), shuffle_rng_);

  const std::uint64_t packets_before = transport_->packets_sent();
  const double vtime_before = limiter_.virtual_now();

  for (const Ipv6Addr& addr : unique) {
    if (blocklist_ != nullptr && blocklist_->blocked(addr)) {
      ++stats.blocked;
      continue;
    }
    const ProbeReply reply = probe_with_retries(addr, type, stats);
    note_reply(addr, reply, stats);
    stats.tally(type, reply);
    if (on_reply) on_reply(addr, reply);
  }

  stats.packets = transport_->packets_sent() - packets_before;
  stats.virtual_seconds = limiter_.virtual_now() - vtime_before;

  if (options_.telemetry != nullptr) {
    stats.publish(options_.telemetry->registry());
  }
  return stats;
}

ScanResult Scanner::scan_hits(std::span<const Ipv6Addr> targets,
                              ProbeType type) {
  ScanResult result;
  result.stats =
      scan(targets, type, [&](const Ipv6Addr& addr, ProbeReply reply) {
        if (v6::net::is_hit(type, reply)) result.hits.push_back(addr);
      });
  return result;
}

}  // namespace v6::probe
