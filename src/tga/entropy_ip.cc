#include "tga/entropy_ip.h"

#include <algorithm>
#include <unordered_map>

#include "tga/nybble_stats.h"

namespace v6::tga {

using v6::net::Ipv6Addr;

namespace {

/// Value of nybbles [first, last] of `addr` packed into a uint64.
std::uint64_t segment_value(const Ipv6Addr& addr, int first, int last) {
  std::uint64_t v = 0;
  for (int pos = first; pos <= last; ++pos) {
    v = (v << 4) | addr.nybble(pos);
  }
  return v;
}

int entropy_class(double h, double low, double high) {
  if (h < low) return 0;
  if (h < high) return 1;
  return 2;
}

}  // namespace

void EntropyIp::reset_model() {
  segments_.clear();
  if (seeds().empty()) return;

  NybbleStats stats(seeds());

  // Segment the 32 nybbles into runs of equal entropy class.
  int start = 0;
  int start_class = entropy_class(stats.at(0).entropy(), options_.low_entropy,
                                  options_.high_entropy);
  for (int pos = 1; pos <= Ipv6Addr::kNybbles; ++pos) {
    const int cls =
        pos == Ipv6Addr::kNybbles
            ? -1
            : entropy_class(stats.at(pos).entropy(), options_.low_entropy,
                            options_.high_entropy);
    const bool boundary = cls != start_class ||
                          pos - start >= options_.max_segment_nybbles;
    if (!boundary) continue;
    Segment seg;
    seg.first = start;
    seg.last = pos - 1;
    segments_.push_back(seg);
    start = pos;
    start_class = cls;
  }

  // Fit a value-frequency model per segment.
  for (Segment& seg : segments_) {
    std::unordered_map<std::uint64_t, std::uint32_t> counts;
    for (const Ipv6Addr& s : seeds()) {
      if (counts.size() > options_.max_values) break;
      ++counts[segment_value(s, seg.first, seg.last)];
    }
    if (counts.size() > options_.max_values) {
      seg.random_fill = true;
      continue;
    }
    seg.values.reserve(counts.size());
    // Materialize-and-sort; pair ordering is total, so hash order dies
    // here.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted(
        counts.begin(), counts.end());  // v6lint: allow(unordered-iteration)
    std::sort(sorted.begin(), sorted.end());
    std::uint32_t running = 0;
    for (const auto& [value, count] : sorted) {
      running += count;
      seg.values.push_back(value);
      seg.cumulative.push_back(running);
    }
  }
}

std::uint64_t EntropyIp::sample_segment(const Segment& seg) {
  const int width = seg.last - seg.first + 1;
  if (seg.random_fill || seg.values.empty()) {
    const std::uint64_t mask =
        width >= 16 ? ~0ULL : (1ULL << (4 * width)) - 1;
    return rng_() & mask;
  }
  const std::uint32_t pick = v6::net::uniform_int<std::uint32_t>(
      rng_, 1, seg.cumulative.back());
  const auto it =
      std::lower_bound(seg.cumulative.begin(), seg.cumulative.end(), pick);
  return seg.values[static_cast<std::size_t>(
      std::distance(seg.cumulative.begin(), it))];
}

std::vector<Ipv6Addr> EntropyIp::next_batch(std::size_t n) {
  std::vector<Ipv6Addr> out;
  out.reserve(n);
  if (segments_.empty()) return out;

  std::size_t stall = 0;
  while (out.size() < n && stall < options_.max_stall) {
    Ipv6Addr addr;
    if (!seeds().empty() && v6::net::chance(rng_, options_.mutation_prob)) {
      // Conditioned generation (stand-in for the original's Bayesian
      // network between segments): keep a real seed's segment values and
      // resample a single segment from the frequency model.
      addr = seeds()[v6::net::uniform_int<std::size_t>(rng_, 0,
                                                       seeds().size() - 1)];
      // Resample a host-side segment: the model's network-side
      // conditioning is strong, so mutations stay within the subnet.
      std::size_t pick = v6::net::uniform_int<std::size_t>(
          rng_, 0, segments_.size() - 1);
      for (std::size_t tries = 0;
           segments_[pick].first < 16 && tries < segments_.size(); ++tries) {
        pick = (pick + 1) % segments_.size();
      }
      const Segment& seg = segments_[pick];
      std::uint64_t v = sample_segment(seg);
      for (int pos = seg.last; pos >= seg.first; --pos) {
        addr = addr.with_nybble(pos, static_cast<std::uint8_t>(v & 0xF));
        v >>= 4;
      }
    } else {
      for (const Segment& seg : segments_) {
        std::uint64_t v = sample_segment(seg);
        for (int pos = seg.last; pos >= seg.first; --pos) {
          addr = addr.with_nybble(pos, static_cast<std::uint8_t>(v & 0xF));
          v >>= 4;
        }
      }
    }
    if (emit(addr, out)) {
      stall = 0;
    } else {
      ++stall;
      // Model collapse: perturb the host nybble to escape duplicates.
      if (stall % 64 == 0) {
        const Ipv6Addr mutated = addr.with_nybble(
            Ipv6Addr::kNybbles - 1,
            static_cast<std::uint8_t>(rng_() & 0xF));
        emit(mutated, out);
      }
    }
  }
  return out;
}

}  // namespace v6::tga
