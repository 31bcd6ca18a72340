#include "tga/six_gen.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "net/addr_index.h"

namespace v6::tga {

using v6::net::Ipv6Addr;

// ---- SixGen ----------------------------------------------------------------

void SixGen::reset_model() {
  clusters_.clear();
  turn_ = 0;

  // Cluster by /64 network, groups in first-seen order. A group keeps its
  // lowest-index seed (the range's base), its size, and the values seen
  // at each of the 16 low-64 nybbles as a bit mask.
  struct Group {
    std::uint32_t first = 0;
    std::uint32_t size = 0;
    std::array<std::uint16_t, 16> seen{};
  };
  std::vector<Group> groups;
  v6::net::AddrIndexMap group_of;
  for (std::uint32_t i = 0; i < seeds().size(); ++i) {
    const Ipv6Addr network(seeds()[i].hi(), 0);
    const std::uint32_t* found = group_of.find(network);
    const std::uint32_t id =
        found != nullptr ? *found : static_cast<std::uint32_t>(groups.size());
    if (found == nullptr) {
      group_of.insert(network, id);
      groups.push_back({.first = i});
    }
    Group& group = groups[id];
    ++group.size;
    for (int pos = 16; pos < 32; ++pos) {
      group.seen[static_cast<std::size_t>(pos - 16)] |=
          static_cast<std::uint16_t>(1u << seeds()[i].nybble(pos));
    }
  }

  struct Scored {
    Cluster cluster;
    double density;
    Ipv6Addr base;
  };
  std::vector<Scored> scored;
  scored.reserve(groups.size());

  for (const Group& group : groups) {
    // Varying positions form the range, over their observed values in
    // ascending order; fixed ones stay at their value.
    double span_log16 = 0.0;
    for (const std::uint16_t seen : group.seen) {
      const int count = std::popcount(seen);
      if (count > 1) span_log16 += std::log2(static_cast<double>(count)) / 4.0;
    }
    if (span_log16 > static_cast<double>(options_.max_span_nybbles)) {
      continue;  // range too sparse to be worth enumerating
    }
    const Ipv6Addr base = seeds()[group.first];
    std::vector<int> positions;
    std::vector<std::vector<std::uint8_t>> values;
    for (int pos = 16; pos < 32; ++pos) {
      const std::uint16_t seen = group.seen[static_cast<std::size_t>(pos - 16)];
      if (std::popcount(seen) <= 1) continue;
      positions.push_back(pos);
      auto& vals = values.emplace_back();
      for (std::uint8_t v = 0; v < 16; ++v) {
        if ((seen >> v) & 1u) vals.push_back(v);
      }
    }
    if (positions.empty()) {
      // Single distinct low64: vary the host nybble.
      const std::uint8_t v = base.nybble(31);
      const auto next = static_cast<std::uint8_t>((v + 1) & 0xF);
      positions.push_back(31);
      values.push_back({std::min(v, next), std::max(v, next)});
    }

    Scored s;
    s.base = base;
    s.cluster.cursor = RangeCursor(base, std::move(positions),
                                   std::move(values));
    s.cluster.chunk = std::max<std::uint64_t>(
        options_.min_chunk, options_.chunk_per_seed * group.size);
    s.density = static_cast<double>(group.size) /
                static_cast<double>(s.cluster.cursor.capacity());
    scored.push_back(std::move(s));
  }

  // (density, base) is a total order: bases differ per /64.
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.density != b.density) return a.density > b.density;
    return a.base < b.base;
  });
  clusters_.reserve(scored.size());
  for (Scored& s : scored) clusters_.push_back(std::move(s.cluster));
}

std::vector<Ipv6Addr> SixGen::next_batch(std::size_t n) {
  std::vector<Ipv6Addr> out;
  out.reserve(n);
  if (clusters_.empty()) return out;

  // 6Gen packs the budget into the tightest ranges first: clusters are
  // drained sequentially in density order. When the whole list is
  // exhausted, every cluster is widened by one adjacent value and the
  // sweep restarts (density-preserving growth).
  std::size_t widen_rounds = 0;
  while (out.size() < n) {
    if (turn_ >= clusters_.size()) {
      turn_ = 0;
      bool any_widened = false;
      for (Cluster& cluster : clusters_) {
        if (!cluster.dead && cluster.cursor.widen()) any_widened = true;
      }
      if (!any_widened || ++widen_rounds > 64) break;
    }
    Cluster& cluster = clusters_[turn_];
    if (cluster.dead) {
      ++turn_;
      continue;
    }
    while (out.size() < n) {
      auto addr = cluster.cursor.next();
      if (!addr) break;  // drained; widen happens on the next full sweep
      emit(*addr, out);
    }
    if (out.size() < n) ++turn_;
  }
  return out;
}

}  // namespace v6::tga
