#include "tga/six_sense.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "dealias/online_dealiaser.h"

namespace v6::tga {

using v6::net::Ipv6Addr;

namespace {

/// Region id of the shared-pattern arm in a feedback route.
constexpr std::uint32_t kPatternArm = 0xFFFFFFFF;

/// Feedback route of an emitted address: its section and region ids,
/// each in 32 bits (kNoRoute would need section id 0xFFFFFFFF).
std::uint64_t route(std::uint32_t section_id, std::uint32_t region_id) {
  return (static_cast<std::uint64_t>(section_id) << 32) | region_id;
}

}  // namespace

void SixSense::attach_online_dealiaser(v6::dealias::OnlineDealiaser* dealiaser,
                                       v6::net::ProbeType type) {
  dealiaser_ = dealiaser;
  dealias_type_ = type;
}

void SixSense::reset_model() {
  sections_.clear();
  total_emitted_ = 0;
  coverage_turn_ = 0;

  // Partition seeds into /32 network sections.
  std::unordered_map<std::uint64_t, std::vector<Ipv6Addr>> by_section;
  for (const Ipv6Addr& s : seeds()) {
    by_section[s.hi() & ~0xFFFFFFFFULL].push_back(s);
  }

  // Shared lower-64 model: the most common interface identifiers across
  // the whole seed set, transferred into every section (6Sense's
  // separately-learned lower-64 generation model).
  pattern_pool_.clear();
  {
    std::unordered_map<std::uint64_t, std::uint32_t> counts;
    for (const Ipv6Addr& s : seeds()) ++counts[s.lo()];
    std::vector<std::pair<std::uint64_t, std::uint32_t>> common;
    // `common` is re-sorted below by (count, value) — a total order.
    // v6lint: allow(unordered-iteration)
    for (const auto& [value, count] : counts) {
      if (count >= 2) common.emplace_back(value, count);
    }
    std::sort(common.begin(), common.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (common.size() > options_.pattern_pool) {
      common.resize(options_.pattern_pool);
    }
    pattern_pool_.reserve(common.size());
    for (const auto& [value, count] : common) {
      pattern_pool_.push_back(value);
    }
  }

  sections_.reserve(by_section.size());
  // sections_ is re-sorted by prefix_hi (unique per section) below.
  // v6lint: allow(unordered-iteration)
  for (auto& [hi, members] : by_section) {
    Section section;
    section.prefix_hi = hi;
    SpaceTree tree(members, {.policy = SplitPolicy::kLeftmost,
                             .max_leaf_seeds = options_.max_leaf_seeds,
                             .max_free = options_.max_free});
    section.regions.reserve(tree.regions().size());
    for (const TreeRegion& r : tree.regions()) {
      Region region;
      region.cursor = RegionCursor(r.base, r.free);
      region.seed_mass = static_cast<double>(r.seed_count);
      section.regions.push_back(std::move(region));
    }
    {
      std::unordered_map<std::uint64_t, bool> seen;
      for (const Ipv6Addr& s : members) {
        if (seen.emplace(s.hi(), true).second) {
          section.subnets.push_back(s.hi());
        }
      }
      std::sort(section.subnets.begin(), section.subnets.end());
      section.subnet_state.assign(section.subnets.size(), 0);
    }
    sections_.push_back(std::move(section));
  }
  // Deterministic section order regardless of hash-map iteration.
  std::sort(sections_.begin(), sections_.end(),
            [](const Section& a, const Section& b) {
              return a.prefix_hi < b.prefix_hi;
            });
}

double SixSense::section_score(const Section& s) const {
  if (s.exhausted) return -1.0;
  const double exploit = (static_cast<double>(s.hits) + 1.0) /
                         static_cast<double>(s.emitted + 32);
  const double explore =
      options_.exploration *
      std::sqrt(std::log(static_cast<double>(total_emitted_ + 2)) /
                static_cast<double>(s.emitted + 1));
  return exploit + explore;
}

std::uint64_t SixSense::draw_patterns(std::uint32_t section_id,
                                      std::uint64_t want,
                                      std::vector<Ipv6Addr>& out) {
  Section& section = sections_[section_id];
  if (section.subnets.empty() || pattern_pool_.empty()) return 0;
  const std::uint64_t space =
      static_cast<std::uint64_t>(section.subnets.size()) *
      pattern_pool_.size();
  std::uint64_t taken = 0;
  while (taken < want && section.pattern_pos < space) {
    // Pattern-major order: try the most common identifier across every
    // subnet before moving to the next identifier.
    const std::uint64_t pattern = pattern_pool_[static_cast<std::size_t>(
        section.pattern_pos / section.subnets.size())];
    const std::size_t subnet_idx = static_cast<std::size_t>(
        section.pattern_pos % section.subnets.size());
    const std::uint64_t subnet = section.subnets[subnet_idx];
    ++section.pattern_pos;
    // The pattern arm honors the integrated dealiaser too: each subnet is
    // verified once before identifiers are sprayed into it.
    if (dealiaser_ != nullptr && section.subnet_state[subnet_idx] == 0) {
      section.subnet_state[subnet_idx] =
          dealiaser_->is_aliased(Ipv6Addr(subnet, 0), dealias_type_) ? 2 : 1;
    }
    if (section.subnet_state[subnet_idx] == 2) continue;
    ++section.pattern_emitted;
    ++section.emitted;
    ++total_emitted_;
    const Ipv6Addr addr(subnet, pattern);
    if (emit(addr, out, route(section_id, kPatternArm))) ++taken;
  }
  return taken;
}

std::uint64_t SixSense::draw_from_section(std::uint32_t section_id,
                                          std::uint64_t want,
                                          std::vector<Ipv6Addr>& out) {
  Section& section = sections_[section_id];
  std::uint64_t taken = 0;
  std::size_t guard = 0;
  while (taken < want && guard < section.regions.size() + 4) {
    ++guard;
    // Best live region: density-style score with online hit boost.
    Region* best = nullptr;
    double best_score = -1.0;
    std::uint32_t best_id = 0;
    for (std::uint32_t i = 0; i < section.regions.size(); ++i) {
      Region& r = section.regions[i];
      if (r.dead) continue;
      const double score =
          (r.seed_mass + 4.0 * static_cast<double>(r.hits)) /
          static_cast<double>(r.emitted + 16);
      if (score > best_score) {
        best_score = score;
        best = &r;
        best_id = i;
      }
    }

    // The shared-pattern arm competes with the tree regions: its score is
    // its measured hit-rate with an optimistic prior, so fresh sections
    // first sweep the globally-common identifiers across their subnets.
    const std::uint64_t pattern_space =
        static_cast<std::uint64_t>(section.subnets.size()) *
        pattern_pool_.size();
    if (section.pattern_pos < pattern_space) {
      const double pattern_score =
          (4.0 + 4.0 * static_cast<double>(section.pattern_hits)) /
          static_cast<double>(section.pattern_emitted + 8);
      if (pattern_score > best_score) {
        const std::uint64_t got =
            draw_patterns(section_id, want - taken, out);
        taken += got;
        if (got > 0) continue;
      }
    }

    if (best == nullptr) {
      section.exhausted = true;
      return taken;
    }

    while (taken < want) {
      // Integrated online dealiasing: test the region's /96 once a few
      // addresses have been spent on it (detection lags generation by a
      // small batch, as in the real system), then abandon aliased space.
      if (dealiaser_ != nullptr && !best->dealias_checked &&
          best->emitted >= 4) {
        best->dealias_checked = true;
        if (dealiaser_->is_aliased(best->cursor.base(), dealias_type_)) {
          best->dead = true;
          break;
        }
      }
      auto addr = best->cursor.next();
      if (!addr) {
        if (!best->cursor.extend()) {
          best->dead = true;
          break;
        }
        // The widened region may have drifted into a new /96; re-check.
        best->dealias_checked = false;
        break;
      }
      ++best->emitted;
      ++section.emitted;
      ++total_emitted_;
      if (emit(*addr, out, route(section_id, best_id))) ++taken;
    }
  }
  return taken;
}

std::vector<Ipv6Addr> SixSense::next_batch(std::size_t n) {
  std::vector<Ipv6Addr> out;
  out.reserve(n);
  if (sections_.empty()) return out;

  // ---- Coverage slice: round-robin across every section ----------------
  const std::uint64_t coverage_budget = static_cast<std::uint64_t>(
      static_cast<double>(n) * options_.coverage_fraction);
  std::uint64_t covered = 0;
  std::size_t visited = 0;
  while (covered < coverage_budget && visited < sections_.size()) {
    const std::uint32_t id =
        static_cast<std::uint32_t>(coverage_turn_ % sections_.size());
    ++coverage_turn_;
    ++visited;
    if (sections_[id].exhausted) continue;
    covered += draw_from_section(
        id, std::min<std::uint64_t>(options_.coverage_chunk,
                                    coverage_budget - covered),
        out);
  }

  // ---- Exploit slice: UCB over sections --------------------------------
  std::size_t consecutive_failures = 0;
  while (out.size() < n && consecutive_failures < sections_.size() + 8) {
    std::uint32_t best = 0;
    double best_score = -2.0;
    for (std::uint32_t i = 0; i < sections_.size(); ++i) {
      const double s = section_score(sections_[i]);
      if (s > best_score) {
        best_score = s;
        best = i;
      }
    }
    if (best_score < 0) break;  // all sections exhausted
    const std::uint64_t got = draw_from_section(
        best, std::min<std::uint64_t>(options_.chunk, n - out.size()), out);
    consecutive_failures = got == 0 ? consecutive_failures + 1 : 0;
  }
  return out;
}

void SixSense::observe(const Ipv6Addr& addr, bool active) {
  const std::optional<std::uint64_t> packed = take_route(addr);
  if (!packed.has_value() || !active) return;
  const auto section_id = static_cast<std::uint32_t>(*packed >> 32);
  const auto region_id = static_cast<std::uint32_t>(*packed);
  Section& section = sections_[section_id];
  ++section.hits;
  if (region_id == kPatternArm) {
    ++section.pattern_hits;
  } else if (region_id < section.regions.size()) {
    ++section.regions[region_id].hits;
  }
}

}  // namespace v6::tga
