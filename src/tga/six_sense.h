// 6Sense (Williams et al., USENIX Security 2024).
//
// Online reinforcement-learning generator: the upper address space is
// partitioned into network sections (announced /32s, an AS proxy), each
// holding its own low-64 pattern model (a per-section space tree). A UCB
// policy allocates the exploit share of each batch to the best sections,
// while a dedicated coverage slice round-robins across *all* sections —
// the mechanism behind 6Sense's AS-diversity behaviour. 6Sense uniquely
// integrates online dealiasing into generation: regions whose /96 tests
// as aliased are abandoned before budget is spent on them.
#pragma once

#include <cstdint>
#include <vector>

#include "tga/space_tree.h"
#include "tga/target_generator.h"

namespace v6::tga {

class SixSense final : public TargetGeneratorBase {
 public:
  struct Options {
    /// Fraction of every batch dedicated to section coverage.
    double coverage_fraction = 0.25;
    double exploration = 0.08;  // section UCB coefficient (the
    // coverage slice already guarantees breadth)
    std::uint64_t chunk = 96;  // exploit chunk per section pick
    std::uint64_t coverage_chunk = 8;
    std::uint32_t max_leaf_seeds = 16;
    int max_free = 6;
    /// Size of the shared lower-64 pattern pool (the analogue of
    /// 6Sense's lower-64 generation model, learned across all sections
    /// and transferred into each).
    std::size_t pattern_pool = 4096;
  };

  SixSense() = default;
  explicit SixSense(const Options& options) : options_(options) {}

  std::string_view name() const override { return "6Sense"; }
  bool is_online() const override { return true; }
  std::vector<v6::net::Ipv6Addr> next_batch(std::size_t n) override;
  void observe(const v6::net::Ipv6Addr& addr, bool active) override;
  void attach_online_dealiaser(v6::dealias::OnlineDealiaser* dealiaser,
                               v6::net::ProbeType type) override;

 protected:
  void reset_model() override;

 private:
  struct Region {
    RegionCursor cursor;
    double seed_mass = 0.0;
    std::uint64_t emitted = 0;
    std::uint64_t hits = 0;
    bool dealias_checked = false;
    bool dead = false;
  };

  struct Section {
    std::uint64_t prefix_hi = 0;  // /32 key (upper 32 bits significant)
    std::vector<Region> regions;
    /// Observed /64 subnets, for the shared pattern model.
    std::vector<std::uint64_t> subnets;
    /// Per-subnet dealias verdicts for the pattern arm
    /// (0 = unchecked, 1 = clean, 2 = aliased).
    std::vector<std::uint8_t> subnet_state;
    /// Cursor into subnets x pattern pool (subnet-major per pattern).
    std::uint64_t pattern_pos = 0;
    std::uint64_t pattern_emitted = 0;
    std::uint64_t pattern_hits = 0;
    std::uint64_t emitted = 0;
    std::uint64_t hits = 0;
    bool exhausted = false;
  };

  double section_score(const Section& s) const;
  /// Emits up to `want` addresses from the best region of `section`.
  std::uint64_t draw_from_section(std::uint32_t section_id,
                                  std::uint64_t want,
                                  std::vector<v6::net::Ipv6Addr>& out);

  /// Draws up to `want` addresses from the shared-pattern arm of a
  /// section. Returns the number emitted.
  std::uint64_t draw_patterns(std::uint32_t section_id, std::uint64_t want,
                              std::vector<v6::net::Ipv6Addr>& out);

  Options options_;
  /// Lower-64 values shared by >= 2 seeds, most common first.
  std::vector<std::uint64_t> pattern_pool_;
  std::vector<Section> sections_;
  std::uint64_t total_emitted_ = 0;
  std::size_t coverage_turn_ = 0;
  v6::dealias::OnlineDealiaser* dealiaser_ = nullptr;
  v6::net::ProbeType dealias_type_ = v6::net::ProbeType::kIcmp;
};

}  // namespace v6::tga
