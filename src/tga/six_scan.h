// 6Scan (Hou et al., ToN 2023).
//
// Shares 6Tree's space-tree formulation but encodes region identity into
// each probe (here: the region index filed as the address's feedback
// route) so that scan replies re-prioritize regions between rounds. Each next_batch() call is one
// round: budget is spread over regions ranked by the previous round's hit
// counts, with a slice reserved for not-yet-probed regions.
#pragma once

#include <vector>

#include "tga/space_tree.h"
#include "tga/target_generator.h"

namespace v6::tga {

class SixScan final : public TargetGeneratorBase {
 public:
  struct Options {
    std::uint32_t max_leaf_seeds = 16;
    int max_free = 6;
    /// Fraction of each round reserved for unexplored regions.
    double explore_fraction = 0.2;
    /// Per-round cap on regions receiving budget.
    std::size_t regions_per_round = 8192;
    /// Times a drained region may widen before it is retired.
    int max_extensions = 2;
  };

  SixScan() = default;
  explicit SixScan(const Options& options) : options_(options) {}

  std::string_view name() const override { return "6Scan"; }
  bool is_online() const override { return true; }
  std::vector<v6::net::Ipv6Addr> next_batch(std::size_t n) override;
  void observe(const v6::net::Ipv6Addr& addr, bool active) override;

 protected:
  void reset_model() override;

 private:
  struct Region {
    RegionCursor cursor;
    std::uint32_t seed_count = 0;
    std::uint64_t hits_total = 0;
    std::uint64_t hits_last_round = 0;
    std::uint64_t emitted = 0;
    int extensions = 0;
    bool dead = false;
  };

  /// Emits up to `want` addresses from `region`; returns count emitted.
  std::uint64_t drain(Region& region, std::uint32_t region_id,
                      std::uint64_t want, std::vector<v6::net::Ipv6Addr>& out);

  Options options_;
  std::vector<Region> regions_;
};

}  // namespace v6::tga
