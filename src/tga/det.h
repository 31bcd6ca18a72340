// DET (Song et al., ToN 2022).
//
// A space tree split on the minimum-entropy varying nybble, with online
// density updates: discovered active addresses raise the density estimate
// of their region, steering subsequent budget. Selection is UCB-style —
// exploitation of high-density regions plus an exploration bonus that
// spreads probes across many regions, which is what gives DET its strong
// AS diversity in the paper's results.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "tga/space_tree.h"
#include "tga/target_generator.h"

namespace v6::tga {

class Det final : public TargetGeneratorBase {
 public:
  struct Options {
    std::uint32_t max_leaf_seeds = 16;
    int max_free = 6;
    std::uint64_t chunk = 32;       // addresses per region selection
    double exploration = 0.35;      // UCB exploration coefficient
    double hit_weight = 2.0;        // online density boost per hit
  };

  Det() = default;
  explicit Det(const Options& options) : options_(options) {}

  std::string_view name() const override { return "DET"; }
  bool is_online() const override { return true; }
  std::vector<v6::net::Ipv6Addr> next_batch(std::size_t n) override;
  void observe(const v6::net::Ipv6Addr& addr, bool active) override;

 protected:
  void reset_model() override;

 private:
  struct Region {
    RegionCursor cursor;
    double seed_mass = 0.0;     // seeds + hit_weight * observed hits
    double exploit = 0.0;       // seed_mass / (emitted + 16)
    std::uint64_t emitted = 0;  // addresses generated from this region
    bool dead = false;          // space exhausted and unextendable
  };

  /// A live region's place in its group: higher exploit term first, then
  /// lower index.
  struct Ranked {
    double exploit;
    std::uint32_t index;
    bool operator<(const Ranked& other) const {
      if (exploit != other.exploit) return exploit > other.exploit;
      return index < other.index;
    }
  };

  /// The live region with the best UCB score, the lowest index on a tie;
  /// regions_.size() once every region is dead.
  std::size_t select() const;
  /// Takes region `i` out of its group (it is about to change).
  void unlink(std::uint32_t i);
  /// Recomputes region `i`'s exploit term and files it under its emitted
  /// count, unless it is dead.
  void link(std::uint32_t i);

  Options options_;
  std::vector<Region> regions_;
  // Live regions grouped by emitted count. Every region in a group shares
  // one exploration bonus, so a group's best score is at its front.
  std::map<std::uint64_t, std::set<Ranked>> groups_;
  std::uint64_t total_emitted_ = 0;
};

}  // namespace v6::tga
