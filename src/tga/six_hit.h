// 6Hit (Hou et al., INFOCOM 2021).
//
// The first fully-online tree model: a Q-value per tree region updated
// from per-probe rewards, epsilon-greedy region selection, and periodic
// tree recreation folding discovered active addresses back into the
// space partition.
#pragma once

#include <vector>

#include "tga/max_tournament.h"
#include "tga/space_tree.h"
#include "tga/target_generator.h"

namespace v6::tga {

class SixHit final : public TargetGeneratorBase {
 public:
  struct Options {
    std::uint32_t max_leaf_seeds = 16;
    int max_free = 6;
    double epsilon = 0.30;        // exploration probability
    double learning_rate = 0.05;  // Q-value step size
    std::uint64_t chunk = 64;     // addresses per region selection
    /// Rebuild the tree after this many newly discovered actives.
    std::uint64_t rebuild_after_hits = 8000;
  };

  SixHit() = default;
  explicit SixHit(const Options& options) : options_(options) {}

  std::string_view name() const override { return "6Hit"; }
  bool is_online() const override { return true; }
  std::vector<v6::net::Ipv6Addr> next_batch(std::size_t n) override;
  void observe(const v6::net::Ipv6Addr& addr, bool active) override;
  /// 6Hit's periodic tree recreation already folds discovered actives
  /// into the partition, so a seed delta rides the same machinery: the
  /// tree is rebuilt from seeds + discoveries while the emitted set,
  /// discovery list, and RNG stream survive — unlike prepare(), which
  /// wipes all learned state.
  bool absorb_seeds(std::span<const v6::net::Ipv6Addr> added) override;

 protected:
  void reset_model() override;

 private:
  struct Region {
    RegionCursor cursor;
    double q = 0.0;
    bool dead = false;
  };

  SpaceTree::Options tree_options() const;
  /// Replaces the regions with `tree`'s leaves.
  void build_regions(const SpaceTree& tree);
  /// Rebuilds the partition from the seeds plus every discovered active
  /// address, dropping the routes of in-flight feedback.
  void recreate_tree();
  /// Re-enters region `i`'s current q (or kOut once dead) in greedy_.
  void rekey(std::size_t i);

  Options options_;
  std::vector<Region> regions_;
  MaxTournament greedy_;  // argmax q over live regions
  std::vector<v6::net::Ipv6Addr> discovered_;
  std::uint64_t hits_since_rebuild_ = 0;
};

}  // namespace v6::tga
