// Space tree: the hierarchical address-space partition substrate shared
// by the tree-family TGAs (6Tree, DET, 6Scan, 6Hit, 6Graph).
//
// Seeds are split recursively on one nybble position at a time — 6Tree
// splits on the leftmost varying nybble (high granularity first), DET and
// 6Graph on the minimum-entropy varying nybble. Leaves become generation
// regions: a base pattern plus the set of free (varying) nybble
// positions, enumerated odometer-style outward from the observed seeds.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/ipv6.h"

namespace v6::tga {

struct NybbleHistogram;

enum class SplitPolicy : std::uint8_t {
  kLeftmost,    // 6Tree-style divisive hierarchical clustering
  kMinEntropy,  // DET/6Graph-style entropy splitting
};

/// Systematic enumerator of a region's address space. The free nybble
/// positions spin like an odometer (rightmost fastest), so enumeration
/// visits ::0, ::1, ::2, ... before moving to sibling subnets — matching
/// how the tree TGAs densify low-entropy dimensions first.
class RegionCursor {
 public:
  RegionCursor() = default;
  RegionCursor(v6::net::Ipv6Addr base, std::vector<int> free_nybbles);

  /// Next address, or nullopt when the region space is exhausted.
  std::optional<v6::net::Ipv6Addr> next();

  /// Grows the region by freeing one more (currently fixed) nybble
  /// position, rightmost first. Returns false if all 32 are already free.
  bool extend();

  /// Number of addresses in the current region space.
  std::uint64_t capacity() const;

  std::uint64_t emitted() const { return counter_; }
  bool exhausted() const { return counter_ >= capacity(); }
  const std::vector<int>& free_nybbles() const { return free_; }
  const v6::net::Ipv6Addr& base() const { return base_; }

 private:
  v6::net::Ipv6Addr base_;
  std::vector<int> free_;  // ascending nybble positions
  std::uint64_t counter_ = 0;
};

/// Odometer over explicit per-position candidate value sets (a "range" in
/// 6Gen's sense), with density-preserving widening.
class RangeCursor {
 public:
  RangeCursor() = default;
  /// `positions` ascending; `values[i]` are the candidate nybble values of
  /// positions[i] (sorted, unique, non-empty).
  RangeCursor(v6::net::Ipv6Addr base, std::vector<int> positions,
              std::vector<std::vector<std::uint8_t>> values);

  std::optional<v6::net::Ipv6Addr> next();

  /// Adds one adjacent value to the narrowest position (6Gen's growth
  /// step). Returns false if every position already covers all 16 values.
  bool widen();

  std::uint64_t capacity() const;
  bool exhausted() const { return counter_ >= capacity(); }

 private:
  v6::net::Ipv6Addr base_;
  std::vector<int> positions_;
  std::vector<std::vector<std::uint8_t>> values_;
  std::uint64_t counter_ = 0;
};

/// One leaf region of the space tree.
struct TreeRegion {
  v6::net::Ipv6Addr base;   // representative seed with free nybbles zeroed
  std::vector<int> free;    // varying nybble positions (ascending)
  std::uint32_t seed_count = 0;
  double density = 0.0;     // seed_count / |region space|
};

class SpaceTree {
 public:
  struct Options {
    SplitPolicy policy = SplitPolicy::kLeftmost;
    /// Stop splitting below this many seeds.
    std::uint32_t max_leaf_seeds = 16;
    /// Cap on free dimensions per region (16^max_free addresses).
    int max_free = 6;

    bool operator==(const Options&) const = default;
  };

  SpaceTree(std::span<const v6::net::Ipv6Addr> seeds, Options options);

  /// Leaf regions, ordered by descending seed density.
  std::span<const TreeRegion> regions() const { return regions_; }

  /// Total number of tree nodes created during splitting.
  std::size_t node_count() const { return node_count_; }

 private:
  /// Builds the subtree of the node whose seed indices are `idx`
  /// (ascending); `scratch` is a buffer of the same size.
  void build(std::span<const v6::net::Ipv6Addr> seeds,
             std::span<std::uint32_t> idx, std::span<std::uint32_t> scratch,
             int depth);

  /// Partitions node `idx` on nybble `split` into the same range of
  /// `scratch` and builds each child there, with the buffers swapped.
  /// `counts`, if given, is the split nybble's histogram over the node.
  void partition(std::span<const v6::net::Ipv6Addr> seeds,
                 std::span<std::uint32_t> idx,
                 std::span<std::uint32_t> scratch, int split,
                 const NybbleHistogram* counts, int depth);

  /// Appends the leaf region of node `idx`, whose exact varying-nybble
  /// mask is `varying`.
  void add_leaf(std::span<const v6::net::Ipv6Addr> seeds,
                std::span<const std::uint32_t> idx,
                const v6::net::Ipv6Addr& varying);

  Options options_;
  std::vector<TreeRegion> regions_;
  std::size_t node_count_ = 0;
};

}  // namespace v6::tga
