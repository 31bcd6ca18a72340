// SeedIndex: one seed set as the generators read it — the seeds in
// order, a membership table (a generator never emits a seed), and the
// space trees the tree-family TGAs split them into, each built at most
// once per SpaceTree::Options.
//
// Whoever owns the dataset owns its index, and every generator trained
// on it borrows it (TargetGenerator::prepare_shared). ScanSession::sweep
// builds one over the seed span it borrows and lends it to every run;
// the service roster's seed ledger is one, lent to every arm. DET and
// 6Graph then share one min-entropy tree, and 6Tree, 6Scan and 6Hit one
// leftmost tree. TargetGenerator::prepare(span) builds a private index
// over a copy of the span.
//
// Threading: seeds(), contains() and tree() may run on any number of
// threads at once. tree() builds lazily: the first caller for an Options
// builds the tree, later callers for the same Options wait for that
// build and share it, and builds for different Options run side by side.
// clear(), add() and remove() change the set and drop every cached tree;
// they must not overlap any other call, and references that tree()
// returned do not survive them.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "net/addr_index.h"
#include "net/ipv6.h"
#include "tga/space_tree.h"

namespace v6::tga {

class SeedIndex {
 public:
  /// An empty index that owns its seeds.
  SeedIndex() = default;
  /// Borrows `seeds`, which must outlive the index and stay unchanged.
  explicit SeedIndex(std::span<const v6::net::Ipv6Addr> seeds);
  /// Owns `seeds`, duplicates included. Only an rvalue binds here; an
  /// lvalue vector converts to a span and is borrowed.
  explicit SeedIndex(std::vector<v6::net::Ipv6Addr>&& seeds);

  SeedIndex(const SeedIndex&) = delete;
  SeedIndex& operator=(const SeedIndex&) = delete;

  /// The seeds in order, duplicates included.
  std::span<const v6::net::Ipv6Addr> seeds() const { return seeds_; }

  bool contains(const v6::net::Ipv6Addr& addr) const {
    return members_.contains(addr, v6::net::key_in(seeds_));
  }

  /// The space tree over seeds() with `options`, built on first request.
  const SpaceTree& tree(const SpaceTree::Options& options) const;

  /// Trees built since the index was made or last changed.
  std::size_t builds() const { return builds_.load(std::memory_order_relaxed); }

  /// Empties the index. A borrowing index owns its seeds from here on.
  void clear();

  /// Appends each address of `added` that is not yet a seed, in order,
  /// each once; returns how many it appended (they are the last ones of
  /// seeds()). A borrowing index first copies the seeds it borrows.
  std::size_t add(std::span<const v6::net::Ipv6Addr> added);

  /// Drops every seed listed in `removed`, keeping the others in order;
  /// returns false, changing nothing, if none of them is a seed. A
  /// borrowing index first copies the seeds it borrows.
  bool remove(std::span<const v6::net::Ipv6Addr> removed);

 private:
  struct CachedTree {
    explicit CachedTree(const SpaceTree::Options& o) : options(o) {}
    SpaceTree::Options options;
    std::once_flag built;
    std::optional<SpaceTree> tree;
  };

  /// Makes the index own its seeds, then drops the cached trees.
  void begin_change();
  /// Refills members_ from seeds_.
  void index_seeds();

  std::vector<v6::net::Ipv6Addr> owned_;
  std::span<const v6::net::Ipv6Addr> seeds_;
  bool borrowed_ = false;
  /// Each distinct seed -> its first position in seeds_.
  v6::net::AddrIndex members_;

  mutable std::mutex trees_mutex_;  // guards the list, not the builds
  mutable std::vector<std::unique_ptr<CachedTree>> trees_;
  mutable std::atomic<std::size_t> builds_{0};
};

}  // namespace v6::tga
