// Target Generation Algorithm (TGA) interface.
//
// A TGA ingests seed addresses and produces new candidate addresses to
// probe. Offline generators derive everything from the seeds; online
// generators additionally adapt to scan feedback delivered through
// observe() between batches (paper §2.1).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "net/addr_index.h"
#include "net/ipv6.h"
#include "net/rng.h"
#include "net/service.h"

namespace v6::dealias {
class OnlineDealiaser;
}

namespace v6::tga {

class TargetGenerator {
 public:
  virtual ~TargetGenerator() = default;

  /// Stable generator name as used in the paper's tables.
  virtual std::string_view name() const = 0;

  /// True if the generator adapts to scan results (online model).
  virtual bool is_online() const { return false; }

  /// Resets the generator and absorbs `seeds`. `rng_seed` makes any
  /// internal randomness deterministic.
  virtual void prepare(std::span<const v6::net::Ipv6Addr> seeds,
                       std::uint64_t rng_seed) = 0;

  /// Produces up to `n` fresh candidate addresses (never a previously
  /// returned address, never a seed). May return fewer only if the
  /// generator's model is exhausted.
  virtual std::vector<v6::net::Ipv6Addr> next_batch(std::size_t n) = 0;

  /// Scan feedback for one generated address. No-op for offline models.
  virtual void observe(const v6::net::Ipv6Addr& addr, bool active) {
    (void)addr;
    (void)active;
  }

  /// Folds newly learned seeds into an already-prepared model without a
  /// full retrain, keeping accumulated state (emitted set, scan
  /// feedback) intact. Returns false when the model cannot ingest a
  /// delta — the default for generators whose structures are derived
  /// once from the complete seed set — in which case the caller must
  /// fall back to prepare() with the merged seed list.
  virtual bool absorb_seeds(std::span<const v6::net::Ipv6Addr> added) {
    (void)added;
    return false;
  }

  /// Generators with integrated online dealiasing (6Sense) borrow the
  /// pipeline's dealiaser to steer away from aliased regions while
  /// generating. Default: ignored.
  virtual void attach_online_dealiaser(v6::dealias::OnlineDealiaser* dealiaser,
                                       v6::net::ProbeType type) {
    (void)dealiaser;
    (void)type;
  }
};

/// Common bookkeeping shared by all concrete generators: the seed set,
/// the set of already-emitted addresses (a generator never repeats
/// itself), and a deterministic RNG.
class TargetGeneratorBase : public TargetGenerator {
 public:
  void prepare(std::span<const v6::net::Ipv6Addr> seeds,
               std::uint64_t rng_seed) final {
    seeds_.assign(seeds.begin(), seeds.end());
    seed_set_.clear();
    seed_set_.reserve(seeds.size());
    for (const v6::net::Ipv6Addr& s : seeds_) seed_set_.insert(s, 0);
    emitted_.clear();
    rng_ = v6::net::make_rng(rng_seed, v6::net::splitmix64(name().size()));
    reset_model();
  }

 protected:
  /// Build the generator-specific model from seeds_ (already populated).
  virtual void reset_model() = 0;

  /// Merges `added` into seeds_/seed_set_, skipping duplicates. Returns
  /// how many were genuinely new. Building block for absorb_seeds
  /// overrides; never touches emitted_ or the RNG, so accumulated
  /// generator state survives the delta.
  std::size_t register_seeds(std::span<const v6::net::Ipv6Addr> added) {
    std::size_t fresh = 0;
    for (const v6::net::Ipv6Addr& addr : added) {
      if (seed_set_.insert(addr, 0)) {
        seeds_.push_back(addr);
        ++fresh;
      }
    }
    return fresh;
  }

  /// Appends `addr` to `out` if it is neither a seed nor already emitted.
  /// Returns true if appended.
  bool emit(const v6::net::Ipv6Addr& addr,
            std::vector<v6::net::Ipv6Addr>& out) {
    if (seed_set_.contains(addr)) return false;
    if (!emitted_.insert(addr, 0)) return false;
    out.push_back(addr);
    return true;
  }

  std::vector<v6::net::Ipv6Addr> seeds_;
  // Flat sets (the mapped index is unused): only ever inserted into and
  // queried, never erased from or iterated.
  v6::net::AddrIndexMap seed_set_;
  v6::net::AddrIndexMap emitted_;
  v6::net::Rng rng_;
};

}  // namespace v6::tga
