// Target Generation Algorithm (TGA) interface.
//
// A TGA ingests seed addresses and produces new candidate addresses to
// probe. Offline generators derive everything from the seeds; online
// generators additionally adapt to scan feedback delivered through
// observe() between batches (paper §2.1).
//
// TargetGeneratorBase's emitted set doubles as the online generators'
// route table: emit() files a 64-bit feedback route with an address
// (the region that produced it), and observe() takes it back once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "check/contracts.h"
#include "net/addr_index.h"
#include "net/ipv6.h"
#include "net/rng.h"
#include "net/service.h"
#include "tga/seed_index.h"

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

  /// Resets the generator and trains it on `index`, which it borrows
  /// instead of copying the seeds: generators trained on one index share
  /// its membership table and space trees. The index must outlive the
  /// generator's use of it (until the next prepare) and change only as
  /// absorb_seeds() states. The default forwards to
  /// prepare(index.seeds(), rng_seed), which copies.
  virtual void prepare_shared(const SeedIndex& index, std::uint64_t rng_seed) {
    prepare(index.seeds(), rng_seed);
  }

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
  ///
  /// Who adds `added` to the seed set: after prepare_shared(), the
  /// index's owner has already added it (SeedIndex::add) and `added`
  /// lists only the addresses that call appended; after prepare(), the
  /// generator appends to its private index itself, skipping known seeds.
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

/// Common bookkeeping shared by all concrete generators: the seed index
/// (borrowed, or private to the generator), the set of already-emitted
/// addresses (a generator never repeats itself) with each one's feedback
/// route, and a deterministic RNG.
class TargetGeneratorBase : public TargetGenerator {
 public:
  /// Trains on a private index over a copy of `seeds`.
  void prepare(std::span<const v6::net::Ipv6Addr> seeds,
               std::uint64_t rng_seed) final {
    auto own = std::make_unique<SeedIndex>(
        std::vector<v6::net::Ipv6Addr>(seeds.begin(), seeds.end()));
    index_ = own.get();
    own_index_ = std::move(own);
    reset(rng_seed);
  }

  void prepare_shared(const SeedIndex& index, std::uint64_t rng_seed) final {
    index_ = &index;
    own_index_.reset();
    reset(rng_seed);
  }

 protected:
  /// Build the generator-specific model from seed_index().
  virtual void reset_model() = 0;

  const SeedIndex& seed_index() const { return *index_; }
  std::span<const v6::net::Ipv6Addr> seeds() const { return index_->seeds(); }

  /// The seed-set half of absorb_seeds: returns how many of `added` are
  /// new seeds, appending them first if the index is private. Never
  /// touches the emitted set or the RNG, so accumulated generator state
  /// survives the delta.
  std::size_t absorb_into_index(std::span<const v6::net::Ipv6Addr> added) {
    return own_index_ != nullptr ? own_index_->add(added) : added.size();
  }

  /// Stored for an address emitted without a route, and once its route
  /// is taken or dropped. A route a generator files must differ from it.
  static constexpr std::uint64_t kNoRoute = ~std::uint64_t{0};

  /// Appends `addr` to `out` if it is neither a seed nor already emitted,
  /// filing `route` for take_route(addr). Returns true if appended.
  bool emit(const v6::net::Ipv6Addr& addr, std::vector<v6::net::Ipv6Addr>& out,
            std::optional<std::uint64_t> route = std::nullopt) {
    V6_REQUIRE_MSG(route != kNoRoute, "kNoRoute cannot be a feedback route");
    const auto emitted = v6::net::key_in(emitted_addrs_);
    if (index_->contains(addr) ||
        !emitted_.insert(addr, emitted_addrs_.size(), emitted).second) {
      return false;
    }
    emitted_addrs_.push_back(addr);
    routes_.push_back(route.value_or(kNoRoute));
    out.push_back(addr);
    return true;
  }

  /// The route emit() filed with `addr`, at most once: nullopt when
  /// `addr` was not emitted since the last prepare, carried no route, or
  /// its route was taken or dropped already.
  std::optional<std::uint64_t> take_route(const v6::net::Ipv6Addr& addr) {
    const std::optional<std::uint32_t> pos =
        emitted_.find(addr, v6::net::key_in(emitted_addrs_));
    if (!pos.has_value()) return std::nullopt;
    const std::uint64_t route = std::exchange(routes_[*pos], kNoRoute);
    if (route == kNoRoute) return std::nullopt;
    return route;
  }

  /// Drops every route not yet taken; the addresses stay emitted.
  void drop_routes() { std::fill(routes_.begin(), routes_.end(), kNoRoute); }

  v6::net::Rng rng_;

 private:
  void reset(std::uint64_t rng_seed) {
    emitted_.clear();
    emitted_addrs_.clear();
    routes_.clear();
    rng_ = v6::net::make_rng(rng_seed, v6::net::splitmix64(name().size()));
    reset_model();
  }

  std::unique_ptr<SeedIndex> own_index_;
  const SeedIndex* index_ = nullptr;
  /// Every address emitted since the last prepare, in emission order,
  /// indexed by emitted_; routes_[i] is emitted_addrs_[i]'s route.
  v6::net::AddrIndex emitted_;
  std::vector<v6::net::Ipv6Addr> emitted_addrs_;
  std::vector<std::uint64_t> routes_;
};

}  // namespace v6::tga
