#include "service/incremental_tga.h"

#include <algorithm>
#include <cctype>
#include <chrono>

#include "net/rng.h"
#include "runtime/worker_group.h"

namespace v6::service {

using v6::net::Ipv6Addr;

namespace {

/// Fan-out claim rank: the retrains measured longest go first.
int claim_rank(v6::tga::TgaKind kind) {
  switch (kind) {
    case v6::tga::TgaKind::kSixGraph: return 0;
    case v6::tga::TgaKind::kDet: return 1;
    default: return 2;
  }
}

}  // namespace

IncrementalRoster::IncrementalRoster(std::span<const v6::tga::TgaKind> kinds,
                                     std::uint64_t seed,
                                     v6::obs::Telemetry* telemetry)
    : telemetry_(telemetry) {
  arms_.reserve(kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    std::string timer_name = "service.retrain.";
    for (const char c : v6::tga::to_string(kinds[i])) {
      timer_name += static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    }
    arms_.push_back({.generator = v6::tga::make_generator(kinds[i]),
                     .rng_seed = v6::net::derive_seed(seed, 0x76A0 + i),
                     .timer_name = std::move(timer_name)});
    claim_order_.push_back(i);
  }
  std::ranges::stable_sort(claim_order_, {}, [&](std::size_t i) {
    return claim_rank(kinds[i]);
  });
}

template <typename Fn>
void IncrementalRoster::fan_out(Fn retrain) {
  v6::runtime::parallel_for(0, arms_.size(), [&](std::size_t k) {
    Arm& arm = arms_[claim_order_[k]];
    const auto start = std::chrono::steady_clock::now();
    retrain(arm);
    arm.retrain_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  });
  if (telemetry_ == nullptr) return;
  for (const Arm& arm : arms_) {
    telemetry_->registry().timer(arm.timer_name).record_seconds(
        arm.retrain_seconds);
  }
}

void IncrementalRoster::prepare(std::span<const Ipv6Addr> seeds) {
  ledger_.clear();
  ledger_.add(seeds);
  fan_out([this](Arm& arm) {
    arm.generator->prepare_shared(ledger_, arm.rng_seed);
    arm.incremental_updates = 0;
    arm.full_rebuilds = 0;
  });
}

void IncrementalRoster::ingest(const SeedDelta& delta) {
  // Removals first: they force every arm to rebuild anyway, so fresh
  // additions in the same delta ride along in the retrain.
  const bool removed_any = ledger_.remove(delta.removed);
  const std::size_t added = ledger_.add(delta.added);
  if (!removed_any && added == 0) return;  // delta was a no-op

  // The ledger is read-only from here until the join, apart from the
  // space trees it builds on first request. Addition-only deltas fold in
  // place where the model can (the arms borrow the ledger, which already
  // holds `fresh`); models cannot unlearn, so a removal retrains every
  // arm from the filtered ledger.
  const std::span<const Ipv6Addr> fresh = ledger_.seeds().last(added);
  fan_out([&](Arm& arm) {
    if (!removed_any && arm.generator->absorb_seeds(fresh)) {
      ++arm.incremental_updates;
      return;
    }
    arm.generator->prepare_shared(ledger_, arm.rng_seed);
    ++arm.full_rebuilds;
  });
}

std::uint64_t IncrementalRoster::incremental_updates() const {
  std::uint64_t total = 0;
  for (const Arm& arm : arms_) total += arm.incremental_updates;
  return total;
}

std::uint64_t IncrementalRoster::full_rebuilds() const {
  std::uint64_t total = 0;
  for (const Arm& arm : arms_) total += arm.full_rebuilds;
  return total;
}

}  // namespace v6::service
