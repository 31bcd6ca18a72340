// Thread primitives, the only place the library starts threads (the
// v6lint raw-thread rule, docs/STATIC_ANALYSIS.md): WorkerGroup, an RAII
// batch of worker threads with exception capture, and parallel_for, a
// one-shot loop on a WorkerGroup of its own. A thrown worker never
// terminates the process: the first exception, in spawn order, is
// rethrown on the joining thread. Everything above this layer reasons
// about workers, never about threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

namespace v6::runtime {

/// Thread count used when a caller passes `jobs == 0`: the `V6_JOBS`
/// environment variable if set and positive, else hardware_concurrency
/// (else 1).
unsigned default_jobs();

class WorkerGroup {
 public:
  /// Observer for exceptions join() cannot rethrow (every captured
  /// exception after the first, in spawn order). Arguments: the spawn
  /// index of the failed worker and its captured exception. Runtime
  /// stays observability-free, so callers that want these surfaced
  /// (e.g. through a telemetry sink) install the hook themselves.
  using SuppressedHandler =
      std::function<void(std::size_t worker, const std::exception_ptr&)>;

  WorkerGroup() = default;
  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  /// Joins without rethrowing (std::jthread joins on destruction);
  /// callers that care about worker exceptions must call join().
  ~WorkerGroup() = default;

  /// Starts `fn` on a new thread. Any exception it throws is captured
  /// and rethrown by join(). The error slots live in a deque so their
  /// addresses survive later spawns.
  template <typename Fn>
  void spawn(Fn&& fn) {
    errors_.emplace_back(nullptr);
    std::exception_ptr* slot = &errors_.back();
    threads_.emplace_back([slot, f = std::forward<Fn>(fn)]() mutable {
      try {
        f();
      } catch (...) {
        *slot = std::current_exception();
      }
    });
  }

  /// Installs the observer for suppressed exceptions (replacing any
  /// previous one). Runs on the joining thread, after every worker has
  /// joined, once per exception join() discards.
  void on_suppressed(SuppressedHandler handler) {
    on_suppressed_ = std::move(handler);
  }

  /// Joins every worker, then rethrows the first captured exception in
  /// spawn order (deterministic: independent of which worker failed
  /// first on the wall clock). Exceptions after the first cannot
  /// propagate — only one can be in flight — so they are reported to
  /// the on_suppressed() hook (if any) before being discarded, never
  /// silently lost. The group is reusable afterwards.
  void join() {
    for (std::jthread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    std::exception_ptr first;
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      if (!errors_[i]) continue;
      if (!first) {
        first = errors_[i];
      } else if (on_suppressed_) {
        on_suppressed_(i, errors_[i]);
      }
    }
    errors_.clear();
    if (first) std::rethrow_exception(first);
  }

 private:
  SuppressedHandler on_suppressed_;
  // Declared before threads_, so a group destroyed without join() joins
  // its workers while their error slots still exist.
  std::deque<std::exception_ptr> errors_;
  std::vector<std::jthread> threads_;
};

/// Runs `fn(i)` for every `i` in `[0, n)` and returns when all have
/// finished. `jobs == 0` means default_jobs(); with `jobs <= 1` or
/// `n <= 1` the loop runs inline. Otherwise the caller and
/// min(jobs - 1, n - 1) workers claim indices from one counter, so
/// iterations start in index order and an uneven workload never idles
/// a thread. Iterations must be independent, each writing only its own
/// slot (docs/ALGORITHMS.md, "Parallel experiment execution"). Every
/// call owns its threads, so nested calls cannot deadlock. Once an
/// iteration has thrown, no thread claims another; after the join the
/// caller's own exception is rethrown if it has one, else the first
/// worker's in spawn order.
template <typename Fn>
void parallel_for(unsigned jobs, std::size_t n, Fn&& fn) {
  if (jobs == 0) jobs = default_jobs();
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  auto run = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  };
  WorkerGroup workers;
  const std::size_t helpers = std::min<std::size_t>(jobs - 1, n - 1);
  for (std::size_t h = 0; h < helpers; ++h) workers.spawn(run);
  try {
    run();
  } catch (...) {
    try {
      workers.join();
    } catch (...) {
      // The caller's own exception wins; the workers' are dropped.
    }
    throw;
  }
  workers.join();
}

}  // namespace v6::runtime
