// WorkerGroup: an RAII batch of worker threads with exception capture.
//
// The streaming scanner spawns its shard workers through this instead
// of raw std::jthread so that (a) a thrown worker never terminates the
// process — the first exception, in spawn order, is rethrown on the
// joining thread — and (b) thread creation stays inside src/runtime/,
// where the v6lint raw-thread rule confines it
// (docs/STATIC_ANALYSIS.md). Everything above this layer reasons about
// workers, never about threads.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

namespace v6::runtime {

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

  std::size_t size() const { return threads_.size(); }

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
  std::vector<std::jthread> threads_;
  std::deque<std::exception_ptr> errors_;
  SuppressedHandler on_suppressed_;
};

}  // namespace v6::runtime
