// Unit tests for the experiment-layer thread pool and parallel_for,
// and for WorkerGroup's exception plumbing (the streaming scanner's
// shard workers lean on it).
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "runtime/worker_group.h"

namespace v6::runtime {
namespace {

TEST(DefaultJobs, IsPositive) { EXPECT_GE(default_jobs(), 1u); }

TEST(ThreadPool, ReportsRequestedParallelism) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4u);
  ThreadPool serial(1);
  EXPECT_EQ(serial.jobs(), 1u);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(3);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, PendingTasksRunBeforeShutdown) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    // Destructor must drain the queue, not drop it.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  parallel_for(pool, kN, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, SlotAssignedOutputMatchesSequential) {
  // The determinism model: each iteration writes only its own slot, so
  // the result must be identical however iterations are scheduled.
  constexpr std::size_t kN = 512;
  std::vector<std::uint64_t> sequential(kN);
  for (std::size_t i = 0; i < kN; ++i) sequential[i] = i * i + 17;

  ThreadPool pool(4);
  std::vector<std::uint64_t> parallel(kN);
  parallel_for(pool, kN, [&](std::size_t i) { parallel[i] = i * i + 17; });
  EXPECT_EQ(parallel, sequential);
}

TEST(ParallelFor, RethrowsFirstBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, std::size_t{100},
                   [&](std::size_t i) {
                     if (i == 13) throw std::runtime_error("iteration 13");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ExceptionStillCompletesLoop) {
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  try {
    parallel_for(pool, std::size_t{200}, [&](std::size_t) {
      visited.fetch_add(1);
      throw std::logic_error("every iteration throws");
    });
    FAIL() << "expected an exception";
  } catch (const std::logic_error&) {
  }
  // At least one iteration ran; the pool is still usable afterwards.
  EXPECT_GE(visited.load(), 1);
  auto future = pool.submit([] { return 1; });
  EXPECT_EQ(future.get(), 1);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  // Every worker (and the caller) runs an outer iteration that itself
  // calls parallel_for on the same pool. Caller participation plus the
  // inline-submit guard means this must finish even though the pool is
  // saturated.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> counts(kOuter * kInner);
  parallel_for(pool, kOuter, [&](std::size_t outer) {
    parallel_for(pool, kInner, [&](std::size_t inner) {
      counts[outer * kInner + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPool, SubmitFromWorkerRunsInline) {
  // pool(2) has exactly one worker; the outer task occupies it, so the
  // inner future can only be satisfied by the inline-submit guard.
  ThreadPool pool(2);
  auto outer = pool.submit([&] {
    EXPECT_TRUE(pool.in_worker());
    auto inner = pool.submit([&] { return 5; });
    return inner.get();
  });
  EXPECT_EQ(outer.get(), 5);
}

TEST(ParallelFor, OneShotOverloadMatchesPoolOverload) {
  constexpr std::size_t kN = 300;
  std::vector<int> a(kN), b(kN);
  parallel_for(1u, kN, [&](std::size_t i) { a[i] = static_cast<int>(i) * 3; });
  parallel_for(4u, kN, [&](std::size_t i) { b[i] = static_cast<int>(i) * 3; });
  EXPECT_EQ(a, b);
}

TEST(ParallelFor, HandlesZeroAndOneIteration) {
  ThreadPool pool(4);
  int calls = 0;
  parallel_for(pool, std::size_t{0}, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(pool, std::size_t{1}, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(WorkerGroupTest, JoinRethrowsFirstExceptionInSpawnOrder) {
  WorkerGroup workers;
  workers.spawn([] { throw std::runtime_error("first"); });
  workers.spawn([] { throw std::logic_error("second"); });
  try {
    workers.join();
    FAIL() << "join() should have rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The group is reusable after a throwing join.
  std::atomic<bool> ran{false};
  workers.spawn([&] { ran = true; });
  workers.join();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace v6::runtime
