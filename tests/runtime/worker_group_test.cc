// Unit tests for src/runtime: parallel_for's claim, thread-count and
// exception rules, and WorkerGroup's exception plumbing (the streaming
// scanner's shard workers lean on it).
#include "runtime/worker_group.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace v6::runtime {
namespace {

TEST(DefaultJobs, IsPositive) { EXPECT_GE(default_jobs(), 1u); }

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  parallel_for(4u, kN, [&](std::size_t i) { counts[i].fetch_add(1); });
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

  std::vector<std::uint64_t> parallel(kN);
  parallel_for(4u, kN, [&](std::size_t i) { parallel[i] = i * i + 17; });
  EXPECT_EQ(parallel, sequential);
}

TEST(ParallelFor, EveryIndexOnceOnAtMostMinJobsNThreads) {
  for (const unsigned jobs : {1u, 2u, 3u, 4u, 8u}) {
    for (const std::size_t n : {0, 1, 2, 3, 7, 64}) {
      const std::string context =
          "jobs=" + std::to_string(jobs) + " n=" + std::to_string(n);
      std::vector<std::atomic<int>> counts(n);
      std::mutex mutex;
      std::set<std::thread::id> threads;
      parallel_for(jobs, n, [&](std::size_t i) {
        counts[i].fetch_add(1);
        const std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(counts[i].load(), 1) << context << " index " << i;
      }
      EXPECT_LE(threads.size(), std::min<std::size_t>(jobs, n)) << context;
      // No thread claims an index once one has thrown, so every thread
      // runs at most one throwing iteration.
      std::atomic<unsigned> ran{0};
      try {
        parallel_for(jobs, n, [&](std::size_t) {
          ran.fetch_add(1);
          throw std::runtime_error("every iteration throws");
        });
        EXPECT_EQ(n, 0u) << context;
      } catch (const std::runtime_error&) {
      }
      EXPECT_LE(ran.load(), jobs) << context;
    }
  }
}

TEST(ParallelFor, RethrowsFirstBodyException) {
  EXPECT_THROW(
      parallel_for(4u, std::size_t{100},
                   [&](std::size_t i) {
                     if (i == 13) throw std::runtime_error("iteration 13");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, RethrowsTheCallersOwnExceptionFirst) {
  // The caller and one worker each claim an index and wait for each
  // other before throwing, so both throw: the caller's exception wins.
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> started{0};
    try {
      parallel_for(2u, std::size_t{2}, [&](std::size_t) {
        started.fetch_add(1);
        while (started.load() < 2) std::this_thread::yield();
        throw std::runtime_error(
            std::this_thread::get_id() == caller ? "caller" : "worker");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "caller") << "round " << round;
    }
  }
}

TEST(ParallelFor, ExceptionStillCompletesLoop) {
  std::atomic<int> visited{0};
  try {
    parallel_for(4u, std::size_t{200}, [&](std::size_t) {
      visited.fetch_add(1);
      throw std::logic_error("every iteration throws");
    });
    FAIL() << "expected an exception";
  } catch (const std::logic_error&) {
  }
  EXPECT_GE(visited.load(), 1);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  // Every outer iteration runs an inner parallel_for. Each call owns its
  // threads, so the inner loops never wait on a saturated outer one.
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> counts(kOuter * kInner);
  parallel_for(4u, kOuter, [&](std::size_t outer) {
    parallel_for(4u, kInner, [&](std::size_t inner) {
      counts[outer * kInner + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "slot " << i;
  }
}

TEST(ParallelFor, HandlesZeroAndOneIteration) {
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  parallel_for(4u, std::size_t{0}, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(4u, std::size_t{1}, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);  // inline, no worker
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
