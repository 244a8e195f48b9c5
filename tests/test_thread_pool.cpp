#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace eotora::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t count = 1000;
  std::vector<std::atomic<int>> hits(count);
  pool.parallel_for_index(count, pool.size(),
                          [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ResultsByIndexAreOrderIndependent) {
  ThreadPool pool(3);
  std::vector<std::size_t> out(257);
  pool.parallel_for_index(out.size(), pool.size(),
                          [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, MaxWorkersOneIsSerialInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(16);
  pool.parallel_for_index(ran.size(), 1, [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for_index(0, pool.size(), [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_index(4, 0, [](std::size_t) {}),
               std::invalid_argument);
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for_index(64, pool.size(), [&](std::size_t i) {
      if (i == 13) throw std::runtime_error("boom");
      ++completed;
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom");
  }
  // Every other index still ran (the pool drains the index space).
  EXPECT_EQ(completed.load(), 63);
}

// Two indices fail on two workers: the high one at once, the low one only
// after it. The low one's error is rethrown, as a serial loop would throw
// it, not the first to complete.
TEST(ThreadPool, RethrowsTheLowestFailingIndex) {
  ThreadPool pool(2);
  std::atomic<bool> high_failed{false};
  try {
    pool.parallel_for_index(2, 2, [&](std::size_t i) {
      if (i == 1) {
        high_failed = true;
        throw std::runtime_error("high");
      }
      // Bounded: one worker may take both indices, index 0 first.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (!high_failed && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error("low");
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "low");
  }
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for_index(100, pool.size(), [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, StressTinyJobsDoNotRaceJobLifetime) {
  // Regression for a use-after-free: the caller could pass the completion
  // wait and destroy the stack-allocated job while a worker still held a
  // reference to it (after popping a seat it had not yet drained, or between
  // publishing the final done-count and notifying). Tiny index spaces make
  // the caller usually drain everything itself while seats are still in
  // flight, which is exactly that window; run under TSan/ASan to be sure.
  ThreadPool pool(4);
  for (int round = 0; round < 3000; ++round) {
    std::atomic<std::size_t> sum{0};
    const std::size_t count = 1 + static_cast<std::size_t>(round % 4);
    pool.parallel_for_index(count, pool.size(),
                            [&](std::size_t i) { sum += i + 1; });
    EXPECT_EQ(sum.load(), count * (count + 1) / 2) << round;
  }
}

TEST(ThreadPool, SharedPoolIsAProcessSingleton) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
  std::atomic<std::size_t> sum{0};
  a.parallel_for_index(10, a.size(), [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPool, MoreWorkersRequestedThanPoolHasIsClamped) {
  ThreadPool pool(2);
  std::vector<int> out(33, 0);
  pool.parallel_for_index(out.size(), 64, [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 33);
}

}  // namespace
}  // namespace eotora::util
