// ThreadPool barrier semantics: every index runs exactly once, whether
// parallel_for seeds it or the caller does, steals actually happen under
// skew, and a barrier where several lanes throw hands back a clean epoch —
// first exception rethrown, the rest counted, the pool reusable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace pregel {
namespace {

// parallel_for seeds index i onto lane i % lanes: fewer indices than lanes
// leave some lanes empty, more wrap around them.
TEST(ThreadPool, ParallelForRunsEveryIndexOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{1}, std::size_t{pool.size() - 1}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i << " of " << n;
  }
}

TEST(ThreadPool, ParallelStealRunsEveryItemExactlyOnce) {
  ThreadPool pool(4);
  // Skewed seed: lane 0 owns almost everything, others nearly dry.
  std::vector<std::vector<std::size_t>> queues(pool.size());
  std::size_t next = 0;
  for (int i = 0; i < 300; ++i) queues[0].push_back(next++);
  for (std::size_t l = 1; l < queues.size(); ++l) queues[l].push_back(next++);

  std::vector<std::atomic<int>> hits(next);
  const auto outcome = pool.parallel_steal(std::move(queues), [&](std::size_t i) {
    hits[i].fetch_add(1);
    // Make items slow enough that dry lanes outlive their own queues and
    // must steal to contribute (they may still lose every race on an
    // oversubscribed host, hence no hard assertion on `steals`).
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(outcome.steals == 0, outcome.stolen_items == 0);
}

TEST(ThreadPool, ParallelStealSerialFallbackPreservesQueueOrder) {
  ThreadPool pool(1);
  std::vector<std::vector<std::size_t>> queues(1);
  queues[0] = {5, 3, 9, 0};
  std::vector<std::size_t> order;
  const auto outcome =
      pool.parallel_steal(std::move(queues), [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{5, 3, 9, 0}));
  EXPECT_EQ(outcome.steals, 0u);
  EXPECT_EQ(outcome.stolen_items, 0u);
}

// The hot-path bugfix this pins: a barrier where bodies throw on several
// lanes must rethrow exactly one exception, count the others (not silently
// swallow them), and leave the pool reusable.
TEST(ThreadPool, SecondaryExceptionsAreCountedNotSwallowed) {
  ThreadPool pool(4);
  const std::uint64_t before = pool.suppressed_exceptions();
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          ran.fetch_add(1);
                          // Three throwing indices spread across the range so
                          // multiple lanes are likely to hit one.
                          if (i == 3 || i == 23 || i == 47)
                            throw std::runtime_error("boom " + std::to_string(i));
                        }),
      std::runtime_error);
  const std::uint64_t suppressed = pool.suppressed_exceptions() - before;
  EXPECT_LE(suppressed, 2u);  // 3 throwers -> 1 rethrown + at most 2 suppressed

  // Clean-epoch check: the same pool must run the next barrier normally.
  std::vector<std::atomic<int>> hits(32);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SerialPoolRethrowsAndStaysUsable) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(
                   8, [](std::size_t i) { if (i == 2) throw std::logic_error("x"); }),
               std::logic_error);
  int count = 0;
  pool.parallel_for(8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 8);
}

TEST(ThreadPool, StealBarrierExceptionStillCompletesBarrier) {
  ThreadPool pool(3);
  std::vector<std::vector<std::size_t>> queues(pool.size());
  for (std::size_t i = 0; i < 60; ++i) queues[i % 3].push_back(i);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_steal(std::move(queues),
                                   [&](std::size_t i) {
                                     ran.fetch_add(1);
                                     if (i == 10) throw std::runtime_error("steal boom");
                                   }),
               std::runtime_error);
  // Reusable afterwards, in either mode.
  std::vector<std::vector<std::size_t>> q2(pool.size());
  q2[0] = {0, 1, 2, 3};
  std::vector<std::atomic<int>> hits(4);
  pool.parallel_steal(std::move(q2), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

}  // namespace
}  // namespace pregel
