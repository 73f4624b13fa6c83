#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace crp {
namespace {

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.size(), 0u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ThreadPool pool{threads};
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, EmptyAndSingletonRanges) {
  ThreadPool pool{2};
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 7u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ResultsIndependentOfThreadCount) {
  // The determinism contract: per-index output slots make the result a
  // pure function of the input, whatever the pool size.
  const auto compute = [](ThreadPool& pool) {
    std::vector<double> out(500);
    pool.parallel_for(0, out.size(), [&](std::size_t i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < 50; ++j) {
        acc += static_cast<double>(i * 31 + j * 7 % 13);
      }
      out[i] = acc;
    });
    return out;
  };
  ThreadPool inline_pool{0};
  const auto reference = compute(inline_pool);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ThreadPool pool{threads};
    EXPECT_EQ(compute(pool), reference) << threads << " threads";
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(
      pool.parallel_for(0, hits.size(),
                        [&](std::size_t i) {
                          hits[i].fetch_add(1);
                          if (i == 13) throw std::runtime_error{"boom"};
                        }),
      std::runtime_error);
  // No index ran twice; indices after the throwing one in its chunk are
  // skipped, so some may not have run at all.
  for (const auto& h : hits) EXPECT_LE(h.load(), 1);
  EXPECT_EQ(hits[13].load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineOnWorkers) {
  ThreadPool pool{2};
  std::vector<std::atomic<int>> hits(32 * 16);
  pool.parallel_for(0, 32, [&](std::size_t i) {
    pool.parallel_for(0, 16, [&](std::size_t j) {
      hits[i * 16 + j].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineOnCaller) {
  // The sharded write path: an outer range over shards, each shard
  // issuing its own nested range on the same pool. With one worker busy
  // on the outer range, a nested call from the caller's share must run
  // inline — were it to enqueue a helper, the caller would wait for the
  // worker to finish its whole outer index first. The worker's body
  // waits (bounded) for the caller's nested call to return.
  ThreadPool pool{1};
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker_in{false};
  std::atomic<bool> nested_done{false};
  std::atomic<bool> worker_saw_nested{false};
  const auto wait_for = [](const std::atomic<bool>& flag) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{5};
    while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    return flag.load();
  };
  pool.parallel_for(0, 2, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) {
      worker_in = true;
      worker_saw_nested = wait_for(nested_done);
      return;
    }
    // Let the worker claim the other index before nesting.
    (void)wait_for(worker_in);
    std::atomic<int> inner{0};
    pool.parallel_for(0, 4, [&](std::size_t) { inner.fetch_add(1); });
    EXPECT_EQ(inner.load(), 4);
    nested_done = true;
  });
  EXPECT_TRUE(worker_in.load());
  EXPECT_TRUE(worker_saw_nested.load())
      << "the caller's nested parallel_for waited on the busy worker";
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool{3};
  std::size_t total = 0;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::size_t> out(97);
    pool.parallel_for(0, out.size(), [&](std::size_t i) { out[i] = i; });
    total += std::accumulate(out.begin(), out.end(), std::size_t{0});
  }
  EXPECT_EQ(total, 20u * (96u * 97u / 2u));
}

TEST(ThreadPoolTest, SharedPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().size(), 1u);
}

TEST(ThreadPoolTest, ZeroAndOneItemRangesAcrossPoolSizes) {
  // Degenerate ranges on every pool shape the serving paths use —
  // batch queries routinely submit empty or singleton client lists.
  for (const std::size_t threads : {0u, 1u, 4u}) {
    ThreadPool pool{threads};
    std::atomic<int> calls{0};
    pool.parallel_for(0, 0, [&](std::size_t) { calls.fetch_add(1); });
    pool.parallel_for(9, 9, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
    pool.parallel_for(3, 4, [&](std::size_t i) {
      EXPECT_EQ(i, 3u);
      calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 1);
  }
}

TEST(ThreadPoolTest, ConcurrentNestedParallelForFromExternalThreads) {
  // The concurrent-serving read path has N reader threads each driving
  // batch queries through one shared pool, and those batch kernels
  // issue their own nested parallel_for — so the pool must serve
  // overlapping parallel_for calls from external threads, with nesting,
  // without losing or duplicating an index. Zero- and one-item inner
  // ranges ride along (empty batches inside readers).
  ThreadPool pool{2};
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 8;
  std::vector<std::atomic<int>> hits(kReaders * kOuter * kInner);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; round < 10; ++round) {
        pool.parallel_for(0, kOuter, [&](std::size_t i) {
          pool.parallel_for(0, 0, [&](std::size_t) { std::abort(); });
          pool.parallel_for(0, kInner, [&](std::size_t j) {
            hits[(r * kOuter + i) * kInner + j].fetch_add(1);
          });
          pool.parallel_for(5, 6, [&](std::size_t s) {
            if (s != 5) std::abort();
          });
        });
      }
    });
  }
  for (auto& t : readers) t.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 10);
}

}  // namespace
}  // namespace crp
