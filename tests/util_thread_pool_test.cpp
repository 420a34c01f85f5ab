#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

namespace autolearn::util {
namespace {

TEST(ThreadPool, DefaultSizeAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversAllIndicesOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_chunks(0, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for_chunks(5, 5, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> hits{0};
  pool.parallel_for_chunks(3, 4, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 3u);
    EXPECT_EQ(e, 4u);
    EXPECT_EQ(std::this_thread::get_id(), caller);  // runs inline
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits, 1);
}

TEST(ThreadPool, ParallelForChunksPartitionIsDisjointAndComplete) {
  ThreadPool pool(4);
  // 1000 splits into workers + 1 = 5 chunks of 200. 6 rounds up to chunks
  // of 2, so only 3 chunks exist, and none may be empty.
  for (const auto& [begin, end, parts] :
       {std::tuple{10u, 1010u, 5u}, std::tuple{3u, 9u, 3u}}) {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for_chunks(begin, end, [&](std::size_t b, std::size_t e) {
      std::scoped_lock lock(mu);
      chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    ASSERT_EQ(chunks.size(), parts) << begin << ".." << end;
    EXPECT_EQ(chunks.front().first, begin);
    EXPECT_EQ(chunks.back().second, end);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_LT(chunks[i].first, chunks[i].second);
      if (i > 0) {
        EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
      }
    }
  }
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_chunks(0, 100,
                                        [&](std::size_t b, std::size_t e) {
                                          if (b <= 57 && 57 < e) {
                                            throw std::runtime_error("x");
                                          }
                                        }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<double> v(100000);
  std::iota(v.begin(), v.end(), 1.0);
  std::atomic<long long> sum{0};
  pool.parallel_for_chunks(0, v.size(), [&](std::size_t b, std::size_t e) {
    long long local = 0;
    for (std::size_t i = b; i < e; ++i) local += static_cast<long long>(v[i]);
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum, 100000LL * 100001LL / 2);
}

TEST(ThreadPool, SharedPoolSingleton) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPool, SingleWorkerPoolRunsParallelForInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  // One inline chunk, so the unsynchronized push is safe by construction.
  pool.parallel_for_chunks(0, 100, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    chunks.emplace_back(b, e);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], std::make_pair(std::size_t{0}, std::size_t{100}));
}

TEST(ThreadPool, ScopedOverrideRedirectsShared) {
  ThreadPool& original = ThreadPool::shared();
  {
    ThreadPool mine(2);
    ThreadPool::ScopedOverride guard(mine);
    EXPECT_EQ(&ThreadPool::shared(), &mine);
    {
      ThreadPool inner(3);
      ThreadPool::ScopedOverride nested(inner);
      EXPECT_EQ(&ThreadPool::shared(), &inner);
    }
    EXPECT_EQ(&ThreadPool::shared(), &mine);  // nesting restores in order
  }
  EXPECT_EQ(&ThreadPool::shared(), &original);
}

TEST(ThreadPool, EnvThreadOverrideParsing) {
  ASSERT_EQ(unsetenv("AUTOLEARN_THREADS"), 0);
  EXPECT_EQ(ThreadPool::env_thread_override(), 0u);
  ASSERT_EQ(setenv("AUTOLEARN_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::env_thread_override(), 3u);
  ASSERT_EQ(setenv("AUTOLEARN_THREADS", "", 1), 0);
  EXPECT_EQ(ThreadPool::env_thread_override(), 0u);
  ASSERT_EQ(setenv("AUTOLEARN_THREADS", "banana", 1), 0);
  EXPECT_EQ(ThreadPool::env_thread_override(), 0u);
  // Only plain digits up to the limit count; everything else reads as
  // unset. -1 and the overflowing value used to parse as SIZE_MAX workers.
  // Parsing only: no pool is built from these values.
  for (const char* bad : {"-1", "+2", " 3", "3x", "99999999999999999999",
                          "257"}) {
    ASSERT_EQ(setenv("AUTOLEARN_THREADS", bad, 1), 0);
    EXPECT_EQ(ThreadPool::env_thread_override(), 0u) << "'" << bad << "'";
  }
  ASSERT_EQ(setenv("AUTOLEARN_THREADS", "256", 1), 0);
  EXPECT_EQ(ThreadPool::env_thread_override(), 256u);
  EXPECT_EQ(ThreadPool::kMaxEnvThreads, 256u);
  ASSERT_EQ(unsetenv("AUTOLEARN_THREADS"), 0);
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirRange) {
  // Regions from different threads serialize on one pool; each caller's
  // every index must still be hit exactly once.
  ThreadPool pool(3);
  constexpr std::size_t kCallers = 3, kRegions = 200, kRange = 97;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kRange));
  std::vector<int> bad(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t r = 0; r < kRegions; ++r) {
        std::vector<int>& h = hits[c];
        std::fill(h.begin(), h.end(), 0);
        // Chunks are disjoint, so unsynchronized writes are race-free.
        pool.parallel_for_chunks(0, kRange, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) ++h[i];
        });
        for (const int x : h) bad[c] += x != 1;
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(bad[c], 0) << "caller " << c;
  }
}

TEST(ThreadPool, ExceptionLeavesThePoolUsable) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_threw{false};
  // The caller's own chunk waits until a worker has thrown, so the
  // exception is known to come from a worker thread.
  EXPECT_THROW(
      pool.parallel_for_chunks(0, 8,
                               [&](std::size_t, std::size_t) {
                                 if (std::this_thread::get_id() == caller) {
                                   while (!worker_threw) {
                                     std::this_thread::yield();
                                   }
                                   return;
                                 }
                                 worker_threw = true;
                                 throw std::runtime_error("worker");
                               }),
      std::runtime_error);
  EXPECT_TRUE(worker_threw);

  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for_chunks(0, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace autolearn::util
