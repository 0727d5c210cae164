// WorkerPool: the deterministic static partition must tile the index
// range exactly, every index must be visited exactly once per sweep, and
// the pool must be reusable across many sweeps — the properties the
// batch simulator's bit-identical-at-any-thread-count guarantee rests on.
#include "util/worker_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace webwave {
namespace {

TEST(WorkerPoolPartition, TilesTheRangeExactly) {
  for (const std::size_t count : {0ul, 1ul, 2ul, 7ul, 64ul, 1000ul}) {
    for (const int parts : {1, 2, 3, 8, 16}) {
      std::size_t expected_begin = 0;
      for (int p = 0; p < parts; ++p) {
        std::size_t begin = 0, end = 0;
        WorkerPool::Partition(count, parts, p, &begin, &end);
        EXPECT_EQ(begin, expected_begin) << count << "/" << parts << "#" << p;
        EXPECT_LE(begin, end);
        // Balanced: block sizes differ by at most one.
        EXPECT_LE(end - begin, count / static_cast<std::size_t>(parts) + 1);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, count);
    }
  }
}

TEST(WorkerPoolPartition, RejectsOutOfRangeBlocks) {
  std::size_t b = 0, e = 0;
  EXPECT_THROW(WorkerPool::Partition(10, 0, 0, &b, &e),
               std::invalid_argument);
  EXPECT_THROW(WorkerPool::Partition(10, 4, 4, &b, &e),
               std::invalid_argument);
  EXPECT_THROW(WorkerPool::Partition(10, 4, -1, &b, &e),
               std::invalid_argument);
}

TEST(WorkerPool, VisitsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 3, 8}) {
    WorkerPool pool(threads);
    ASSERT_EQ(pool.thread_count(), threads);
    const std::size_t count = 10007;  // prime: uneven blocks everywhere
    std::vector<std::atomic<int>> visits(count);
    for (auto& v : visits) v.store(0);
    pool.ParallelFor(count, [&](int, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(visits[i].load(), 1) << "threads=" << threads << " i=" << i;
  }
}

TEST(WorkerPool, WorkerIndicesMatchTheStaticPartition) {
  WorkerPool pool(4);
  const std::size_t count = 97;
  std::vector<int> owner(count, -1);
  pool.ParallelFor(count, [&](int worker, std::size_t begin,
                              std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) owner[i] = worker;
  });
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t begin = 0, end = 0;
    WorkerPool::Partition(count, 4, owner[i], &begin, &end);
    EXPECT_TRUE(begin <= i && i < end) << "i=" << i << " owner=" << owner[i];
  }
}

TEST(WorkerPool, ReusableAcrossManySweepsAndEmptyRanges) {
  WorkerPool pool(3);
  long long total = 0;
  for (int sweep = 0; sweep < 200; ++sweep) {
    std::atomic<long long> sum{0};
    const std::size_t count = static_cast<std::size_t>(sweep % 7);  // incl. 0
    pool.ParallelFor(count, [&](int, std::size_t begin, std::size_t end) {
      long long local = 0;
      for (std::size_t i = begin; i < end; ++i)
        local += static_cast<long long>(i) + 1;
      sum.fetch_add(local);
    });
    const long long n = static_cast<long long>(count);
    ASSERT_EQ(sum.load(), n * (n + 1) / 2) << "sweep " << sweep;
    total += sum.load();
  }
  EXPECT_GT(total, 0);
}

TEST(WorkerPool, MoreThreadsThanWork) {
  WorkerPool pool(8);
  std::vector<std::atomic<int>> visits(3);
  for (auto& v : visits) v.store(0);
  pool.ParallelFor(3, [&](int, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

// A sweep over fewer indices than threads is cut into one-index blocks on
// workers 0..count-1: a one-index sweep never leaves the calling thread,
// and no sweep hands a block to a worker id at or above min(count,
// threads).
TEST(WorkerPool, ShortSweepsRunOnTheCallerAndTheLowestWorkers) {
  for (const int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    std::thread::id ran_on;
    pool.ParallelFor(1, [&](int worker, std::size_t begin, std::size_t end) {
      EXPECT_EQ(worker, 0);
      EXPECT_EQ(begin, 0u);
      EXPECT_EQ(end, 1u);
      ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on, std::this_thread::get_id()) << "threads=" << threads;
    EXPECT_EQ(pool.Parts(1), 1);
    for (const std::size_t count : {2u, 3u, 5u, 9u, 100u}) {
      const int parts = pool.Parts(count);
      EXPECT_EQ(parts, std::min<int>(static_cast<int>(count), threads));
      std::vector<std::atomic<int>> blocks(static_cast<std::size_t>(threads));
      for (auto& b : blocks) b.store(0);
      std::atomic<std::size_t> covered{0};
      pool.ParallelFor(count, [&](int worker, std::size_t begin,
                                  std::size_t end) {
        ASSERT_LT(worker, parts) << "count=" << count;
        blocks[static_cast<std::size_t>(worker)].fetch_add(1);
        covered.fetch_add(end - begin);
      });
      EXPECT_EQ(covered.load(), count);
      for (int w = 0; w < parts; ++w)
        EXPECT_EQ(blocks[static_cast<std::size_t>(w)].load(), 1)
            << "threads=" << threads << " count=" << count << " worker=" << w;
    }
  }
}

TEST(WorkerPool, RethrowsTheFirstWorkerExceptionAndStaysUsable) {
  for (const int threads : {1, 2, 4}) {
    WorkerPool pool(threads);
    // Every range throws; exactly one exception must surface, on the
    // submitting thread, after the sweep has fully quiesced.
    auto boom = [](int, std::size_t begin, std::size_t) {
      throw std::runtime_error("boom " + std::to_string(begin));
    };
    EXPECT_THROW(pool.ParallelFor(64, boom), std::runtime_error)
        << "threads=" << threads;

    // The error must not poison the pool: the next sweep runs normally…
    std::atomic<long long> sum{0};
    pool.ParallelFor(100, [&](int, std::size_t begin, std::size_t end) {
      long long local = 0;
      for (std::size_t i = begin; i < end; ++i)
        local += static_cast<long long>(i);
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 99ll * 100 / 2) << "threads=" << threads;

    // …and a later throwing sweep reports its own error, not a stale one.
    EXPECT_THROW(pool.ParallelFor(8, boom), std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(WorkerPool, ThrowingSweepStillVisitsIndependentRanges) {
  // One range throws; the others' work is not discarded (the sweep always
  // quiesces before rethrowing, so completed ranges have fully executed).
  WorkerPool pool(4);
  const std::size_t count = 1000;
  std::vector<std::atomic<int>> visits(count);
  for (auto& v : visits) v.store(0);
  EXPECT_THROW(
      pool.ParallelFor(count,
                       [&](int, std::size_t begin, std::size_t end) {
                         if (begin == 0) throw std::runtime_error("range 0");
                         for (std::size_t i = begin; i < end; ++i)
                           visits[i].fetch_add(1);
                       }),
      std::runtime_error);
  int visited = 0;
  for (auto& v : visits) visited += v.load();
  // All ranges except the throwing worker's ran to completion.
  std::size_t begin = 0, end = 0;
  WorkerPool::Partition(count, 4, 0, &begin, &end);
  EXPECT_EQ(visited, static_cast<int>(count - (end - begin)));
}

TEST(WorkerPool, DefaultPicksAtLeastOneThread) {
  WorkerPool pool(0);
  EXPECT_GE(pool.thread_count(), 1);
  std::atomic<int> ran{0};
  pool.ParallelFor(1, [&](int, std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace webwave
