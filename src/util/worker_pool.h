// A small reusable worker pool for data-parallel sweeps with
// deterministic work assignment.
//
// The batched WebWave simulator steps millions of independent document
// lanes per diffusion period; the sweep parallelizes trivially, but the
// results must stay bit-identical to the serial path at any thread count
// (the equivalence guarantees of webwave_batch.h are exact, not
// approximate).  ParallelFor therefore uses a *static* partition: the index
// range is split into thread_count() contiguous blocks by pure arithmetic
// (Partition below), so which worker touches which indices never depends on
// scheduling, and workers that write only to their own indices' state
// produce the same bytes in any interleaving.
//
// The pool keeps its threads alive between calls (a batch step at 10⁶
// nodes runs many sweeps per second; re-spawning threads each time would
// dominate), parks them on a condition variable, and runs block 0 on the
// calling thread so a single-threaded pool degrades to a plain loop with
// no synchronization at all.
//
// The callback may throw: the first exception raised in any block is
// captured and rethrown on the submitting thread after every worker has
// finished its block, so a throwing sweep behaves like a throwing serial
// loop instead of terminating the process.  Later exceptions of the same
// sweep are discarded ("first" is first-recorded; with one thread it is
// the serial loop's first, with more it depends on timing — callers that
// need a specific exception should still validate inputs up front, see
// BatchWebWaveSimulator::ApplyDemandEvents).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace webwave {

class WorkerPool {
 public:
  // The sweep callback: fn(worker, begin, end) processes indices
  // [begin, end); `worker` in [0, thread_count()) identifies the block and
  // may be used to index per-worker scratch.
  using Task = std::function<void(int worker, std::size_t begin,
                                  std::size_t end)>;

  // threads <= 0 picks one per hardware thread.  A pool of 1 spawns no
  // threads.
  explicit WorkerPool(int threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int thread_count() const { return threads_; }

  // Runs fn over the static partition of [0, count) into thread_count()
  // blocks and returns when every block is done.  Serial when the pool has
  // one thread or the range is empty.  If fn throws in any block, the
  // first captured exception is rethrown here once the sweep has drained
  // (see file comment).  Not reentrant: fn must not call ParallelFor on
  // the same pool.
  void ParallelFor(std::size_t count, const Task& fn);

  // ParallelFor on a borrowed `pool`, or the single block fn(0, 0, count)
  // when there is none — callers that may or may not hold a pool run the
  // same block code either way.  Blocks(pool) bounds the worker ids fn
  // sees, for sizing per-worker scratch.
  static void ForBlocks(WorkerPool* pool, std::size_t count, const Task& fn);
  static int Blocks(const WorkerPool* pool) {
    return pool != nullptr ? pool->thread_count() : 1;
  }

  // Block `part` of the deterministic partition of [0, count) into `parts`
  // contiguous blocks: [count*part/parts, count*(part+1)/parts).  Block
  // sizes differ by at most one and the union is exactly [0, count).
  static void Partition(std::size_t count, int parts, int part,
                        std::size_t* begin, std::size_t* end);

 private:
  void WorkerMain(int worker);

  int threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const Task* task_ = nullptr;   // valid while a sweep is in flight
  std::size_t task_count_ = 0;   // index range of the current sweep
  std::uint64_t generation_ = 0; // bumped once per sweep
  int pending_ = 0;              // workers still running the current sweep
  bool stopping_ = false;
  std::exception_ptr first_error_;  // first exception of the current sweep
};

}  // namespace webwave
