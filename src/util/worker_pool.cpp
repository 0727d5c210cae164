#include "util/worker_pool.h"

#include <algorithm>

#include "util/check.h"

namespace webwave {

WorkerPool::WorkerPool(int threads)
    : threads_(threads > 0
                   ? threads
                   : std::max(1u, std::thread::hardware_concurrency())) {
  // Worker 0 is the calling thread; only blocks 1..threads_-1 need their
  // own thread.
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w)
    workers_.emplace_back([this, w] { WorkerMain(w); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::Partition(std::size_t count, int parts, int part,
                           std::size_t* begin, std::size_t* end) {
  WEBWAVE_REQUIRE(parts >= 1 && part >= 0 && part < parts,
                  "partition block out of range");
  const std::size_t p = static_cast<std::size_t>(part);
  const std::size_t n = static_cast<std::size_t>(parts);
  *begin = count * p / n;
  *end = count * (p + 1) / n;
}

void WorkerPool::ParallelFor(std::size_t count, const Task& fn) {
  if (count == 0) return;
  if (threads_ == 1) {
    fn(0, 0, count);  // a serial loop's exception propagates naturally
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    WEBWAVE_REQUIRE(task_ == nullptr, "ParallelFor is not reentrant");
    task_ = &fn;
    task_count_ = count;
    pending_ = threads_ - 1;
    ++generation_;
  }
  wake_.notify_all();

  std::size_t begin = 0, end = 0;
  Partition(count, threads_, 0, &begin, &end);
  std::exception_ptr error;
  if (begin < end) {
    try {
      fn(0, begin, end);
    } catch (...) {
      error = std::current_exception();
    }
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (error && !first_error_) first_error_ = error;
  done_.wait(lock, [this] { return pending_ == 0; });
  task_ = nullptr;
  // Rethrow the sweep's first exception on the submitting thread, after
  // every block has drained — the pool itself is reusable afterwards.
  if (first_error_) {
    std::exception_ptr rethrow = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(rethrow);
  }
}

void WorkerPool::ForBlocks(WorkerPool* pool, std::size_t count,
                           const Task& fn) {
  if (pool != nullptr)
    pool->ParallelFor(count, fn);
  else if (count > 0)
    fn(0, 0, count);
}

void WorkerPool::WorkerMain(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const Task* task = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock,
                 [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      task = task_;
      count = task_count_;
    }
    std::size_t begin = 0, end = 0;
    Partition(count, threads_, worker, &begin, &end);
    std::exception_ptr error;
    if (begin < end) {
      try {
        (*task)(worker, begin, end);
      } catch (...) {
        error = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      --pending_;
    }
    done_.notify_one();
  }
}

}  // namespace webwave
