// Small fixed-size thread pool for data-parallel loops.
//
// The batched inference engine (bnn/batch_runner) and the packed GEMM
// kernels (bnn/packed) shard their outer loops over this pool. Design
// points:
//
//  * `threads` is the total concurrency including the calling thread, so
//    ThreadPool(1) spawns nothing and parallel_for runs inline -- the
//    deterministic single-threaded mode tests compare against.
//  * parallel_for hands out contiguous [begin, end) chunks through an
//    atomic cursor, so uneven per-item cost (e.g. conv vs dense layers)
//    load-balances without a scheduler.
//  * parallel_for is re-entrant: a caller waiting for its chunks helps
//    drain the pool's task queue, so nested invocations (e.g. a noise
//    Monte-Carlo repetition that itself shards crossbar steps) cannot
//    deadlock the pool.
//  * parallel_for is also safe for *concurrent independent callers*: each
//    invocation owns its private cursor/latch state and only shares the
//    task queue, and a waiting caller will help run another invocation's
//    chunks. This is the contract the serving layer (serve::Gateway)
//    relies on -- its batch workers fan batches into one shared pool
//    while mapped executors nest crossbar-shard loops into the same pool.
//  * The first exception thrown by any chunk is rethrown on the calling
//    thread after all workers drain; an exception in one invocation never
//    leaks into a concurrent one.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace eb {

// Concurrency used when a caller asks for "default" threads (0): the
// EB_THREADS environment variable when set to a positive integer, else
// std::thread::hardware_concurrency(). EB_THREADS is how CI pins every
// default-sized pool in the process to a fixed width and asserts that
// results do not depend on it.
[[nodiscard]] std::size_t default_thread_count();

class ThreadPool {
 public:
  // `threads` = total concurrency (callers + workers); 0 picks
  // default_thread_count(). ThreadPool(1) is fully inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total concurrency (worker threads + the calling thread).
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  // Runs body(chunk_begin, chunk_end) over a partition of [begin, end)
  // into chunks of at most `grain` items. Blocks until every chunk has
  // run; rethrows the first chunk exception.
  void parallel_for(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace eb
