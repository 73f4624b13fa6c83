// Fixed-size worker-thread pool with a parallel-for helper.
//
// This is the repository's only threading primitive, and it comes with a
// determinism contract that every parallel subsystem must follow: a
// `parallel_for` body writes results *only* through its own index (or into
// per-index slots sized up front), so the outcome is bit-identical
// regardless of the pool's thread count — including zero threads, where
// the loop runs inline on the caller. Work distribution (who computes
// which index, and when) is the only thing threads may change.
//
// The pool is deliberately simple: a mutex-guarded task queue, no
// work stealing, no futures. Parallel callers block until their range
// completes; the calling thread participates in the work, so a pool is
// never slower than the serial loop by more than scheduling overhead.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <deque>
#include <thread>
#include <vector>

namespace crp {

class ThreadPool {
 public:
  /// `num_threads` worker threads. 0 means no workers: all work submitted
  /// through `parallel_for` runs inline on the calling thread.
  explicit ThreadPool(std::size_t num_threads);

  /// One worker per hardware thread.
  ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers (pending parallel_for calls finish first).
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Calls `body(i)` for every i in [begin, end), distributing chunks of
  /// the range across the workers and the calling thread. Blocks until
  /// the whole range is done. If any invocation throws, the first
  /// exception (in completion order) is rethrown on the caller once every
  /// participant has drained; the throwing participant skips the rest of
  /// its current chunk, so which trailing indices ran is unspecified (no
  /// index ever runs twice).
  ///
  /// Determinism: absent exceptions, every index is executed exactly
  /// once, but in no guaranteed order and on no guaranteed thread. Bodies
  /// must write only to per-index state for thread-count-independent
  /// results.
  ///
  /// Reentrancy: a parallel_for issued from a body already running on any
  /// participant of this pool's range — a worker, or the calling thread
  /// while it works its own share — executes the nested range inline. No
  /// participant ever blocks on the queue the pool drains, so nesting
  /// cannot deadlock, and the caller never waits for workers busy with
  /// its own outer range.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Process-wide default pool (one worker per hardware thread),
  /// constructed on first use. Safe because every user follows the
  /// determinism contract: sharing the pool affects scheduling only.
  [[nodiscard]] static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace crp
