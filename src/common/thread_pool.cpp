#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace crp {

namespace {

/// Shared state of one parallel_for call. Participants (workers and the
/// caller) grab chunks from `next` until the range is exhausted; the last
/// participant to leave wakes the caller.
struct ForState {
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t)>* body = nullptr;

  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t active = 0;  // participants that have not finished yet
  std::exception_ptr error;

  void run() {
    while (true) {
      const std::size_t lo = next.fetch_add(grain);
      if (lo >= end) break;
      const std::size_t hi = std::min(end, lo + grain);
      try {
        for (std::size_t i = lo; i < hi; ++i) (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock{mu};
        if (!error) error = std::current_exception();
      }
    }
  }

  void participate() {
    run();
    std::lock_guard<std::mutex> lock{mu};
    if (--active == 0) done_cv.notify_all();
  }
};

/// The pool whose range this thread is working on: set for the lifetime
/// of a worker thread, and on a caller while it runs its own share of a
/// parallel_for. A parallel_for issued from inside a body running on any
/// participant of the same pool runs inline instead of enqueueing:
/// workers must never block on the queue they drain, and a caller that
/// enqueued a nested range would wait for workers busy with its outer
/// one.
thread_local const ThreadPool* tl_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::ThreadPool()
    : ThreadPool(std::max(1u, std::thread::hardware_concurrency())) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock{mu_};
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  tl_worker_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock{mu_};
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (workers_.empty() || n == 1 || tl_worker_pool == this) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->next.store(begin);
  state->end = end;
  // Small chunks keep the load balanced when per-index cost varies; the
  // factor keeps chunk-claim contention negligible.
  state->grain = std::max<std::size_t>(1, n / (4 * (workers_.size() + 1)));
  state->body = &body;

  // The caller participates too, so at most `workers` helpers are useful.
  const std::size_t chunks = (n + state->grain - 1) / state->grain;
  const std::size_t helpers = std::min(workers_.size(), chunks);
  state->active = helpers + 1;
  {
    std::lock_guard<std::mutex> lock{mu_};
    for (std::size_t i = 0; i < helpers; ++i) {
      queue_.emplace_back([state] { state->participate(); });
    }
  }
  cv_.notify_all();

  const ThreadPool* const outer = tl_worker_pool;
  tl_worker_pool = this;
  state->run();
  tl_worker_pool = outer;
  {
    std::unique_lock<std::mutex> lock{state->mu};
    if (--state->active == 0) {
      state->done_cv.notify_all();
    } else {
      state->done_cv.wait(lock, [&state] { return state->active == 0; });
    }
  }
  if (state->error) std::rethrow_exception(state->error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace crp
