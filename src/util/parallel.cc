#include "src/util/parallel.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

namespace pvcdb {

namespace {

thread_local bool tls_in_parallel_worker = false;

// Restores the thread-local worker flag on scope exit (the caller of a
// ParallelFor participates in the loop and must unmark itself afterwards).
class ScopedWorkerMark {
 public:
  ScopedWorkerMark() : previous_(tls_in_parallel_worker) {
    tls_in_parallel_worker = true;
  }
  ~ScopedWorkerMark() { tls_in_parallel_worker = previous_; }

 private:
  bool previous_;
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) : owner_pid_(::getpid()) {
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping: ParallelFor joins its own
      // iterations, so any queued task still has a caller waiting on it.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool* ThreadPool::Shared() {
  // A pool inherited across fork() is never used or destroyed: its
  // threads, and the locks they may have held, exist only in the parent.
  static struct Holder {
    ThreadPool* pool =
        new ThreadPool(std::max<size_t>(DefaultThreadCount() - 1, 3));
    ~Holder() {
      if (pool->owner_pid_ == ::getpid()) delete pool;
    }
  } holder;
  return holder.pool->owner_pid_ == ::getpid() ? holder.pool : nullptr;
}

size_t DefaultThreadCount() {
  return std::max<size_t>(std::thread::hardware_concurrency(), 1);
}

size_t ResolveThreadCount(int num_threads) {
  if (num_threads < 0) return DefaultThreadCount();
  return std::max(static_cast<size_t>(num_threads), size_t{1});
}

bool InParallelWorker() { return tls_in_parallel_worker; }

void ParallelFor(int num_threads, size_t n,
                 const std::function<void(size_t)>& fn) {
  size_t threads = std::min(ResolveThreadCount(num_threads), n);
  ThreadPool* pool =
      threads > 1 && !InParallelWorker() ? ThreadPool::Shared() : nullptr;
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared loop state: an atomic iteration counter plus completion
  // bookkeeping. Stack-allocated; the caller does not return before every
  // helper has finished its claimed iterations.
  struct LoopState {
    std::atomic<size_t> next{0};
    std::atomic<bool> cancelled{false};
    std::mutex mutex;
    std::condition_variable done;
    size_t active_helpers = 0;
    std::exception_ptr error;
  } state;

  auto worker = [&state, &fn, n] {
    ScopedWorkerMark mark;
    for (;;) {
      if (state.cancelled.load(std::memory_order_relaxed)) return;
      size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        state.cancelled.store(true, std::memory_order_relaxed);
        std::unique_lock<std::mutex> lock(state.mutex);
        if (!state.error) state.error = std::current_exception();
        return;
      }
    }
  };

  size_t helpers = threads - 1;
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.active_helpers = helpers;
  }
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([&state, &worker] {
      worker();
      std::unique_lock<std::mutex> lock(state.mutex);
      if (--state.active_helpers == 0) state.done.notify_one();
    });
  }
  worker();
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.done.wait(lock, [&state] { return state.active_helpers == 0; });
    if (state.error) std::rethrow_exception(state.error);
  }
}

WorkStealingDeques::WorkStealingDeques(size_t num_workers) {
  deques_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    deques_.push_back(std::make_unique<Deque>());
  }
}

void WorkStealingDeques::Push(size_t worker, uint32_t task) {
  Deque& d = *deques_[worker];
  std::unique_lock<std::mutex> lock(d.mutex);
  d.items.push_back(task);
}

bool WorkStealingDeques::Pop(size_t worker, uint32_t* task) {
  Deque& d = *deques_[worker];
  std::unique_lock<std::mutex> lock(d.mutex);
  if (d.items.empty()) return false;
  *task = d.items.back();
  d.items.pop_back();
  return true;
}

bool WorkStealingDeques::Steal(size_t thief, uint32_t* task) {
  size_t n = deques_.size();
  for (size_t step = 1; step <= n; ++step) {
    Deque& d = *deques_[(thief + step) % n];
    std::unique_lock<std::mutex> lock(d.mutex);
    if (d.items.empty()) continue;
    *task = d.items.front();
    d.items.pop_front();
    return true;
  }
  return false;
}

}  // namespace pvcdb
