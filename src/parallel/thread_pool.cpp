#include "parallel/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "obs/trace.h"

namespace ls3df {

// Shared completion state for one run_batch call. Tasks decrement
// `remaining`; the waiter sleeps on the pool's cv_done_ until it hits 0.
struct ThreadPool::Batch {
  std::atomic<int> remaining{0};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(int n_threads) {
  threads_.reserve(n_threads > 0 ? n_threads : 0);
  for (int t = 0; t < n_threads; ++t)
    threads_.emplace_back([this]() { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

long ThreadPool::tasks_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

void ThreadPool::run_task(const QueueItem& item) {
  // Re-install the submitter's observability context for the duration of
  // the task.
  ObsContextScope obs_scope(item.ctx);
  // A post()ed task owns its lane-activity span (see post()): once it
  // publishes its completion, its submitter may return and free the
  // recorder, so no span may close after item.fn() returns.
  if (!item.batch) {
    item.fn();
    return;
  }
  // A batch task's waiter cannot return before finish_batch_task(), so
  // this span closes while the recorder is still alive. It is recorded
  // only when a recorder is installed (a null check otherwise).
  TraceSpan lane_span("pool.task", TraceCat::kPool);
  Batch* batch = item.batch;
  // Remaining tasks of a failed batch are skipped (but still counted
  // down in finish_batch_task so the waiter can return).
  if (batch->failed.load(std::memory_order_acquire)) return;
  try {
    item.fn();
  } catch (...) {
    std::lock_guard<std::mutex> lock(batch->err_mu);
    if (!batch->error) batch->error = std::current_exception();
    batch->failed.store(true, std::memory_order_release);
  }
}

void ThreadPool::finish_batch_task(Batch* batch) {
  if (!batch) return;
  if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Acquire the pool mutex before notifying: the decrement above is not
    // under the lock, so without this a waiter could evaluate its
    // predicate, miss the notification, and sleep forever.
    std::lock_guard<std::mutex> lock(mu_);
    cv_done_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    QueueItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&]() { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      item = std::move(queue_.front());
      queue_.pop_front();
      ++executed_;
    }
    run_task(item);
    finish_batch_task(item.batch);
  }
}

void ThreadPool::help_until_done(Batch& batch) {
  while (batch.remaining.load(std::memory_order_acquire) > 0) {
    QueueItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (queue_.empty()) {
        // Nothing to steal: sleep until some batch task completes, then
        // re-check both the queue and our batch.
        cv_done_.wait(lock, [&]() {
          return batch.remaining.load(std::memory_order_acquire) == 0 ||
                 !queue_.empty();
        });
        if (batch.remaining.load(std::memory_order_acquire) == 0) return;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      ++executed_;
    }
    run_task(item);
    finish_batch_task(item.batch);
  }
}

void ThreadPool::run_batch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {  // nothing to overlap with: run inline
    tasks.front()();
    return;
  }
  Batch batch;
  batch.remaining.store(static_cast<int>(tasks.size()),
                        std::memory_order_release);
  {
    // Capture the submitting thread's observability context once per
    // batch; each task re-installs it on its executing lane.
    const ObsContext ctx = obs_context();
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& fn : tasks) queue_.push_back(QueueItem{std::move(fn), &batch, ctx});
  }
  cv_work_.notify_all();
  // Also wake helpers parked in help_until_done: their wait predicate
  // includes "queue non-empty" precisely so a nested batch enqueued by a
  // running task recruits them, but they sleep on cv_done_.
  cv_done_.notify_all();
  help_until_done(batch);
  if (batch.error) std::rethrow_exception(batch.error);
}

void ThreadPool::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(QueueItem{std::move(fn), nullptr, obs_context()});
  }
  cv_work_.notify_one();
  // Batch helpers parked in help_until_done sleep on cv_done_ with a
  // "queue non-empty" predicate; a posted task can recruit them too.
  cv_done_.notify_all();
}

void ThreadPool::help_while(const std::function<bool()>& done) {
  for (;;) {
    QueueItem item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&]() { return !queue_.empty() || done(); });
      if (done()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
      ++executed_;
    }
    run_task(item);
    finish_batch_task(item.batch);
  }
}

void ThreadPool::wake() {
  // Lock before notifying so a helper between predicate and sleep cannot
  // miss the wakeup (same discipline as finish_batch_task).
  std::lock_guard<std::mutex> lock(mu_);
  cv_work_.notify_all();
}

ThreadPool& shared_pool() {
  static ThreadPool pool(default_workers() - 1);
  return pool;
}

void parallel_for(int n, int n_workers,
                  const std::function<void(int, int)>& fn) {
  if (n <= 0) return;
  const int lanes = std::min(n_workers, n);
  if (lanes <= 1 || n == 1) {
    for (int i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  // One slot task per lane; indices are claimed dynamically so the load
  // balances even when iteration costs are wildly heterogeneous. Stack
  // captures are safe: run_batch returns only after every task finished.
  std::atomic<int> next{0};
  std::vector<std::function<void()>> tasks;
  tasks.reserve(lanes);
  for (int w = 0; w < lanes; ++w) {
    tasks.emplace_back([&next, n, w, &fn]() {
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        fn(i, w);
      }
    });
  }
  shared_pool().run_batch(std::move(tasks));
}

int default_workers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

}  // namespace ls3df
