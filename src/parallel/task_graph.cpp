#include "parallel/task_graph.h"

#include <atomic>
#include <cassert>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>

#include "common/timer.h"
#include "obs/trace.h"

namespace ls3df {

int TaskGraph::add(std::function<void()> fn, const std::vector<int>& deps) {
  const int id = static_cast<int>(tasks_.size());
  tasks_.push_back(Node{std::move(fn), {}, 0});
  for (int d : deps) {
    assert(d >= 0 && d < id);
    tasks_[d].dependents.push_back(id);
    ++tasks_[id].n_deps;
  }
  return id;
}

void TaskGraph::set_task_observer(
    std::function<void(int, double, double)> observer) {
  observer_ = std::move(observer);
}

double TaskGraph::run(ThreadPool& pool, int max_lanes) {
  const int n = size();
  if (n == 0) return 0.0;
  Timer clock;  // run-relative time of every timestamp below
  const int lanes = max_lanes > 0 ? max_lanes : pool.thread_count() + 1;

  // All scheduling state lives on the runner's stack; tasks posted to
  // the pool hold references into it. run() returns only once every
  // posted task has retired (inflight == 0) and the last one has stored
  // `finished`, its final access to this state, so nothing dangles —
  // even on the failure path, where already-posted tasks run their skip
  // branch before the runner wakes.
  struct RunState {
    std::mutex mu;
    std::vector<int> ready;     // armed, not yet claimed (LIFO stack)
    std::vector<int> deps_left;
    std::vector<double> claimed_at;  // run-relative claim time per task
    double handoff_s = 0;       // see TaskGraph::run in the header
    double done_at = 0;         // release time of the task that finished
    int remaining = 0;          // tasks that have not finished their fn
    int inflight = 0;           // claimed (posted or executing) tasks
    bool abandoned = false;
    std::exception_ptr error;
    std::atomic<bool> finished{false};
  } st;
  st.deps_left.resize(n);
  st.claimed_at.resize(n);
  st.remaining = n;
  for (int i = 0; i < n; ++i) {
    st.deps_left[i] = tasks_[i].n_deps;
    if (st.deps_left[i] == 0) st.ready.push_back(i);
  }

  // Claim ready tasks up to the lane cap; returns them for posting
  // outside the lock. Claiming increments inflight, so "queue empty and
  // graph unfinished" implies every claimed task is running on some
  // thread — the invariant that makes help_while's sleep safe.
  // The ready set is a stack: newly armed successors are claimed before
  // older roots, so execution runs depth-first down chains. That bounds
  // the live working set (a chain's intermediates die before the next
  // chain opens) and keeps pipelines interleaved — phase windows overlap
  // even when a single lane serializes the whole graph.
  // `now` stamps the claim: the hand-off into a task is measured from it.
  const auto claim = [&](std::unique_lock<std::mutex>&, double now) {
    std::vector<int> out;
    while (!st.abandoned && st.inflight < lanes && !st.ready.empty()) {
      out.push_back(st.ready.back());
      st.ready.pop_back();
      st.claimed_at[out.back()] = now;
      ++st.inflight;
    }
    return out;
  };

  // `pooled`: the task was dequeued from the pool (posted), not run
  // inline by the runner.
  std::function<void(int, bool)> exec = [&](int id, bool pooled) {
    // Once completion is published below, the runner may return and
    // destroy this closure; nothing may read captures after that point,
    // so take the pool address into a local up front.
    ThreadPool* const pool_ptr = &pool;
    bool skip;
    {
      std::unique_lock<std::mutex> lock(st.mu);
      skip = st.abandoned;
    }
    bool ok = false;
    double t0 = 0, t1 = 0;
    if (!skip) {
      // The pool lane-activity span of a posted task (ThreadPool::post).
      // It closes at the end of this block, before completion is
      // published: after that the runner may return and its caller free
      // the trace recorder.
      std::optional<TraceSpan> lane_span;
      if (pooled) lane_span.emplace("pool.task", TraceCat::kPool);
      t0 = clock.seconds();
      try {
        tasks_[id].fn();
        t1 = clock.seconds();
        ok = true;
      } catch (...) {
        std::unique_lock<std::mutex> lock(st.mu);
        if (!st.error) st.error = std::current_exception();
        st.abandoned = true;
        st.ready.clear();
      }
      if (ok && observer_) observer_(id, t0, t1);
    }
    std::vector<int> to_post;
    bool done;
    {
      std::unique_lock<std::mutex> lock(st.mu);
      // The lane is released here: it handed off from its claim to t0 and
      // from t1 (observer, lock) to now.
      const double now = clock.seconds();
      --st.inflight;
      if (ok) {
        st.handoff_s += (t0 - st.claimed_at[id]) + (now - t1);
        --st.remaining;
        if (!st.abandoned)
          for (int d : tasks_[id].dependents)
            if (--st.deps_left[d] == 0) st.ready.push_back(d);
      }
      to_post = claim(lock, now);
      done = st.remaining == 0 || (st.abandoned && st.inflight == 0);
      if (done) st.done_at = now;
    }
    // `done` implies to_post is empty (nothing is claimable once the
    // graph finished), so the closure reads below happen only while the
    // graph — and therefore this closure — is still alive.
    for (int next : to_post)
      pool_ptr->post([&exec, next]() { exec(next, true); });
    if (done) {
      // Publish completion only after st.mu is released: once `finished`
      // reads true the runner may return and its stack (st, this
      // closure) be reused, so this store is the last touch of either.
      // Then wake the runner (wake() takes the pool lock; taking it while
      // holding st.mu would invert the order help_while uses) — locals
      // only from here on.
      st.finished.store(true, std::memory_order_release);
      pool_ptr->wake();
    }
  };

  std::vector<int> first;
  {
    std::unique_lock<std::mutex> lock(st.mu);
    first = claim(lock, 0.0);  // roots hand off from run() entry
  }
  // Keep one initial task for the runner itself: help_while executes it
  // immediately instead of round-tripping through the queue.
  for (std::size_t i = 1; i < first.size(); ++i) {
    const int next = first[i];
    pool.post([&exec, next]() { exec(next, true); });
  }
  if (!first.empty()) exec(first[0], false);
  pool.help_while(
      [&st]() { return st.finished.load(std::memory_order_acquire); });
  if (st.error) std::rethrow_exception(st.error);
  // The runner's own hand-off: from the final release to its wake-up.
  return st.handoff_s + (clock.seconds() - st.done_at);
}

}  // namespace ls3df
