// The LS3DF single-node execution engine.
//
// == Architecture ==
//
// The paper (Sec. VI) keeps Ng processor groups persistently busy on
// LPT-balanced fragment work: groups are created once, fragments are
// assigned by the longest-processing-time heuristic (src/parallel/
// scheduler.h), and every outer SCF iteration re-dispatches work onto the
// same groups, so the machine never pays startup or reallocation cost in
// the hot loop. This header is the single-node analogue:
//
//   ThreadPool    persistent worker threads + a condition-variable work
//                 queue. Created once (or via shared_pool()) and reused
//                 across phases, SCF iterations, and solver instances.
//                 Batch submission (run_batch) blocks until the batch
//                 completes, with the *calling thread participating* in
//                 execution, so nested batches can never deadlock and a
//                 batch of N tasks really uses N concurrent lanes.
//
//   parallel_for  the classic index loop, now a thin wrapper that carves
//                 [0, n) into min(n_workers, n) dynamically-balanced slot
//                 tasks on the shared pool. n == 1 or n_workers <= 1 runs
//                 inline with no queue traffic at all.
//
//   TaskGraph     (task_graph.h) dependency-ordered execution on a
//                 ThreadPool with dynamic successor arming, built on the
//                 post / help_while / wake surface below — the engine of
//                 the barrier-free LS3DF iteration (fragment/ls3df.h).
//
// The fragment pipeline (src/fragment/ls3df.cpp) drives all four paper
// phases through this engine: Gen_VF and Gen_dens fan out per fragment /
// per density slab, and PEtot_F runs one solve chain per fragment batch,
// each batch owning a persistent scratch arena (BatchWorkspace) so
// fragment solves allocate nothing after the first outer iteration.
//
// Determinism contract: the engine never changes arithmetic. Every task
// computes a value that depends only on its inputs, and reductions are
// ordered by task index, not completion order, so results are
// bit-identical for any worker count.
//
// Lane donation rides on that contract: because every kernel dispatched
// through this engine is worker-count-invariant, the scheduler's
// LaneBudget (scheduler.h) may widen a running task's lane allowance at
// any sweep boundary — a retiring fragment chain donates its lanes and
// the survivors fan the next parallel_for wider — without perturbing a
// single bit of the result. The pool itself needs no changes for this:
// donation only alters the n_workers argument callers pass in.
//
// Observability rides the queue: every enqueue (run_batch, post)
// captures the submitting thread's ObsContext (obs/context.h) by value,
// and the executing lane re-installs it around the task. Since TaskGraph
// successors are posted from executing tasks, a solver's trace recorder
// and metrics registry follow its work across lanes without any of the
// kernels knowing. The inline fast paths (size-1 run_batch,
// lanes <= 1 parallel_for) run on the submitting thread, where the
// context is already installed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/context.h"

namespace ls3df {

// Persistent pool of worker threads with a shared FIFO work queue.
class ThreadPool {
 public:
  // Spawns `n_threads` background workers (>= 0; a pool with 0 threads is
  // legal — the submitting thread then executes everything in run_batch).
  explicit ThreadPool(int n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(threads_.size()); }

  // Total tasks executed since construction (for reuse diagnostics).
  long tasks_executed() const;

  // Run all tasks and return when every one of them has finished. The
  // calling thread helps execute queued tasks while it waits; tasks may
  // themselves call run_batch (or parallel_for) without deadlocking.
  // The first exception thrown by a task is rethrown here after the
  // whole batch has drained.
  void run_batch(std::vector<std::function<void()>> tasks);

  // Fire-and-forget enqueue: the task runs on some worker (or on a
  // thread draining the queue via help_while / a nested run_batch) and
  // must not throw — there is no waiter to receive the exception. This
  // is the TaskGraph's dynamic-arming primitive: a finishing graph task
  // posts its newly-ready successors instead of parking lanes on them.
  // The pool records no "pool.task" span for a posted task: fn must open
  // its own and close it before publishing its completion, because the
  // waiter may then return and free the trace recorder.
  void post(std::function<void()> fn);

  // Pop and run queued tasks until `done()` returns true, sleeping when
  // the queue is empty. `done` is evaluated under the pool mutex and
  // must not block or take locks (an atomic flag is the intended shape).
  // Whoever flips the flag must call wake() afterwards (without holding
  // locks ordered after the pool's) or the helper may sleep forever.
  // This is how a TaskGraph runner participates in execution: with a
  // 0-thread pool it drains the whole graph itself.
  void help_while(const std::function<bool()>& done);

  // Nudge help_while sleepers to re-check their predicate.
  void wake();

 private:
  struct Batch;

  // One queued task: the callable, its batch (null for post()), and the
  // submitting thread's observability context, re-installed around
  // execution on whichever lane dequeues it.
  struct QueueItem {
    std::function<void()> fn;
    Batch* batch = nullptr;
    ObsContext ctx;
  };

  void worker_loop();
  // Pop-and-run queued tasks until `batch` completes; sleep when the
  // queue is empty.
  void help_until_done(Batch& batch);
  void finish_batch_task(Batch* batch);
  static void run_task(const QueueItem& item);

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  // workers: queue became non-empty
  std::condition_variable cv_done_;  // waiters: a batch task finished
  std::deque<QueueItem> queue_;
  std::vector<std::thread> threads_;
  long executed_ = 0;
  bool stop_ = false;
};

// Process-wide pool with default_workers() - 1 background threads (the
// submitting thread is the remaining lane), created on first use and kept
// alive for the life of the process — the persistent-group model.
ThreadPool& shared_pool();

// Run fn(i, worker) for i in [0, n) with dynamic (atomic-counter) load
// balance across min(n_workers, n) lanes of the shared pool. `worker` is
// the lane index in [0, min(n_workers, n)), stable for the duration of
// the call — per-lane scratch indexed by it is race-free. n <= 1 or
// n_workers <= 1 runs inline on the calling thread.
void parallel_for(int n, int n_workers,
                  const std::function<void(int index, int worker)>& fn);

// Default worker count: hardware concurrency, at least 1.
int default_workers();

}  // namespace ls3df
