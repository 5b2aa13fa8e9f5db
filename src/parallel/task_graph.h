// Dependency-ordered task execution on a ThreadPool with dynamic
// successor arming.
//
// == Architecture ==
//
// A TaskGraph is a DAG of tasks; run() executes every task exactly once,
// never starting a task before all of its dependencies have finished,
// and running independent tasks concurrently on the pool. Scheduling is
// *dynamic*: every ready task is posted to the pool as its own unit of
// work, and a finishing task arms (posts) exactly the successors its
// completion made ready. No lane ever parks waiting for graph state, so
// task bodies are free to use the pool themselves (parallel_for, nested
// run_batch, ShardComm phases) — a nested helper that steals another
// graph task simply runs it to completion. The ready set is a LIFO
// stack: newly armed successors are claimed before older roots, so
// execution runs depth-first down chains — bounding the live working
// set and keeping pipelines interleaved even when one lane serializes
// the whole graph. The runner participates through
// ThreadPool::help_while, so a 0-thread pool executes the whole graph
// on the calling thread.
//
// `max_lanes` caps how many graph tasks are in flight at once (the
// solver passes its n_workers); the cap changes scheduling only, never
// results — tasks compute pure functions of their inputs and all
// cross-task ordering is carried by the dependency edges.
//
// The completion-callback seam (set_task_observer) reports, for every
// task that ran, its start/end time relative to run() entry. The
// overlapped LS3DF driver (fragment/ls3df.cpp) uses it for per-chain
// phase attribution and the measured overlap fraction; the callback runs
// on the executing lane with no graph lock held and must be thread-safe.
//
// Failure model: the first exception latches, the graph is abandoned
// (tasks not yet started are skipped, dependents never arm), run() waits
// for in-flight tasks to drain and rethrows the latched exception. The
// graph can be run again (run() resets scheduling state, not tasks).
#pragma once

#include <functional>
#include <vector>

#include "parallel/thread_pool.h"

namespace ls3df {

class TaskGraph {
 public:
  // Adds a task depending on the given previously-added task ids; returns
  // the new task's id. Dependencies must be < the new id (no cycles by
  // construction).
  int add(std::function<void()> fn, const std::vector<int>& deps = {});

  int size() const { return static_cast<int>(tasks_.size()); }

  // Completion-callback seam: called after task `id`'s fn returns
  // successfully, with wall seconds relative to run() entry at which the
  // task started (t0) and finished (t1). Invoked from the executing lane
  // with no lock held; must be thread-safe. Persists across runs; pass
  // nullptr to clear.
  void set_task_observer(
      std::function<void(int id, double t0, double t1)> observer);

  // Executes the whole graph; returns when every task has finished (or,
  // on failure, when in-flight tasks drained — then rethrows the first
  // exception; dependents of failed or unfinished tasks never start).
  // max_lanes > 0 caps concurrently-running graph tasks; <= 0 uses the
  // pool width (thread_count() + 1).
  //
  // Returns the hand-off seconds: summed over the tasks that ran, the
  // lane time from the task being claimed to its fn starting (post,
  // queue, notify, wake) plus from its fn returning to its lane being
  // released (observer call, graph lock, arming successors), plus the
  // runner's wait from the final release to its return. Roots count as
  // claimed at run() entry, and a task's release and its successors'
  // claim share one timestamp, so on a single lane the tasks' busy time
  // plus the hand-off tiles run() without overlap.
  double run(ThreadPool& pool, int max_lanes = 0);

 private:
  struct Node {
    std::function<void()> fn;
    std::vector<int> dependents;  // edges to tasks waiting on this one
    int n_deps = 0;
  };
  std::vector<Node> tasks_;
  std::function<void(int, double, double)> observer_;
};

}  // namespace ls3df
