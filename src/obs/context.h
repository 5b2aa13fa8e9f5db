// Thread-local observability context.
//
// One mechanism carries everything a task needs to observe (or be
// observed by) its owning solver instance: a small POD of pointers that
// is (a) installed on the calling thread via ObsContextScope at solver
// entry points, (b) captured by value when work is enqueued on a
// ThreadPool, and (c) re-installed around each dequeued task. Because
// TaskGraph successors are posted *from* an executing task — which runs
// under the re-installed context — propagation is transitive: every
// pool lane that runs work on behalf of a solver sees that solver's
// context, however deep the post chain.
//
// The same vehicle serves three needs:
//   trace    the per-lane span recorder (obs/trace.h); null = tracing
//            disabled, and every instrumentation site reduces to one
//            thread-local load + null check.
//   metrics  the solver's MetricsRegistry (obs/metrics.h) for
//            counters/histograms recorded from deep call sites
//            (collectives, checkpoints) without plumbing a pointer
//            through every signature.
//   rank     the shard rank on whose behalf this thread is currently
//            executing (Chrome-trace pid). ShardComm::each_rank
//            installs it per simulated rank; SPMD drivers set it once
//            from the transport's self_rank().
//
// The context is deliberately *not* global-by-default: with no scope
// installed, all pointers are null and rank is 0, which is both the
// "observability off" state and the pre-PR-9 behavior.
#pragma once

#include <cstdint>

namespace ls3df {

class TraceRecorder;
class MetricsRegistry;

struct ObsContext {
  TraceRecorder* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
  int rank = 0;
};

// The calling thread's current context (mutable; default-initialized —
// all observability off — until a scope installs one).
inline ObsContext& obs_context() {
  thread_local ObsContext ctx;
  return ctx;
}

// RAII install/restore of the full context on the current thread.
class ObsContextScope {
 public:
  explicit ObsContextScope(const ObsContext& ctx) : saved_(obs_context()) {
    obs_context() = ctx;
  }
  ~ObsContextScope() { obs_context() = saved_; }
  ObsContextScope(const ObsContextScope&) = delete;
  ObsContextScope& operator=(const ObsContextScope&) = delete;

 private:
  ObsContext saved_;
};

// RAII override of just the rank field (ShardComm::each_rank installs
// the simulated rank around each per-rank body so spans and metrics
// recorded inside attribute to the right pid).
class ObsRankScope {
 public:
  explicit ObsRankScope(int rank) : saved_(obs_context().rank) {
    obs_context().rank = rank;
  }
  ~ObsRankScope() { obs_context().rank = saved_; }
  ObsRankScope(const ObsRankScope&) = delete;
  ObsRankScope& operator=(const ObsRankScope&) = delete;

 private:
  int saved_;
};

}  // namespace ls3df
