#pragma once

// === SolverService: a multi-tenant job engine over warm solver instances ===
//
// One Ls3dfSolver scales one solve across lanes and ranks; the service
// layer scales *solves*: many concurrent, heterogeneous LS3DF jobs
// (different structures, divisions, tolerances, priorities) multiplexed
// onto one process's engine. Everything it builds on already exists —
// the service owns policy, not mechanism:
//
//   warm instances   Ls3dfSolver construction is the expensive part
//                    (fragment Hamiltonians and their FFT plans,
//                    transports, workspace arenas). Instances whose job
//                    finished are parked in an idle pool (at most
//                    kMaxWarmInstances, oldest evicted first) keyed by
//                    an exact (structure + structural options) key; a
//                    new job with the same key adopts the parked
//                    instance and only re-points the per-job execution
//                    hooks (set_trace / set_progress / set_lane_allowance
//                    / set_checkpoint — all fingerprint-excluded). Any
//                    plain solve() on an adopted (or failed-attempt)
//                    instance is preceded by Ls3dfSolver::reset_state(),
//                    discarding the previous run's warm wavefunctions,
//                    so reuse cannot change a bit of any result; snapshot
//                    resumes skip the reset (they restore psi wholesale).
//                    Jobs with
//                    caller-supplied closures baked into construction
//                    (transport_factory, on_batch_solve) are never
//                    pooled: closures cannot be compared for equality.
//
//   == job lifecycle ==
//
//     submit() -> kQueued -> kRunning -> kDone
//                               |  ^        \-> (terminal)
//                               v  | recover()+resume()
//                             attempt failed (<= kMaxRetries)
//                               |
//                               v (budget exhausted)
//                             kFailed
//
//     submit() copies the structure and spec and wakes a driver. Each of
//     the max_concurrent driver threads pulls the best pending job:
//     highest priority first, then longest (LPT order — a freeing driver
//     is by construction the least-loaded "group", so pulling the
//     costliest pending job is exactly the assign_fragments greedy of
//     parallel/scheduler.h, which schedule_preview() exposes verbatim),
//     then FIFO. The driver binds an instance, runs the job to a
//     terminal state, parks the instance, and pulls again.
//
//   == lane-sharing rules ==
//
//     The service owns a LaneBudget of total_lanes, armed with no fixed
//     holders. A job join()s the budget while it runs and leave()s when
//     it finishes; its live allowance is max(1, total / live_jobs), which
//     the solver clamps to the job's own n_workers. The solver re-reads
//     the allowance at every outer-iteration boundary
//     (Ls3dfOptions::lane_allowance) and feeds it through its own
//     LaneBudget to every batched kernel sweep, so a finishing job's
//     lanes reach the survivors mid-solve. Worker width is
//     arithmetically invisible (ordered reductions, ordered-commit
//     patching, worker-invariant kernels), so every job's result stays
//     bit-identical to a standalone Ls3dfSolver::solve() with the same
//     options — the service-vs-standalone dimension of the equivalence
//     suite locks this in.
//
//   == retry / warm-start policy ==
//
//     Durability rides on the checkpoint layer: when checkpoint_dir is
//     set, each job snapshots to its own file after every outer
//     iteration. A thrown attempt consumes one retry: the driver first
//     heals the job's transport in place (ProcTransport::recover()
//     respawns dead or lagging workers; a clean transport is an
//     idempotent no-op), rebuilding the instance from scratch only if
//     recovery reports failure, then resumes from the job's newest
//     snapshot (bit-identical continuation) or restarts cold when none
//     exists. After kMaxRetries the job latches kFailed with the last
//     error.
//
//     Completed jobs that checkpointed register their final (converged)
//     snapshot under the solver's state fingerprint. A later job whose
//     fingerprint matches warm-starts by resuming that snapshot —
//     resume() of a converged snapshot short-circuits to the stored
//     result, and of a mid-SCF snapshot continues bit-identically — so
//     warm starts are a pure latency win with no result drift. A
//     snapshot that fails to load (corruption, fingerprint skew) demotes
//     the job to a cold solve instead of failing it.
//
//   == telemetry ==
//
//     Each job gets its own TraceRecorder (job_trace()) and a progress
//     wrapper that counts outer iterations before forwarding to the
//     job's own callback. The service registry holds the job tallies
//     (service.jobs_* and service.warm_instance_hits counters) and the
//     per-job Ls3dfResult::metrics counters aggregated as "jobs.*";
//     write_service_json() emits the service-level "ls3df-service-v1"
//     snapshot from it: jobs/sec, queue depth, per-job tail latency
//     percentiles, lane donation counts.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "fragment/ls3df.h"
#include "parallel/scheduler.h"

namespace ls3df {

class TraceRecorder;

// A submitted unit of work: the full per-job solver configuration plus
// the service-level scheduling knobs.
struct JobSpec {
  // Heterogeneous per-job solver options. The job never runs wider than
  // options.n_workers: set it to the job's maximum width and let the
  // shared allowance clamp downward.
  Ls3dfOptions options;
  // Higher runs earlier; FIFO within a priority class after LPT order.
  int priority = 0;
  std::string name;  // label for status/metrics; "" = "job<id>"
  // LPT weight of this job; 0 derives an analytic estimate from the
  // options (cells x points^3 x iteration caps).
  double cost_hint = 0;
  // Test seam: called with the job's bound instance after the per-job
  // hooks are installed, before solve()/resume(). Fault-injection tests
  // use it to plant FaultPlans on the job's transport. Null in
  // production.
  std::function<void(Ls3dfSolver&)> on_bind;
};

enum class JobState { kQueued, kRunning, kDone, kFailed };

const char* job_state_name(JobState s);

// Point-in-time view of one job (status()/wait() return it by value).
struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  std::string name;
  int attempts = 0;        // solve()/resume() attempts started
  int retries = 0;         // recover()+resume() cycles consumed
  bool warm_started = false;   // resumed a fingerprint-compatible snapshot
  bool warm_instance = false;  // adopted a pooled solver instance
  std::uint64_t fingerprint = 0;  // solver state fingerprint (0 until run)
  int iterations = 0;      // outer iterations observed via progress
  double queued_s = 0;     // submit -> start
  double run_s = 0;        // start -> terminal state
  double latency_s = 0;    // submit -> terminal state
  std::string error;       // terminal failure reason (kFailed)
};

struct SolverServiceOptions {
  // Physical worker-lane budget shared by every running job.
  int total_lanes = 4;
  // Driver threads = jobs running at once. Lanes split evenly across the
  // live jobs, so max_concurrent > total_lanes just pins every job at
  // width 1.
  int max_concurrent = 4;
  // Directory for per-job snapshots and the warm-start registry. "" =
  // durability off (no retries from snapshots, no warm starts; failed
  // attempts restart cold).
  std::string checkpoint_dir;
  bool warm_start = true;    // reuse fingerprint-compatible snapshots
  // Per-job TraceRecorder ring capacity; 0 disables per-job tracing.
  std::size_t trace_capacity = 4096;
};

class SolverService {
 public:
  using JobId = std::uint64_t;

  // recover()+resume() cycles per job before it latches kFailed.
  static constexpr int kMaxRetries = 2;
  // Idle warm-instance pool bound (oldest evicted first).
  static constexpr int kMaxWarmInstances = 4;

  explicit SolverService(SolverServiceOptions opt = {});
  // Drains the queue (every submitted job reaches a terminal state),
  // then joins the drivers.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  // Enqueue a job (copies the structure). Thread-safe.
  JobId submit(const Structure& structure, JobSpec spec);

  // Block until the job reaches kDone or kFailed.
  JobStatus wait(JobId id);
  // Non-blocking snapshot of the job's current state.
  JobStatus status(JobId id) const;
  // The completed job's result (valid reference for the service's
  // lifetime). Throws std::runtime_error if the job failed or has not
  // finished — call after wait().
  const Ls3dfResult& result(JobId id) const;
  // Block until every job submitted so far is terminal.
  void drain();

  // The job's own trace recorder (null when trace_capacity == 0 or the
  // id is unknown). Valid for the service's lifetime.
  const TraceRecorder* job_trace(JobId id) const;

  int queue_depth() const;
  int running() const;
  // Cross-job donations: jobs that finished while others still ran.
  long lane_donation_events() const;
  // Jobs that adopted a parked warm instance.
  long warm_instance_hits() const;

  // The LPT placement of the currently pending jobs onto the service's
  // driver slots — assign_fragments (parallel/scheduler.h) over the
  // pending costs, exposed for introspection and tests. The pull-model
  // dispatch realizes the same greedy: a freeing driver is the least-
  // loaded group and takes the costliest pending job.
  GroupAssignment schedule_preview() const;

  // Analytic LPT weight of a job (used when JobSpec::cost_hint == 0).
  static double estimate_cost(const Ls3dfOptions& options);

  // Service-level metrics registry snapshot ("jobs.*" aggregates plus
  // "service.*" counters/series).
  MetricsSnapshot metrics() const;
  // The "ls3df-service-v1" JSON snapshot: jobs/sec, queue depth,
  // latency percentiles, lane donations, aggregated job counters.
  void write_service_json(std::ostream& os) const;
  std::string service_json() const;

 private:
  struct Job;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ls3df
