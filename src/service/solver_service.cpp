#include "service/solver_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "checkpoint/snapshot.h"
#include "obs/json_util.h"
#include "obs/trace.h"
#include "transport/transport.h"

namespace ls3df {

namespace {

bool file_exists(const std::string& path) {
  return !path.empty() && std::ifstream(path, std::ios::binary).good();
}

// Exact warm-instance cache key: the structure plus every option baked
// into construction or the solve loop. Rebindable per-job hooks (trace,
// progress, lane_allowance, checkpoint) are deliberately absent — they
// are what set_* re-points on reuse — and so are the retired overlap and
// donate toggles, which the solver accepts only as true. hexfloat
// round-trips doubles exactly, so equal keys mean equal configurations
// (no hash-collision false positives: a stale match here would be a
// correctness bug, not a cache miss).
std::string instance_key(const Structure& s, const Ls3dfOptions& o) {
  std::ostringstream k;
  k << std::hexfloat;
  const Vec3d L = s.lattice().lengths();
  k << L.x << '|' << L.y << '|' << L.z << '|' << s.size() << '|';
  for (int a = 0; a < s.size(); ++a) {
    const Atom& atom = s.atom(a);
    k << static_cast<int>(atom.species) << ',' << atom.position.x << ','
      << atom.position.y << ',' << atom.position.z << ';';
  }
  k << o.division.x << '|' << o.division.y << '|' << o.division.z << '|'
    << o.points_per_cell << '|' << o.buffer_points << '|' << o.ecut << '|'
    << o.wall_height << '|' << o.wall_width << '|' << o.atom_margin << '|'
    << o.extra_bands << '|' << o.fragment_smearing << '|'
    << o.eig.max_iterations << '|' << o.eig.residual_tol << '|'
    << o.eig.precondition << '|' << o.all_band << '|' << o.max_iterations
    << '|' << o.l1_tol << '|' << static_cast<int>(o.mixer) << '|'
    << o.mix_alpha << '|' << o.seed << '|' << o.n_workers << '|'
    << o.batch_width << '|' << o.n_shards << '|'
    << static_cast<int>(o.transport) << '|' << o.compute_energy << '|'
    << static_cast<int>(o.precision) << '|' << o.promote_factor;
  return k.str();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t r = static_cast<std::size_t>(std::ceil(q * n));
  if (r < 1) r = 1;
  if (r > n) r = n;
  return v[r - 1];
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

struct SolverService::Job {
  JobId id = 0;
  Structure structure;
  JobSpec spec;
  std::string key;  // warm-instance cache key ("" = not cacheable)
  double cost = 0;
  std::string ck_path;  // this job's snapshot file ("" = durability off)

  // Written by the owning driver, read by status(): atomics so a
  // concurrent status() never tears mid-attempt.
  std::atomic<int> attempts{0};
  std::atomic<int> retries{0};
  std::atomic<int> iterations{0};
  std::atomic<bool> warm_started{false};
  std::atomic<bool> warm_instance{false};
  std::atomic<std::uint64_t> fingerprint{0};

  // Guarded by Impl::mu.
  JobState state = JobState::kQueued;
  double submit_t = 0, start_t = 0, end_t = 0;
  std::string error;
  Ls3dfResult result;

  std::unique_ptr<TraceRecorder> trace;

  Job(const Structure& s, JobSpec sp)
      : structure(s), spec(std::move(sp)) {}
};

struct SolverService::Impl {
  SolverServiceOptions opt;
  SharedLaneBudget lanes;

  mutable std::mutex mu;
  std::condition_variable cv_work, cv_done;
  bool stop = false;
  JobId next_id = 1;
  std::map<JobId, std::unique_ptr<Job>> jobs;
  std::vector<Job*> pending;
  int n_running = 0;
  std::size_t peak_queue = 0;

  // Parked warm instances, oldest first (evicted first).
  struct Warm {
    std::string key;
    std::unique_ptr<Ls3dfSolver> inst;
  };
  std::deque<Warm> idle;
  long warm_hits = 0;

  // Completed jobs' newest snapshot by solver state fingerprint — the
  // warm-start registry.
  std::map<std::uint64_t, std::string> snapshot_registry;

  // Service-level tallies (mu) + the aggregating registry (own lock).
  long submitted = 0, completed = 0, failed = 0, retried = 0;
  long warm_starts = 0;
  std::vector<double> latencies;
  MetricsRegistry reg;

  std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

  // --- dispatch ---------------------------------------------------------

  // LPT pull order: highest priority, then costliest, then FIFO. A
  // freeing driver is the least-loaded group, so this realizes the
  // assign_fragments greedy (schedule_preview() exposes it directly).
  std::size_t best_pending() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending.size(); ++i) {
      const Job *a = pending[i], *b = pending[best];
      if (a->spec.priority != b->spec.priority
              ? a->spec.priority > b->spec.priority
              : (a->cost != b->cost ? a->cost > b->cost : a->id < b->id))
        best = i;
    }
    return best;
  }

  void driver_loop() {
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv_work.wait(lk, [&] { return stop || !pending.empty(); });
        if (pending.empty()) {
          if (stop) return;
          continue;
        }
        const std::size_t i = best_pending();
        job = pending[i];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        job->state = JobState::kRunning;
        job->start_t = now();
        ++n_running;
        reg.push("service.queue_depth", static_cast<double>(pending.size()));
      }

      std::string error;
      const bool ok = run_job(*job, error);

      {
        std::lock_guard<std::mutex> lk(mu);
        job->end_t = now();
        const double latency = job->end_t - job->submit_t;
        if (ok) {
          job->state = JobState::kDone;
          ++completed;
          latencies.push_back(latency);
          reg.add("service.jobs_completed");
          reg.observe("service.job_latency_s", latency);
          reg.observe("service.job_run_s", job->end_t - job->start_t);
          // Aggregate the job's solver metrics into the service view.
          for (const auto& kv : job->result.metrics.counters)
            reg.add("jobs." + kv.first, kv.second);
        } else {
          job->state = JobState::kFailed;
          job->error = error;
          ++failed;
          reg.add("service.jobs_failed");
        }
        --n_running;
      }
      cv_done.notify_all();
    }
  }

  // --- per-job execution ------------------------------------------------

  // Bind the per-job execution hooks on a (warm or fresh) instance.
  void bind(Job& job, Ls3dfSolver& solver) {
    solver.set_trace(job.trace.get());
    const auto user = job.spec.options.progress;
    Job* j = &job;
    solver.set_progress([j, user](const Ls3dfProgress& p) {
      j->iterations.store(p.iteration, std::memory_order_relaxed);
      if (user) user(p);
    });
    int cap = job.spec.max_lanes > 0 ? job.spec.max_lanes
                                     : job.spec.options.n_workers;
    if (cap < 1) cap = 1;
    SharedLaneBudget* budget = &lanes;
    solver.set_lane_allowance(
        [budget, cap] { return budget->allowance(cap); });
    CheckpointOptions ck = job.spec.options.checkpoint;
    if (ck.path.empty() && !job.ck_path.empty()) {
      ck.path = job.ck_path;
      ck.every = opt.checkpoint_every;
    }
    solver.set_checkpoint(ck);
    if (job.spec.on_bind) job.spec.on_bind(solver);
  }

  std::unique_ptr<Ls3dfSolver> make_fresh(Job& job) {
    Ls3dfOptions o = job.spec.options;
    // Hooks are installed by bind() below; construct hook-free so the
    // instance carries no stale per-job state if it is later pooled.
    o.trace = nullptr;
    o.progress = nullptr;
    o.lane_allowance = nullptr;
    o.checkpoint = CheckpointOptions{};
    auto solver = std::make_unique<Ls3dfSolver>(job.structure, o);
    bind(job, *solver);
    return solver;
  }

  std::unique_ptr<Ls3dfSolver> acquire(Job& job) {
    if (!job.key.empty()) {
      std::unique_lock<std::mutex> lk(mu);
      for (auto it = idle.begin(); it != idle.end(); ++it) {
        if (it->key != job.key) continue;
        std::unique_ptr<Ls3dfSolver> solver = std::move(it->inst);
        idle.erase(it);
        ++warm_hits;
        lk.unlock();
        job.warm_instance.store(true, std::memory_order_relaxed);
        bind(job, *solver);
        return solver;
      }
    }
    return make_fresh(job);
  }

  void park(Job& job, std::unique_ptr<Ls3dfSolver> solver) {
    if (job.key.empty() || opt.max_warm_instances <= 0 || !solver) return;
    // Unbind the per-job hooks so the parked instance holds no dangling
    // per-job pointers.
    solver->set_trace(nullptr);
    solver->set_progress(nullptr);
    solver->set_lane_allowance(nullptr);
    solver->set_checkpoint(CheckpointOptions{});
    std::lock_guard<std::mutex> lk(mu);
    idle.push_back(Warm{job.key, std::move(solver)});
    while (static_cast<int>(idle.size()) > opt.max_warm_instances)
      idle.pop_front();
  }

  bool run_job(Job& job, std::string& error) {
    lanes.join();
    std::unique_ptr<Ls3dfSolver> solver;
    try {
      solver = acquire(job);
    } catch (const std::exception& e) {
      // Options the solver rejects at construction (or a transport that
      // cannot start) fail this job only; the driver thread lives on.
      error = e.what();
      lanes.leave();
      return false;
    }
    const std::uint64_t fp = solver->state_fingerprint();
    job.fingerprint.store(fp, std::memory_order_relaxed);

    // Warm start: a registered fingerprint-compatible snapshot resumes
    // bit-identically (and short-circuits when it is converged).
    std::string resume_from;
    bool warm_attempt = false;
    if (opt.warm_start) {
      std::lock_guard<std::mutex> lk(mu);
      auto it = snapshot_registry.find(fp);
      if (it != snapshot_registry.end() && file_exists(it->second) &&
          it->second != job.ck_path) {
        resume_from = it->second;
        warm_attempt = true;
      }
    }

    bool ok = false;
    // An instance that has run before (a pooled adoption, or a failed
    // attempt on this job) carries warm wavefunctions from that run.
    // Snapshot resumes overwrite them; a plain solve() must start from
    // the constructed state or the result drifts from the standalone
    // reference — reset_state() restores it.
    bool pristine = !job.warm_instance.load(std::memory_order_relaxed);
    for (;;) {
      if (!pristine && resume_from.empty()) solver->reset_state();
      pristine = false;
      job.attempts.fetch_add(1, std::memory_order_relaxed);
      try {
        job.result = resume_from.empty() ? solver->solve()
                                         : solver->resume(resume_from);
        if (warm_attempt) {
          job.warm_started.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lk(mu);
          ++warm_starts;
          reg.add("service.jobs_warm_started");
        }
        ok = true;
        break;
      } catch (const SnapshotError& e) {
        // A damaged or incompatible snapshot demotes the attempt to a
        // cold solve instead of consuming a retry — the job itself is
        // healthy.
        error = e.what();
        if (!resume_from.empty()) {
          resume_from.clear();
          warm_attempt = false;
          continue;
        }
        break;
      } catch (const std::exception& e) {
        error = e.what();
        if (job.retries.load(std::memory_order_relaxed) >=
            opt.max_retries)
          break;
        job.retries.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lk(mu);
          ++retried;
          reg.add("service.jobs_retried");
        }
        // Heal in place first: recover() respawns dead/lagging workers
        // (and is an idempotent no-op on a healthy transport). Only a
        // failed recovery pays for a full instance rebuild.
        bool healed = true;
        if (Transport* t = solver->shard_transport_object())
          healed = t->recover();
        if (!healed) {
          solver = make_fresh(job);
          pristine = true;
        }
        // Resume from the job's own newest snapshot when one exists;
        // cold restart otherwise. Either way the completed job is
        // bit-identical to an uninterrupted run.
        warm_attempt = false;
        resume_from = file_exists(job.ck_path) ? job.ck_path : "";
        continue;
      }
    }

    lanes.leave();
    if (ok) {
      if (!job.ck_path.empty() && file_exists(job.ck_path)) {
        std::lock_guard<std::mutex> lk(mu);
        snapshot_registry[fp] = job.ck_path;
      }
      park(job, std::move(solver));
    }
    // Failed jobs drop their instance: a transport that recover() could
    // not heal (or an unknown fault) must not be pooled.
    return ok;
  }
};

SolverService::SolverService(SolverServiceOptions opt)
    : impl_(std::make_unique<Impl>()) {
  impl_->opt = opt;
  impl_->lanes.set_total(opt.total_lanes);
  const int n = std::max(1, opt.max_concurrent);
  impl_->drivers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    impl_->drivers.emplace_back([this] { impl_->driver_loop(); });
}

SolverService::~SolverService() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (std::thread& t : impl_->drivers) t.join();
}

SolverService::JobId SolverService::submit(const Structure& structure,
                                           JobSpec spec) {
  auto job = std::make_unique<Job>(structure, std::move(spec));
  const bool cacheable =
      !job->spec.options.transport_factory && !job->spec.options.on_batch_solve;
  job->cost = job->spec.cost_hint > 0 ? job->spec.cost_hint
                                      : estimate_cost(job->spec.options);
  if (impl_->opt.trace_capacity > 0)
    job->trace = std::make_unique<TraceRecorder>(impl_->opt.trace_capacity);

  Job* raw = job.get();
  JobId id;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    id = impl_->next_id++;
    job->id = id;
    if (job->spec.name.empty())
      job->spec.name = "job" + std::to_string(id);
    if (cacheable)
      job->key = instance_key(job->structure, job->spec.options);
    if (!job->spec.options.checkpoint.path.empty())
      job->ck_path = job->spec.options.checkpoint.path;
    else if (!impl_->opt.checkpoint_dir.empty())
      job->ck_path = impl_->opt.checkpoint_dir + "/job" +
                     std::to_string(id) + ".snap";
    job->submit_t = impl_->now();
    impl_->jobs.emplace(id, std::move(job));
    impl_->pending.push_back(raw);
    impl_->peak_queue = std::max(impl_->peak_queue, impl_->pending.size());
    ++impl_->submitted;
    impl_->reg.add("service.jobs_submitted");
    impl_->reg.push("service.queue_depth",
                    static_cast<double>(impl_->pending.size()));
  }
  impl_->cv_work.notify_one();
  return id;
}

JobStatus SolverService::status(JobId id) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end())
    throw std::out_of_range("SolverService: unknown job id " +
                            std::to_string(id));
  const Job& j = *it->second;
  JobStatus s;
  s.id = j.id;
  s.state = j.state;
  s.name = j.spec.name;
  s.attempts = j.attempts.load(std::memory_order_relaxed);
  s.retries = j.retries.load(std::memory_order_relaxed);
  s.warm_started = j.warm_started.load(std::memory_order_relaxed);
  s.warm_instance = j.warm_instance.load(std::memory_order_relaxed);
  s.fingerprint = j.fingerprint.load(std::memory_order_relaxed);
  s.iterations = j.iterations.load(std::memory_order_relaxed);
  const double ref = j.state == JobState::kQueued ? impl_->now() : j.start_t;
  s.queued_s = std::max(0.0, ref - j.submit_t);
  if (j.state == JobState::kDone || j.state == JobState::kFailed) {
    s.run_s = j.end_t - j.start_t;
    s.latency_s = j.end_t - j.submit_t;
  }
  s.error = j.error;
  return s;
}

JobStatus SolverService::wait(JobId id) {
  {
    std::unique_lock<std::mutex> lk(impl_->mu);
    auto it = impl_->jobs.find(id);
    if (it == impl_->jobs.end())
      throw std::out_of_range("SolverService: unknown job id " +
                              std::to_string(id));
    Job* j = it->second.get();
    impl_->cv_done.wait(lk, [&] {
      return j->state == JobState::kDone || j->state == JobState::kFailed;
    });
  }
  return status(id);
}

const Ls3dfResult& SolverService::result(JobId id) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end())
    throw std::out_of_range("SolverService: unknown job id " +
                            std::to_string(id));
  const Job& j = *it->second;
  if (j.state == JobState::kFailed)
    throw std::runtime_error("SolverService: job " + std::to_string(id) +
                             " failed: " + j.error);
  if (j.state != JobState::kDone)
    throw std::runtime_error("SolverService: job " + std::to_string(id) +
                             " has not finished (call wait() first)");
  return j.result;
}

void SolverService::drain() {
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->cv_done.wait(
      lk, [&] { return impl_->pending.empty() && impl_->n_running == 0; });
}

const TraceRecorder* SolverService::job_trace(JobId id) const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  auto it = impl_->jobs.find(id);
  return it == impl_->jobs.end() ? nullptr : it->second->trace.get();
}

int SolverService::queue_depth() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return static_cast<int>(impl_->pending.size());
}

int SolverService::running() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->n_running;
}

long SolverService::lane_donation_events() const {
  return impl_->lanes.donation_events();
}

long SolverService::warm_instance_hits() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->warm_hits;
}

GroupAssignment SolverService::schedule_preview() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::vector<double> costs;
  costs.reserve(impl_->pending.size());
  for (const Job* j : impl_->pending) costs.push_back(j->cost);
  return assign_fragments(costs, std::max(1, impl_->opt.max_concurrent));
}

double SolverService::estimate_cost(const Ls3dfOptions& o) {
  const double cells = static_cast<double>(std::max(1, o.division.x)) *
                       std::max(1, o.division.y) * std::max(1, o.division.z);
  const double pts =
      std::pow(static_cast<double>(o.points_per_cell + 2 * o.buffer_points),
               3.0);
  return cells * pts * std::max(1, o.eig.max_iterations) *
         std::max(1, o.max_iterations);
}

MetricsSnapshot SolverService::metrics() const {
  return impl_->reg.snapshot();
}

void SolverService::write_service_json(std::ostream& os) const {
  // Snapshot everything under the lock, format outside it.
  long submitted, completed, failed, retried, warm_starts, warm_hits;
  std::size_t depth, peak;
  int live;
  std::vector<double> lat;
  std::map<std::string, double> aggregate;
  double uptime;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    submitted = impl_->submitted;
    completed = impl_->completed;
    failed = impl_->failed;
    retried = impl_->retried;
    warm_starts = impl_->warm_starts;
    warm_hits = impl_->warm_hits;
    depth = impl_->pending.size();
    peak = impl_->peak_queue;
    live = impl_->n_running;
    lat = impl_->latencies;
    uptime = impl_->now();
  }
  for (const auto& kv : impl_->reg.snapshot().counters)
    if (kv.first.rfind("jobs.", 0) == 0) aggregate[kv.first] = kv.second;

  double mean = 0, max = 0;
  for (double v : lat) {
    mean += v;
    max = std::max(max, v);
  }
  if (!lat.empty()) mean /= static_cast<double>(lat.size());

  os << "{\"schema\":\"ls3df-service-v1\",\n";
  os << "\"uptime_s\":" << json_double(uptime) << ",\n";
  os << "\"lanes\":{\"total\":" << impl_->lanes.total()
     << ",\"live_jobs\":" << live
     << ",\"donation_events\":" << impl_->lanes.donation_events() << "},\n";
  os << "\"jobs\":{\"submitted\":" << submitted
     << ",\"completed\":" << completed << ",\"failed\":" << failed
     << ",\"retried\":" << retried << ",\"warm_started\":" << warm_starts
     << ",\"warm_instance_hits\":" << warm_hits << "},\n";
  os << "\"queue\":{\"depth\":" << depth << ",\"peak\":" << peak << "},\n";
  os << "\"throughput_jobs_per_s\":"
     << json_double(uptime > 0 ? static_cast<double>(completed) / uptime
                               : 0.0)
     << ",\n";
  os << "\"latency_s\":{\"count\":" << lat.size()
     << ",\"mean\":" << json_double(mean)
     << ",\"p50\":" << json_double(percentile(lat, 0.50))
     << ",\"p90\":" << json_double(percentile(lat, 0.90))
     << ",\"p99\":" << json_double(percentile(lat, 0.99))
     << ",\"max\":" << json_double(max) << "},\n";
  os << "\"aggregate\":{";
  bool first = true;
  for (const auto& kv : aggregate) {
    os << (first ? "" : ",") << "\n  " << json_string(kv.first) << ":"
       << json_double(kv.second);
    first = false;
  }
  os << "}}\n";
}

std::string SolverService::service_json() const {
  std::ostringstream os;
  write_service_json(os);
  return os.str();
}

}  // namespace ls3df
