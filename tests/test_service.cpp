// SolverService tests: concurrent heterogeneous jobs bit-identical to
// standalone solves, LPT + priority dispatch order, schedule_preview,
// fault retry through recover()+resume(), warm instances and
// fingerprint warm starts, cross-job lane donation, and the
// "ls3df-service-v1" JSON snapshot. Also the raw two-solvers-two-
// threads bitwise test (the engine-level prerequisite the service
// builds on), kept here so the sanitizer jobs cover both layers.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "atoms/builders.h"
#include "fragment/ls3df.h"
#include "golden_refs.h"
#include "obs/trace.h"
#include "service/solver_service.h"
#include "transport/proc_transport.h"

namespace ls3df {
namespace {

Structure h2_chain(int ncells, double a = 6.0) {
  Structure s(Lattice({a * ncells, a, a}));
  for (int c = 0; c < ncells; ++c) {
    s.add_atom(Species::kH, {a * c + 0.5 * a - 0.7, 0.5 * a, 0.5 * a});
    s.add_atom(Species::kH, {a * c + 0.5 * a + 0.7, 0.5 * a, 0.5 * a});
  }
  return s;
}

Ls3dfOptions base_options(int ncells) {
  Ls3dfOptions lo;
  lo.division = {ncells, 1, 1};
  lo.points_per_cell = 8;
  lo.ecut = 1.0;
  lo.buffer_points = 4;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 6;
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;  // fixed iteration count: compare full trajectories
  return lo;
}

void expect_bitwise_equal(const Ls3dfResult& r, const Ls3dfResult& ref) {
  ASSERT_EQ(r.iterations, ref.iterations);
  ASSERT_EQ(r.conv_history.size(), ref.conv_history.size());
  for (std::size_t k = 0; k < ref.conv_history.size(); ++k)
    ASSERT_EQ(r.conv_history[k], ref.conv_history[k]) << "iteration " << k;
  ASSERT_EQ(r.charge_patch_error, ref.charge_patch_error);
  ASSERT_EQ(r.rho.size(), ref.rho.size());
  for (std::size_t k = 0; k < ref.rho.size(); ++k)
    ASSERT_EQ(r.rho[k], ref.rho[k]) << "density differs at point " << k;
  ASSERT_EQ(r.v_eff.size(), ref.v_eff.size());
  for (std::size_t k = 0; k < ref.v_eff.size(); ++k)
    ASSERT_EQ(r.v_eff[k], ref.v_eff[k]) << "potential differs at point " << k;
  ASSERT_EQ(r.energy.total, ref.energy.total);
}

// The four heterogeneous configurations the service tests multiplex:
// one shard at batch width 2, two in-process shards, one shard with a
// different eigensolver budget, and proc-transport sharded.
std::vector<std::pair<Structure, Ls3dfOptions>> job_mix() {
  std::vector<std::pair<Structure, Ls3dfOptions>> jobs;
  {
    Ls3dfOptions lo = base_options(3);
    lo.n_workers = 2;
    lo.batch_width = 2;
    jobs.emplace_back(h2_chain(3), lo);
  }
  {
    Ls3dfOptions lo = base_options(4);
    lo.n_workers = 2;
    lo.n_shards = 2;
    jobs.emplace_back(h2_chain(4), lo);
  }
  {
    Ls3dfOptions lo = base_options(3);
    lo.n_workers = 1;
    lo.eig.max_iterations = 5;  // genuinely different physics trajectory
    jobs.emplace_back(h2_chain(3), lo);
  }
  {
    Ls3dfOptions lo = base_options(4);
    lo.n_workers = 2;
    lo.n_shards = 2;
    lo.transport = TransportKind::kProc;
    jobs.emplace_back(h2_chain(4), lo);
  }
  return jobs;
}

TEST(Service, TwoSolversOnTwoThreadsMatchSequentialBitwise) {
  // The engine-level prerequisite for everything the service does: two
  // independent Ls3dfSolvers solving different structures at the same
  // time (shared process-wide pool, separate instances) must produce
  // exactly the bits the same two solves produce sequentially.
  Structure sa = h2_chain(3);
  Structure sb = h2_chain(4);
  Ls3dfOptions oa = base_options(3);
  oa.n_workers = 2;
  oa.batch_width = 2;
  Ls3dfOptions ob = base_options(4);
  ob.n_workers = 2;
  ob.n_shards = 2;

  const Ls3dfResult ref_a = Ls3dfSolver(sa, oa).solve();
  const Ls3dfResult ref_b = Ls3dfSolver(sb, ob).solve();

  Ls3dfResult ra, rb;
  std::thread ta([&] { ra = Ls3dfSolver(sa, oa).solve(); });
  std::thread tb([&] { rb = Ls3dfSolver(sb, ob).solve(); });
  ta.join();
  tb.join();

  expect_bitwise_equal(ra, ref_a);
  expect_bitwise_equal(rb, ref_b);
}

TEST(Service, ConcurrentHeterogeneousJobsBitIdenticalToStandalone) {
  // The tentpole contract: >= 4 concurrent heterogeneous jobs on one
  // shared lane budget, every result bit-identical to a standalone
  // solve() with the same options. A start gate holds every job at its
  // first outer iteration until all four are live, so the run genuinely
  // exercises cross-job lane sharing (and the first finishers donate
  // lanes to the survivors mid-solve).
  auto mix = job_mix();
  std::vector<Ls3dfResult> refs;
  for (auto& [s, lo] : mix) refs.push_back(Ls3dfSolver(s, lo).solve());

  SolverServiceOptions so;
  so.total_lanes = 4;
  so.max_concurrent = 4;
  SolverService service(so);

  auto started = std::make_shared<std::atomic<int>>(0);
  std::vector<SolverService::JobId> ids;
  for (std::size_t j = 0; j < mix.size(); ++j) {
    JobSpec spec;
    spec.options = mix[j].second;
    spec.name = "mix" + std::to_string(j);
    spec.options.progress = [started](const Ls3dfProgress&) {
      while (started->load(std::memory_order_acquire) < 4)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    spec.on_bind = [started](Ls3dfSolver&) {
      started->fetch_add(1, std::memory_order_acq_rel);
    };
    ids.push_back(service.submit(mix[j].first, std::move(spec)));
  }
  service.drain();

  for (std::size_t j = 0; j < ids.size(); ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    const JobStatus st = service.status(ids[j]);
    EXPECT_EQ(st.state, JobState::kDone) << st.error;
    EXPECT_EQ(st.attempts, 1);
    EXPECT_EQ(st.retries, 0);
    EXPECT_EQ(st.iterations, refs[j].iterations);
    expect_bitwise_equal(service.result(ids[j]), refs[j]);
    // Each job recorded its own trace.
    ASSERT_NE(service.job_trace(ids[j]), nullptr);
    EXPECT_GT(service.job_trace(ids[j])->total_events(), 0u);
  }
  // All four were gated live together, so the first finisher's lanes
  // had survivors to flow to.
  EXPECT_GE(service.lane_donation_events(), 1);
  EXPECT_EQ(service.queue_depth(), 0);
  EXPECT_EQ(service.running(), 0);
}

TEST(Service, RejectedJobSpecFailsItsJobNotTheService) {
  // A JobSpec the solver rejects at construction (here the structurally
  // degenerate division 2x1x1) must end its own job kFailed with the
  // constructor's message — not escape the driver thread and terminate
  // the process — while a good job in the same service completes on the
  // golden bits.
  SolverServiceOptions so;
  so.total_lanes = 2;
  so.max_concurrent = 2;
  SolverService service(so);

  JobSpec bad;
  bad.options = base_options(3);
  bad.options.division = {2, 1, 1};
  const SolverService::JobId bad_id = service.submit(h2_chain(2), bad);
  JobSpec good;
  good.options = base_options(3);
  good.options.n_workers = 2;
  const SolverService::JobId good_id = service.submit(h2_chain(3), good);
  service.drain();

  const JobStatus bs = service.status(bad_id);
  EXPECT_EQ(bs.state, JobState::kFailed);
  EXPECT_NE(bs.error.find("division"), std::string::npos) << bs.error;
  const JobStatus gs = service.status(good_id);
  ASSERT_EQ(gs.state, JobState::kDone) << gs.error;
  EXPECT_EQ(golden::mismatch(service.result(good_id),
                             golden::h2_reference(3)),
            "");

  // The service keeps serving after the rejection.
  const SolverService::JobId again = service.submit(h2_chain(3), good);
  service.drain();
  EXPECT_EQ(service.status(again).state, JobState::kDone);
}

TEST(Service, DispatchOrderIsPriorityThenLptThenFifo) {
  // One driver, first job blocked at its first iteration: the remaining
  // submissions pile up in the queue, schedule_preview() exposes the
  // assign_fragments placement of the pending costs, and the release
  // order observed through on_bind is priority desc, then cost desc,
  // then FIFO.
  SolverServiceOptions so;
  so.total_lanes = 2;
  so.max_concurrent = 1;
  SolverService service(so);

  auto release = std::make_shared<std::atomic<bool>>(false);
  auto order = std::make_shared<std::vector<std::string>>();
  auto order_mu = std::make_shared<std::mutex>();
  const auto record = [order, order_mu](const std::string& name) {
    std::lock_guard<std::mutex> lk(*order_mu);
    order->push_back(name);
  };

  Structure s = h2_chain(3);
  JobSpec gate;
  gate.options = base_options(3);
  gate.name = "gate";
  gate.options.progress = [release](const Ls3dfProgress&) {
    while (!release->load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  gate.on_bind = [record](Ls3dfSolver&) { record("gate"); };
  service.submit(s, std::move(gate));

  // Wait until the gate job occupies the only driver.
  while (service.running() != 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Pending mix: "vip" wins on priority despite the smallest cost;
  // among the rest LPT picks the costliest first; "a" beats "b" FIFO on
  // an exact cost tie.
  const struct {
    const char* name;
    int priority;
    double cost;
  } pend[] = {
      {"a", 0, 10.0}, {"b", 0, 10.0}, {"big", 0, 50.0}, {"vip", 3, 1.0}};
  for (const auto& p : pend) {
    JobSpec spec;
    spec.options = base_options(3);
    spec.name = p.name;
    spec.priority = p.priority;
    spec.cost_hint = p.cost;
    std::string name = p.name;
    spec.on_bind = [record, name](Ls3dfSolver&) { record(name); };
    service.submit(s, std::move(spec));
  }
  EXPECT_EQ(service.queue_depth(), 4);

  // The LPT preview over the pending costs is assign_fragments verbatim
  // (one driver slot -> one group carrying the whole pending load).
  const GroupAssignment preview = service.schedule_preview();
  ASSERT_EQ(preview.group_of.size(), 4u);
  EXPECT_EQ(preview.total_cost, 71.0);
  EXPECT_EQ(preview.max_cost, 71.0);
  EXPECT_EQ(preview.efficiency, 1.0);

  release->store(true, std::memory_order_release);
  service.drain();

  std::lock_guard<std::mutex> lk(*order_mu);
  ASSERT_EQ(order->size(), 5u);
  EXPECT_EQ((*order)[0], "gate");
  EXPECT_EQ((*order)[1], "vip");
  EXPECT_EQ((*order)[2], "big");
  EXPECT_EQ((*order)[3], "a");
  EXPECT_EQ((*order)[4], "b");
}

TEST(Service, WorkerKillRetriesThroughRecoverAndResumeBitwise) {
  // Durability: a ProcTransport worker SIGKILLed mid-solve fails the
  // attempt; the service heals the transport via recover(), resumes
  // from the job's newest snapshot, and the completed job is
  // bit-identical to an uninterrupted standalone solve.
  const std::string dir = "/tmp/ls3df_service_kill_test";
  ::mkdir(dir.c_str(), 0755);
  std::remove((dir + "/job1.snap").c_str());
  std::remove((dir + "/job1.snap.1").c_str());

  Structure s = h2_chain(3);
  Ls3dfOptions lo = base_options(3);
  lo.max_iterations = 3;
  lo.n_workers = 2;
  lo.n_shards = 2;
  lo.transport = TransportKind::kProc;
  const Ls3dfResult ref = Ls3dfSolver(s, lo).solve();

  SolverServiceOptions so;
  so.total_lanes = 2;
  so.max_concurrent = 1;
  so.checkpoint_dir = dir;
  SolverService service(so);

  // The kill arms after the first outer iteration (so a snapshot exists
  // to resume from) and fires exactly once, from inside the solve.
  auto bound = std::make_shared<std::atomic<Ls3dfSolver*>>(nullptr);
  auto iter_seen = std::make_shared<std::atomic<int>>(0);
  auto armed = std::make_shared<std::atomic<bool>>(true);
  JobSpec spec;
  spec.options = lo;
  spec.name = "victim";
  spec.options.progress = [iter_seen](const Ls3dfProgress& p) {
    iter_seen->store(p.iteration, std::memory_order_release);
  };
  spec.options.on_batch_solve = [bound, iter_seen, armed](int) {
    if (iter_seen->load(std::memory_order_acquire) < 1) return;
    if (!armed->exchange(false, std::memory_order_acq_rel)) return;
    auto* proc = dynamic_cast<ProcTransport*>(
        bound->load(std::memory_order_acquire)->shard_transport_object());
    ASSERT_NE(proc, nullptr);
    proc->kill_worker_for_test(1);
  };
  spec.on_bind = [bound](Ls3dfSolver& solver) {
    bound->store(&solver, std::memory_order_release);
  };

  const SolverService::JobId id = service.submit(s, std::move(spec));
  const JobStatus st = service.wait(id);
  EXPECT_EQ(st.state, JobState::kDone) << st.error;
  EXPECT_EQ(st.retries, 1);
  EXPECT_EQ(st.attempts, 2);
  expect_bitwise_equal(service.result(id), ref);
}

TEST(Service, WarmInstanceAndFingerprintWarmStart) {
  // A repeated job adopts the parked instance (warm_instance) and
  // resumes the registered converged snapshot (warm_started) — and its
  // result is still bit-identical to a cold standalone solve.
  const std::string dir = "/tmp/ls3df_service_warm_test";
  ::mkdir(dir.c_str(), 0755);
  for (int j = 1; j <= 2; ++j) {
    std::remove((dir + "/job" + std::to_string(j) + ".snap").c_str());
    std::remove((dir + "/job" + std::to_string(j) + ".snap.1").c_str());
  }

  Structure s = h2_chain(3);
  Ls3dfOptions lo = base_options(3);
  lo.n_workers = 2;
  lo.batch_width = 2;
  const Ls3dfResult ref = Ls3dfSolver(s, lo).solve();

  SolverServiceOptions so;
  so.total_lanes = 2;
  so.max_concurrent = 1;
  so.checkpoint_dir = dir;
  SolverService service(so);

  JobSpec cold;
  cold.options = lo;
  const SolverService::JobId first = service.submit(s, cold);
  JobStatus st1 = service.wait(first);
  EXPECT_EQ(st1.state, JobState::kDone) << st1.error;
  EXPECT_FALSE(st1.warm_instance);
  EXPECT_FALSE(st1.warm_started);
  ASSERT_NE(st1.fingerprint, 0u);

  JobSpec again;
  again.options = lo;
  const SolverService::JobId second = service.submit(s, again);
  JobStatus st2 = service.wait(second);
  EXPECT_EQ(st2.state, JobState::kDone) << st2.error;
  EXPECT_TRUE(st2.warm_instance);   // pooled instance adopted
  EXPECT_TRUE(st2.warm_started);    // fingerprint snapshot resumed
  EXPECT_EQ(st2.fingerprint, st1.fingerprint);
  EXPECT_EQ(service.warm_instance_hits(), 1);

  expect_bitwise_equal(service.result(first), ref);
  expect_bitwise_equal(service.result(second), ref);
}

TEST(Service, WarmInstanceReuseWithoutSnapshotsIsStillBitwise) {
  // No checkpoint_dir: no snapshots, no warm starts — a repeated job
  // adopts the parked instance and runs a plain solve(). The service
  // must reset the solver's cross-solve state first (wavefunctions are
  // warm-started across solves at the solver level), or the second
  // job's trajectory would silently differ from a standalone run.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = base_options(3);
  lo.n_workers = 2;
  lo.batch_width = 2;
  const Ls3dfResult ref = Ls3dfSolver(s, lo).solve();

  SolverServiceOptions so;
  so.total_lanes = 2;
  so.max_concurrent = 1;
  SolverService service(so);

  JobSpec spec;
  spec.options = lo;
  const SolverService::JobId first = service.submit(s, spec);
  ASSERT_EQ(service.wait(first).state, JobState::kDone);
  const SolverService::JobId second = service.submit(s, spec);
  const JobStatus st = service.wait(second);
  ASSERT_EQ(st.state, JobState::kDone) << st.error;
  EXPECT_TRUE(st.warm_instance);
  EXPECT_FALSE(st.warm_started);  // nothing snapshotted to resume
  EXPECT_EQ(service.warm_instance_hits(), 1);
  expect_bitwise_equal(service.result(first), ref);
  expect_bitwise_equal(service.result(second), ref);
}

TEST(Service, ColdRetryWithoutCheckpointsIsStillBitwise) {
  // A first attempt that fails mid-solve leaves warm wavefunctions in
  // the instance; with no snapshot to resume, the retry cold-solves the
  // same instance — and must still land on the standalone bits.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = base_options(3);
  lo.n_workers = 2;
  const Ls3dfResult ref = Ls3dfSolver(s, lo).solve();

  SolverServiceOptions so;
  so.total_lanes = 2;
  so.max_concurrent = 1;
  SolverService service(so);

  auto armed = std::make_shared<std::atomic<bool>>(true);
  JobSpec spec;
  spec.options = lo;
  spec.options.progress = [armed](const Ls3dfProgress&) {
    if (armed->exchange(false, std::memory_order_acq_rel))
      throw std::runtime_error("one-shot fault");
  };
  const SolverService::JobId id = service.submit(s, spec);
  const JobStatus st = service.wait(id);
  ASSERT_EQ(st.state, JobState::kDone) << st.error;
  EXPECT_EQ(st.retries, 1);
  EXPECT_EQ(st.attempts, 2);
  expect_bitwise_equal(service.result(id), ref);
}

TEST(Service, ServiceJsonAndAggregatedMetrics) {
  Structure s = h2_chain(3);
  Ls3dfOptions lo = base_options(3);
  lo.n_workers = 2;

  SolverServiceOptions so;
  so.total_lanes = 2;
  so.max_concurrent = 2;
  SolverService service(so);

  JobSpec ok;
  ok.options = lo;
  const SolverService::JobId good = service.submit(s, ok);

  // One job that always fails: its progress callback throws on every
  // attempt, so the retry budget drains and the job latches kFailed.
  JobSpec bad;
  bad.options = lo;
  bad.name = "doomed";
  bad.options.progress = [](const Ls3dfProgress&) {
    throw std::runtime_error("always broken");
  };
  const SolverService::JobId doomed = service.submit(s, bad);
  service.drain();

  EXPECT_EQ(service.wait(good).state, JobState::kDone);
  const JobStatus st = service.wait(doomed);
  EXPECT_EQ(st.state, JobState::kFailed);
  EXPECT_EQ(st.retries, SolverService::kMaxRetries);
  EXPECT_NE(st.error.find("progress callback threw"), std::string::npos)
      << st.error;
  EXPECT_NE(st.error.find("always broken"), std::string::npos) << st.error;
  EXPECT_THROW(service.result(doomed), std::runtime_error);

  const std::string json = service.service_json();
  EXPECT_NE(json.find("\"schema\":\"ls3df-service-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"submitted\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"completed\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"failed\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"retried\":" +
                      std::to_string(SolverService::kMaxRetries) + ","),
            std::string::npos)
      << json;
  // No checkpoint_dir: no job can warm-start from a snapshot.
  EXPECT_NE(json.find("\"warm_started\":0,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"warm_instance_hits\":" +
                      std::to_string(service.warm_instance_hits()) + "}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"throughput_jobs_per_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);

  // The completed job's solver counters were folded into the service
  // registry under the "jobs." prefix.
  const MetricsSnapshot snap = service.metrics();
  EXPECT_EQ(snap.counters.count("service.jobs_completed"), 1u);
  EXPECT_EQ(snap.counters.at("service.jobs_completed"), 1.0);
  EXPECT_EQ(snap.counters.at("service.jobs_failed"), 1.0);
  bool any_job_counter = false;
  for (const auto& kv : snap.counters)
    if (kv.first.rfind("jobs.", 0) == 0) any_job_counter = true;
  EXPECT_TRUE(any_job_counter);
}

}  // namespace
}  // namespace ls3df
