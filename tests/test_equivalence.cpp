// Randomized execution-configuration equivalence suite. The solver has
// one solve loop — the barrier-free chain DAG over a sharded global grid
// — but its execution knobs still span a combinatorial surface: batch
// width, shard count, transport, worker count, plus kill-and-resume,
// thread-SPMD ranks, tracing and multi-tenant service jobs. Every point
// of that surface must land on the recorded golden bits of
// tests/golden_refs.h (density and effective-potential hashes,
// convergence history, charge-patch error and total energy). A seeded
// generator draws (division, batch_width, n_shards, transport, workers)
// tuples. Deterministic: the suite seed is fixed (override with
// LS3DF_EQUIV_SEED, scale with LS3DF_EQUIV_DRAWS), and every failure
// message carries the seed + draw index for replay.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "golden_refs.h"
#include "obs/trace.h"
#include "service/solver_service.h"
#include "transport/thread_transport.h"

namespace ls3df {
namespace {

using golden::h2_chain;
using golden::h2_options;
using golden::h2_reference;
using golden::mismatch;

constexpr std::uint64_t kSuiteSeed = 20260726;

struct Draw {
  int ncells;       // division {ncells, 1, 1} on an ncells-cell chain
  int batch_width;  // max fragments per lockstep batch
  int n_shards;     // 0 = one in-process shard
  TransportKind transport;
  int workers;

  Ls3dfOptions options() const {
    Ls3dfOptions lo = h2_options(ncells);
    lo.batch_width = batch_width;
    lo.n_shards = n_shards;
    lo.transport = transport;
    lo.n_workers = workers;
    return lo;
  }

  std::string describe(std::uint64_t seed, int index) const {
    std::ostringstream os;
    os << "replay: LS3DF_EQUIV_SEED=" << seed << " draw #" << index
       << " {division=" << ncells << "x1x1 batch_width=" << batch_width
       << " n_shards=" << n_shards << " transport="
       << transport_name(transport) << " workers=" << workers << "}";
    return os.str();
  }
};

Draw random_draw(Rng& rng) {
  Draw d;
  d.ncells = rng.uniform() < 0.75 ? 3 : 4;
  const int widths[] = {1, 2, 4};
  d.batch_width = widths[rng.uniform_int(3)];
  const int shards[] = {0, 1, 2, 3};
  d.n_shards = shards[rng.uniform_int(4)];
  // The proc transport forks one worker process per shard; keep it a
  // minority draw so the suite stays fast.
  d.transport = (d.n_shards > 0 && rng.uniform() < 0.3)
                    ? TransportKind::kProc
                    : TransportKind::kInProc;
  const int workers[] = {1, 2, 4};
  d.workers = workers[rng.uniform_int(3)];
  return d;
}

TEST(CrossPathEquivalence, RandomizedDrawsMatchGoldenBits) {
  std::uint64_t seed = kSuiteSeed;
  int n_draws = 20;
  if (const char* env = std::getenv("LS3DF_EQUIV_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  if (const char* env = std::getenv("LS3DF_EQUIV_DRAWS"))
    n_draws = std::atoi(env);

  Rng rng(seed);
  // The first draws are pinned to the corners a random sweep can miss:
  // the default single shard at one and four workers, three uneven
  // slabs, the proc transport, width-1 batches (every fragment its own
  // chain) and lane donation on the widest-contended shapes (many
  // chains, few workers: retirement actually widens the survivors).
  std::vector<Draw> draws = {
      {3, 4, 0, TransportKind::kInProc, 1},
      {3, 4, 0, TransportKind::kInProc, 4},
      {3, 2, 3, TransportKind::kInProc, 2},
      {3, 4, 2, TransportKind::kProc, 2},
      {3, 1, 2, TransportKind::kInProc, 2},
      {4, 1, 0, TransportKind::kInProc, 4},
      {4, 1, 1, TransportKind::kInProc, 1},
  };
  while (static_cast<int>(draws.size()) < n_draws)
    draws.push_back(random_draw(rng));

  for (int i = 0; i < static_cast<int>(draws.size()); ++i) {
    const Draw& d = draws[i];
    SCOPED_TRACE(d.describe(seed, i));
    Ls3dfSolver solver(h2_chain(d.ncells), d.options());
    ASSERT_EQ(mismatch(solver.solve(), h2_reference(d.ncells)), "");
  }
}

// The kill-and-resume dimension: a solve crashed mid-iteration and
// resumed from its latest snapshot must land on the golden bits —
// for the default single shard and shard counts {2, 4} on both
// non-SPMD transports.
TEST(CrossPathEquivalence, KillAndResumeMatchesGoldenBits) {
  struct Config {
    int n_shards;
    TransportKind transport;
  };
  const Config configs[] = {
      {0, TransportKind::kInProc},
      {2, TransportKind::kInProc},
      {4, TransportKind::kInProc},
      {2, TransportKind::kProc},
      {4, TransportKind::kProc},
  };
  const std::string path = "/tmp/ls3df_test_equiv_resume.snap";

  for (const Config& c : configs) {
    SCOPED_TRACE(std::string("n_shards=") + std::to_string(c.n_shards) +
                 " transport=" + transport_name(c.transport));
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());

    Structure s = h2_chain(3);
    Ls3dfOptions lo = h2_options(3);
    lo.n_shards = c.n_shards;
    lo.transport = c.transport;
    lo.n_workers = 2;

    // Crash in iteration 2's first batch solve; the iteration-1
    // snapshot (cadence 1) is already committed.
    Ls3dfOptions crash = lo;
    crash.checkpoint.path = path;
    Ls3dfSolver probe(s, crash);
    const int per_iter = static_cast<int>(probe.batches().size());
    std::atomic<int> counter{0};
    crash.on_batch_solve = [&counter, per_iter](int) {
      if (counter.fetch_add(1) == per_iter)
        throw std::runtime_error("injected crash");
    };
    Ls3dfSolver victim(s, crash);
    EXPECT_THROW(victim.solve(), std::runtime_error);

    // A fresh solver (fresh process, in spirit) resumes and must be
    // indistinguishable from never having crashed.
    Ls3dfSolver resumer(s, lo);
    ASSERT_EQ(mismatch(resumer.resume(path), h2_reference(3)), "");
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
  }
}

// The precision dimension: a kMixed solve runs the float instantiation
// of the lockstep Davidson before the promotion latch and the double one
// after it, and both are worker-count- and batch-shape-invariant, so
// every execution shape lands on the recorded kMixed bits.
TEST(CrossPathEquivalence, MixedPrecisionDrawsMatchGoldenBits) {
  const Structure s = h2_chain(3);
  for (int workers : {1, 4})
    for (int width : {1, 2})
      for (int n_shards : {0, 2}) {
        SCOPED_TRACE("workers=" + std::to_string(workers) +
                     " batch_width=" + std::to_string(width) +
                     " n_shards=" + std::to_string(n_shards));
        Ls3dfOptions lo = golden::h2_mixed_options();
        lo.n_workers = workers;
        lo.batch_width = width;
        lo.n_shards = n_shards;
        ASSERT_EQ(mismatch(Ls3dfSolver(s, lo).solve(),
                           golden::h2_chain3_mixed_reference()),
                  "");
      }
}

// The observability dimension: a trace recorder, the metrics registry
// and the per-iteration progress callback are execution knobs — a solve
// with all of them live must still land on the golden bits, on one
// shard, on two shards and on a thread-SPMD group.
TEST(CrossPathEquivalence, TracingAndMetricsAreBitwiseInvisible) {
  const Structure s = h2_chain(3);
  const Ls3dfOptions base = h2_options(3);

  for (int n_shards : {0, 2}) {
    SCOPED_TRACE("n_shards=" + std::to_string(n_shards));
    Ls3dfOptions lo = base;
    lo.n_shards = n_shards;
    lo.n_workers = 2;
    TraceRecorder rec;
    std::vector<double> residuals;
    lo.trace = &rec;
    lo.progress = [&residuals](const Ls3dfProgress& p) {
      EXPECT_EQ(p.iteration, static_cast<int>(residuals.size()) + 1);
      EXPECT_GE(p.wall_s, 0.0);
      residuals.push_back(p.residual);
    };
    Ls3dfSolver solver(s, lo);
    const Ls3dfResult r = solver.solve();
    ASSERT_EQ(mismatch(r, h2_reference(3)), "");

    // The observability layer actually observed the solve...
    EXPECT_GT(rec.total_events(), 0u);
    ASSERT_EQ(residuals.size(), r.conv_history.size());
    for (std::size_t k = 0; k < residuals.size(); ++k)
      EXPECT_EQ(residuals[k], r.conv_history[k]);
    ASSERT_FALSE(r.metrics.empty());
    EXPECT_EQ(r.metrics.counters.at("solver.iterations"),
              static_cast<double>(r.iterations));
  }

  // Thread-SPMD: every rank carries its own recorder and registry; every
  // rank's gathered result must still carry the golden bits.
  const int shards = 2;
  auto group = make_thread_spmd_group(shards);
  std::vector<TraceRecorder> recs(shards);
  std::vector<Ls3dfResult> res(shards);
  std::vector<std::thread> threads;
  for (int rk = 0; rk < shards; ++rk)
    threads.emplace_back([&, rk]() {
      Ls3dfOptions o = base;
      o.n_shards = shards;
      o.n_workers = 1;
      o.transport = TransportKind::kThreads;
      o.transport_factory = [&group, rk](int, int, std::size_t) {
        return std::move(group[rk]);
      };
      o.trace = &recs[rk];
      Ls3dfSolver solver(s, o);
      res[rk] = solver.solve();
    });
  for (auto& t : threads) t.join();
  for (int rk = 0; rk < shards; ++rk) {
    SCOPED_TRACE("spmd rank " + std::to_string(rk));
    EXPECT_EQ(mismatch(res[rk], h2_reference(3)), "");
    EXPECT_GT(recs[rk].total_events(), 0u);
    EXPECT_FALSE(res[rk].metrics.empty());
  }
}

// The service dimension: heterogeneous draws submitted to one
// SolverService — concurrent jobs on a shared lane budget, with live
// cross-job donation as finishers leave — must land on the same golden
// bits as their standalone solves. Multi-tenancy is an execution knob
// like worker count: arithmetically invisible.
TEST(CrossPathEquivalence, ServiceJobsMatchGoldenBits) {
  const std::vector<Draw> draws = {
      {3, 4, 0, TransportKind::kInProc, 4},
      {3, 1, 2, TransportKind::kInProc, 2},
      {4, 1, 0, TransportKind::kInProc, 4},
      {3, 4, 2, TransportKind::kProc, 2},
  };

  SolverServiceOptions so;
  so.total_lanes = 4;
  so.max_concurrent = static_cast<int>(draws.size());
  SolverService service(so);
  std::vector<SolverService::JobId> ids;
  for (const Draw& d : draws) {
    JobSpec spec;
    spec.options = d.options();
    ids.push_back(service.submit(h2_chain(d.ncells), std::move(spec)));
  }
  service.drain();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE(draws[i].describe(0, static_cast<int>(i)));
    const JobStatus st = service.status(ids[i]);
    ASSERT_EQ(st.state, JobState::kDone) << st.error;
    EXPECT_EQ(mismatch(service.result(ids[i]), h2_reference(draws[i].ncells)),
              "");
  }
}

}  // namespace
}  // namespace ls3df
