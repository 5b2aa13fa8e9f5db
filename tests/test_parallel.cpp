// Thread-pool, task-graph and fragment-scheduler tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "obs/context.h"
#include "obs/trace.h"
#include "parallel/scheduler.h"
#include "parallel/task_graph.h"
#include "parallel/thread_pool.h"

namespace ls3df {
namespace {

TEST(ParallelFor, VisitsEveryIndexOnce) {
  for (int workers : {1, 2, 4}) {
    std::vector<std::atomic<int>> counts(100);
    parallel_for(100, workers, [&](int i, int) { counts[i]++; });
    for (int i = 0; i < 100; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
  }
}

TEST(ParallelFor, HandlesEmptyAndSingle) {
  int called = 0;
  parallel_for(0, 4, [&](int, int) { ++called; });
  EXPECT_EQ(called, 0);
  parallel_for(1, 4, [&](int i, int) { called += i + 1; });
  EXPECT_EQ(called, 1);
}

TEST(ParallelFor, WorkerIdsInRange) {
  std::atomic<bool> ok{true};
  parallel_for(64, 3, [&](int, int w) {
    if (w < 0 || w >= 3) ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST(ParallelFor, SumMatchesSerial) {
  std::atomic<long> total{0};
  parallel_for(1000, 4, [&](int i, int) { total += i; });
  EXPECT_EQ(total.load(), 999L * 1000 / 2);
}

TEST(DefaultWorkers, AtLeastOne) { EXPECT_GE(default_workers(), 1); }

TEST(ThreadPool, BatchRunsEveryTask) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(64);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i)
    tasks.emplace_back([&counts, i]() { counts[i]++; });
  pool.run_batch(std::move(tasks));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPool, PersistsAcrossManyBatches) {
  // The engine's whole point: one pool, reused for every dispatch. 200
  // batches through the same pool must run every task exactly once, with
  // no worker churn (thread_count is fixed at construction).
  ThreadPool pool(4);
  ASSERT_EQ(pool.thread_count(), 4);
  std::atomic<long> total{0};
  for (int b = 0; b < 200; ++b) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i)
      tasks.emplace_back([&total]() { total.fetch_add(1); });
    pool.run_batch(std::move(tasks));
  }
  EXPECT_EQ(total.load(), 200L * 16);
  EXPECT_GT(pool.tasks_executed(), 0);
}

TEST(ThreadPool, ZeroThreadPoolRunsInline) {
  ThreadPool pool(0);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) tasks.emplace_back([&ran]() { ran++; });
  pool.run_batch(std::move(tasks));
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, NestedBatchesDoNotDeadlock) {
  // Waiters participate in execution, so a batch submitted from inside a
  // pool task completes even when every worker is busy waiting.
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.emplace_back([&pool, &inner_runs]() {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 8; ++j)
        inner.emplace_back([&inner_runs]() { inner_runs++; });
      pool.run_batch(std::move(inner));
    });
  }
  pool.run_batch(std::move(outer));
  EXPECT_EQ(inner_runs.load(), 4 * 8);
}

TEST(ThreadPool, NestedParallelForOnSharedPool) {
  std::atomic<int> total{0};
  parallel_for(4, 4, [&](int, int) {
    parallel_for(10, 2, [&](int, int) { total++; });
  });
  EXPECT_EQ(total.load(), 40);
}

TEST(ThreadPool, BatchExceptionPropagates) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([]() {});
  tasks.emplace_back([]() { throw std::runtime_error("task failed"); });
  tasks.emplace_back([]() {});
  tasks.emplace_back([]() {});
  EXPECT_THROW(pool.run_batch(std::move(tasks)), std::runtime_error);
  // The pool survives a failed batch and keeps executing.
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> again;
  for (int i = 0; i < 4; ++i) again.emplace_back([&ran]() { ran++; });
  pool.run_batch(std::move(again));
  EXPECT_EQ(ran.load(), 4);
}

TEST(TaskGraph, RespectsDependencies) {
  // Diamond: a -> {b, c} -> d, plus a chain hanging off d. Record the
  // finish order and assert every edge is honoured.
  ThreadPool pool(3);
  TaskGraph g;
  std::mutex mu;
  std::vector<int> order;
  auto rec = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
  };
  const int a = g.add([&]() { rec(0); });
  const int b = g.add([&]() { rec(1); }, {a});
  const int c = g.add([&]() { rec(2); }, {a});
  const int d = g.add([&]() { rec(3); }, {b, c});
  const int e = g.add([&]() { rec(4); }, {d});
  g.run(pool);
  ASSERT_EQ(order.size(), 5u);
  auto pos = [&](int id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
  EXPECT_LT(pos(3), pos(4));
  (void)e;
}

TEST(TaskGraph, StressManyIndependentChains) {
  ThreadPool pool(4);
  TaskGraph g;
  constexpr int kChains = 16, kLinks = 25;
  std::vector<std::atomic<int>> progress(kChains);
  for (int c = 0; c < kChains; ++c) {
    int prev = -1;
    for (int l = 0; l < kLinks; ++l) {
      auto fn = [&progress, c, l]() {
        // Chain order is the dependency order: links must see their
        // predecessor's increment already applied.
        EXPECT_EQ(progress[c].load(), l);
        progress[c]++;
      };
      prev = (prev < 0) ? g.add(fn) : g.add(fn, {prev});
    }
  }
  g.run(pool);
  for (int c = 0; c < kChains; ++c) EXPECT_EQ(progress[c].load(), kLinks);
}

TEST(TaskGraph, TaskExceptionPropagatesAndSkipsDependents) {
  ThreadPool pool(2);
  TaskGraph g;
  std::atomic<bool> dependent_ran{false};
  const int a = g.add([]() { throw std::runtime_error("graph task"); });
  g.add([&]() { dependent_ran = true; }, {a});
  // An independent root that is likely mid-execution when the failure
  // lands: its completion must not resurrect or wedge the abandoned
  // graph (regression test for the remaining-count underflow hang).
  g.add([]() {
    for (volatile int i = 0; i < 200000; ++i) {
    }
  });
  EXPECT_THROW(g.run(pool), std::runtime_error);
  EXPECT_FALSE(dependent_ran.load());
}

TEST(TaskGraph, MaxLanesCapsConcurrency) {
  // The lane cap bounds in-flight graph tasks; with independent tasks on
  // a wide pool, the high-water mark must never exceed it.
  ThreadPool pool(4);
  TaskGraph g;
  std::atomic<int> running{0}, peak{0};
  for (int i = 0; i < 24; ++i) {
    g.add([&]() {
      const int now = ++running;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      for (volatile int k = 0; k < 20000; ++k) {
      }
      --running;
    });
  }
  g.run(pool, 2);
  EXPECT_LE(peak.load(), 2);
  EXPECT_EQ(running.load(), 0);
}

TEST(TaskGraph, NestedParallelForInsideTasksDoesNotDeadlock) {
  // Graph tasks are free to use the pool themselves: a nested
  // parallel_for's helper may steal *other graph tasks* and must run
  // them to completion instead of wedging — the hazard the dynamic
  // arming rework removes.
  ThreadPool pool(3);
  TaskGraph g;
  std::atomic<int> total{0};
  std::vector<int> tails;
  for (int c = 0; c < 6; ++c) {
    const int head = g.add([&total]() {
      std::atomic<int> local{0};
      parallel_for(8, 4, [&](int, int) { ++local; });
      total += local.load();
    });
    tails.push_back(g.add([&total]() { ++total; }, {head}));
  }
  g.add([&total]() { ++total; }, tails);
  g.run(pool);
  EXPECT_EQ(total.load(), 6 * 8 + 6 + 1);
}

TEST(TaskGraph, ZeroThreadPoolExecutesWholeGraphOnCaller) {
  // With no workers the runner drains everything itself through
  // help_while, depth-first: successors run before older roots.
  ThreadPool pool(0);
  TaskGraph g;
  std::vector<int> order;
  const int a = g.add([&]() { order.push_back(0); });
  g.add([&]() { order.push_back(1); }, {a});
  const int c = g.add([&]() { order.push_back(2); });
  g.add([&]() { order.push_back(3); }, {c});
  g.run(pool, 1);
  ASSERT_EQ(order.size(), 4u);
  // LIFO claiming: root c (added last) first, then its successor, then
  // root a's chain — chains complete before new roots open.
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 3);
  EXPECT_EQ(order[2], 0);
  EXPECT_EQ(order[3], 1);
}

TEST(TaskGraph, ObserverReportsOrderedDisjointTimestamps) {
  // The completion-callback seam: every executed task reports a
  // [start, end] window; on a single lane the windows are disjoint and
  // honour dependency order — the contract the solve loop's per-phase
  // attribution rests on.
  ThreadPool pool(0);
  TaskGraph g;
  const int a = g.add([]() {
    for (volatile int k = 0; k < 10000; ++k) {
    }
  });
  g.add([]() {
    for (volatile int k = 0; k < 10000; ++k) {
    }
  },
        {a});
  std::vector<std::pair<double, double>> times(2, {0.0, -1.0});
  g.set_task_observer(
      [&](int id, double t0, double t1) { times[id] = {t0, t1}; });
  g.run(pool, 1);
  for (int id = 0; id < 2; ++id) {
    EXPECT_GE(times[id].second, times[id].first) << id;
    EXPECT_GE(times[id].first, 0.0) << id;
  }
  EXPECT_GE(times[1].first, times[0].second);  // dependency order
}

TEST(TaskGraph, HandoffAndBusyTimeTileTheRunOnOneLane) {
  // run() returns the lanes' hand-off time between tasks. On one lane
  // the tasks' busy windows plus the hand-off cover run() with no
  // overlap, so together they match the wall measured around the call.
  ThreadPool pool(1);  // posted tasks hop threads: real post/wake hand-offs
  TaskGraph g;
  int prev = -1;
  for (int i = 0; i < 12; ++i) {
    std::vector<int> deps;
    if (prev >= 0 && i % 4 != 0) deps.push_back(prev);
    prev = g.add(
        []() {
          for (volatile int k = 0; k < 20000; ++k) {
          }
        },
        deps);
  }
  double busy = 0;
  g.set_task_observer([&](int, double t0, double t1) { busy += t1 - t0; });
  Timer wall_timer;
  const double handoff = g.run(pool, 1);
  const double wall = wall_timer.seconds();
  EXPECT_GE(handoff, 0.0);
  EXPECT_LE(busy + handoff, wall);
  EXPECT_NEAR(busy + handoff, wall, 0.01 * wall + 50e-6)
      << "busy " << busy << " s, hand-off " << handoff << " s";
}

TEST(TaskGraph, ExceptionDuringNestedPoolUseStillLatches) {
  // A task that fails while other tasks are mid-flight (including ones
  // using the pool) must latch, drain, and rethrow — never hang.
  ThreadPool pool(2);
  TaskGraph g;
  std::atomic<bool> dependent_ran{false};
  const int a = g.add([]() {
    parallel_for(4, 2, [](int, int) {});
    throw std::runtime_error("late failure");
  });
  g.add([&]() { dependent_ran = true; }, {a});
  for (int i = 0; i < 4; ++i)
    g.add([]() { parallel_for(4, 2, [](int, int) {}); });
  EXPECT_THROW(g.run(pool), std::runtime_error);
  EXPECT_FALSE(dependent_ran.load());
}

TEST(TaskGraph, RunsTwice) {
  ThreadPool pool(2);
  TaskGraph g;
  std::atomic<int> runs{0};
  const int a = g.add([&]() { runs++; });
  g.add([&]() { runs++; }, {a});
  g.run(pool);
  g.run(pool);
  EXPECT_EQ(runs.load(), 4);
}

TEST(TaskGraph, PostedTaskSpansCloseBeforeRunReturns) {
  // A posted graph task's lane span must close before its completion is
  // published: run() may return right after, and its caller free the
  // recorder. Under ASan a span closing late is a heap-use-after-free.
  for (int round = 0; round < 2000; ++round) {
    auto rec = std::make_unique<TraceRecorder>(256);
    ObsContext ctx = obs_context();
    ctx.trace = rec.get();
    ObsContextScope scope(ctx);
    TaskGraph g;
    for (int i = 0; i < 8; ++i) g.add([] {});
    g.run(shared_pool(), 4);
  }  // scope uninstalls the recorder, then rec frees it
}

TEST(Scheduler, UniformCostsBalancePerfectly) {
  std::vector<double> costs(64, 1.0);
  GroupAssignment ga = assign_fragments(costs, 8);
  EXPECT_DOUBLE_EQ(ga.max_cost, 8.0);
  EXPECT_DOUBLE_EQ(ga.efficiency, 1.0);
  for (double c : ga.group_cost) EXPECT_DOUBLE_EQ(c, 8.0);
}

TEST(Scheduler, AssignmentCoversAllFragments) {
  Rng rng(1);
  std::vector<double> costs(37);
  for (auto& c : costs) c = rng.uniform(0.5, 4.0);
  GroupAssignment ga = assign_fragments(costs, 5);
  ASSERT_EQ(ga.group_of.size(), costs.size());
  std::vector<double> check(5, 0.0);
  for (std::size_t f = 0; f < costs.size(); ++f) {
    ASSERT_GE(ga.group_of[f], 0);
    ASSERT_LT(ga.group_of[f], 5);
    check[ga.group_of[f]] += costs[f];
  }
  for (int g = 0; g < 5; ++g) EXPECT_NEAR(check[g], ga.group_cost[g], 1e-12);
  EXPECT_NEAR(ga.total_cost,
              std::accumulate(costs.begin(), costs.end(), 0.0), 1e-12);
}

TEST(Scheduler, LptBeatsWorstCase) {
  // LPT guarantees makespan <= (4/3 - 1/3m) * optimal; with many small
  // items efficiency should be high.
  Rng rng(7);
  std::vector<double> costs(200);
  for (auto& c : costs) c = rng.uniform(1.0, 3.0);
  GroupAssignment ga = assign_fragments(costs, 10);
  EXPECT_GT(ga.efficiency, 0.95);
}

TEST(Scheduler, PaperLikeFragmentMix) {
  // The paper's 8x6x9 run: 3,456 fragments in 8 size classes on 432
  // groups (17,280 cores / Np = 40). The LS3DF load balance underlying
  // the 95.8% PEtot_F parallel efficiency requires the LPT assignment of
  // the heterogeneous fragment mix to be near-perfect.
  std::vector<double> costs;
  const double class_cost[8] = {8, 12, 12, 12, 18, 18, 18, 27};
  for (int cell = 0; cell < 432; ++cell)
    for (double c : class_cost) costs.push_back(c * c);
  GroupAssignment ga = assign_fragments(costs, 432);
  EXPECT_GT(ga.efficiency, 0.93);
}

TEST(Scheduler, MoreGroupsNeverIncreaseMakespan) {
  Rng rng(3);
  std::vector<double> costs(120);
  for (auto& c : costs) c = rng.uniform(0.5, 5.0);
  double prev = 1e300;
  for (int g : {2, 4, 8, 16}) {
    GroupAssignment ga = assign_fragments(costs, g);
    EXPECT_LE(ga.max_cost, prev + 1e-12) << g;
    prev = ga.max_cost;
  }
}

TEST(Scheduler, SingleGroupTakesEverything) {
  std::vector<double> costs{1, 2, 3};
  GroupAssignment ga = assign_fragments(costs, 1);
  EXPECT_DOUBLE_EQ(ga.max_cost, 6.0);
  EXPECT_DOUBLE_EQ(ga.efficiency, 1.0);
}

TEST(LaneBudget, AllowanceMatchesFixedSplitWhileAllLive) {
  // While every holder is live the allowance must equal the fixed LPT
  // split max(1, total / min(holders, total)) — donation-on dispatches
  // open at exactly the donation-off width.
  LaneBudget lb;
  for (int total : {1, 2, 3, 4, 8}) {
    for (int holders : {1, 2, 3, 4, 8}) {
      lb.reset(total, holders);
      const int fixed = std::max(1, total / std::min(holders, total));
      EXPECT_EQ(lb.allowance(), fixed) << total << "/" << holders;
    }
  }
}

TEST(LaneBudget, RetireWidensSurvivorsAndIsIdempotent) {
  LaneBudget lb;
  lb.reset(8, 4);
  const long base = lb.donation_events();
  EXPECT_EQ(lb.allowance(), 2);
  lb.retire(1);
  EXPECT_EQ(lb.live(), 3);
  EXPECT_EQ(lb.allowance(), 2);  // 8/3 -> 2
  lb.retire(1);                  // idempotent: no double donation
  EXPECT_EQ(lb.live(), 3);
  EXPECT_EQ(lb.donation_events(), base + 1);
  lb.retire(3);
  EXPECT_EQ(lb.allowance(), 4);
  lb.retire(0);
  EXPECT_EQ(lb.allowance(), 8);
  // The last holder's retirement leaves no survivor to widen: it is not
  // a donation event.
  lb.retire(2);
  EXPECT_EQ(lb.live(), 0);
  EXPECT_EQ(lb.donation_events(), base + 3);
  // allowance() stays sane after everyone retired (clamped live).
  EXPECT_EQ(lb.allowance(), 8);
  lb.retire(99);  // out of range: ignored
  EXPECT_EQ(lb.donation_events(), base + 3);
}

TEST(LaneBudget, OneLanePinsAllowanceAtOne) {
  // total == 1 makes donation a structural no-op: every read is 1
  // regardless of retirement order, so a 1-worker run is trivially
  // deterministic.
  LaneBudget lb;
  lb.reset(1, 4);
  EXPECT_EQ(lb.allowance(), 1);
  lb.retire(0);
  lb.retire(2);
  EXPECT_EQ(lb.allowance(), 1);
  lb.retire(1);
  lb.retire(3);
  EXPECT_EQ(lb.allowance(), 1);
  // Degenerate arm: clamped to one lane, allowance still 1.
  lb.reset(0, 0);
  EXPECT_EQ(lb.allowance(), 1);
}

TEST(LaneBudget, JoinLeaveSplitsEvenlyAcrossLiveHolders) {
  // The service's arming: no fixed holders, jobs join and leave.
  LaneBudget lb;
  lb.reset(8, 0);
  EXPECT_EQ(lb.live(), 0);
  EXPECT_EQ(lb.total(), 8);
  for (int live = 1; live <= 10; ++live) {
    lb.join();
    EXPECT_EQ(lb.live(), live);
    EXPECT_EQ(lb.allowance(), std::max(1, 8 / std::min(live, 8))) << live;
  }
}

TEST(LaneBudget, LeaveDonatesOnlyToSurvivors) {
  LaneBudget lb;
  lb.reset(4, 0);
  const long base = lb.donation_events();
  lb.join();
  lb.join();
  EXPECT_EQ(lb.allowance(), 2);
  lb.leave();  // one survivor widens: one donation
  EXPECT_EQ(lb.live(), 1);
  EXPECT_EQ(lb.allowance(), 4);
  EXPECT_EQ(lb.donation_events(), base + 1);
  lb.leave();  // the last holder leaves nobody to widen
  EXPECT_EQ(lb.live(), 0);
  EXPECT_EQ(lb.donation_events(), base + 1);
}

TEST(LaneBudget, ConcurrentRetireAndAllowanceStress) {
  // TSan-exercised (test_parallel is in the sanitizer label set):
  // retiring chains race with sweeping allowance() readers, lock-free.
  // Every read must be a legal width for the live count at *some* moment
  // of the round, and the final state must be exact.
  constexpr int kHolders = 16;
  constexpr int kTotal = 8;
  LaneBudget lb;
  for (int round = 0; round < 25; ++round) {
    lb.reset(kTotal, kHolders);
    const long base = lb.donation_events();
    std::atomic<bool> bad{false};
    std::vector<std::function<void()>> tasks;
    for (int h = 0; h < kHolders; ++h) {
      tasks.push_back([&lb, &bad, h] {
        for (int sweep = 0; sweep < 64; ++sweep) {
          const int a = lb.allowance();
          if (a < 1 || a > kTotal) bad.store(true);
        }
        lb.retire(h);
        lb.retire(h);  // racing double-retire stays idempotent
      });
    }
    ThreadPool pool(4);
    pool.run_batch(std::move(tasks));
    EXPECT_FALSE(bad.load());
    EXPECT_EQ(lb.live(), 0);
    EXPECT_EQ(lb.donation_events(), base + kHolders - 1);
    EXPECT_EQ(lb.allowance(), kTotal);
  }
}

}  // namespace
}  // namespace ls3df
