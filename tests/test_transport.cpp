// Transport subsystem tests: backend-uniform collective semantics
// (including the degenerate shapes — zero-length lanes, a single rank),
// cross-backend bit-identity, the grow-only allocation accounting, and
// the proc backend's process-level contracts (forked workers, crash
// detection instead of hangs).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <complex>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "parallel/shard_comm.h"
#include "transport/proc_transport.h"
#include "transport/thread_transport.h"
#include "transport/transport.h"

namespace ls3df {
namespace {

using cplx = std::complex<double>;

const TransportKind kBackends[] = {TransportKind::kInProc,
                                   TransportKind::kProc};

TEST(Transport, FactoryProducesTheRequestedBackend) {
  for (TransportKind kind : kBackends) {
    std::unique_ptr<Transport> t = make_transport(kind, 3);
    EXPECT_EQ(t->kind(), kind);
    EXPECT_EQ(t->n_ranks(), 3);
    EXPECT_FALSE(t->spmd());
    EXPECT_EQ(t->allocations(), 0);
    t->barrier();  // a fresh transport must fence cleanly
  }
#ifndef LS3DF_WITH_MPI
  // Without the MPI build the seam still exists — selecting it is a
  // clean error, not a link failure.
  EXPECT_THROW(make_transport(TransportKind::kMpi, 2),
               std::runtime_error);
#endif
}

TEST(Transport, RankCeilingAndArenaLimitsAreCleanErrors) {
  // The proc backend has a fixed worker table and a bounded shm arena;
  // exceeding either must be a clean exception (the solver clamps shard
  // counts against transport_max_ranks and sizes the arena from the
  // grid, so neither fires on the solve path).
  EXPECT_EQ(transport_max_ranks(TransportKind::kProc),
            ProcTransport::kMaxRanks);
  EXPECT_GT(transport_max_ranks(TransportKind::kInProc), 1 << 20);
  EXPECT_THROW(ProcTransport(ProcTransport::kMaxRanks + 1),
               std::invalid_argument);
  // A deliberately tiny arena: the oversized post throws the documented
  // exhaustion error instead of corrupting the segment.
  ProcTransport tiny(2, std::size_t{1} << 20);
  EXPECT_THROW(tiny.send_box(0, 1, std::size_t{1} << 22),
               std::runtime_error);
  // The factory's arena override reaches the backend: the same post
  // succeeds with a sufficient reservation.
  auto roomy = make_transport(TransportKind::kProc, 2,
                              std::size_t{256} << 20);
  EXPECT_NE(roomy->send_box(0, 1, std::size_t{1} << 22), nullptr);
}

TEST(Transport, AllToAllvZeroLengthLanes) {
  // Sparse communication patterns post nothing on most lanes; empty
  // lanes must deliver as zero-size, not stale or undefined data.
  for (TransportKind kind : kBackends) {
    const int n = 4;
    ShardComm comm(n, 2, kind);
    comm.all_to_all(
        [&](int src) {
          for (int dst = 0; dst < n; ++dst) {
            // Only the (src == dst + 1) lanes carry payload.
            const std::size_t len = (src == dst + 1) ? 3 : 0;
            cplx* box = comm.send_box(src, dst, len);
            for (std::size_t k = 0; k < len; ++k)
              box[k] = cplx(src, static_cast<double>(k));
          }
        },
        [&](int dst) {
          for (int src = 0; src < n; ++src) {
            const std::size_t want = (src == dst + 1) ? 3 : 0;
            EXPECT_EQ(comm.box_size(src, dst), want)
                << transport_name(kind);
            const cplx* box = comm.recv_box(src, dst);
            for (std::size_t k = 0; k < want; ++k)
              EXPECT_EQ(box[k], cplx(src, static_cast<double>(k)));
          }
        });
  }
}

TEST(Transport, SingleRankDegenerateCollectives) {
  // n_ranks == 1: every collective collapses to a self-exchange and must
  // still work (the n_shards == 1 solver path exercises exactly this).
  for (TransportKind kind : kBackends) {
    ShardComm comm(1, 1, kind);
    comm.all_to_all(
        [&](int src) {
          cplx* box = comm.send_box(src, 0, 2);
          box[0] = cplx(1, 2);
          box[1] = cplx(3, 4);
        },
        [&](int dst) {
          EXPECT_EQ(comm.box_size(0, dst), 2u);
          EXPECT_EQ(comm.recv_box(0, dst)[0], cplx(1, 2));
          EXPECT_EQ(comm.recv_box(0, dst)[1], cplx(3, 4));
        });
    const ShardComm::GatherView view = comm.all_gather(
        {3}, [](int, double* block) { block[0] = 7; block[1] = 8;
                                      block[2] = 9; });
    EXPECT_EQ(view.data()[0], 7);
    EXPECT_EQ(view.data()[2], 9);
    comm.transport().barrier();
  }
}

TEST(Transport, CollectivesBitIdenticalAcrossBackends) {
  // The cross-backend contract behind the solver-level identity: the
  // same posts produce the same bits through the zero-copy mailboxes and
  // through the worker-process shared-memory exchange.
  const int n = 3;
  ShardComm inproc(n, 2, TransportKind::kInProc);
  ShardComm proc(n, 2, TransportKind::kProc);

  Rng rng(17);
  std::vector<std::vector<cplx>> payload(n * n);
  for (int src = 0; src < n; ++src)
    for (int dst = 0; dst < n; ++dst) {
      auto& lane = payload[src * n + dst];
      lane.resize(static_cast<std::size_t>(1 + (src + 2 * dst) % 4));
      for (cplx& v : lane) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    }
  std::vector<std::vector<cplx>> got_in(n * n), got_proc(n * n);
  const auto run = [&](ShardComm& comm, std::vector<std::vector<cplx>>& got) {
    comm.all_to_all(
        [&](int src) {
          for (int dst = 0; dst < n; ++dst) {
            const auto& lane = payload[src * n + dst];
            cplx* box = comm.send_box(src, dst, lane.size());
            for (std::size_t k = 0; k < lane.size(); ++k) box[k] = lane[k];
          }
        },
        [&](int dst) {
          for (int src = 0; src < n; ++src) {
            const cplx* box = comm.recv_box(src, dst);
            got[src * n + dst].assign(box,
                                      box + comm.box_size(src, dst));
          }
        });
  };
  run(inproc, got_in);
  run(proc, got_proc);
  for (int lane = 0; lane < n * n; ++lane) {
    ASSERT_EQ(got_in[lane].size(), got_proc[lane].size());
    for (std::size_t k = 0; k < got_in[lane].size(); ++k)
      ASSERT_EQ(got_in[lane][k], got_proc[lane][k]) << lane;
  }

  // all_gather: uneven blocks (one empty) of random doubles must
  // assemble into the same rank-ordered table bitwise.
  const std::vector<int> counts{4, 0, 5};
  std::vector<double> want;
  std::vector<std::vector<double>> blocks(n);
  for (int r = 0; r < n; ++r) {
    blocks[r].resize(static_cast<std::size_t>(counts[r]));
    for (double& v : blocks[r]) v = rng.uniform(-1, 1);
    want.insert(want.end(), blocks[r].begin(), blocks[r].end());
  }
  const auto gather = [&](ShardComm& comm) {
    const ShardComm::GatherView view =
        comm.all_gather(counts, [&](int r, double* block) {
          std::copy(blocks[r].begin(), blocks[r].end(), block);
        });
    return std::vector<double>(view.data(), view.data() + view.size());
  };
  const std::vector<double> tab_in = gather(inproc);
  const std::vector<double> tab_proc = gather(proc);
  ASSERT_EQ(tab_in.size(), want.size());
  ASSERT_EQ(tab_proc.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(tab_in[i], want[i]) << i;
    ASSERT_EQ(tab_proc[i], tab_in[i]) << i;
  }
}

TEST(Transport, SteadyStateAllocationsAreFlatPerBackend) {
  // Uniform accounting: after a warm-up round at the working sizes,
  // repeating the same collectives grows nothing — on either backend
  // (the proc arena extents are grow-only like the in-process vectors).
  for (TransportKind kind : kBackends) {
    ShardComm comm(3, 2, kind);
    const auto round = [&]() {
      comm.all_to_all(
          [&](int src) {
            for (int dst = 0; dst < 3; ++dst) {
              cplx* box = comm.send_box(src, dst, 5);
              for (int k = 0; k < 5; ++k) box[k] = cplx(src, dst);
            }
          },
          [&](int dst) { (void)comm.recv_box(0, dst); });
      comm.all_gather({2, 2, 2},
                      [](int r, double* block) { block[0] = block[1] = r; });
    };
    round();
    const long warm = comm.allocations();
    EXPECT_GT(warm, 0) << transport_name(kind);
    for (int rep = 0; rep < 3; ++rep) round();
    EXPECT_EQ(comm.allocations(), warm)
        << "exchange buffers grew after warm-up on " << transport_name(kind);
    // Shrinking posts must reuse the warm capacity too.
    comm.all_to_all(
        [&](int src) {
          for (int dst = 0; dst < 3; ++dst) comm.send_box(src, dst, 2);
        },
        [](int) {});
    EXPECT_EQ(comm.allocations(), warm) << transport_name(kind);
  }
}

TEST(Transport, GatherViewLatchesStaleReads) {
  // The gather table is transport-owned storage reused by the next
  // gather; a view held across that boundary must fail loudly, not read
  // recycled bytes.
  ShardComm comm(2, 1, TransportKind::kInProc);
  const ShardComm::GatherView v1 = comm.all_gather(
      {1, 1}, [](int r, double* block) { block[0] = 10.0 + r; });
  EXPECT_FALSE(v1.stale());
  EXPECT_EQ(v1.size(), 2u);
  EXPECT_EQ(v1.data()[0], 10.0);
  EXPECT_EQ(v1.data()[1], 11.0);
  const ShardComm::GatherView v2 = comm.gather_one(
      1, 2, [](double* block) { block[0] = 5; block[1] = 6; });
  EXPECT_TRUE(v1.stale());
  EXPECT_THROW(v1.data(), std::logic_error);
  EXPECT_FALSE(v2.stale());
  EXPECT_EQ(v2.data()[0], 5.0);
  EXPECT_EQ(v2.data()[1], 6.0);
}

TEST(ThreadTransport, GroupIsSpmdWithOneRankPerInstance) {
  auto group = make_thread_spmd_group(3);
  ASSERT_EQ(group.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(group[r]->kind(), TransportKind::kThreads);
    EXPECT_TRUE(group[r]->spmd());
    EXPECT_EQ(group[r]->self_rank(), r);
    EXPECT_EQ(group[r]->n_ranks(), 3);
  }
  // kThreads has no single-instance construction — the factory points at
  // make_thread_spmd_group instead of faking an SPMD group.
  EXPECT_THROW(make_transport(TransportKind::kThreads, 2),
               std::runtime_error);
}

TEST(ThreadTransport, CollectivesBitIdenticalToInProc) {
  // The SPMD leg of the cross-backend contract: N OS threads, each
  // driving its own Transport instance through the same posts the
  // dense-per-process in-proc communicator runs, must read the same
  // bits out of every collective.
  const int n = 3;
  Rng rng(17);
  std::vector<std::vector<cplx>> payload(n * n);
  for (int src = 0; src < n; ++src)
    for (int dst = 0; dst < n; ++dst) {
      auto& lane = payload[src * n + dst];
      lane.resize(static_cast<std::size_t>(1 + (src + 2 * dst) % 4));
      for (cplx& v : lane) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    }
  const std::vector<int> gcounts{2, 1, 3};

  // One round of both collectives through a communicator. Under an SPMD
  // transport pack/fill run only for the local rank; every writer
  // targets disjoint slots, so the shared outputs need no locking.
  const auto round = [&](ShardComm& comm, std::vector<std::vector<cplx>>& got,
                         std::vector<std::vector<double>>& table) {
    comm.all_to_all(
        [&](int src) {
          for (int dst = 0; dst < n; ++dst) {
            const auto& lane = payload[src * n + dst];
            cplx* box = comm.send_box(src, dst, lane.size());
            for (std::size_t k = 0; k < lane.size(); ++k) box[k] = lane[k];
          }
        },
        [&](int dst) {
          for (int src = 0; src < n; ++src) {
            const cplx* box = comm.recv_box(src, dst);
            got[src * n + dst].assign(box, box + comm.box_size(src, dst));
          }
        });
    const ShardComm::GatherView view = comm.all_gather(
        gcounts, [&](int r, double* block) {
          for (int k = 0; k < gcounts[r]; ++k)
            block[k] = 100.0 * r + k + 0.25;
        });
    const int local = comm.local_rank();
    for (int r = 0; r < n; ++r)
      if (local < 0 || r == local)
        table[r].assign(view.data(), view.data() + view.size());
    comm.transport().barrier();
  };

  // Reference: the dense-per-process in-proc backend.
  ShardComm ref(n, 2, TransportKind::kInProc);
  std::vector<std::vector<cplx>> got_ref(n * n);
  std::vector<std::vector<double>> tab_ref(n);
  round(ref, got_ref, tab_ref);

  // Thread-SPMD group: each rank's thread adopts its instance into a
  // rank-local ShardComm and runs the identical round.
  auto group = make_thread_spmd_group(n);
  std::vector<std::vector<cplx>> got_thr(n * n);
  std::vector<std::vector<double>> tab_thr(n);
  std::vector<std::thread> threads;
  for (int r = 0; r < n; ++r)
    threads.emplace_back([&, r]() {
      ShardComm comm(n, 1, std::move(group[r]));
      ASSERT_EQ(comm.local_rank(), r);
      round(comm, got_thr, tab_thr);
    });
  for (auto& t : threads) t.join();

  // Each SPMD rank read only its own recv lanes; the union must match
  // the reference bitwise, and the gather table must be the full
  // rank-ordered assembly on every rank.
  for (int src = 0; src < n; ++src)
    for (int dst = 0; dst < n; ++dst) {
      const auto& a = got_ref[src * n + dst];
      const auto& b = got_thr[src * n + dst];
      ASSERT_EQ(a.size(), b.size()) << src << "->" << dst;
      for (std::size_t k = 0; k < a.size(); ++k)
        ASSERT_EQ(a[k], b[k]) << src << "->" << dst;
    }
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(tab_thr[r].size(), tab_ref[0].size()) << r;
    for (std::size_t k = 0; k < tab_thr[r].size(); ++k)
      ASSERT_EQ(tab_thr[r][k], tab_ref[0][k]) << r;
  }
}

// One allgatherv round on a 3-rank proc transport: rank r posts
// {r + 1, r + 1}, and only worker r copies that block into the table, so
// a correct table proves every worker did real work.
void expect_gather_round(ProcTransport& t) {
  t.gather_layout({2, 2, 2});
  for (int r = 0; r < 3; ++r) {
    double* block = t.gather_block(r);
    block[0] = block[1] = r + 1;
  }
  t.allgatherv();
  const double* table = t.gather_table();
  for (int k = 0; k < 6; ++k) EXPECT_EQ(table[k], k / 2 + 1) << k;
}

TEST(ProcTransport, WorkerCrashIsDetectedNotHung) {
  // A dead worker (crash, OOM-kill) must surface as a clean error on the
  // next collective instead of spinning forever — and stay latched.
  ProcTransport t(3);
  t.barrier();  // workers are up
  ASSERT_GT(t.worker_pid(1), 0);
  t.kill_worker_for_test(1);
  // Every sleeping backoff round polls the workers, so the death
  // surfaces within a few sleeps of the next collective.
  Timer detect;
  EXPECT_THROW(t.barrier(), std::runtime_error);
  EXPECT_LT(detect.seconds(), 0.020);
  // Latched: later collectives fail fast without touching the protocol.
  EXPECT_THROW(t.alltoallv(), std::runtime_error);
  // Destruction after a crash must still reap cleanly (no hang): covered
  // by leaving scope here.
}

TEST(ProcTransport, StalledWorkerLatchesTimeoutNotWedge) {
  // The hung-but-alive failure mode a dead-worker check cannot see: the
  // worker sleeps through its command, the parent's deadline wait must
  // latch a timeout well before the stall drains — never wedge.
  ProcTransport t(2);
  t.barrier();
  t.set_phase_deadline(0.3);
  t.inject_stall_for_test(1, 10000);
  try {
    t.barrier();
    FAIL() << "expected a timeout";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("rank"), std::string::npos);
  }
  // Latched: the next collective fails fast without touching the
  // protocol (the stalled worker is still asleep).
  EXPECT_THROW(t.alltoallv(), std::runtime_error);

  // recover() replaces the laggard (alive but behind the protocol
  // cursor) and fences; collectives work again.
  t.set_phase_deadline(120.0);
  EXPECT_TRUE(t.recover());
  t.gather_layout({2, 2});
  for (int r = 0; r < 2; ++r) {
    double* block = t.gather_block(r);
    block[0] = 10.0 * r;
    block[1] = 10.0 * r + 1;
  }
  t.allgatherv();
  const double* table = t.gather_table();
  EXPECT_EQ(table[0], 0.0);
  EXPECT_EQ(table[1], 1.0);
  EXPECT_EQ(table[2], 10.0);
  EXPECT_EQ(table[3], 11.0);
}

TEST(ProcTransport, RespawnRankReplacesADeadWorker) {
  ProcTransport t(3);
  t.barrier();
  const pid_t old_pid = t.worker_pid(1);
  t.kill_worker_for_test(1);
  EXPECT_THROW(t.barrier(), std::runtime_error);

  t.respawn_rank(1);
  EXPECT_NE(t.worker_pid(1), old_pid);
  EXPECT_GT(t.worker_pid(1), 0);
  t.barrier();  // the replacement joins the protocol at the current seq

  // And it does real work: rank 1's table block arrives.
  expect_gather_round(t);
}

TEST(ProcTransport, RecoverOnHealthyTransportIsIdempotentNoOp) {
  // recover() is the service layer's blanket "heal before retry" call,
  // so invoking it on a perfectly healthy transport — and invoking it
  // twice back to back — must be a no-op: no worker re-forked, no
  // respawn event counted, no phase-protocol skew.
  ProcTransport t(3);
  t.barrier();  // workers are up and past the first fence
  pid_t pids[3];
  for (int r = 0; r < 3; ++r) {
    pids[r] = t.worker_pid(r);
    ASSERT_GT(pids[r], 0) << r;
  }
  ASSERT_EQ(t.respawn_events(), 0);

  EXPECT_TRUE(t.recover());
  EXPECT_TRUE(t.recover());

  EXPECT_EQ(t.respawn_events(), 0);
  for (int r = 0; r < 3; ++r)
    EXPECT_EQ(t.worker_pid(r), pids[r]) << "rank " << r << " re-forked";

  // The protocol cursor is not skewed: a real collective still delivers
  // the right answer on the same workers.
  expect_gather_round(t);

  // After a real death, recover() respawns exactly the dead rank — and
  // a second recover() on the now-healthy transport adds nothing.
  t.kill_worker_for_test(1);
  EXPECT_THROW(t.barrier(), std::runtime_error);
  EXPECT_TRUE(t.recover());
  EXPECT_EQ(t.respawn_events(), 1);
  EXPECT_NE(t.worker_pid(1), pids[1]);
  EXPECT_EQ(t.worker_pid(0), pids[0]);
  EXPECT_EQ(t.worker_pid(2), pids[2]);
  EXPECT_TRUE(t.recover());
  EXPECT_EQ(t.respawn_events(), 1);
  t.barrier();
}

#ifdef __linux__
TEST(ProcTransport, WorkersDieWithTheirParent) {
  // The orphan-leak fix: workers arm PR_SET_PDEATHSIG, so a parent that
  // dies without running the destructor (crash, SIGKILL) cannot leave
  // worker processes spinning. An intermediate process creates the
  // transport, reports its worker pids over a pipe, and _exits without
  // cleanup; the workers must vanish on their own.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t mid = fork();
  ASSERT_GE(mid, 0);
  if (mid == 0) {
    // Intermediate: build the transport, leak it, die.
    auto* t = new ProcTransport(2);
    t->barrier();
    pid_t pids[2] = {t->worker_pid(0), t->worker_pid(1)};
    (void)!write(fds[1], pids, sizeof(pids));
    _exit(0);  // no destructor: the workers' parent just vanished
  }
  close(fds[1]);
  pid_t pids[2] = {0, 0};
  ASSERT_EQ(read(fds[0], pids, sizeof(pids)),
            static_cast<ssize_t>(sizeof(pids)));
  close(fds[0]);
  int status = 0;
  ASSERT_EQ(waitpid(mid, &status, 0), mid);

  // The orphaned workers get SIGTERM via PDEATHSIG; poll until both are
  // gone (they are not our children, so kill(pid, 0) is the probe).
  bool gone = false;
  for (int i = 0; i < 500 && !gone; ++i) {
    gone = kill(pids[0], 0) != 0 && kill(pids[1], 0) != 0;
    if (!gone) usleep(10000);
  }
  EXPECT_TRUE(gone) << "orphaned workers " << pids[0] << ", " << pids[1]
                    << " outlived their parent";
}
#endif  // __linux__

TEST(ProcTransport, WorkersAreRealProcesses) {
  // The point of the backend: the exchange work runs in forked children,
  // one live worker process per rank, each distinct from the parent.
  ProcTransport t(2);
  t.barrier();
  EXPECT_NE(t.worker_pid(0), t.worker_pid(1));
  for (int r = 0; r < 2; ++r) {
    EXPECT_GT(t.worker_pid(r), 0);
    EXPECT_NE(t.worker_pid(r), getpid());
    // Signal 0 probes existence without touching the worker.
    EXPECT_EQ(kill(t.worker_pid(r), 0), 0) << "worker " << r << " not alive";
  }
}

}  // namespace
}  // namespace ls3df
