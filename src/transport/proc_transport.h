// Process-backed transport: each rank is a forked worker process, the
// exchange buffers live in one anonymous POSIX shared-memory segment,
// and phases are coordinated by the lock-free seq/done protocol of
// transport/transport.h. True multi-process LS3DF on one node with no
// external dependencies — and the dress rehearsal for the MPI backend,
// whose collectives it mirrors call for call.
//
// Layout of the segment (see proc_transport.cpp for the structs):
//
//   [ ShmHeader | bump arena ........................................ ]
//     header: seq + cmd word, done[r] counters, per-lane offset tables
//             (alltoallv send/recv, gather blocks) and the gather layout
//             params.
//     arena:  grow-only extents handed out by the parent; a lane regrow
//             re-points its offset (old extent is abandoned — grow-only)
//             and counts one allocation event. The segment is mapped
//             MAP_NORESERVE-large up front; pages commit lazily on
//             first touch, so the virtual reservation is not footprint.
//
// Division of labour per command (worker r executes rank r's share):
//   alltoallv        copy every (src -> r) send lane into its recv lane
//   allgatherv       copy r's block into the table at begin[r]
//   barrier          nothing (the round trip is the fence)
//
// Rank *compute* (FFT lines, slab kernels) still runs on the parent's
// thread pool: ShardComm's phase model is unchanged, only the exchange
// crosses process boundaries. Workers die with the transport; if one
// dies early (crash, OOM-kill), the parent's completion wait detects it
// via waitpid(WNOHANG), polled on every sleeping backoff round, and
// throws within about one sleep instead of hanging.
//
// == Fault tolerance ==
//
// Every completion wait carries a deadline (set_phase_deadline): a
// worker that is alive but unresponsive — wedged, livelocked, or stalled
// by an injected fault — surfaces as a latched timeout error instead of
// spinning the parent forever. A latched transport (dead worker or
// timeout) fails every subsequent collective until respawn_rank() /
// recover() replaces the lost workers: the replacement is forked with
// its protocol cursor at the *current* seq, so it never re-executes the
// command its predecessor died in; the caller retries the lost work from
// its last checkpoint (checkpoint/snapshot.h). Workers also arm
// prctl(PR_SET_PDEATHSIG) so a parent killed mid-phase cannot leak
// spinning worker processes. Deterministic fault injection
// (checkpoint/fault_injection.h) hooks the top of every protocol round
// via set_fault_plan().
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "transport/transport.h"

namespace ls3df {

class FaultPlan;
struct ProcShmHeader;  // defined in proc_transport.cpp

class ProcTransport : public Transport {
 public:
  static constexpr int kMaxRanks = 32;
  static constexpr std::size_t kDefaultArenaBytes = std::size_t{512} << 20;

  // Forks n_ranks workers over a fresh segment. arena_bytes is virtual
  // (lazily committed); exhausting it throws a clean error, so callers
  // that know their exchange volume should size it via make_transport.
  explicit ProcTransport(int n_ranks,
                         std::size_t arena_bytes = kDefaultArenaBytes);
  ~ProcTransport() override;

  TransportKind kind() const override { return TransportKind::kProc; }
  int n_ranks() const override { return n_ranks_; }

  std::complex<double>* send_box(int src, int dst, std::size_t n) override;
  void alltoallv() override;
  const std::complex<double>* recv_box(int src, int dst) const override;
  std::size_t box_size(int src, int dst) const override;

  void gather_layout(const std::vector<int>& counts) override;
  double* gather_block(int rank) override;
  void allgatherv() override;
  const double* gather_table() const override;

  void barrier() override;

  long allocations() const override;
  std::size_t rank_box_elements(int dst) const override;

  // --- fault tolerance -------------------------------------------------
  // Wall-clock budget for one completion wait. The workers only memcpy,
  // so the generous default can never fire on a healthy node;
  // tests shrink it to sub-second to exercise the timeout latch.
  void set_phase_deadline(double seconds) { deadline_s_ = seconds; }
  // Replace rank's worker process: kill + reap whatever is left of the
  // old one, fork a replacement whose protocol cursor starts at the
  // current seq (it never re-executes the command its predecessor died
  // in), and clear the failure latch. The exchange buffers live in the
  // shared segment and survive; payload in flight when the worker died
  // does not — the caller retries from its last checkpoint.
  void respawn_rank(int rank);
  // Full recovery sweep: respawn every dead or protocol-lagging worker,
  // clear injected stalls and the latch, and fence. Returns false if the
  // transport still cannot complete a barrier.
  bool recover() override;
  // Deterministic fault hook, invoked at the top of every protocol
  // round (checkpoint/fault_injection.h). Null disables injection.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  // --- observability ---------------------------------------------------
  // Completion-wait time accumulated by run_command since the last
  // call (then reset), the deadline it was measured against, and the
  // number of worker respawns — see transport.h.
  double take_wait_seconds() override {
    const double w = wait_seconds_;
    wait_seconds_ = 0.0;
    return w;
  }
  double phase_deadline_seconds() const override { return deadline_s_; }
  long respawn_events() const override { return respawn_events_; }

  // Crash-detection hooks (tests): the worker process behind a rank.
  pid_t worker_pid(int rank) const { return pids_[rank]; }
  void kill_worker_for_test(int rank);
  // Make rank's worker sleep through its next command (the
  // hung-but-alive failure mode the deadline wait exists for).
  void inject_stall_for_test(int rank, int stall_ms);

 private:
  // Grow-only extent allocation from the shm bump arena; one allocation
  // event per capacity growth (the uniform accounting of transport.h).
  void grow_lane(struct ShmLane& lane, std::size_t elems,
                 std::size_t elem_bytes, long& growths);
  // One protocol round: publish cmd, wait for every worker, watching for
  // dead children. Throws (and latches the failure) on a dead worker.
  void run_command(std::uint32_t cmd);
  void check_alive();

  // Fork rank's worker with its protocol cursor at start_seq; records
  // the pid. Shared by the constructor (start_seq 0) and respawn_rank.
  void spawn_worker(int rank, std::uint64_t start_seq);

  int n_ranks_;
  std::size_t map_bytes_ = 0;
  ProcShmHeader* hdr_ = nullptr;
  unsigned char* base_ = nullptr;        // segment base (arena offsets)
  std::atomic<std::uint64_t> arena_used_{0};
  std::size_t arena_bytes_ = 0;
  pid_t pids_[kMaxRanks] = {};
  pid_t parent_pid_ = -1;                // for the PDEATHSIG race check
  double deadline_s_ = 120.0;
  double wait_seconds_ = 0.0;            // completion-wait accumulator
  long respawn_events_ = 0;
  FaultPlan* fault_plan_ = nullptr;
  std::uint64_t table_cap_ = 0;          // parent-side table capacity
  std::string failed_;                   // latched fatal error, if any
  // Growth counters (parent-side; each entry has a single writer).
  std::vector<long> send_growths_, recv_growths_;
  std::vector<long> gsrc_growths_;
  long table_growths_ = 0;               // gather table
};

}  // namespace ls3df
