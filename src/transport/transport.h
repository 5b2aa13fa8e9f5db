// Pluggable shard transport: the data plane under ShardComm's collectives.
//
// == Architecture ==
//
// ShardComm (parallel/shard_comm.h) phases rank *compute*; a Transport
// owns rank *data movement*: the grow-only exchange buffers and the
// exchange itself. Every collective splits into the same three steps —
// post into transport-owned buffers, exchange, read — so one interface
// serves four very different backends:
//
//   InProcTransport   N logical ranks in one process (the default).
//                     recv_box aliases send_box, so alltoallv() is a
//                     no-op and the exchange is zero-copy — bit- and
//                     allocation-identical to the pre-transport ShardComm.
//
//   ProcTransport     N forked worker processes over one anonymous POSIX
//                     shared-memory segment (mmap MAP_SHARED): true
//                     multi-process LS3DF on one node, no external deps.
//                     Rank r's share of every exchange (its incoming
//                     alltoallv lanes, its allgatherv table block) is
//                     executed by worker process r. See the phase
//                     protocol below.
//
//   ThreadTransport   N Transport instances over one shared in-process
//                     core, each bound to a thread that acts as one SPMD
//                     rank (make_thread_spmd_group). spmd() is true, so
//                     it exercises the exact rank-local storage layout
//                     and collective schedule MPI runs — without an MPI
//                     launcher. Collectives rendezvous on counting
//                     barriers; payload moves through per-(src,dst)
//                     shared lanes between two barriers.
//
//   MpiTransport      (LS3DF_WITH_MPI only) one MPI process per rank,
//                     collectives mapped 1:1 onto MPI. spmd() is true:
//                     ShardComm runs rank bodies for self_rank() only.
//                     See the mapping table below.
//
// == Storage modes ==
//
// spmd() == false (inproc, proc): every distributed container —
// ShardedField3D, DistFft3D, mixer history — holds all N slabs in the
// one orchestrating process; rank bodies fan out over the shared pool
// and touch only rank-owned slabs. This is the dense-per-process layout
// and the bit-exact reference for everything below.
//
// spmd() == true (threads, MPI): each process/thread owns exactly one
// rank and the containers allocate ONLY that rank's slab (plus bounded
// exchange scratch), so resident bytes per rank are ~global/N. Dense
// fields cross the boundary only through explicit allgatherv routes
// (ShardComm::all_gather / gather_one, gather_dense in
// grid/sharded_field.h) at public-API and snapshot seams; everything in
// the inner iteration stays rank-local.
//
// == Ordered reductions live in the callers ==
//
// No collective here adds floating-point values: every backend only
// moves bytes, so every backend is bit-identical by construction.
// Floating-point addition does not commute in rounding, so the sums that
// cross ranks are fixed-order folds run by the callers on exchanged
// data — the plane-blocked reductions over an allgatherv table
// (grid/sharded_field.h) and the Gen_dens window fold over alltoallv
// lanes (fragment/ls3df.cpp). Neither depends on the backend, the rank
// count or MPI_SUM's implementation-defined order.
//
// == ProcTransport phase protocol (lock-free) ==
//
// The shm segment holds a header (command word, per-lane offset tables,
// layout params) and a grow-only bump arena for the exchange buffers.
// One command round:
//
//   parent   writes params + lane tables (plain stores), then
//            seq.store(s+1, release)                      — "post"
//   worker r spins on seq.load(acquire) != last; executes its share
//            (memcpy on the arena); then
//            done[r].store(s+1, release)                  — "complete"
//   parent   spins until all done[r] == s+1, polling waitpid(WNOHANG)
//            so a dead worker raises a clean error instead of a hang.
//
// No locks, no futexes: one release store publishes each direction, and
// spin loops back off to nanosleep so idle workers cost ~nothing on
// oversubscribed nodes. Buffers are grow-only bump-arena extents; a
// regrow re-points the lane's offset and counts one allocation event
// (the same capacity-growth semantics every backend reports through
// allocations(), so steady-state probes are backend-uniform).
//
// == MPI mapping (MpiTransport) ==
//
//   send_box/alltoallv/recv_box   MPI_Alltoall (lane sizes) +
//                                 MPI_Alltoallv (payload)
//   gather_*/allgatherv           MPI_Allgatherv
//   barrier                       MPI_Barrier
//
// Under MPI each process owns exactly one rank (spmd() == true), so
// send_box/gather_block accept only self_rank() as the posting rank and
// recv_box only self_rank() as the reader; ShardComm runs phase bodies
// for the local rank only.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

namespace ls3df {

enum class TransportKind { kInProc, kProc, kThreads, kMpi };

const char* transport_name(TransportKind kind);

class Transport {
 public:
  virtual ~Transport();

  virtual TransportKind kind() const = 0;
  const char* name() const { return transport_name(kind()); }
  virtual int n_ranks() const = 0;

  // True when each process/thread owns exactly one rank (threads, MPI):
  // ShardComm runs rank bodies only for self_rank(), per-rank
  // buffer methods accept only the local rank, and distributed
  // containers built on this transport allocate only the local rank's
  // slabs (see the storage-modes block above).
  virtual bool spmd() const { return false; }
  virtual int self_rank() const { return 0; }

  // --- alltoallv -------------------------------------------------------
  // Rank src posts n complex values for dst (grow-only capacity; lanes
  // not re-posted keep their previous size). alltoallv() completes the
  // exchange; afterwards recv_box(src, dst) holds what src posted.
  virtual std::complex<double>* send_box(int src, int dst,
                                         std::size_t n) = 0;
  virtual void alltoallv() = 0;
  virtual const std::complex<double>* recv_box(int src, int dst) const = 0;
  virtual std::size_t box_size(int src, int dst) const = 0;

  // --- allgatherv ------------------------------------------------------
  // gather_layout fixes this round's per-rank block sizes; each rank
  // writes its counts[rank] doubles through gather_block(rank);
  // allgatherv() assembles the rank-ordered table.
  virtual void gather_layout(const std::vector<int>& counts) = 0;
  virtual double* gather_block(int rank) = 0;
  virtual void allgatherv() = 0;
  // The assembled sum(counts)-long table (callers know the layout from
  // the counts they passed).
  virtual const double* gather_table() const = 0;

  // Phase fence with no payload (ProcTransport::recover's health check).
  virtual void barrier() = 0;

  // Attempt to restore a failed transport to service (after a latched
  // worker crash or phase timeout): reap dead workers, respawn
  // replacements, clear the failure latch, and fence. Returns true when
  // the transport is usable again; the caller then retries from its
  // last checkpoint (the exchange buffers survive, in-flight payload
  // does not). Backends with nothing to recover (in-process ranks)
  // report success trivially.
  virtual bool recover() { return true; }

  // --- observability hooks (obs/) --------------------------------------
  // Seconds this transport spent blocked waiting on remote completion
  // since the last call, then reset — the "wait" half of ShardComm's
  // wait-vs-transfer split. Zero-copy in-process backends never block,
  // so the default is 0.
  virtual double take_wait_seconds() { return 0.0; }
  // The completion-wait deadline, if this backend enforces one (0 = no
  // deadline). ShardComm derives per-collective deadline margins
  // (deadline - observed wait) for the metrics registry.
  virtual double phase_deadline_seconds() const { return 0.0; }
  // Worker respawns (respawn_rank / recover sweeps) since construction.
  virtual long respawn_events() const { return 0; }

  // Capacity-growth events across every exchange buffer this transport
  // owns (alltoallv lanes, gather table + blocks). All backends count the
  // same way — one event per lane or region whose requested size first
  // exceeds its capacity — so steady-state allocation probes are
  // backend-uniform.
  virtual long allocations() const = 0;
  // Elements currently held in exchange storage for destination `dst` —
  // the per-rank exchange footprint. Backends with distinct send and
  // recv storage (proc, MPI) count both; the zero-copy in-process
  // backend aliases them and counts once.
  virtual std::size_t rank_box_elements(int dst) const = 0;
};

// Upper bound on n_ranks for the given backend (the proc backend's
// fixed worker table); shard counts are clamped against it by the
// solver.
int transport_max_ranks(TransportKind kind);

// Factory for ShardComm. kMpi throws unless built with LS3DF_WITH_MPI.
// kThreads always throws here: a thread-SPMD group is N coupled
// instances, so it cannot be built one-at-a-time — build the group with
// make_thread_spmd_group (transport/thread_transport.h) and hand each
// instance to its rank's solver via Ls3dfOptions::transport_factory.
// shm_arena_bytes sizes the proc backend's shared-memory reservation
// (0 = its default); callers that know the exchange volume — the solver
// knows the grid — should pass a bound so large problems cannot exhaust
// the arena mid-solve (the reservation is virtual and lazily committed,
// so over-reserving costs nothing).
std::unique_ptr<Transport> make_transport(TransportKind kind, int n_ranks,
                                          std::size_t shm_arena_bytes = 0);

}  // namespace ls3df
