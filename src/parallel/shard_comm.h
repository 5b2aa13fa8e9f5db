// Shard communicator: the paper's processor-group machine layout as a
// phased SPMD model over a pluggable transport.
//
// == Architecture ==
//
// A ShardComm models N logical ranks. Rank r owns the r-th x-slab of
// every distributed object (see grid/sharded_field.h for the partition);
// no rank ever materializes the full global grid. Execution is SPMD and
// *phased*: the orchestrating thread calls each_rank(fn), which fans
// fn(rank) over the shared ThreadPool and returns only when every rank
// finished — the return IS the phase barrier. Rank bodies never block on
// each other, so the model is deadlock-free for any worker count (ranks
// simply share lanes when n_workers < n_ranks), and results are
// bit-identical for any worker count because each rank touches only
// rank-owned data.
//
// Data movement is delegated to a Transport (transport/transport.h):
// every collective splits into post -> exchange -> read, exactly the way
// its MPI counterpart splits into send-buffer fill, collective call and
// recv-buffer read:
//
//   all_to_all      pack(src) fills the (src -> dst) lanes, the
//                   transport exchanges them, unpack(dst) reads. This is
//                   the pencil transpose of DistFft3D (fft/dist_fft3d.h).
//                   MPI twin: MPI_Alltoallv.
//
//   all_gather      every rank deposits its block, the transport
//                   assembles the rank-ordered table readable everywhere.
//                   Used for the x-plane partial sums that make global
//                   reductions shard-count invariant (sharded_plane_sum).
//                   MPI twin: MPI_Allgatherv.
//
//   reduce_scatter  item i's per-rank contributions are summed in rank
//                   order and delivered to the segment owner. The
//                   in-process Gen_dens phase does not need it — slab
//                   owners read every fragment directly (owner-computes)
//                   — but an MPI port, where fragment groups cannot see
//                   remote slabs, patches densities through it.
//                   MPI twin: MPI_Reduce_scatter.
//
// Backends: in-process logical ranks (zero-copy, the default), forked
// worker processes over POSIX shared memory (true multi-process LS3DF on
// one node), a thread-SPMD group (transport/thread_transport.h), and MPI
// under LS3DF_WITH_MPI. All backends are bit-identical to each other and
// to the dense-field arithmetic (the ordered-reduction contract in
// transport/transport.h). Under an SPMD transport (threads, MPI) each
// process/thread owns one rank: each_rank runs the body only for the
// local rank (local_rank() >= 0), and distributed containers allocate
// only the local rank's slabs.
//
// All exchange buffers are transport-owned, grow-only, and persist
// across calls; allocations() counts capacity-growth events uniformly
// across backends so steady-state probes can assert that the exchange
// stops allocating after warm-up.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "transport/transport.h"

namespace ls3df {

class ShardComm {
 public:
  // Handle to the transport-owned gather table returned by all_gather /
  // gather_one. The table's storage belongs to the transport and is
  // reused by the NEXT gather on this communicator: a view is valid from
  // the gather that produced it until the next all_gather/gather_one
  // call, after which data() throws std::logic_error (a latched,
  // deterministic error — never a silent read of recycled storage).
  // Views are cheap value types; callers that need the data past the
  // next collective must copy it out while the view is fresh.
  class GatherView {
   public:
    // The assembled rank-ordered table (layout per the counts passed to
    // the producing gather). Throws std::logic_error once stale.
    const double* data() const;
    std::size_t size() const { return size_; }
    bool stale() const;

   private:
    friend class ShardComm;
    GatherView(const ShardComm* comm, std::uint64_t generation,
               std::size_t size)
        : comm_(comm), generation_(generation), size_(size) {}
    const ShardComm* comm_;
    std::uint64_t generation_;
    std::size_t size_;
  };
  // n_ranks logical ranks; phases fan out over min(n_workers, n_ranks)
  // lanes of the shared pool. The transport kind selects the exchange
  // backend (Ls3dfOptions::transport at the solver level).
  ShardComm(int n_ranks, int n_workers,
            TransportKind transport = TransportKind::kInProc);
  // Adopt a caller-built transport (tests, custom MPI communicators).
  ShardComm(int n_ranks, int n_workers,
            std::unique_ptr<Transport> transport);
  ~ShardComm();

  ShardComm(const ShardComm&) = delete;
  ShardComm& operator=(const ShardComm&) = delete;

  int n_ranks() const { return n_ranks_; }
  int n_workers() const { return n_workers_; }
  Transport& transport() const { return *transport_; }
  TransportKind transport_kind() const { return transport_->kind(); }

  // The local rank under an SPMD transport (one rank per process or
  // thread; distributed containers then allocate only this rank's
  // slabs), or -1 when this process owns every rank (in-process
  // backends, dense-per-process layout).
  int local_rank() const {
    return transport_->spmd() ? transport_->self_rank() : -1;
  }

  // One SPMD phase: run fn(rank) for every rank in parallel on the shared
  // pool; returns when all ranks finished (the phase barrier). Rank
  // bodies must not block on other ranks. Under an SPMD transport the
  // body runs only for the local rank.
  void each_rank(const std::function<void(int rank)>& fn) const;

  // --- all_to_all -----------------------------------------------------
  // Phase 1 runs pack(src) for every rank: each source sizes and fills
  // send_box(src, dst) for the destinations it talks to. The transport
  // exchanges the lanes. Phase 2 runs unpack(dst): each destination
  // reads recv_box(src, dst). Boxes not re-sized in the current pack
  // keep their previous size, so senders should size every box they own
  // each round.
  void all_to_all(const std::function<void(int src)>& pack,
                  const std::function<void(int dst)>& unpack);

  // Lane for the (src -> dst) block, sized to n elements (grow-only
  // capacity). Call only from rank `src` during a pack phase.
  std::complex<double>* send_box(int src, int dst, std::size_t n) {
    return transport_->send_box(src, dst, n);
  }
  // The matching receive side; valid during the unpack phase.
  const std::complex<double>* recv_box(int src, int dst) const {
    return transport_->recv_box(src, dst);
  }
  std::size_t box_size(int src, int dst) const {
    return transport_->box_size(src, dst);
  }

  // --- all_gather -----------------------------------------------------
  // Each rank fills its counts[rank] slots of a shared table (rank 0's
  // block first). Under an SPMD transport the fill runs only for the
  // local rank; the exchange assembles the full table on every rank.
  // Returns a GatherView over the assembled rank-ordered table of
  // sum(counts) doubles — valid until the next all_gather/gather_one on
  // this communicator, after which data() throws (see GatherView).
  GatherView all_gather(
      const std::vector<int>& counts,
      const std::function<void(int rank, double* block)>& fill);

  // Single-owner gather: only `owner` contributes (count slots; every
  // other rank posts zero), so the returned table IS owner's block. The
  // checkpoint writer routes one slab at a time through this — at most
  // one slab of exchange staging is ever live, which is what keeps the
  // snapshot path inside the "no rank materializes the dense grid"
  // contract. Same validity rule as all_gather: the view lasts until
  // the next gather on this communicator.
  GatherView gather_one(int owner, std::size_t count,
                        const std::function<void(double* block)>& fill);

  // --- reduce_scatter -------------------------------------------------
  // contribute(rank) returns rank's length-n contribution (valid through
  // the call; invoked from rank's phase lane). Item i's value is the sum
  // of contributions in rank order; owner o receives its segment
  // [seg_begin[o], seg_begin[o+1]) via consume(o, values) where values
  // points at the segment start.
  void reduce_scatter(
      std::size_t n, const std::vector<std::size_t>& seg_begin,
      const std::function<const double*(int rank)>& contribute,
      const std::function<void(int rank, const double* seg)>& consume);

  // Transport-level fence with no payload.
  void barrier();

  // Capacity-growth events across the transport's exchange buffers
  // (steady-state allocation probe; uniform semantics per backend).
  long allocations() const { return transport_->allocations(); }
  // Total elements currently posted in the (src -> dst) lanes of
  // destination `dst` — the per-rank exchange footprint.
  std::size_t rank_box_elements(int dst) const {
    return transport_->rank_box_elements(dst);
  }

 private:
  int n_ranks_;
  int n_workers_;
  std::unique_ptr<Transport> transport_;
  // Gather-table generation: bumped at the start of every
  // all_gather/gather_one; GatherViews latch the generation they were
  // produced under and refuse reads once it moves on.
  std::uint64_t gather_generation_ = 0;
};

}  // namespace ls3df
