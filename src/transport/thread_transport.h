// Thread-backed SPMD transport: N Transport instances over one shared
// in-process core, each bound to a caller thread that acts as one SPMD
// rank.
//
// This backend exists to exercise the rank-local storage layout and the
// collective schedule of the MPI backend without an MPI launcher:
// spmd() is true, so every distributed container built on an instance
// allocates only that rank's slabs, and every collective is a real
// rendezvous — exactly the execution model mpirun gives N processes,
// compressed into N threads of one test process. Bit-identity with the
// in-process backends therefore certifies the whole SPMD path (halo
// exchange, window exchange, ordered folds) up to the MPI wire itself.
//
// Protocol: collectives rendezvous on a counting barrier (mutex +
// condvar; releases when all N instances arrive). Because every rank
// issues the same totally-ordered sequence of barrier calls, the m-th
// call of each rank pairs with the m-th call of every other — no stage
// tagging needed. Payload safety for alltoallv: each instance packs into
// instance-owned send lanes (so packing never races a peer's reads),
// then between two barriers copies them into shared per-(src, dst) recv
// lanes written only by src; the entry barrier of the NEXT collective
// doubles as the read-completion fence. allgatherv assembles the shared
// table in place (rank 0 sizes it between two barriers, each rank writes
// its own block, a final barrier publishes).
//
// A group cannot be built one instance at a time (make_transport throws
// for kThreads): call make_thread_spmd_group(n) once and hand instance r
// to the thread acting as rank r, e.g. through
// Ls3dfOptions::transport_factory.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "transport/transport.h"

namespace ls3df {

namespace detail {
struct ThreadTransportCore;
}

class ThreadTransport : public Transport {
 public:
  ~ThreadTransport() override;

  TransportKind kind() const override { return TransportKind::kThreads; }
  int n_ranks() const override;
  bool spmd() const override { return true; }
  int self_rank() const override { return self_; }

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

 private:
  friend std::vector<std::unique_ptr<Transport>> make_thread_spmd_group(
      int n_ranks);
  ThreadTransport(std::shared_ptr<detail::ThreadTransportCore> core,
                  int self);

  std::shared_ptr<detail::ThreadTransportCore> core_;
  int self_;
  // Instance-owned send lanes (one per destination); shared state lives
  // in the core.
  std::vector<std::vector<std::complex<double>>> send_;
  std::vector<long> send_growths_;
};

// Builds the N coupled instances of one thread-SPMD group; element r is
// rank r's transport. Every collective on any instance blocks until all
// N instances' threads arrive, so each instance must be driven by its
// own thread.
std::vector<std::unique_ptr<Transport>> make_thread_spmd_group(int n_ranks);

}  // namespace ls3df
