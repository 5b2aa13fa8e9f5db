// MPI transport: one MPI process per shard rank, the Transport calls
// mapped 1:1 onto MPI collectives (table in transport/transport.h).
// Compiled only under LS3DF_WITH_MPI; make_transport throws for kMpi
// otherwise.
//
// This is an SPMD backend (spmd() == true): every process constructs the
// same ShardComm, but phase bodies run only for self_rank(), buffers are
// posted only for the local rank, and the exchange is a real MPI
// collective. Distributed containers built on it (ShardedField3D,
// DistFft3D, mixer history) allocate only the local rank's slabs, so
// resident bytes per process are ~global/N plus bounded exchange scratch.
//
// No collective here sums: MPI_SUM's reduction order is implementation-
// defined, so the callers' ordered folds (plane-blocked sums over the
// allgatherv table, the density window fold over alltoallv lanes) run
// on exchanged data and stay bit-identical to the in-process backends
// across nodes.
//
// Lane sizes are exchanged with MPI_Alltoall before the payload
// MPI_Alltoallv; payloads travel as MPI_DOUBLE (2 per complex), so a
// single lane is limited to ~1G complex values by MPI's int counts.
#pragma once

#ifdef LS3DF_WITH_MPI

#include <mpi.h>

#include "transport/transport.h"

namespace ls3df {

class MpiTransport : public Transport {
 public:
  // The communicator must already be initialized (the caller owns
  // MPI_Init/MPI_Finalize); it is duplicated so ShardComm traffic cannot
  // collide with other libraries' tags.
  explicit MpiTransport(MPI_Comm comm = MPI_COMM_WORLD);
  ~MpiTransport() override;

  TransportKind kind() const override { return TransportKind::kMpi; }
  int n_ranks() const override { return n_ranks_; }
  bool spmd() const override { return true; }
  int self_rank() const override { return self_; }

  std::complex<double>* send_box(int src, int dst, std::size_t n) override;
  void alltoallv() override;
  const std::complex<double>* recv_box(int src, int dst) const override;
  std::size_t box_size(int src, int dst) const override;

  void gather_layout(const std::vector<int>& counts) override;
  double* gather_block(int rank) override;
  void allgatherv() override;
  const double* gather_table() const override { return table_.data(); }

  void barrier() override;

  long allocations() const override;
  std::size_t rank_box_elements(int dst) const override;

 private:
  // Grow-only vector resize with the uniform allocation accounting.
  template <typename T>
  void grow(std::vector<T>& v, std::size_t n, long& growths) {
    if (n > v.capacity()) ++growths;
    v.resize(n);
  }

  MPI_Comm comm_ = MPI_COMM_NULL;
  int n_ranks_ = 0;
  int self_ = 0;
  // alltoallv staging: one grow-only lane per destination (send) and per
  // source (recv), complex payloads flattened to doubles on the wire.
  std::vector<std::vector<std::complex<double>>> send_, recv_;
  std::vector<std::size_t> recv_used_;
  std::vector<int> send_counts_, recv_counts_, send_displs_, recv_displs_;
  std::vector<double> wire_send_, wire_recv_;
  // allgatherv staging.
  std::vector<int> gather_counts_, gather_displs_;
  std::vector<double> gather_self_, table_;
  std::vector<long> lane_growths_;
  long growths_ = 0;
};

}  // namespace ls3df

#endif  // LS3DF_WITH_MPI
