#ifdef LS3DF_WITH_MPI

#include "transport/mpi_transport.h"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace ls3df {

MpiTransport::MpiTransport(MPI_Comm comm) {
  int initialized = 0;
  MPI_Initialized(&initialized);
  if (!initialized)
    throw std::runtime_error(
        "MpiTransport: MPI_Init must run before the transport is built");
  MPI_Comm_dup(comm, &comm_);
  MPI_Comm_size(comm_, &n_ranks_);
  MPI_Comm_rank(comm_, &self_);
  send_.resize(n_ranks_);
  recv_.resize(n_ranks_);
  recv_used_.assign(n_ranks_, 0);
  send_counts_.assign(n_ranks_, 0);
  recv_counts_.assign(n_ranks_, 0);
  send_displs_.assign(n_ranks_, 0);
  recv_displs_.assign(n_ranks_, 0);
  lane_growths_.assign(static_cast<std::size_t>(n_ranks_) * 2, 0);
}

MpiTransport::~MpiTransport() {
  if (comm_ != MPI_COMM_NULL) MPI_Comm_free(&comm_);
}

std::complex<double>* MpiTransport::send_box(int src, int dst,
                                             std::size_t n) {
  assert(src == self_ && "MPI transport posts only for the local rank");
  (void)src;
  auto& lane = send_[dst];
  if (n > lane.capacity()) ++lane_growths_[dst];
  lane.resize(n);
  return lane.data();
}

void MpiTransport::alltoallv() {
  // Lane sizes first (MPI_Alltoall), then the payload (MPI_Alltoallv),
  // complex flattened to 2 doubles per value on the wire.
  for (int dst = 0; dst < n_ranks_; ++dst)
    send_counts_[dst] = static_cast<int>(2 * send_[dst].size());
  MPI_Alltoall(send_counts_.data(), 1, MPI_INT, recv_counts_.data(), 1,
               MPI_INT, comm_);
  std::size_t stot = 0, rtot = 0;
  for (int r = 0; r < n_ranks_; ++r) {
    send_displs_[r] = static_cast<int>(stot);
    recv_displs_[r] = static_cast<int>(rtot);
    stot += static_cast<std::size_t>(send_counts_[r]);
    rtot += static_cast<std::size_t>(recv_counts_[r]);
  }
  grow(wire_send_, stot, growths_);
  grow(wire_recv_, rtot, growths_);
  for (int dst = 0; dst < n_ranks_; ++dst)
    std::memcpy(wire_send_.data() + send_displs_[dst], send_[dst].data(),
                static_cast<std::size_t>(send_counts_[dst]) *
                    sizeof(double));
  MPI_Alltoallv(wire_send_.data(), send_counts_.data(),
                send_displs_.data(), MPI_DOUBLE, wire_recv_.data(),
                recv_counts_.data(), recv_displs_.data(), MPI_DOUBLE,
                comm_);
  for (int src = 0; src < n_ranks_; ++src) {
    const std::size_t n = static_cast<std::size_t>(recv_counts_[src]) / 2;
    auto& lane = recv_[src];
    if (n > lane.capacity()) ++lane_growths_[n_ranks_ + src];
    lane.resize(n);
    recv_used_[src] = n;
    std::memcpy(reinterpret_cast<double*>(lane.data()),
                wire_recv_.data() + recv_displs_[src],
                static_cast<std::size_t>(recv_counts_[src]) *
                    sizeof(double));
  }
}

const std::complex<double>* MpiTransport::recv_box(int src,
                                                   int dst) const {
  assert(dst == self_ && "MPI transport reads only the local rank");
  (void)dst;
  return recv_[src].data();
}

std::size_t MpiTransport::box_size(int src, int dst) const {
  assert(dst == self_);
  (void)dst;
  return recv_used_[src];
}

void MpiTransport::gather_layout(const std::vector<int>& counts) {
  assert(static_cast<int>(counts.size()) == n_ranks_);
  gather_counts_ = counts;
  gather_displs_.assign(n_ranks_, 0);
  std::size_t total = 0;
  for (int r = 0; r < n_ranks_; ++r) {
    gather_displs_[r] = static_cast<int>(total);
    total += static_cast<std::size_t>(counts[r]);
  }
  grow(gather_self_, static_cast<std::size_t>(counts[self_]), growths_);
  grow(table_, total, growths_);
}

double* MpiTransport::gather_block(int rank) {
  assert(rank == self_);
  (void)rank;
  return gather_self_.data();
}

void MpiTransport::allgatherv() {
  MPI_Allgatherv(gather_self_.data(), gather_counts_[self_], MPI_DOUBLE,
                 table_.data(), gather_counts_.data(),
                 gather_displs_.data(), MPI_DOUBLE, comm_);
}

void MpiTransport::barrier() { MPI_Barrier(comm_); }

long MpiTransport::allocations() const {
  long total = growths_;
  for (long g : lane_growths_) total += g;
  return total;
}

std::size_t MpiTransport::rank_box_elements(int dst) const {
  assert(dst == self_);
  (void)dst;
  std::size_t total = 0;
  for (int src = 0; src < n_ranks_; ++src) total += recv_used_[src];
  return total;
}

}  // namespace ls3df

#endif  // LS3DF_WITH_MPI
