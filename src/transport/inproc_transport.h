// The default transport: N logical ranks in one process, zero-copy.
//
// This is the pre-transport ShardComm exchange verbatim, behind the
// Transport interface: the (src -> dst) mailboxes are ordinary vectors,
// recv_box aliases send_box so alltoallv() is a no-op barrier, and the
// allgatherv table is filled in place. Bit- and allocation-identical to
// the code it replaces.
#pragma once

#include "transport/transport.h"

namespace ls3df {

class InProcTransport : public Transport {
 public:
  explicit InProcTransport(int n_ranks);

  TransportKind kind() const override { return TransportKind::kInProc; }
  int n_ranks() const override { return n_ranks_; }

  std::complex<double>* send_box(int src, int dst, std::size_t n) override;
  void alltoallv() override {}  // zero-copy: recv aliases send
  const std::complex<double>* recv_box(int src, int dst) const override;
  std::size_t box_size(int src, int dst) const override;

  void gather_layout(const std::vector<int>& counts) override;
  double* gather_block(int rank) override;
  void allgatherv() override {}  // filled in place
  const double* gather_table() const override { return table_.data(); }

  void barrier() override {}

  long allocations() const override;
  std::size_t rank_box_elements(int dst) const override;

 private:
  // Per-box growth counters are written only by the box's source rank
  // during a pack phase, so the count needs no synchronization.
  struct Box {
    std::vector<std::complex<double>> data;
    std::size_t used = 0;
    long growths = 0;
  };
  Box& box(int src, int dst) { return boxes_[src * n_ranks_ + dst]; }
  const Box& box(int src, int dst) const {
    return boxes_[src * n_ranks_ + dst];
  }

  int n_ranks_;
  std::vector<Box> boxes_;            // n_ranks^2 mailboxes, row = src
  std::vector<double> table_;         // allgatherv target
  std::vector<std::size_t> begin_;    // gather block offsets
  long allocs_ = 0;
};

}  // namespace ls3df
