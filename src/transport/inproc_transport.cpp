#include "transport/inproc_transport.h"

#include <cassert>

namespace ls3df {

InProcTransport::InProcTransport(int n_ranks) : n_ranks_(n_ranks) {
  assert(n_ranks >= 1);
  boxes_.resize(static_cast<std::size_t>(n_ranks_) * n_ranks_);
}

std::complex<double>* InProcTransport::send_box(int src, int dst,
                                                std::size_t n) {
  Box& b = box(src, dst);
  if (n > b.data.capacity()) ++b.growths;
  b.data.resize(n);
  b.used = n;
  return b.data.data();
}

const std::complex<double>* InProcTransport::recv_box(int src,
                                                      int dst) const {
  return box(src, dst).data.data();
}

std::size_t InProcTransport::box_size(int src, int dst) const {
  return box(src, dst).used;
}

void InProcTransport::gather_layout(const std::vector<int>& counts) {
  assert(static_cast<int>(counts.size()) == n_ranks_);
  begin_.assign(n_ranks_ + 1, 0);
  for (int r = 0; r < n_ranks_; ++r)
    begin_[r + 1] = begin_[r] + static_cast<std::size_t>(counts[r]);
  if (begin_[n_ranks_] > table_.capacity()) ++allocs_;
  table_.resize(begin_[n_ranks_]);
}

double* InProcTransport::gather_block(int rank) {
  return table_.data() + begin_[rank];
}

long InProcTransport::allocations() const {
  long total = allocs_;
  for (const Box& b : boxes_) total += b.growths;
  return total;
}

std::size_t InProcTransport::rank_box_elements(int dst) const {
  std::size_t total = 0;
  for (int src = 0; src < n_ranks_; ++src) total += box(src, dst).used;
  return total;
}

}  // namespace ls3df
