#include "parallel/shard_comm.h"

#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace ls3df {

namespace {

// Per-collective observability epilogue: record the transport's
// completion wait (wait-vs-transfer split) into the span's secondary
// payload and the metrics registry. One virtual call when a recorder
// or registry is installed; nothing otherwise.
void record_collective(Transport& t, TraceSpan& span,
                       const char* bytes_counter, std::uint64_t bytes) {
  MetricsRegistry* m = obs_context().metrics;
  if (!span.active() && !m) return;
  const double wait_s = t.take_wait_seconds();
  span.set_arg(bytes);
  span.set_arg2(static_cast<std::uint32_t>(wait_s * 1e6));
  if (!m) return;
  m->add(bytes_counter, static_cast<double>(bytes));
  m->observe("transport.phase_wait_s", wait_s);
  const double deadline = t.phase_deadline_seconds();
  if (deadline > 0.0)
    m->observe("transport.deadline_margin_s", deadline - wait_s);
}

}  // namespace

ShardComm::ShardComm(int n_ranks, int n_workers, TransportKind transport)
    : ShardComm(n_ranks, n_workers,
                make_transport(transport, n_ranks)) {}

ShardComm::ShardComm(int n_ranks, int n_workers,
                     std::unique_ptr<Transport> transport)
    : n_ranks_(n_ranks),
      n_workers_(n_workers),
      transport_(std::move(transport)) {
  assert(n_ranks >= 1);
  assert(transport_ && transport_->n_ranks() == n_ranks_);
}

ShardComm::~ShardComm() = default;

void ShardComm::each_rank(const std::function<void(int)>& fn) const {
  // Install the rank being simulated (or embodied, under SPMD) so spans
  // and metrics recorded inside the body attribute to the right pid.
  if (transport_->spmd()) {
    ObsRankScope rank_scope(transport_->self_rank());
    fn(transport_->self_rank());
    return;
  }
  parallel_for(n_ranks_, n_workers_, [&](int r, int /*worker*/) {
    ObsRankScope rank_scope(r);
    fn(r);
  });
}

void ShardComm::all_to_all(const std::function<void(int)>& pack,
                           const std::function<void(int)>& unpack) {
  TraceSpan span("comm.alltoallv", TraceCat::kCollective);
  each_rank(pack);           // senders fill their lanes
  transport_->alltoallv();   // the exchange (zero-copy in process)
  if (span.active() || obs_context().metrics) {
    // complex<double> payload received by the ranks this process embodies
    // (all of them in-process; only the local rank under SPMD, which is
    // also all box_size lets an SPMD rank read).
    const bool spmd = transport_->spmd();
    const int dst_lo = spmd ? transport_->self_rank() : 0;
    const int dst_hi = spmd ? dst_lo + 1 : n_ranks_;
    std::uint64_t bytes = 0;
    for (int src = 0; src < n_ranks_; ++src)
      for (int dst = dst_lo; dst < dst_hi; ++dst)
        bytes += static_cast<std::uint64_t>(transport_->box_size(src, dst)) *
                 sizeof(std::complex<double>);
    record_collective(*transport_, span, "transport.alltoallv_bytes", bytes);
  }
  each_rank(unpack);         // receivers read their lanes
}

const double* ShardComm::GatherView::data() const {
  if (stale())
    throw std::logic_error(
        "ShardComm::GatherView: stale read — the transport reused the "
        "gather table for a later all_gather/gather_one; copy the data "
        "out before the next collective");
  return comm_->transport_->gather_table();
}

bool ShardComm::GatherView::stale() const {
  return generation_ != comm_->gather_generation_;
}

ShardComm::GatherView ShardComm::all_gather(
    const std::vector<int>& counts,
    const std::function<void(int rank, double* block)>& fill) {
  assert(static_cast<int>(counts.size()) == n_ranks_);
  ++gather_generation_;  // views from earlier gathers latch stale now
  std::size_t total = 0;
  for (int c : counts) total += static_cast<std::size_t>(c);
  TraceSpan span("comm.allgatherv", TraceCat::kCollective);
  transport_->gather_layout(counts);
  each_rank([&](int r) { fill(r, transport_->gather_block(r)); });
  transport_->allgatherv();
  record_collective(*transport_, span, "transport.allgather_bytes",
                    static_cast<std::uint64_t>(total) * sizeof(double));
  return GatherView(this, gather_generation_, total);
}

ShardComm::GatherView ShardComm::gather_one(
    int owner, std::size_t count,
    const std::function<void(double* block)>& fill) {
  assert(owner >= 0 && owner < n_ranks_);
  std::vector<int> counts(static_cast<std::size_t>(n_ranks_), 0);
  counts[static_cast<std::size_t>(owner)] = static_cast<int>(count);
  return all_gather(counts,
                    [&](int r, double* block) {
                      if (r == owner) fill(block);
                    });
}

}  // namespace ls3df
