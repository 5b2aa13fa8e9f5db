#include "transport/thread_transport.h"

#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>

namespace ls3df {
namespace detail {

// Shared collective core of one thread-SPMD group.
struct ThreadTransportCore {
  explicit ThreadTransportCore(int n)
      : n_ranks(n),
        recv(static_cast<std::size_t>(n) * n),
        displ(static_cast<std::size_t>(n) + 1, 0) {}

  // Counting barrier: releases when all n_ranks instances arrive. Every
  // rank issues the same totally-ordered sequence of calls, so the m-th
  // call on each rank pairs with the m-th call on every other.
  void barrier() {
    std::unique_lock<std::mutex> lk(m);
    const std::uint64_t my_gen = gen;
    if (++arrived == n_ranks) {
      arrived = 0;
      ++gen;
      cv.notify_all();
    } else {
      cv.wait(lk, [&] { return gen != my_gen; });
    }
  }

  const int n_ranks;
  std::mutex m;
  std::condition_variable cv;
  int arrived = 0;
  std::uint64_t gen = 0;

  // alltoallv recv lanes, indexed [src * n_ranks + dst]: written only by
  // src between the two alltoallv barriers, read only by dst afterwards.
  struct Box {
    std::vector<std::complex<double>> data;
    std::size_t used = 0;
    long growths = 0;
  };
  std::vector<Box> recv;

  // allgatherv table: rank 0 sizes it between two barriers; each rank
  // then writes its own [displ[r], displ[r+1]) block.
  std::vector<double> table;
  std::vector<std::size_t> displ;
  long table_growths = 0;
};

}  // namespace detail

using detail::ThreadTransportCore;

ThreadTransport::ThreadTransport(
    std::shared_ptr<ThreadTransportCore> core, int self)
    : core_(std::move(core)),
      self_(self),
      send_(static_cast<std::size_t>(core_->n_ranks)),
      send_growths_(static_cast<std::size_t>(core_->n_ranks), 0) {}

ThreadTransport::~ThreadTransport() = default;

int ThreadTransport::n_ranks() const { return core_->n_ranks; }

std::complex<double>* ThreadTransport::send_box(int src, int dst,
                                                std::size_t n) {
  if (src != self_)
    throw std::logic_error(
        "ThreadTransport: SPMD posts only for the local rank");
  auto& lane = send_[dst];
  if (n > lane.capacity()) ++send_growths_[dst];
  lane.resize(n);
  return lane.data();
}

void ThreadTransport::alltoallv() {
  const int n = core_->n_ranks;
  // Entry barrier: every rank has posted its sends and finished reading
  // the previous round's recv lanes.
  core_->barrier();
  for (int dst = 0; dst < n; ++dst) {
    auto& box = core_->recv[static_cast<std::size_t>(self_) * n + dst];
    const auto& lane = send_[dst];
    if (lane.size() > box.data.capacity()) ++box.growths;
    box.data.resize(lane.size());
    box.used = lane.size();
    if (!lane.empty())
      std::memcpy(box.data.data(), lane.data(),
                  lane.size() * sizeof(std::complex<double>));
  }
  // Exit barrier: all lanes written; readers may proceed.
  core_->barrier();
}

const std::complex<double>* ThreadTransport::recv_box(int src,
                                                      int dst) const {
  if (dst != self_)
    throw std::logic_error(
        "ThreadTransport: SPMD reads only the local rank");
  return core_->recv[static_cast<std::size_t>(src) * core_->n_ranks + self_]
      .data.data();
}

std::size_t ThreadTransport::box_size(int src, int dst) const {
  if (dst != self_)
    throw std::logic_error(
        "ThreadTransport: SPMD reads only the local rank");
  return core_
      ->recv[static_cast<std::size_t>(src) * core_->n_ranks + self_]
      .used;
}

void ThreadTransport::gather_layout(const std::vector<int>& counts) {
  if (static_cast<int>(counts.size()) != core_->n_ranks)
    throw std::logic_error("ThreadTransport: bad gather counts");
  // Entry barrier: every rank is done reading the previous table.
  core_->barrier();
  if (self_ == 0) {
    std::size_t total = 0;
    for (int r = 0; r < core_->n_ranks; ++r) {
      core_->displ[r] = total;
      total += static_cast<std::size_t>(counts[r]);
    }
    core_->displ[core_->n_ranks] = total;
    if (total > core_->table.capacity()) ++core_->table_growths;
    core_->table.resize(total);
  }
  // Table sized and displacements published.
  core_->barrier();
}

double* ThreadTransport::gather_block(int rank) {
  if (rank != self_)
    throw std::logic_error(
        "ThreadTransport: SPMD posts only for the local rank");
  return core_->table.data() + core_->displ[self_];
}

void ThreadTransport::allgatherv() {
  // All blocks written in place; the barrier publishes the table.
  core_->barrier();
}

const double* ThreadTransport::gather_table() const {
  return core_->table.data();
}

void ThreadTransport::barrier() { core_->barrier(); }

long ThreadTransport::allocations() const {
  long total = 0;
  for (long g : send_growths_) total += g;
  for (int dst = 0; dst < core_->n_ranks; ++dst)
    total += core_
                 ->recv[static_cast<std::size_t>(self_) * core_->n_ranks +
                        dst]
                 .growths;
  if (self_ == 0) total += core_->table_growths;
  return total;
}

std::size_t ThreadTransport::rank_box_elements(int dst) const {
  if (dst != self_)
    throw std::logic_error(
        "ThreadTransport: SPMD probes only the local rank");
  std::size_t total = 0;
  for (int src = 0; src < core_->n_ranks; ++src)
    total += core_->recv[static_cast<std::size_t>(src) * core_->n_ranks +
                         self_]
                 .used;
  for (const auto& lane : send_) total += lane.size();
  return total;
}

std::vector<std::unique_ptr<Transport>> make_thread_spmd_group(
    int n_ranks) {
  if (n_ranks < 1)
    throw std::invalid_argument("make_thread_spmd_group: n_ranks < 1");
  auto core = std::make_shared<ThreadTransportCore>(n_ranks);
  std::vector<std::unique_ptr<Transport>> group;
  group.reserve(static_cast<std::size_t>(n_ranks));
  for (int r = 0; r < n_ranks; ++r)
    group.emplace_back(new ThreadTransport(core, r));
  return group;
}

}  // namespace ls3df
