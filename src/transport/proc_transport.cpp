#include "transport/proc_transport.h"

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cassert>
#include <cerrno>
#include <cstring>
#include <new>
#include <stdexcept>

#include "checkpoint/fault_injection.h"

namespace ls3df {

// Lane descriptor in shared memory: offset is bytes from the segment
// base, capacity/used are elements. Written by the parent (the lane's
// posting thread) before the command publish; read by workers after the
// acquire on seq — the release/acquire pair on seq orders everything.
struct ShmLane {
  std::uint64_t offset = 0;
  std::uint64_t capacity = 0;
  std::uint64_t used = 0;
};

namespace {

enum Cmd : std::uint32_t {
  kCmdNone = 0,
  kCmdAllToAll,
  kCmdGather,
  kCmdBarrier,
  kCmdExit,
};

// Short spin, then sleep: correct on oversubscribed single-core nodes
// (the common CI box), cheap on idle workers.
constexpr int kSpinsBeforeSleep = 256;
inline void backoff(int& spins) {
  if (++spins < kSpinsBeforeSleep) return;
  timespec ts{0, spins < 2048 ? 20'000 : 200'000};
  nanosleep(&ts, nullptr);
}

inline double monotonic_seconds() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

}  // namespace

struct ProcShmHeader {
  alignas(64) std::atomic<std::uint64_t> seq;
  std::uint32_t cmd;
  std::uint32_t n_ranks;
  // Gather block begins (elements), n_ranks + 1.
  std::uint64_t begin[ProcTransport::kMaxRanks + 1];
  std::uint64_t table_off;  // gather table region (doubles)
  ShmLane send[ProcTransport::kMaxRanks * ProcTransport::kMaxRanks];
  ShmLane recv[ProcTransport::kMaxRanks * ProcTransport::kMaxRanks];
  ShmLane gsrc[ProcTransport::kMaxRanks];
  alignas(64) std::atomic<std::uint64_t> done[ProcTransport::kMaxRanks];
  // Injected per-rank stall (fault_injection.h): the parent arms it
  // before publishing a command, the worker consumes (exchanges to 0)
  // after acquiring seq and sleeps that long before executing. Ordering
  // rides on the seq release/acquire pair; recover() clears leftovers.
  std::atomic<std::uint64_t> stall_ns[ProcTransport::kMaxRanks];
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "the cross-process phase protocol needs lock-free u64");

namespace {

// Worker body: forked before any command, runs rank r's share of each
// exchange, never returns. Touches only the shm segment and makes no
// heap allocation — fork()-safe even with the parent's pool threads
// live, because no lock of the parent can be held in this child.
// `last` is the protocol cursor the worker starts from: 0 at
// construction, the current seq for a respawned replacement (it must
// not re-execute the command its predecessor died in). `parent` closes
// the PDEATHSIG race below.
[[noreturn]] void worker_main(ProcShmHeader* h, unsigned char* base,
                              int rank, std::uint64_t last, pid_t parent) {
#ifdef __linux__
  // Die with the parent: a parent killed mid-phase must not leak workers
  // spinning on a segment nobody will ever publish to again. PDEATHSIG
  // binds to the forking *thread*; the transport forks from threads that
  // outlive it (solver construction / recovery), so thread death implies
  // teardown here. If the parent died before prctl took effect, getppid
  // already reports the reaper — exit now instead of orphaning.
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (getppid() != parent) _exit(0);
#else
  (void)parent;
#endif
  const int n = static_cast<int>(h->n_ranks);
  for (;;) {
    int spins = 0;
    while (h->seq.load(std::memory_order_acquire) == last) backoff(spins);
    last = h->seq.load(std::memory_order_acquire);
    // Injected stall (hung-but-alive fault model): sleep before doing
    // this round's share, then disarm so a respawn-retry runs clean.
    const std::uint64_t stall =
        h->stall_ns[rank].exchange(0, std::memory_order_relaxed);
    if (stall > 0) {
      timespec ts{static_cast<time_t>(stall / 1'000'000'000ull),
                  static_cast<long>(stall % 1'000'000'000ull)};
      nanosleep(&ts, nullptr);
    }
    switch (h->cmd) {
      case kCmdAllToAll:
        // Receive side of rank `rank`: copy every (src -> rank) lane.
        for (int src = 0; src < n; ++src) {
          const ShmLane& s = h->send[src * ProcTransport::kMaxRanks + rank];
          const ShmLane& d = h->recv[src * ProcTransport::kMaxRanks + rank];
          std::memcpy(base + d.offset, base + s.offset,
                      s.used * sizeof(std::complex<double>));
        }
        break;
      case kCmdGather: {
        const ShmLane& s = h->gsrc[rank];
        double* table = reinterpret_cast<double*>(base + h->table_off);
        std::memcpy(table + h->begin[rank], base + s.offset,
                    s.used * sizeof(double));
        break;
      }
      case kCmdBarrier:
        break;
      case kCmdExit:
        h->done[rank].store(last, std::memory_order_release);
        _exit(0);
      default:
        break;
    }
    h->done[rank].store(last, std::memory_order_release);
  }
}

}  // namespace

ProcTransport::ProcTransport(int n_ranks, std::size_t arena_bytes)
    : n_ranks_(n_ranks) {
  if (n_ranks < 1 || n_ranks > kMaxRanks)
    throw std::invalid_argument("ProcTransport: n_ranks out of range");
  const std::size_t header = (sizeof(ProcShmHeader) + 63) & ~std::size_t{63};
  map_bytes_ = header + arena_bytes;
  // Anonymous shared mapping: inherited by the forked workers, no name
  // to leak, pages committed lazily (MAP_NORESERVE keeps the large
  // virtual reservation free).
  void* mem = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED)
    throw std::runtime_error(std::string("ProcTransport: mmap failed: ") +
                             std::strerror(errno));
  base_ = static_cast<unsigned char*>(mem);
  hdr_ = new (mem) ProcShmHeader{};
  hdr_->n_ranks = static_cast<std::uint32_t>(n_ranks_);
  arena_used_.store(header, std::memory_order_relaxed);
  arena_bytes_ = map_bytes_;

  send_growths_.assign(static_cast<std::size_t>(kMaxRanks) * kMaxRanks, 0);
  recv_growths_.assign(static_cast<std::size_t>(kMaxRanks) * kMaxRanks, 0);
  gsrc_growths_.assign(kMaxRanks, 0);

  parent_pid_ = getpid();
  for (int r = 0; r < n_ranks_; ++r) {
    try {
      spawn_worker(r, 0);
    } catch (...) {
      for (int k = 0; k < r; ++k) kill(pids_[k], SIGKILL);
      for (int k = 0; k < r; ++k) waitpid(pids_[k], nullptr, 0);
      munmap(base_, map_bytes_);
      throw;
    }
  }
}

void ProcTransport::spawn_worker(int rank, std::uint64_t start_seq) {
  const pid_t pid = fork();
  if (pid < 0)
    throw std::runtime_error(std::string("ProcTransport: fork failed: ") +
                             std::strerror(errno));
  if (pid == 0)
    worker_main(hdr_, base_, rank, start_seq, parent_pid_);  // never returns
  pids_[rank] = pid;
}

ProcTransport::~ProcTransport() {
  if (failed_.empty() && hdr_) {
    // Graceful teardown first: publish kCmdExit and give each worker a
    // bounded window to _exit(0) on its own.
    hdr_->cmd = kCmdExit;
    hdr_->seq.store(hdr_->seq.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
    for (int r = 0; r < n_ranks_; ++r) {
      for (int spin = 0; pids_[r] > 0 && spin < 5000; ++spin) {
        if (waitpid(pids_[r], nullptr, WNOHANG) == pids_[r]) {
          pids_[r] = -1;
          break;
        }
        timespec ts{0, 200'000};
        nanosleep(&ts, nullptr);
      }
    }
  }
  // Fallback (and the post-crash path): workers hold no resources
  // beyond the shared mapping, so kill + reap is always safe.
  for (int r = 0; r < n_ranks_; ++r) {
    if (pids_[r] <= 0) continue;
    kill(pids_[r], SIGKILL);
    waitpid(pids_[r], nullptr, 0);
  }
  if (base_) munmap(base_, map_bytes_);
}

void ProcTransport::grow_lane(ShmLane& lane, std::size_t elems,
                              std::size_t elem_bytes, long& growths) {
  if (elems > lane.capacity) {
    const std::size_t bytes = (elems * elem_bytes + 63) & ~std::size_t{63};
    const std::uint64_t off =
        arena_used_.fetch_add(bytes, std::memory_order_relaxed);
    if (off + bytes > arena_bytes_)
      throw std::runtime_error(
          "ProcTransport: shared-memory arena exhausted (raise arena_bytes)");
    lane.offset = off;
    lane.capacity = elems;
    ++growths;
  }
  lane.used = elems;
}

void ProcTransport::check_alive() {
  for (int r = 0; r < n_ranks_; ++r) {
    if (pids_[r] <= 0) continue;
    int status = 0;
    if (waitpid(pids_[r], &status, WNOHANG) == pids_[r]) {
      pids_[r] = -1;
      failed_ = "ProcTransport: worker for rank " + std::to_string(r) +
                (WIFSIGNALED(status)
                     ? " was killed by signal " +
                           std::to_string(WTERMSIG(status))
                     : " exited with status " +
                           std::to_string(WEXITSTATUS(status))) +
                " — shard exchange cannot continue";
      throw std::runtime_error(failed_);
    }
  }
}

void ProcTransport::run_command(std::uint32_t cmd) {
  if (!failed_.empty()) throw std::runtime_error(failed_);
  // Deterministic fault hook: may SIGKILL a worker (caught by the
  // check_alive poll below) or arm a stall (caught by the deadline).
  if (fault_plan_) fault_plan_->before_collective(*this);
  hdr_->cmd = cmd;
  const std::uint64_t s =
      hdr_->seq.load(std::memory_order_relaxed) + 1;
  hdr_->seq.store(s, std::memory_order_release);
  const double wait_start = monotonic_seconds();
  const double deadline = wait_start + deadline_s_;
  // Everything from seq publication to the last done[r] flip is
  // completion wait: the workers do the memcpy, the parent only
  // spins. Accumulated for take_wait_seconds() (obs wait-vs-transfer
  // split); the accounting costs two clock reads per command.
  struct WaitAccumulator {
    ProcTransport* t;
    double start;
    ~WaitAccumulator() { t->wait_seconds_ += monotonic_seconds() - start; }
  } wait_acc{this, wait_start};
  for (int r = 0; r < n_ranks_; ++r) {
    int spins = 0;
    while (hdr_->done[r].load(std::memory_order_acquire) != s) {
      backoff(spins);
      // Every sleeping round polls for a dead worker: waitpid(WNOHANG)
      // costs ~1 us against a >= 20 us sleep, and a SIGKILLed worker
      // is noticed within about one sleep.
      if (spins >= kSpinsBeforeSleep) check_alive();
      if ((spins & 63) == 0 && monotonic_seconds() > deadline) {
        // Alive but unresponsive (wedged / stalled): latch a timeout so
        // every later collective fails fast instead of wedging the
        // parent. recover() respawns the laggards.
        std::string lag;
        for (int k = 0; k < n_ranks_; ++k)
          if (hdr_->done[k].load(std::memory_order_acquire) != s)
            lag += (lag.empty() ? "" : ", ") + std::to_string(k);
        failed_ = "ProcTransport: phase timed out after " +
                  std::to_string(deadline_s_) +
                  " s waiting for rank(s) " + lag +
                  " — worker alive but unresponsive";
        throw std::runtime_error(failed_);
      }
    }
  }
}

void ProcTransport::respawn_rank(int rank) {
  assert(rank >= 0 && rank < n_ranks_);
  if (pids_[rank] > 0) {
    kill(pids_[rank], SIGKILL);
    waitpid(pids_[rank], nullptr, 0);
    pids_[rank] = -1;
  }
  // Disarm any leftover stall and mark the rank caught-up at the current
  // seq: the replacement starts its cursor there, so the command its
  // predecessor died in is never re-executed (the caller re-issues lost
  // work from its checkpoint instead).
  hdr_->stall_ns[rank].store(0, std::memory_order_relaxed);
  const std::uint64_t s = hdr_->seq.load(std::memory_order_acquire);
  hdr_->done[rank].store(s, std::memory_order_release);
  spawn_worker(rank, s);
  ++respawn_events_;
  failed_.clear();
}

bool ProcTransport::recover() {
  const std::uint64_t s = hdr_->seq.load(std::memory_order_acquire);
  for (int r = 0; r < n_ranks_; ++r) {
    bool dead = pids_[r] <= 0;
    if (!dead && waitpid(pids_[r], nullptr, WNOHANG) == pids_[r]) {
      pids_[r] = -1;
      dead = true;
    }
    // A lagging-but-alive worker (mid-stall, wedged) cannot be trusted
    // to catch up: replace it too.
    const bool behind = hdr_->done[r].load(std::memory_order_acquire) != s;
    if (dead || behind) respawn_rank(r);
    hdr_->stall_ns[r].store(0, std::memory_order_relaxed);
  }
  failed_.clear();
  try {
    barrier();  // health fence: every worker answers one round
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

void ProcTransport::inject_stall_for_test(int rank, int stall_ms) {
  hdr_->stall_ns[rank].store(
      static_cast<std::uint64_t>(stall_ms) * 1'000'000ull,
      std::memory_order_relaxed);
}

std::complex<double>* ProcTransport::send_box(int src, int dst,
                                              std::size_t n) {
  ShmLane& lane = hdr_->send[src * kMaxRanks + dst];
  grow_lane(lane, n, sizeof(std::complex<double>),
            send_growths_[static_cast<std::size_t>(src) * kMaxRanks + dst]);
  return reinterpret_cast<std::complex<double>*>(base_ + lane.offset);
}

void ProcTransport::alltoallv() {
  // Size every recv lane to its sender's post (the parent is the only
  // layout writer; publish order is guaranteed by run_command's release).
  for (int src = 0; src < n_ranks_; ++src)
    for (int dst = 0; dst < n_ranks_; ++dst) {
      const ShmLane& s = hdr_->send[src * kMaxRanks + dst];
      grow_lane(hdr_->recv[src * kMaxRanks + dst], s.used,
                sizeof(std::complex<double>),
                recv_growths_[static_cast<std::size_t>(src) * kMaxRanks +
                              dst]);
    }
  run_command(kCmdAllToAll);
}

const std::complex<double>* ProcTransport::recv_box(int src,
                                                    int dst) const {
  return reinterpret_cast<const std::complex<double>*>(
      base_ + hdr_->recv[src * kMaxRanks + dst].offset);
}

std::size_t ProcTransport::box_size(int src, int dst) const {
  return hdr_->send[src * kMaxRanks + dst].used;
}

void ProcTransport::gather_layout(const std::vector<int>& counts) {
  assert(static_cast<int>(counts.size()) == n_ranks_);
  hdr_->begin[0] = 0;
  for (int r = 0; r < n_ranks_; ++r) {
    hdr_->begin[r + 1] =
        hdr_->begin[r] + static_cast<std::uint64_t>(counts[r]);
    grow_lane(hdr_->gsrc[r], static_cast<std::size_t>(counts[r]),
              sizeof(double), gsrc_growths_[r]);
  }
  ShmLane table{hdr_->table_off, table_cap_, 0};
  grow_lane(table, hdr_->begin[n_ranks_], sizeof(double), table_growths_);
  hdr_->table_off = table.offset;
  table_cap_ = table.capacity;
}

double* ProcTransport::gather_block(int rank) {
  return reinterpret_cast<double*>(base_ + hdr_->gsrc[rank].offset);
}

void ProcTransport::allgatherv() { run_command(kCmdGather); }

const double* ProcTransport::gather_table() const {
  return reinterpret_cast<const double*>(base_ + hdr_->table_off);
}

void ProcTransport::barrier() { run_command(kCmdBarrier); }

long ProcTransport::allocations() const {
  long total = table_growths_;
  for (long g : send_growths_) total += g;
  for (long g : recv_growths_) total += g;
  for (long g : gsrc_growths_) total += g;
  return total;
}

std::size_t ProcTransport::rank_box_elements(int dst) const {
  // This backend stores send and recv extents separately (the copy is
  // the exchange), so both count toward the true per-rank footprint;
  // the in-process backend aliases them and counts once.
  std::size_t total = 0;
  for (int src = 0; src < n_ranks_; ++src)
    total += hdr_->send[src * kMaxRanks + dst].used +
             hdr_->recv[src * kMaxRanks + dst].used;
  return total;
}

void ProcTransport::kill_worker_for_test(int rank) {
  if (pids_[rank] > 0) kill(pids_[rank], SIGKILL);
}

}  // namespace ls3df
