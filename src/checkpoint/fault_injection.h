// Deterministic fault injection for the crash-recovery machinery.
//
// A FaultPlan is a seeded schedule of faults pinned to *logical* event
// indices — the k-th transport collective, the j-th snapshot record
// write — not to wall-clock time, so every CI run kills the same worker
// at the same protocol round and tears the same snapshot record at the
// same byte. Three fault classes, one per recovery seam they exercise:
//
//   kill_worker_at    SIGKILL a ProcTransport worker just before the
//                     parent publishes collective #k. The parent's
//                     completion wait detects the death (waitpid) and
//                     latches a clean error; respawn_rank()/recover()
//                     plus a snapshot resume completes the solve.
//   stall_worker_at   Make a worker sleep through collective #k. The
//                     parent's deadline wait latches a timeout instead
//                     of wedging — the hung-but-alive failure mode a
//                     dead-worker check cannot see.
//   truncate_record_at  Model a torn snapshot write that survived a
//                     crash: record #j keeps only its first b bytes and
//                     the flush is lost. The reader classifies the
//                     damage; the previous-generation fallback routes
//                     around it.
//
// Hook points: ProcTransport::set_fault_plan() calls before_collective()
// at the top of every protocol round; SnapshotWriter consults
// record_write_cap() per added record. The seeded draw() lets tests pick
// reproducible-but-arbitrary fault sites without hardcoding indices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace ls3df {

class ProcTransport;

class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 0) : rng_(seed) {}

  // --- schedule (indices are 0-based and fire once each) --------------
  void kill_worker_at(long collective_index, int rank) {
    kills_.push_back({collective_index, rank, false});
  }
  void stall_worker_at(long collective_index, int rank, int stall_ms) {
    stalls_.push_back({collective_index, rank, stall_ms, false});
  }
  void truncate_record_at(long record_index, std::size_t keep_bytes) {
    truncs_.push_back({record_index, keep_bytes, false});
  }

  // Reproducible draw in [lo, hi) from the plan's own seeded stream.
  long draw(long lo, long hi) {
    return lo + static_cast<long>(rng_.uniform_int(
                    static_cast<std::uint64_t>(hi - lo)));
  }

  // --- instrumented-seam hooks ----------------------------------------
  // Called by ProcTransport at the top of each protocol round; applies
  // any kill/stall scheduled for this collective index.
  void before_collective(ProcTransport& t);
  long collectives_seen() const { return collective_count_; }

  // Called by SnapshotWriter once per added record: the byte cap for
  // this record (SIZE_MAX = intact). A firing truncation is consumed.
  std::size_t record_write_cap();
  long records_seen() const { return record_count_; }

 private:
  struct KillEvent {
    long at;
    int rank;
    bool fired;
  };
  struct StallEvent {
    long at;
    int rank;
    int ms;
    bool fired;
  };
  struct TruncEvent {
    long at;
    std::size_t keep;
    bool fired;
  };

  Rng rng_;
  long collective_count_ = 0;
  long record_count_ = 0;
  std::vector<KillEvent> kills_;
  std::vector<StallEvent> stalls_;
  std::vector<TruncEvent> truncs_;
};

}  // namespace ls3df
