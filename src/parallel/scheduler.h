// Fragment-to-group assignment. The paper divides the machine into Ng
// processor groups of Np cores and assigns fragments to groups; balanced
// assignment is what keeps PEtot_F's parallel efficiency near-perfect
// (Sec. VI: 95.8% for PEtot_F at 17,280 cores). We implement the classic
// longest-processing-time (LPT) greedy heuristic, used by the
// performance simulator and the SolverService's job dispatch. The
// solver itself runs one solve chain per same-size-class batch
// (make_batches) and balances the makespan tail with live lane
// donation (LaneBudget).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace ls3df {

// == Lane donation protocol ==
//
// The paper's near-perfect PEtot_F efficiency depends on lanes never
// idling at the makespan tail. With a fixed `inner = n_workers /
// n_holders` split, lanes freed when a short solve chain retires sit idle
// while the longest batches grind on at their original width. LaneBudget
// makes the inner-lane count *live*:
//
//   reset(total, holders)   arm the budget for one dispatch round: `total`
//                           pool lanes shared by `holders` concurrent
//                           solve-chain holders.
//   allowance()             lanes a still-running holder may use *right
//                           now* = max(1, total / min(live, total)) — the
//                           same quotient as the fixed split while every
//                           holder is live, widening as holders retire.
//   retire(holder)          idempotent: the holder's solve retired (patch
//                           committed / batch left the lockstep); its
//                           lanes are donated back to the survivors. Each
//                           retire that leaves live holders behind counts
//                           one donation event.
//
// Batched kernels re-read allowance() at every sweep boundary (each
// apply_batched / gemm_batched / FFT many-sweep dispatch inside the
// lockstep Davidson driver — see dft/eigensolver.h), so tail solves widen
// mid-flight. The engine's determinism contract (thread_pool.h) makes the
// worker count arithmetically invisible, so donation is bit-identical to
// the fixed split for any retirement order; with total == 1 the allowance
// is pinned at 1 and donation is a structural no-op. All state is atomic:
// retiring chains and sweeping readers never take a lock.
//
// == Cross-job lane sharing (the SolverService layer) ==
//
// A service splits the machine's lanes across jobs that join and leave
// at arbitrary times, so its holder set is dynamic: it arms the budget
// once with reset(total, 0), each running job join()s, and a finishing
// job's leave() donates its lanes to the survivors, which pick them up at
// their next allowance() read (the solver re-reads it at every outer-
// iteration boundary via Ls3dfOptions::lane_allowance, clamps it to its
// own n_workers, and feeds it per sweep through its own LaneBudget). The
// same determinism contract means the split schedule can never change a
// bit of any job's result.
class LaneBudget {
 public:
  // Arm the budget: `total_lanes` pool lanes (>= 1 after clamping) shared
  // by `n_holders` holders, all initially live. Must not race with
  // allowance()/retire()/join()/leave() — call between dispatch rounds.
  void reset(int total_lanes, int n_holders);

  // Lanes a live holder may use right now. Never less than 1, never more
  // than the total; equals the fixed even split until a holder retires.
  int allowance() const;

  // Donate `holder`'s lanes back. Idempotent; out-of-range ids ignored.
  void retire(int holder);

  // Dynamic holders (ids untracked): one more live holder, or one fewer —
  // a leave() that leaves live holders behind counts one donation event.
  void join() { live_.fetch_add(1, std::memory_order_acq_rel); }
  void leave();

  int live() const { return live_.load(std::memory_order_relaxed); }
  int total() const { return total_; }
  // Cumulative count of retirements that left live holders to widen
  // (never cleared by reset — a per-solve probe diffs it).
  long donation_events() const {
    return donations_.load(std::memory_order_relaxed);
  }

 private:
  int total_ = 1;
  int n_holders_ = 0;
  int capacity_ = 0;
  std::atomic<int> live_{0};
  std::atomic<long> donations_{0};
  std::unique_ptr<std::atomic<bool>[]> retired_;
};

struct GroupAssignment {
  // group_of[f] = group index of fragment f.
  std::vector<int> group_of;
  // Total cost per group.
  std::vector<double> group_cost;
  double max_cost = 0;   // makespan
  double total_cost = 0;
  // Load balance efficiency: total / (groups * makespan). 1.0 = perfect.
  double efficiency = 0;
};

// Assign fragments with the given costs to n_groups groups, minimizing the
// makespan greedily (LPT: sort descending, place on least-loaded group).
GroupAssignment assign_fragments(const std::vector<double>& costs,
                                 int n_groups);

// A batch of same-size-class fragments: the schedulable unit of the
// batched PEtot_F path. Every member shares the (ng, nb) shape class, so
// one fused Hamiltonian application / GEMM sweep serves all of them.
struct FragmentBatch {
  int size_class = 0;
  std::vector<int> members;  // ascending fragment indices
};

// Chunk each size class's fragments into batches of at most `width`
// members, preserving ascending fragment order within a class. class_of
// is any labeling where equal labels mean identical solve shapes.
// Deterministic: batch composition depends only on class_of and width,
// so batches — and their persistent workspaces — are stable across outer
// SCF iterations. Batches are ordered by their first member's index.
std::vector<FragmentBatch> make_batches(const std::vector<int>& class_of,
                                        int width);

}  // namespace ls3df
