// Potential mixing for the self-consistency loop (the "Potential mixing"
// box in the paper's Fig. 2 flow chart): Anderson/Pulay (DIIS)
// acceleration over the last kDiisHistory (V_in, residual) pairs. The
// first step, and the fallback when the history turns degenerate, is
// plain linear mixing, V_next = V_in + alpha (V_out - V_in).
// The paper notes LS3DF uses "the same charge mixing scheme" as direct
// LDA, so convergence behaviour carries over (Sec. VII); the direct SCF
// (dft/scf.h) and the LS3DF driver both run this one scheme.
//
// Two drivers share the arithmetic: PotentialMixer on the dense global
// grid, and ShardedPotentialMixer on x-slabs (grid/sharded_field.h). The
// DIIS Gram matrix comes from the plane-blocked reduction (plane_gram), so
// the two mixers are bit-identical for any shard count — the Gram matrix,
// the coefficient solve, and every pointwise update see the same bits.
// The sharded mixer pays one collective per Gram matrix, not one per
// dot: all m(m+1)/2 entries' per-plane partials share one all_gather.
#pragma once

#include <vector>

#include "grid/field3d.h"
#include "grid/sharded_field.h"
#include "parallel/shard_comm.h"

namespace ls3df {

// DIIS depth: (V_in, residual) pairs kept by either mixer.
constexpr int kDiisHistory = 6;

class PotentialMixer {
 public:
  explicit PotentialMixer(double alpha) : alpha_(alpha) {}

  // Produce the next input potential from the current (V_in, V_out) pair.
  FieldR mix(const FieldR& v_in, const FieldR& v_out);

 private:
  double alpha_;
  std::vector<FieldR> v_history_;
  std::vector<FieldR> r_history_;
};

// The sharded twin: identical arithmetic and identical bits, with every
// field living as x-slabs over `comm`. History is stored per-shard
// (global/N per rank per slot), the DIIS Gram matrix is one plane-blocked
// all_gather reduction, and every update is slab-local — mixing runs
// shard-locally end to end. Under an SPMD transport the history slots inherit the
// inputs' rank-local storage (one resident slab per rank), so the DIIS
// stack also costs ~global/N per rank.
class ShardedPotentialMixer {
 public:
  ShardedPotentialMixer(double alpha, ShardComm& comm)
      : alpha_(alpha), comm_(comm) {}

  ShardedFieldR mix(const ShardedFieldR& v_in, const ShardedFieldR& v_out);

  // Checkpoint seam: the DIIS stack, one slab set per history slot,
  // exposed raw so a snapshot (checkpoint/snapshot.h) can serialize it
  // and a resumed solve can restore it bit-exactly — the DIIS Gram matrix
  // sees the same history bits, so the continued mixing trajectory is
  // identical.
  const std::vector<ShardedFieldR>& v_history() const { return v_history_; }
  const std::vector<ShardedFieldR>& r_history() const { return r_history_; }
  void restore_history(std::vector<ShardedFieldR> v,
                       std::vector<ShardedFieldR> r);

 private:
  double alpha_;
  ShardComm& comm_;
  std::vector<ShardedFieldR> v_history_;
  std::vector<ShardedFieldR> r_history_;
};

}  // namespace ls3df
