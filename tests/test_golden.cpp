// Golden-reference suite: full solves on the default execution
// configuration must land on the recorded bits of tests/golden_refs.h —
// the 3- and 4-cell H2 chains of the equivalence suites and a three-
// iteration Fig. 6 ZnTeO alloy — plus the direct-DFT side: a whole-cell
// SCF and a folded-spectrum solve on H2 in a box. Unlike the cross-configuration suites,
// which compare solves against each other, these values are absolute:
// a numerical change anywhere in the pipeline (fragment setup, PEtot_F,
// patching, GENPOT, mixing, the patched energy) fails here even when
// every execution path changes the same way.
#include <gtest/gtest.h>

#include "golden_refs.h"

namespace ls3df {
namespace {

TEST(GoldenReference, H2ChainsMatchRecordedBits) {
  for (int ncells : {3, 4}) {
    Ls3dfOptions lo = golden::h2_options(ncells);
    lo.n_workers = 1;
    Ls3dfSolver solver(golden::h2_chain(ncells), lo);
    EXPECT_EQ(golden::mismatch(solver.solve(), golden::h2_reference(ncells)),
              "");
  }
}

TEST(GoldenReference, Fig6AlloyMatchesRecordedBits) {
  Ls3dfOptions lo = golden::fig6_options();
  lo.n_workers = 1;
  Ls3dfSolver solver(golden::fig6_alloy(), lo);
  EXPECT_EQ(golden::mismatch(solver.solve(), golden::fig6_reference()), "");
}

// Precision::kMixed: the fp32 lockstep Davidson, the promotion latch and
// the fp64 tail after it (chain), and the fp32 nonlocal projector path
// (alloy).
TEST(GoldenReference, MixedPrecisionMatchesRecordedBits) {
  Ls3dfOptions chain = golden::h2_mixed_options();
  chain.n_workers = 1;
  EXPECT_EQ(golden::mismatch(Ls3dfSolver(golden::h2_chain(3), chain).solve(),
                             golden::h2_chain3_mixed_reference()),
            "");
  Ls3dfOptions alloy = golden::fig6_mixed_options();
  alloy.n_workers = 1;
  EXPECT_EQ(golden::mismatch(Ls3dfSolver(golden::fig6_alloy(), alloy).solve(),
                             golden::fig6_mixed_reference()),
            "");
}

// Direct DFT (dft/scf): the whole-cell all-band Davidson inside the SCF
// loop, run to convergence.
TEST(GoldenReference, DirectScfMatchesRecordedBits) {
  EXPECT_EQ(golden::mismatch(run_scf(golden::h2_cell(),
                                     golden::direct_scf_options()),
                             golden::h2_direct_scf_reference()),
            "");
}

// The folded spectrum method (dft/fsm) on a fixed potential.
TEST(GoldenReference, FoldedSpectrumMatchesRecordedBits) {
  const Structure s = golden::h2_cell();
  const double ecut = golden::direct_scf_options().ecut;
  Hamiltonian h(s, GVectors(s.lattice(), default_fft_grid(s.lattice(), ecut),
                            ecut));
  h.set_local_potential(golden::fsm_potential(h));
  EXPECT_EQ(golden::mismatch(folded_spectrum(h, golden::fsm_options()),
                             golden::h2_fsm_reference()),
            "");
}

}  // namespace
}  // namespace ls3df
