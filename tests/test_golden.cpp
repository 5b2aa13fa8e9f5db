// Golden-reference suite: full solves in the reference configuration
// checked against tests/golden_refs.h in both of its tiers — the 3- and
// 4-cell H2 chains of the equivalence suites and a three-iteration
// Fig. 6 ZnTeO alloy, both again under Precision::kMixed, plus the
// direct-DFT side: a whole-cell SCF and a folded-spectrum solve on H2 in
// a box. Unlike the cross-configuration suites, which compare solves
// against each other, these values are absolute: a numerical change
// anywhere in the pipeline (fragment setup, PEtot_F, patching, GENPOT,
// mixing, the patched energy) fails the bit tier (GoldenReference.*)
// even when every execution path changes the same way, and a change of
// the physics fails the physics tier (GoldenPhysics.*) too. Each case
// is solved once per process and shared by the two tiers.
#include <gtest/gtest.h>

#include "golden_refs.h"

namespace ls3df {
namespace {

const Ls3dfResult& h2_run(int ncells) {
  static const Ls3dfResult r3 =
      golden::run_ls3df(golden::h2_chain(3), golden::h2_options(3));
  static const Ls3dfResult r4 =
      golden::run_ls3df(golden::h2_chain(4), golden::h2_options(4));
  return ncells == 4 ? r4 : r3;
}

const Ls3dfResult& fig6_run() {
  static const Ls3dfResult r =
      golden::run_ls3df(golden::fig6_alloy(), golden::fig6_options());
  return r;
}

const Ls3dfResult& h2_chain3_mixed_run() {
  static const Ls3dfResult r =
      golden::run_ls3df(golden::h2_chain(3), golden::h2_mixed_options());
  return r;
}

const Ls3dfResult& fig6_mixed_run() {
  static const Ls3dfResult r =
      golden::run_ls3df(golden::fig6_alloy(), golden::fig6_mixed_options());
  return r;
}

const ScfResult& direct_scf_run() {
  static const ScfResult r = golden::run_direct_scf();
  return r;
}

const FsmResult& fsm_run() {
  static const FsmResult r = golden::run_fsm();
  return r;
}

TEST(GoldenReference, H2ChainsMatchRecordedBits) {
  for (int ncells : {3, 4})
    EXPECT_EQ(golden::mismatch(h2_run(ncells), golden::h2_reference(ncells)),
              "");
}

TEST(GoldenReference, Fig6AlloyMatchesRecordedBits) {
  EXPECT_EQ(golden::mismatch(fig6_run(), golden::fig6_reference()), "");
}

// Precision::kMixed: the fp32 lockstep Davidson, the promotion latch and
// the fp64 tail after it (chain), and the fp32 nonlocal projector path
// (alloy).
TEST(GoldenReference, MixedPrecisionMatchesRecordedBits) {
  EXPECT_EQ(golden::mismatch(h2_chain3_mixed_run(),
                             golden::h2_chain3_mixed_reference()),
            "");
  EXPECT_EQ(golden::mismatch(fig6_mixed_run(), golden::fig6_mixed_reference()),
            "");
}

// Direct DFT (dft/scf): the whole-cell all-band Davidson inside the SCF
// loop, run to convergence.
TEST(GoldenReference, DirectScfMatchesRecordedBits) {
  EXPECT_EQ(golden::mismatch(direct_scf_run(),
                             golden::h2_direct_scf_reference()),
            "");
}

// The folded spectrum method (dft/fsm) on a fixed potential.
TEST(GoldenReference, FoldedSpectrumMatchesRecordedBits) {
  EXPECT_EQ(golden::mismatch(fsm_run(), golden::h2_fsm_reference()), "");
}

TEST(GoldenPhysics, H2ChainsWithinTolerance) {
  for (int ncells : {3, 4})
    EXPECT_EQ(golden::physics_mismatch(h2_run(ncells),
                                       golden::h2_chain(ncells).lattice(),
                                       golden::h2_physics(ncells)),
              "");
}

TEST(GoldenPhysics, Fig6AlloyWithinTolerance) {
  EXPECT_EQ(golden::physics_mismatch(fig6_run(),
                                     golden::fig6_alloy().lattice(),
                                     golden::fig6_physics()),
            "");
}

TEST(GoldenPhysics, MixedPrecisionWithinTolerance) {
  EXPECT_EQ(golden::physics_mismatch(h2_chain3_mixed_run(),
                                     golden::h2_chain(3).lattice(),
                                     golden::h2_chain3_mixed_physics()),
            "");
  EXPECT_EQ(golden::physics_mismatch(fig6_mixed_run(),
                                     golden::fig6_alloy().lattice(),
                                     golden::fig6_mixed_physics()),
            "");
}

TEST(GoldenPhysics, DirectScfWithinTolerance) {
  EXPECT_EQ(golden::physics_mismatch(direct_scf_run(),
                                     golden::h2_cell().lattice(),
                                     golden::h2_direct_scf_physics()),
            "");
}

TEST(GoldenPhysics, FoldedSpectrumWithinTolerance) {
  EXPECT_EQ(golden::physics_mismatch(fsm_run(), golden::h2_fsm_physics()), "");
}

}  // namespace
}  // namespace ls3df
