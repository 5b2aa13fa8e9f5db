// Golden-reference suite: full solves on the default execution
// configuration must land on the recorded bits of tests/golden_refs.h —
// the 3- and 4-cell H2 chains of the equivalence suites and a three-
// iteration Fig. 6 ZnTeO alloy. Unlike the cross-configuration suites,
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

}  // namespace
}  // namespace ls3df
