// Tests for the scaled-down ZnTeO model system (DESIGN.md substitution
// #3): geometry, electron counting, O substitution, and the spectral
// property that makes it a faithful stand-in for the paper's alloy --
// a gapped host whose O-substituted variant carries localized states
// below the host CBM (checked cheaply on a single cell).
#include <gtest/gtest.h>

#include <cmath>

#include "atoms/builders.h"
#include "common/constants.h"
#include "dft/scf.h"
#include "pseudo/pseudopotential.h"

namespace ls3df {
namespace {

TEST(ModelAlloy, GeometryAndCounts) {
  Structure s = build_model_znteo({3, 3, 1}, 0, 1);
  EXPECT_EQ(s.size(), 18);
  EXPECT_EQ(s.count_species(Species::kZn), 9);
  EXPECT_EQ(s.count_species(Species::kTe), 9);
  // 8 valence electrons per cell.
  EXPECT_DOUBLE_EQ(s.num_electrons(), 72.0);
  // Cubic cells of the default edge.
  EXPECT_DOUBLE_EQ(s.lattice().lengths().x, 24.0);
  EXPECT_DOUBLE_EQ(s.lattice().lengths().z, 8.0);
}

TEST(ModelAlloy, DimerAlongDiagonal) {
  Structure s = build_model_znteo({1, 1, 1}, 0, 1);
  ASSERT_EQ(s.size(), 2);
  const Vec3d d = s.atom(1).position - s.atom(0).position;
  // Diagonal orientation: all components equal.
  EXPECT_NEAR(d.x, d.y, 1e-12);
  EXPECT_NEAR(d.y, d.z, 1e-12);
  // Bond length 0.22 * a * sqrt(3).
  EXPECT_NEAR(d.norm(), 0.22 * 8.0 * std::sqrt(3.0), 1e-9);
}

TEST(ModelAlloy, OxygenSubstitutionCount) {
  Structure s = build_model_znteo({3, 3, 1}, 2, 42);
  EXPECT_EQ(s.count_species(Species::kO), 2);
  EXPECT_EQ(s.count_species(Species::kTe), 7);
  EXPECT_EQ(s.count_species(Species::kZn), 9);
  // Electron count unchanged (O and Te are isovalent).
  EXPECT_DOUBLE_EQ(s.num_electrons(), 72.0);
}

TEST(ModelAlloy, DeterministicSubstitution) {
  Structure a = build_model_znteo({3, 3, 1}, 2, 7);
  Structure b = build_model_znteo({3, 3, 1}, 2, 7);
  for (int i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.atom(i).species, b.atom(i).species);
}

TEST(ModelAlloy, SingleCellHostIsGapped) {
  // The host model must have a clear HOMO-LUMO gap (the paper's systems
  // "with a band gap", Sec. VIII).
  Structure s = build_model_znteo({1, 1, 1}, 0, 1);
  ScfOptions opt;
  opt.ecut = 0.9;
  opt.max_iterations = 60;
  opt.l1_tol = 5e-4;
  opt.eig.max_iterations = 10;
  opt.smearing = 0.01;
  ScfResult r = run_scf(s, opt);
  ASSERT_TRUE(r.converged);
  const int nocc = static_cast<int>(s.num_electrons() / 2);
  const double gap =
      (r.eigenvalues[nocc] - r.eigenvalues[nocc - 1]) * units::kHartreeToEv;
  EXPECT_GT(gap, 0.4) << "host gap " << gap << " eV";
}

TEST(ModelAlloy, OxygenCreatesStateInsideHostGap) {
  // The core Fig. 7 physics in miniature: in a host + O-cell pair, the
  // O-induced empty state sits inside the pure host's gap, shrinking the
  // HOMO-LUMO separation. (A lone O cell has no host CBM to compare to;
  // the full supercell version runs in bench_fig7_band_edges.)
  ScfOptions opt;
  opt.ecut = 0.9;
  opt.max_iterations = 80;
  opt.l1_tol = 5e-4;
  opt.eig.max_iterations = 10;
  opt.smearing = 0.01;

  Structure host = build_model_znteo({2, 2, 1}, 0, 1);
  ScfResult rh = run_scf(host, opt);
  ASSERT_TRUE(rh.converged);

  Structure oxy = build_model_znteo({2, 2, 1}, 1, 1);
  ASSERT_EQ(oxy.count_species(Species::kO), 1);
  ScfResult ro = run_scf(oxy, opt);
  ASSERT_TRUE(ro.converged);

  const int nocc = static_cast<int>(host.num_electrons() / 2);
  const double host_gap = rh.eigenvalues[nocc] - rh.eigenvalues[nocc - 1];
  const double oxy_gap = ro.eigenvalues[nocc] - ro.eigenvalues[nocc - 1];
  // The O state cuts the gap substantially (measured: 0.61 -> 0.25 eV).
  EXPECT_LT(oxy_gap, 0.75 * host_gap)
      << "O state not inside the host gap: host " << host_gap * 27.2
      << " eV vs alloy " << oxy_gap * 27.2 << " eV";
}

TEST(ModelAlloy, OxygenWellDeepensLocalPotential) {
  // The wide attractive O well (tuned in pseudopotential.cpp) must make
  // the local potential at the anion site deeper than Te's.
  Structure te(Lattice::cubic(12.0));
  te.add_atom(Species::kTe, {6.0, 6.0, 6.0});
  Structure ox(Lattice::cubic(12.0));
  ox.add_atom(Species::kO, {6.0, 6.0, 6.0});
  const Vec3i grid{24, 24, 24};
  FieldR vte = build_local_potential(te, grid);
  FieldR vox = build_local_potential(ox, grid);
  // Compare well depth relative to each cell's average.
  const double te_depth =
      vte(12, 12, 12) - vte.sum() / static_cast<double>(vte.size());
  const double ox_depth =
      vox(12, 12, 12) - vox.sum() / static_cast<double>(vox.size());
  EXPECT_LT(ox_depth, te_depth);
}

}  // namespace
}  // namespace ls3df
