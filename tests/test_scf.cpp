// SCF driver, mixing, occupation, total energy and folded-spectrum tests
// on systems small enough for single-core runs (the physics code paths
// are identical to the production ones).
//
// H2-in-a-box is the gapped workhorse (1 occupied band, large gap);
// Si2-in-a-box has a degenerate p-shell at the Fermi level and exercises
// the occupation-smearing stabilizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "atoms/builders.h"
#include "dft/fsm.h"
#include "dft/scf.h"
#include "linalg/blas.h"

namespace ls3df {
namespace {

using cd = std::complex<double>;

ScfOptions tiny_options() {
  ScfOptions opt;
  opt.ecut = 1.2;
  opt.max_iterations = 60;
  opt.l1_tol = 1e-4;
  opt.eig.max_iterations = 10;
  opt.eig.residual_tol = 1e-7;
  return opt;
}

Structure h2_cell() {
  // H2 in a box: 2 electrons, 1 occupied band, clearly gapped.
  Structure s(Lattice::cubic(8.0));
  s.add_atom(Species::kH, {3.3, 4.0, 4.0});
  s.add_atom(Species::kH, {4.7, 4.0, 4.0});
  return s;
}

Structure si2_cell() {
  // Si2 has a degenerate p-shell at the Fermi level: a deliberately hard
  // case for integer occupations.
  Structure s(Lattice::cubic(8.0));
  s.add_atom(Species::kSi, {2.0, 2.0, 2.0});
  s.add_atom(Species::kSi, {5.7, 5.7, 5.7});
  return s;
}

TEST(FillOccupations, EvenOddAndOverflow) {
  auto a = fill_occupations(8.0, 6);
  EXPECT_EQ(a, (std::vector<double>{2, 2, 2, 2, 0, 0}));
  auto b = fill_occupations(5.0, 4);
  EXPECT_EQ(b, (std::vector<double>{2, 2, 1, 0}));
  auto c = fill_occupations(0.0, 3);
  EXPECT_EQ(c, (std::vector<double>{0, 0, 0}));
}

TEST(SmearedOccupations, SumsToElectronCount) {
  std::vector<double> eig{-1.0, -0.5, -0.1, -0.09, 0.3};
  for (double ne : {2.0, 4.0, 5.0, 7.0}) {
    auto occ = smeared_occupations(eig, ne, 0.05);
    double sum = 0;
    for (double f : occ) sum += f;
    EXPECT_NEAR(sum, ne, 1e-10);
    for (double f : occ) {
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 2.0 + 1e-10);
    }
  }
}

TEST(SmearedOccupations, SplitsDegenerateShellEvenly) {
  // Two degenerate levels sharing 2 electrons get 1 each.
  std::vector<double> eig{-1.0, -0.2, -0.2, 0.5};
  auto occ = smeared_occupations(eig, 4.0, 0.02);
  EXPECT_NEAR(occ[0], 2.0, 1e-6);
  EXPECT_NEAR(occ[1], 1.0, 1e-6);
  EXPECT_NEAR(occ[2], 1.0, 1e-6);
  EXPECT_NEAR(occ[3], 0.0, 1e-6);
}

TEST(SmearedOccupations, ReducesToStepFunctionAtTinySigma) {
  std::vector<double> eig{-1.0, -0.5, 0.0, 0.5};
  auto occ = smeared_occupations(eig, 4.0, 1e-6);
  EXPECT_NEAR(occ[0], 2.0, 1e-9);
  EXPECT_NEAR(occ[1], 2.0, 1e-9);
  EXPECT_NEAR(occ[2], 0.0, 1e-9);
  EXPECT_NEAR(occ[3], 0.0, 1e-9);
}

TEST(EffectivePotential, AddsHartreeAndXc) {
  Structure s = h2_cell();
  const Vec3i grid{12, 12, 12};
  FieldR vion = build_local_potential(s, grid);
  FieldR rho = build_initial_density(s, grid);
  FieldR veff = effective_potential(vion, rho, s.lattice());
  double diff = 0;
  for (std::size_t i = 0; i < veff.size(); ++i)
    diff = std::max(diff, std::abs(veff[i] - vion[i]));
  EXPECT_GT(diff, 1e-3);
}

TEST(Scf, ConvergesOnH2) {
  ScfResult r = run_scf(h2_cell(), tiny_options());
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.conv_history.back(), 1e-4);
  EXPECT_DOUBLE_EQ(r.occupations[0], 2.0);
  EXPECT_DOUBLE_EQ(r.occupations[1], 0.0);
  for (std::size_t j = 1; j < r.eigenvalues.size(); ++j)
    EXPECT_LE(r.eigenvalues[j - 1], r.eigenvalues[j] + 1e-10);
  // Bonding state well below the empty states (gapped).
  EXPECT_LT(r.eigenvalues[0] + 0.05, r.eigenvalues[1]);
}

TEST(Scf, ConvergenceMetricDecaysOverall) {
  ScfResult r = run_scf(h2_cell(), tiny_options());
  ASSERT_GE(r.conv_history.size(), 3u);
  // Fig. 6 behaviour: large initial error, small final error; decay need
  // not be monotone.
  EXPECT_LT(r.conv_history.back(), 0.05 * r.conv_history.front());
}

TEST(Scf, DensityIntegratesToElectrons) {
  Structure s = h2_cell();
  ScfResult r = run_scf(s, tiny_options());
  const double pv = s.lattice().volume() / static_cast<double>(r.rho.size());
  EXPECT_NEAR(r.rho.sum() * pv, s.num_electrons(), 1e-8);
}

TEST(Scf, TotalEnergyComponentsSane) {
  ScfResult r = run_scf(h2_cell(), tiny_options());
  EXPECT_GT(r.energy.kinetic, 0.0);
  EXPECT_GE(r.energy.hartree, 0.0);
  EXPECT_LT(r.energy.xc, 0.0);
  // (Ewald for two bare protons is legitimately positive; the negative-
  // Ewald case for an ionic lattice is covered in test_xc_poisson.)
  EXPECT_TRUE(std::isfinite(r.energy.ewald));
  EXPECT_TRUE(std::isfinite(r.energy.total));
  EXPECT_NEAR(r.energy.total,
              r.energy.kinetic + r.energy.nonlocal + r.energy.local +
                  r.energy.hartree + r.energy.xc + r.energy.ewald,
              1e-12);
}

TEST(Scf, BandEnergyIdentityAtConvergence) {
  // sum_i f_i eps_i = T + E_NL + int V_eff rho  for eigenstates of
  // H = T + V_NL + V_eff.
  Structure s = h2_cell();
  ScfOptions opt = tiny_options();
  opt.l1_tol = 1e-6;
  opt.max_iterations = 120;
  opt.eig.residual_tol = 1e-9;
  opt.eig.max_iterations = 30;
  ScfResult r = run_scf(s, opt);
  ASSERT_TRUE(r.converged);

  double band_sum = 0;
  for (std::size_t j = 0; j < r.eigenvalues.size(); ++j)
    band_sum += r.occupations[j] * r.eigenvalues[j];

  GVectors basis(s.lattice(), default_fft_grid(s.lattice(), opt.ecut),
                 opt.ecut);
  Hamiltonian h(s, basis);
  const double pv = s.lattice().volume() / static_cast<double>(r.rho.size());
  double v_rho = 0;
  for (std::size_t i = 0; i < r.rho.size(); ++i)
    v_rho += r.v_eff[i] * r.rho[i];
  v_rho *= pv;
  const double expect = h.kinetic_energy(r.psi, r.occupations) +
                        h.nonlocal().energy(r.psi, r.occupations) + v_rho;
  EXPECT_NEAR(band_sum, expect, 5e-4 * std::abs(expect) + 5e-4);
}

TEST(Scf, SeedIndependenceOfConvergedEnergy) {
  Structure s = h2_cell();
  ScfOptions opt = tiny_options();
  opt.l1_tol = 1e-5;
  opt.seed = 1;
  ScfResult a = run_scf(s, opt);
  opt.seed = 31337;
  ScfResult b = run_scf(s, opt);
  ASSERT_TRUE(a.converged && b.converged);
  EXPECT_NEAR(a.energy.total, b.energy.total,
              1e-4 * std::abs(a.energy.total) + 1e-4);
}

TEST(Scf, DegenerateShellNeedsSmearing) {
  // Si2's partially-filled degenerate p-shell: integer occupations make
  // the SCF oscillate; Gaussian smearing converges it.
  ScfOptions opt = tiny_options();
  opt.max_iterations = 40;
  ScfResult hard = run_scf(si2_cell(), opt);
  EXPECT_FALSE(hard.converged);

  opt.smearing = 0.05;
  opt.max_iterations = 120;
  ScfResult smeared = run_scf(si2_cell(), opt);
  EXPECT_TRUE(smeared.converged)
      << "final residual " << smeared.conv_history.back();
  // The p-like triplet shares the four remaining electrons (8 total,
  // 4 in the two low s-like bands).
  double frac = 0;
  for (double f : smeared.occupations)
    if (f > 0.05 && f < 1.95) frac += f;
  EXPECT_NEAR(frac, 4.0, 0.3);
}

TEST(MixerConvergence, PulayConverges) {
  ScfOptions opt = tiny_options();
  opt.mix_alpha = 0.4;
  opt.max_iterations = 150;
  ScfResult r = run_scf(h2_cell(), opt);
  EXPECT_TRUE(r.converged) << "final residual " << r.conv_history.back();
}

TEST(Fsm, FindsInteriorStatesNearReference) {
  Structure s = h2_cell();
  ScfOptions opt = tiny_options();
  opt.n_bands = 8;
  ScfResult scf = run_scf(s, opt);
  ASSERT_TRUE(scf.converged);

  GVectors basis(s.lattice(), default_fft_grid(s.lattice(), opt.ecut),
                 opt.ecut);
  Hamiltonian h(s, basis);
  h.set_local_potential(scf.v_eff);

  // Fold near the 3rd eigenvalue: FSM must recover it without computing
  // the full spectrum.
  FsmOptions fopt;
  fopt.eps_ref = scf.eigenvalues[2] + 1e-3;
  fopt.n_states = 3;
  fopt.max_iterations = 80;
  FsmResult fsm = folded_spectrum(h, fopt);

  double best = 1e9;
  for (double w : fsm.eigenvalues)
    best = std::min(best, std::abs(w - scf.eigenvalues[2]));
  EXPECT_LT(best, 5e-4);
}

TEST(Fsm, StatesAreEigenstates) {
  Structure s = h2_cell();
  ScfOptions opt = tiny_options();
  ScfResult scf = run_scf(s, opt);
  GVectors basis(s.lattice(), default_fft_grid(s.lattice(), opt.ecut),
                 opt.ecut);
  Hamiltonian h(s, basis);
  h.set_local_potential(scf.v_eff);

  FsmOptions fopt;
  fopt.eps_ref = scf.eigenvalues[1];
  fopt.n_states = 2;
  fopt.max_iterations = 100;
  FsmResult fsm = folded_spectrum(h, fopt);

  MatC hpsi;
  h.apply(fsm.psi, hpsi);
  for (int j = 0; j < 2; ++j) {
    std::vector<cd> r(basis.count());
    for (int g = 0; g < basis.count(); ++g)
      r[g] = hpsi(g, j) - fsm.eigenvalues[j] * fsm.psi(g, j);
    EXPECT_LT(dznrm2(basis.count(), r.data()), 5e-3) << "state " << j;
  }
}

TEST(Ipr, ExtendedVsLocalizedStates) {
  // A plane wave is fully extended (IPR = 1); a state localized on a few
  // grid points has IPR >> 1.
  Structure s(Lattice::cubic(6.0));
  GVectors gv(s.lattice(), {12, 12, 12}, 1.5);
  Hamiltonian h(s, gv);

  MatC pw(gv.count(), 1);
  pw(gv.g0_index(), 0) = 1.0;
  EXPECT_NEAR(inverse_participation_ratio(h, pw.col(0)), 1.0, 1e-9);

  MatC loc(gv.count(), 1);
  for (int g = 0; g < gv.count(); ++g) loc(g, 0) = 1.0;
  EXPECT_GT(inverse_participation_ratio(h, loc.col(0)), 3.0);
}

}  // namespace
}  // namespace ls3df
