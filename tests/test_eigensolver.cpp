// Eigensolver tests: free-electron analytic limits, agreement between the
// all-band (BLAS-3) and band-by-band (BLAS-2) solvers and a dense-matrix
// reference diagonalization, orthonormalization schemes, width invariance
// of the batched solver and apply (width K against K width-1 calls), the
// corrections-only sweep (its column applies and its reported residual
// against a fresh apply), and Hamiltonian invariants (Hermiticity,
// kinetic energy, density normalization).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "atoms/builders.h"
#include "common/flops.h"
#include "common/rng.h"
#include "dft/eigensolver.h"
#include "dft/hamiltonian.h"
#include "linalg/blas.h"
#include "linalg/eigen.h"

namespace ls3df {
namespace {

using cd = std::complex<double>;

// Dense reference: materialize H by applying it to unit vectors, then
// diagonalize exactly.
std::vector<double> dense_eigenvalues(const Hamiltonian& h, int n_lowest) {
  const int ng = h.basis().count();
  MatC I = MatC::identity(ng);
  MatC H;
  h.apply(I, H);
  EighResult r = eigh(H);
  r.eigenvalues.resize(n_lowest);
  return r.eigenvalues;
}

Structure empty_box(double L) { return Structure(Lattice::cubic(L)); }

// The all-band Davidson on one Hamiltonian: a one-member batch.
EigensolverResult solve_one(const Hamiltonian& h, MatC& psi,
                            const EigensolverOptions& opt) {
  BatchWorkspace ws;
  return solve_all_band_batched<double>({{&h, &psi}}, opt, ws)[0];
}

TEST(Hamiltonian, FreeElectronEigenvalues) {
  // No atoms: H = -1/2 nabla^2; eigenvalues are 0.5 |G|^2.
  Structure s = empty_box(6.0);
  GVectors gv(s.lattice(), {12, 12, 12}, 2.0);
  Hamiltonian h(s, gv);

  std::vector<double> expected;
  for (int g = 0; g < gv.count(); ++g) expected.push_back(0.5 * gv.g2(g));
  std::sort(expected.begin(), expected.end());

  MatC psi = random_wavefunctions(gv, 6, 1);
  EigensolverResult r = solve_one(h, psi, {40, 1e-9, true});
  for (int j = 0; j < 6; ++j)
    EXPECT_NEAR(r.eigenvalues[j], expected[j], 1e-7) << "band " << j;
}

TEST(Hamiltonian, HermitianOnRandomVectors) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {14, 14, 14}, 2.0);
  Hamiltonian h(s, gv);
  Rng rng(3);
  MatC psi(gv.count(), 2);
  for (int j = 0; j < 2; ++j)
    for (int g = 0; g < gv.count(); ++g)
      psi(g, j) = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
  MatC hpsi;
  h.apply(psi, hpsi);
  const cd a = zdotc(gv.count(), psi.col(0), hpsi.col(1));
  const cd b = zdotc(gv.count(), psi.col(1), hpsi.col(0));
  EXPECT_LT(std::abs(a - std::conj(b)), 1e-9);
}

TEST(Hamiltonian, ApplyBandMatchesApplyBlock) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {12, 12, 12}, 1.5);
  Hamiltonian h(s, gv);
  MatC psi = random_wavefunctions(gv, 3, 9);
  MatC block;
  h.apply(psi, block);
  for (int j = 0; j < 3; ++j) {
    std::vector<cd> single(gv.count());
    h.apply_band(psi.col(j), single.data());
    for (int g = 0; g < gv.count(); ++g)
      EXPECT_LT(std::abs(single[g] - block(g, j)), 1e-11);
  }
}

TEST(Hamiltonian, ConstantPotentialShiftsSpectrum) {
  Structure s = empty_box(5.0);
  GVectors gv(s.lattice(), {10, 10, 10}, 1.5);
  Hamiltonian h(s, gv);
  MatC psi = random_wavefunctions(gv, 4, 2);
  EigensolverResult r0 = solve_one(h, psi, {40, 1e-9, true});

  FieldR v(gv.grid_shape());
  v.fill(0.37);
  h.set_local_potential(v);
  MatC psi2 = random_wavefunctions(gv, 4, 2);
  EigensolverResult r1 = solve_one(h, psi2, {40, 1e-9, true});
  for (int j = 0; j < 4; ++j)
    EXPECT_NEAR(r1.eigenvalues[j] - r0.eigenvalues[j], 0.37, 1e-7);
}

TEST(Hamiltonian, KineticEnergyOfPlaneWave) {
  Structure s = empty_box(6.0);
  GVectors gv(s.lattice(), {12, 12, 12}, 2.0);
  Hamiltonian h(s, gv);
  // A single plane wave |G| has kinetic energy 0.5 |G|^2.
  MatC psi(gv.count(), 1);
  int pick = -1;
  for (int g = 0; g < gv.count(); ++g)
    if (gv.g2(g) > 0) {
      pick = g;
      break;
    }
  psi(pick, 0) = 1.0;
  EXPECT_NEAR(h.kinetic_energy(psi, {2.0}), 2.0 * 0.5 * gv.g2(pick), 1e-12);
}

TEST(Hamiltonian, DensityIntegratesToOccupation) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {12, 12, 12}, 1.5);
  Hamiltonian h(s, gv);
  MatC psi = random_wavefunctions(gv, 5, 4);
  std::vector<double> occ{2, 2, 2, 1, 0};
  FieldR rho = h.density(psi, occ);
  const double pv =
      s.lattice().volume() / static_cast<double>(rho.size());
  EXPECT_NEAR(rho.sum() * pv, 7.0, 1e-9);
  for (std::size_t i = 0; i < rho.size(); ++i) EXPECT_GE(rho[i], 0.0);
}

TEST(Hamiltonian, BatchedDensitySweepBitIdenticalToPerBand) {
  // density_into routes all occupied bands through one inverse_many
  // sweep. Per-band arithmetic and the band-order accumulation are
  // unchanged, so the result must equal the band-by-band sum exactly
  // (zero-occupation bands skipped), for any worker count.
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {12, 12, 12}, 1.5);
  Hamiltonian h(s, gv);
  MatC psi = random_wavefunctions(gv, 5, 4);
  const std::vector<double> occ{2, 2, 0, 1, 0.5};

  // Reference: one single-band density per occupied band, summed in band
  // order (each per-band call accumulates scale*|psi|^2 onto zero, so
  // the ordered sum reproduces the sweep's accumulation exactly).
  FieldR ref(gv.grid_shape());
  FieldR band(gv.grid_shape());
  for (int j = 0; j < 5; ++j) {
    if (occ[j] == 0.0) continue;
    MatC col(gv.count(), 1);
    for (int g = 0; g < gv.count(); ++g) col(g, 0) = psi(g, j);
    h.density_into(col, {occ[j]}, band);
    ref += band;
  }

  for (int workers : {1, 4}) {
    FieldR rho(gv.grid_shape());
    h.density_into(psi, occ, rho, workers);
    for (std::size_t i = 0; i < rho.size(); ++i)
      ASSERT_EQ(rho[i], ref[i]) << "i=" << i << " workers=" << workers;
  }
}

TEST(Hamiltonian, KineticEnergyDensityIntegratesToKineticEnergy) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {14, 14, 14}, 2.0);
  Hamiltonian h(s, gv);
  MatC psi = random_wavefunctions(gv, 3, 8);
  std::vector<double> occ{2, 2, 2};
  FieldR tau = h.kinetic_energy_density(psi, occ);
  const double pv =
      s.lattice().volume() / static_cast<double>(tau.size());
  EXPECT_NEAR(tau.sum() * pv, h.kinetic_energy(psi, occ), 1e-8);
}

TEST(Hamiltonian, FlopCounterAccumulates) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {12, 12, 12}, 1.5);
  Hamiltonian h(s, gv);
  FlopCounter fc;
  h.set_flop_counter(&fc);
  MatC psi = random_wavefunctions(gv, 2, 1);
  MatC hpsi;
  h.apply(psi, hpsi);
  EXPECT_GT(fc.total(), 0u);
  const auto after_one = fc.total();
  h.apply(psi, hpsi);
  EXPECT_EQ(fc.total(), 2 * after_one);
}

TEST(Hamiltonian, FlopCounterChargesOnlyPrunedFftLines) {
  // Every wavefunction FFT is G-sphere pruned, so the counts charge
  // fft3d_lines over the basis' line table, not the full-grid fft3d.
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  const Vec3i shape{12, 12, 12};
  GVectors gv(s.lattice(), shape, 1.5);
  Hamiltonian h(s, gv);
  const int nb = 3;
  MatC psi = random_wavefunctions(gv, nb, 1);
  const FftLines& lines = gv.fft_lines();
  const std::uint64_t fft = FlopCounter::fft3d_lines(
      shape.x, shape.y, shape.z, lines.yz.size(), lines.z.size());
  ASSERT_LT(fft, FlopCounter::fft3d(shape.x, shape.y, shape.z));
  const std::uint64_t ng = gv.count(), gsize = 12 * 12 * 12;
  const std::uint64_t apply =
      nb * (2 * fft + 6 * gsize) + 4 * ng * nb +
      2 * FlopCounter::zgemm(h.nonlocal().num_projectors(), nb, ng);

  FlopCounter fc;
  h.set_flop_counter(&fc);
  MatC hpsi;
  h.apply(psi, hpsi);
  EXPECT_EQ(fc.total(), apply);

  fc.clear();
  ApplyBatchWorkspace ws;
  Hamiltonian::apply_batched({{&h, &psi, &hpsi}}, ws, 2);
  EXPECT_EQ(fc.total(), apply);

  fc.clear();
  MatCF psi_f(psi.rows(), nb), hpsi_f;
  for (int j = 0; j < nb; ++j)
    for (int g = 0; g < psi.rows(); ++g)
      psi_f(g, j) = std::complex<float>(psi(g, j));
  Hamiltonian::apply_batched<float>({{&h, &psi_f, &hpsi_f}}, ws, 2);
  EXPECT_EQ(fc.total(), apply);

  // Density: one inverse transform per occupied band, serial or swept.
  const std::vector<double> occ{2.0, 2.0, 0.0};
  FieldR rho(shape);
  for (int workers : {1, 2}) {
    fc.clear();
    h.density_into(psi, occ, rho, workers);
    EXPECT_EQ(fc.total(), 2 * (fft + 3 * gsize)) << "workers=" << workers;
  }
}

TEST(DefaultFftGrid, HoldsDensityFrequencies) {
  Lattice lat = Lattice::cubic(10.0);
  const double ecut = 2.0;
  Vec3i g = default_fft_grid(lat, ecut);
  const double gmax = std::sqrt(2 * ecut);
  const int m = static_cast<int>(std::ceil(gmax / lat.reciprocal().x));
  EXPECT_GE(g.x, 4 * m);  // 2 Gmax along both signs
  EXPECT_TRUE(Fft1D::is_smooth(g.x));
}

class SolverAgreement : public ::testing::TestWithParam<bool> {};

TEST_P(SolverAgreement, MatchesDenseDiagonalization) {
  const bool blocked = GetParam();
  Structure s = build_zincblende(Species::kZn, Species::kTe, 8.0, {1, 1, 1});
  GVectors gv(s.lattice(), {10, 10, 10}, 1.2);
  Hamiltonian h(s, gv);
  ASSERT_LT(gv.count(), 300);

  const int nb = 6;
  auto exact = dense_eigenvalues(h, nb);

  MatC psi = random_wavefunctions(gv, nb, 42);
  EigensolverOptions opt{blocked ? 60 : 40, 1e-8, true};
  EigensolverResult r = blocked ? solve_one(h, psi, opt)
                                : solve_band_by_band(h, psi, opt);
  for (int j = 0; j < nb; ++j)
    EXPECT_NEAR(r.eigenvalues[j], exact[j], 2e-5)
        << (blocked ? "all-band" : "band-by-band") << " band " << j;

  // Output bands orthonormal.
  MatC S = overlap(psi, psi);
  for (int i = 0; i < nb; ++i)
    for (int j = 0; j < nb; ++j)
      EXPECT_LT(std::abs(S(i, j) - cd(i == j ? 1 : 0, 0)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(BothSolvers, SolverAgreement,
                         ::testing::Values(true, false));

TEST(Orthonormalize, CholeskyAndGramSchmidtAgreeOnSpan) {
  Rng rng(8);
  MatC X(40, 6);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 40; ++i)
      X(i, j) = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
  MatC A = X, B = X;
  orthonormalize_cholesky(A);
  orthonormalize_gram_schmidt(B);
  // Both orthonormal.
  for (MatC* M : {&A, &B}) {
    MatC S = overlap(*M, *M);
    for (int i = 0; i < 6; ++i)
      for (int j = 0; j < 6; ++j)
        EXPECT_LT(std::abs(S(i, j) - cd(i == j ? 1 : 0, 0)), 1e-10);
  }
  // Same span: projector onto span(A) applied to B's columns is identity.
  MatC P = overlap(A, B);   // A^H B
  MatC AB(40, 6);
  gemm(Op::kNone, Op::kNone, cd(1, 0), A, P, cd(0, 0), AB);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 40; ++i)
      EXPECT_LT(std::abs(AB(i, j) - B(i, j)), 1e-9);
}

TEST(Orthonormalize, HandlesNearlyDependentColumns) {
  MatC X(10, 3);
  for (int i = 0; i < 10; ++i) {
    X(i, 0) = cd(1.0, 0.0);
    X(i, 1) = cd(1.0 + 1e-13 * i, 0.0);  // nearly parallel
    X(i, 2) = cd(i, 1.0);
  }
  orthonormalize_cholesky(X);  // must not throw (falls back to GS)
  MatC S = overlap(X, X);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(S(i, i).real(), 1.0, 1e-9);
}

TEST(RandomWavefunctions, DeterministicAndOrthonormal) {
  Lattice lat = Lattice::cubic(7.0);
  GVectors gv(lat, {10, 10, 10}, 1.5);
  MatC a = random_wavefunctions(gv, 4, 99);
  MatC b = random_wavefunctions(gv, 4, 99);
  for (int j = 0; j < 4; ++j)
    for (int g = 0; g < gv.count(); ++g)
      EXPECT_EQ(a(g, j), b(g, j));
  MatC S = overlap(a, a);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      EXPECT_LT(std::abs(S(i, j) - cd(i == j ? 1 : 0, 0)), 1e-10);
}

TEST(SubspaceRotate, SortsAndPreservesSpan) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 8.0, {1, 1, 1});
  GVectors gv(s.lattice(), {10, 10, 10}, 1.2);
  Hamiltonian h(s, gv);
  MatC psi = random_wavefunctions(gv, 5, 3);
  MatC before = psi;
  auto evals = subspace_rotate(h, psi);
  for (int j = 1; j < 5; ++j) EXPECT_LE(evals[j - 1], evals[j] + 1e-12);
  // Span preserved: project rotated onto original basis and back.
  MatC P = overlap(before, psi);
  MatC rec(gv.count(), 5);
  gemm(Op::kNone, Op::kNone, cd(1, 0), before, P, cd(0, 0), rec);
  for (int j = 0; j < 5; ++j)
    for (int g = 0; g < gv.count(); g += 7)
      EXPECT_LT(std::abs(rec(g, j) - psi(g, j)), 1e-9);
}

TEST(BatchedSolver, BitIdenticalToPerFragmentSolves) {
  // The lockstep contract: solve_all_band_batched over K same-shape
  // Hamiltonians returns exactly what K one-member batches return —
  // eigenvalues and wavefunctions alike, for any worker count.
  // Members get different atomic configurations and different local
  // potentials so the lockstep really exercises per-member state,
  // including different convergence trajectories.
  const Lattice lat = Lattice::cubic(8.0);
  const Vec3i grid{10, 10, 10};
  std::vector<std::unique_ptr<Hamiltonian>> hams;
  std::vector<MatC> psis_ref, psis_bat;
  const int nb = 5;
  for (int t = 0; t < 3; ++t) {
    Structure s(lat);
    s.add_atom(Species::kZn, {2.0 + 0.6 * t, 2.0, 2.0});
    s.add_atom(Species::kTe, {2.0 + 0.6 * t, 2.0, 4.5});
    if (t == 2) s.add_atom(Species::kO, {5.5, 5.5, 5.5});
    GVectors gv(lat, grid, 1.2);
    hams.push_back(std::make_unique<Hamiltonian>(s, gv));
    psis_ref.push_back(random_wavefunctions(gv, nb, 1000 + t));
    psis_bat.push_back(psis_ref.back());
  }

  const EigensolverOptions opt{12, 1e-7, true};
  std::vector<EigensolverResult> refs;
  for (int t = 0; t < 3; ++t)
    refs.push_back(solve_one(*hams[t], psis_ref[t], opt));

  for (int workers : {1, 4}) {
    std::vector<MatC> psis = psis_bat;
    std::vector<FragmentSolve> frags;
    for (int t = 0; t < 3; ++t) frags.push_back({hams[t].get(), &psis[t]});
    BatchWorkspace ws;
    std::vector<EigensolverResult> rs =
        solve_all_band_batched(frags, opt, ws, workers);
    ASSERT_EQ(rs.size(), 3u);
    for (int t = 0; t < 3; ++t) {
      EXPECT_EQ(rs[t].converged, refs[t].converged) << t;
      EXPECT_EQ(rs[t].iterations, refs[t].iterations) << t;
      ASSERT_EQ(rs[t].eigenvalues.size(), refs[t].eigenvalues.size()) << t;
      for (std::size_t j = 0; j < rs[t].eigenvalues.size(); ++j)
        ASSERT_EQ(rs[t].eigenvalues[j], refs[t].eigenvalues[j])
            << "member " << t << " band " << j << " workers=" << workers;
      for (int j = 0; j < nb; ++j)
        for (int g = 0; g < psis[t].rows(); ++g)
          ASSERT_EQ(psis[t](g, j), psis_ref[t](g, j))
              << "member " << t << " workers=" << workers;
    }
  }
}

TEST(BatchedSolver, SteadyStateAllocatesNothing) {
  // The BatchWorkspace arenas may only grow on the first solve of a
  // given batch composition; repeated solves reuse warm buffers. The
  // members differ in atom (and therefore projector) count and band
  // count, so members converge out of the lockstep at different
  // iterations — workspace slots must stay keyed to the member, not to
  // the member's position in the shrinking active list.
  const Lattice lat = Lattice::cubic(8.0);
  const Vec3i grid{10, 10, 10};
  std::vector<std::unique_ptr<Hamiltonian>> hams;
  std::vector<int> bands;
  for (int t = 0; t < 2; ++t) {
    Structure s(lat);
    s.add_atom(Species::kZn, {2.0 + t, 2.0, 2.0});
    if (t == 1) {
      s.add_atom(Species::kTe, {5.0, 5.0, 5.0});
      s.add_atom(Species::kTe, {2.5, 5.0, 2.5});
    }
    GVectors gv(lat, grid, 1.2);
    hams.push_back(std::make_unique<Hamiltonian>(s, gv));
    bands.push_back(t == 0 ? 2 : 5);
  }
  ASSERT_NE(hams[0]->nonlocal().num_projectors(),
            hams[1]->nonlocal().num_projectors());
  BatchWorkspace ws;
  const EigensolverOptions opt{6, 1e-9, true};
  long after_first = -1;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<MatC> psis;
    for (int t = 0; t < 2; ++t)
      psis.push_back(
          random_wavefunctions(hams[t]->basis(), bands[t], 5 + rep));
    std::vector<FragmentSolve> frags;
    for (int t = 0; t < 2; ++t) frags.push_back({hams[t].get(), &psis[t]});
    solve_all_band_batched(frags, opt, ws);
    if (rep == 0) {
      after_first = ws.allocations();
      EXPECT_GT(after_first, 0);
    } else {
      EXPECT_EQ(ws.allocations(), after_first) << "rep " << rep;
    }
  }
}

// max_j |H psi_j - eps_j psi_j| from a fresh apply, in double.
double fresh_max_residual(const Hamiltonian& h, const MatC& psi,
                          const std::vector<double>& evals) {
  MatC hpsi;
  h.apply(psi, hpsi);
  double worst = 0;
  for (int j = 0; j < psi.cols(); ++j) {
    double r2 = 0;
    for (int g = 0; g < psi.rows(); ++g)
      r2 += std::norm(hpsi(g, j) - evals[j] * psi(g, j));
    worst = std::max(worst, std::sqrt(r2));
  }
  return worst;
}

TEST(BatchedSolver, ReportedResidualMatchesFreshApply) {
  // A sweep applies H only to the new corrections and takes X's H-image
  // from the Ritz rotation, HX = HV Y, so rounding can pile up in HX
  // across sweeps. On the 20-band model fragment of bench_optimizations
  // (~100 fp64 and ~60 fp32 sweeps) the reported max_residual must still
  // be the true one at convergence: within 1e-6 relative in fp64
  // (measured 1e-10); within 1% in fp32 (measured 4e-4), where the
  // reported residual is itself formed in fp32 arithmetic.
  Structure s = build_model_znteo({2, 2, 2}, 0, 1);
  GVectors gv(s.lattice(), default_fft_grid(s.lattice(), 1.0), 1.0);
  Hamiltonian h(s, gv);
  const int nb = 20;
  {
    MatC psi = random_wavefunctions(gv, nb, 42);
    BatchWorkspace ws;
    const EigensolverResult r = solve_all_band_batched<double>(
        {{&h, &psi}}, {400, 1e-6, true}, ws)[0];
    ASSERT_TRUE(r.converged);
    EXPECT_GT(r.iterations, 50);
    const double fresh = fresh_max_residual(h, psi, r.eigenvalues);
    EXPECT_NEAR(fresh, r.max_residual, 1e-6 * r.max_residual)
        << "fp64, " << r.iterations << " sweeps";
  }
  {
    MatC psi = random_wavefunctions(gv, nb, 42);
    BatchWorkspace ws;
    const EigensolverResult r = solve_all_band_batched<float>(
        {{&h, &psi}}, {400, 2e-5, true}, ws)[0];
    ASSERT_TRUE(r.converged);
    EXPECT_GT(r.iterations, 30);
    const double fresh = fresh_max_residual(h, psi, r.eigenvalues);
    EXPECT_NEAR(fresh, r.max_residual, 1e-2 * r.max_residual)
        << "fp32, " << r.iterations << " sweeps";
  }
}

TEST(BatchedSolver, SweepAppliesHOnlyToCorrections) {
  // The Hamiltonian's FlopCounter charges the same flops for every column
  // it applies, so the total counts column applies: nb for the starting
  // H psi, then one per accepted correction. Far from convergence
  // (tolerance 0, few sweeps, ng > 2 nb) every correction is accepted,
  // so the count is nb (1 + sweeps); applying H to X as well would
  // charge nb (1 + 2 sweeps).
  Structure s = build_zincblende(Species::kZn, Species::kTe, 8.0, {1, 1, 1});
  GVectors gv(s.lattice(), {10, 10, 10}, 1.2);
  Hamiltonian h(s, gv);
  FlopCounter fc;
  h.set_flop_counter(&fc);
  MatC one = random_wavefunctions(gv, 1, 3), h_one;
  h.apply(one, h_one);
  const std::uint64_t per_column = fc.total();
  ASSERT_GT(per_column, 0u);

  const int nb = 6, sweeps = 4;
  ASSERT_GT(gv.count(), 2 * nb);
  MatC psi = random_wavefunctions(gv, nb, 42);
  fc.clear();
  BatchWorkspace ws;
  const EigensolverResult r = solve_all_band_batched<double>(
      {{&h, &psi}}, {sweeps, 0.0, true}, ws)[0];
  EXPECT_EQ(r.iterations, sweeps);
  EXPECT_GT(r.max_residual, 1e-6);  // far from convergence
  EXPECT_EQ(fc.total() % per_column, 0u);
  EXPECT_EQ(fc.total() / per_column,
            static_cast<std::uint64_t>(nb) * (1 + sweeps));
}

TEST(BatchedHamiltonianApply, BitIdenticalToApply) {
  // K items in one batched call against K one-item calls (apply()).
  const Lattice lat = Lattice::cubic(8.0);
  const Vec3i grid{10, 10, 10};
  std::vector<std::unique_ptr<Hamiltonian>> hams;
  std::vector<MatC> psis;
  for (int t = 0; t < 3; ++t) {
    Structure s(lat);
    s.add_atom(Species::kZn, {2.0, 2.0 + 0.8 * t, 2.0});
    if (t > 0) s.add_atom(Species::kTe, {5.0, 5.0, 2.0 + t});
    GVectors gv(lat, grid, 1.2);
    hams.push_back(std::make_unique<Hamiltonian>(s, gv));
    // Different column counts per member: the Davidson block widths.
    psis.push_back(random_wavefunctions(gv, 3 + t, 30 + t));
  }
  std::vector<MatC> ref(3);
  for (int t = 0; t < 3; ++t) hams[t]->apply(psis[t], ref[t]);
  for (int workers : {1, 4}) {
    std::vector<MatC> out(3);
    std::vector<Hamiltonian::ApplyItemT<double>> items;
    for (int t = 0; t < 3; ++t)
      items.push_back({hams[t].get(), &psis[t], &out[t]});
    ApplyBatchWorkspace ws;
    Hamiltonian::apply_batched(items, ws, workers);
    for (int t = 0; t < 3; ++t) {
      ASSERT_EQ(out[t].rows(), ref[t].rows());
      ASSERT_EQ(out[t].cols(), ref[t].cols());
      for (int j = 0; j < out[t].cols(); ++j)
        for (int g = 0; g < out[t].rows(); ++g)
          ASSERT_EQ(out[t](g, j), ref[t](g, j))
              << "member " << t << " workers=" << workers;
    }
  }
}

TEST(Preconditioner, SpeedsUpConvergence) {
  Structure s = build_zincblende(Species::kZn, Species::kTe, 9.0, {1, 1, 1});
  GVectors gv(s.lattice(), {12, 12, 12}, 2.0);
  Hamiltonian h(s, gv);

  MatC psi1 = random_wavefunctions(gv, 4, 5);
  EigensolverResult with = solve_one(h, psi1, {100, 1e-7, true});
  MatC psi2 = random_wavefunctions(gv, 4, 5);
  EigensolverResult without = solve_one(h, psi2, {100, 1e-7, false});
  EXPECT_TRUE(with.converged);
  // Preconditioning should never need more iterations (usually far fewer).
  EXPECT_LE(with.iterations, without.iterations);
}

}  // namespace
}  // namespace ls3df
