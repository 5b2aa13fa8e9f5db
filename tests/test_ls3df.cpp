// LS3DF solver integration tests: exactness in the single-fragment limit,
// agreement with direct DFT (the paper's central accuracy claim),
// improvement with buffer size, SCF convergence behaviour (Fig. 6), and
// the solver's structural invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "atoms/builders.h"
#include "common/constants.h"
#include "dft/eigensolver.h"
#include "dft/scf.h"
#include "fragment/ls3df.h"
#include "parallel/scheduler.h"
#include "parallel/thread_pool.h"
#include "transport/proc_transport.h"
#include "transport/thread_transport.h"

namespace ls3df {
namespace {

Structure h2_chain(int ncells, double a = 6.0) {
  Structure s(Lattice({a * ncells, a, a}));
  for (int c = 0; c < ncells; ++c) {
    s.add_atom(Species::kH, {a * c + 0.5 * a - 0.7, 0.5 * a, 0.5 * a});
    s.add_atom(Species::kH, {a * c + 0.5 * a + 0.7, 0.5 * a, 0.5 * a});
  }
  return s;
}

Ls3dfOptions chain_options() {
  Ls3dfOptions lo;
  lo.division = {3, 1, 1};
  lo.points_per_cell = 8;
  lo.ecut = 1.0;
  lo.buffer_points = 4;
  lo.max_iterations = 40;
  lo.l1_tol = 1e-4;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 8;
  return lo;
}

// Sample count and sum of one phase.*_s histogram in a result's metrics
// (0 when the solve never observed it).
long phase_count(const Ls3dfResult& r, const char* name) {
  const auto it = r.metrics.histograms.find(name);
  return it == r.metrics.histograms.end()
             ? 0
             : static_cast<long>(it->second.count);
}
double phase_total(const Ls3dfResult& r, const char* name) {
  const auto it = r.metrics.histograms.find(name);
  return it == r.metrics.histograms.end() ? 0.0 : it->second.sum;
}

// Direct DFT on the same grid/basis as an Ls3dfSolver (the baseline the
// paper compares against).
ScfResult direct_reference(const Structure& s, const Ls3dfSolver& solver,
                           const Ls3dfOptions& lo, int n_bands,
                           std::uint64_t seed = 12345) {
  GVectors basis(s.lattice(), solver.global_grid(), lo.ecut);
  Hamiltonian h(s, basis);
  FieldR vion = h.local_potential();
  FieldR rho0 = build_initial_density(s, solver.global_grid());
  ScfOptions so;
  so.ecut = lo.ecut;
  so.max_iterations = 60;
  so.l1_tol = lo.l1_tol;
  so.eig = lo.eig;
  so.n_bands = n_bands;
  so.seed = seed;
  return run_scf(h, vion, effective_potential(vion, rho0, s.lattice()), so);
}

TEST(Ls3df, RejectsInvalidOptionsAtConstruction) {
  // Every option value the solver cannot run is a typed
  // std::invalid_argument from the constructor — never a hang (a zero
  // division or grid spacing), a std::length_error (a negative
  // division), a silently accepted sub-minimum grid, a NaN or zero-width
  // passivation wall, an eigensolver that never runs, a tolerance that
  // can never be met, a precision policy that would silently act as
  // another, or a retired toggle that would be ignored. A
  // division of exactly 2 is structurally degenerate for LS3DF (see the
  // constructor).
  Structure s = h2_chain(3);
  struct Case {
    const char* what;
    std::function<void(Ls3dfOptions&)> set;
  };
  const Case cases[] = {
      {"division 2x1x1", [](Ls3dfOptions& o) { o.division = {2, 1, 1}; }},
      {"division 1x2x1", [](Ls3dfOptions& o) { o.division = {1, 2, 1}; }},
      {"division 0x1x1", [](Ls3dfOptions& o) { o.division = {0, 1, 1}; }},
      {"division -3x1x1", [](Ls3dfOptions& o) { o.division = {-3, 1, 1}; }},
      {"division 11x1x1", [](Ls3dfOptions& o) { o.division = {11, 1, 1}; }},
      {"points_per_cell 0", [](Ls3dfOptions& o) { o.points_per_cell = 0; }},
      {"points_per_cell 3", [](Ls3dfOptions& o) { o.points_per_cell = 3; }},
      {"points_per_cell 11", [](Ls3dfOptions& o) { o.points_per_cell = 11; }},
      {"batch_width 0", [](Ls3dfOptions& o) { o.batch_width = 0; }},
      {"batch_width -1", [](Ls3dfOptions& o) { o.batch_width = -1; }},
      {"n_shards -1", [](Ls3dfOptions& o) { o.n_shards = -1; }},
      {"overlap false", [](Ls3dfOptions& o) { o.overlap = false; }},
      {"donate false", [](Ls3dfOptions& o) { o.donate = false; }},
      {"max_iterations -1", [](Ls3dfOptions& o) { o.max_iterations = -1; }},
      {"ecut 0", [](Ls3dfOptions& o) { o.ecut = 0; }},
      {"ecut -1", [](Ls3dfOptions& o) { o.ecut = -1; }},
      {"ecut NaN", [](Ls3dfOptions& o) { o.ecut = std::nan(""); }},
      {"ecut inf", [](Ls3dfOptions& o) { o.ecut = HUGE_VAL; }},
      {"extra_bands -50", [](Ls3dfOptions& o) { o.extra_bands = -50; }},
      {"buffer_points -2", [](Ls3dfOptions& o) { o.buffer_points = -2; }},
      {"mix_alpha 0", [](Ls3dfOptions& o) { o.mix_alpha = 0; }},
      {"mix_alpha NaN", [](Ls3dfOptions& o) { o.mix_alpha = std::nan(""); }},
      {"mix_alpha inf", [](Ls3dfOptions& o) { o.mix_alpha = HUGE_VAL; }},
      {"wall_height NaN",
       [](Ls3dfOptions& o) { o.wall_height = std::nan(""); }},
      {"wall_height inf", [](Ls3dfOptions& o) { o.wall_height = HUGE_VAL; }},
      {"wall_height -1", [](Ls3dfOptions& o) { o.wall_height = -1; }},
      {"wall_width NaN", [](Ls3dfOptions& o) { o.wall_width = std::nan(""); }},
      {"wall_width 0", [](Ls3dfOptions& o) { o.wall_width = 0; }},
      {"wall_width -1", [](Ls3dfOptions& o) { o.wall_width = -1; }},
      {"wall_width inf", [](Ls3dfOptions& o) { o.wall_width = HUGE_VAL; }},
      {"eig.max_iterations 0",
       [](Ls3dfOptions& o) { o.eig.max_iterations = 0; }},
      {"eig.max_iterations -1",
       [](Ls3dfOptions& o) { o.eig.max_iterations = -1; }},
      {"l1_tol NaN", [](Ls3dfOptions& o) { o.l1_tol = std::nan(""); }},
      {"l1_tol -1e-4", [](Ls3dfOptions& o) { o.l1_tol = -1e-4; }},
      {"l1_tol inf", [](Ls3dfOptions& o) { o.l1_tol = HUGE_VAL; }},
      {"eig.residual_tol NaN",
       [](Ls3dfOptions& o) { o.eig.residual_tol = std::nan(""); }},
      {"eig.residual_tol -1e-7",
       [](Ls3dfOptions& o) { o.eig.residual_tol = -1e-7; }},
      {"fragment_smearing NaN",
       [](Ls3dfOptions& o) { o.fragment_smearing = std::nan(""); }},
      {"fragment_smearing -0.01",
       [](Ls3dfOptions& o) { o.fragment_smearing = -0.01; }},
      {"atom_margin NaN",
       [](Ls3dfOptions& o) { o.atom_margin = std::nan(""); }},
      {"precision 7",
       [](Ls3dfOptions& o) { o.precision = static_cast<Precision>(7); }},
      {"promote_factor NaN",
       [](Ls3dfOptions& o) { o.promote_factor = std::nan(""); }},
      {"promote_factor inf",
       [](Ls3dfOptions& o) { o.promote_factor = HUGE_VAL; }},
      {"promote_factor -5", [](Ls3dfOptions& o) { o.promote_factor = -5; }},
      {"promote_factor 0.5", [](Ls3dfOptions& o) { o.promote_factor = 0.5; }},
  };
  for (const Case& c : cases) {
    Ls3dfOptions lo = chain_options();
    c.set(lo);
    EXPECT_THROW(Ls3dfSolver(s, lo), std::invalid_argument) << c.what;
  }
  // The FFT takes only 2-3-5-7-smooth lengths, so a non-smooth grid is
  // rejected naming the option that set it; 7 is smooth.
  const auto message = [&](const std::function<void(Ls3dfOptions&)>& set) {
    Ls3dfOptions lo = chain_options();
    set(lo);
    try {
      Ls3dfSolver solver(s, lo);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message([](Ls3dfOptions& o) { o.points_per_cell = 11; })
                .find("points_per_cell"),
            std::string::npos);
  EXPECT_NE(message([](Ls3dfOptions& o) { o.division = {11, 1, 1}; })
                .find("division"),
            std::string::npos);
  EXPECT_EQ(message([](Ls3dfOptions& o) { o.points_per_cell = 7; }), "");
  // The boundary values themselves are valid.
  Ls3dfOptions lo = chain_options();
  lo.points_per_cell = 4;
  lo.batch_width = 1;
  lo.n_shards = 0;
  lo.max_iterations = 0;
  lo.extra_bands = 0;
  lo.buffer_points = 0;
  lo.wall_height = 0;
  lo.l1_tol = 0;
  lo.eig.max_iterations = 1;
  lo.eig.residual_tol = 0;
  lo.fragment_smearing = 0;
  lo.atom_margin = -1;  // the default margin selector
  lo.precision = Precision::kMixed;
  lo.promote_factor = 1;
  EXPECT_NO_THROW(Ls3dfSolver(s, lo));
  // So are the defaults.
  EXPECT_NO_THROW(Ls3dfSolver(s, Ls3dfOptions{}));
}

TEST(Ls3df, SingleFragmentLimitIsExactlyDirectDft) {
  // Division (1,1,1): one fragment spanning the supercell, no buffer, no
  // wall. With matched seeds the LS3DF outer loop IS the direct SCF loop,
  // so energies agree to solver precision.
  Structure s = h2_chain(1);
  Ls3dfOptions lo = chain_options();
  lo.division = {1, 1, 1};
  lo.points_per_cell = 12;
  lo.l1_tol = 1e-5;
  Ls3dfSolver solver(s, lo);
  ASSERT_EQ(solver.num_fragments(), 1);
  Ls3dfResult lr = solver.solve();
  ASSERT_TRUE(lr.converged);
  EXPECT_LT(lr.charge_patch_error, 1e-10);

  const int nb =
      static_cast<int>(std::ceil(s.num_electrons() / 2)) + lo.extra_bands;
  // Fragment 0's wavefunction seed is opt.seed ^ (0x9e37 + 0).
  ScfResult dr =
      direct_reference(s, solver, lo, nb, lo.seed ^ 0x9e37u);
  ASSERT_TRUE(dr.converged);
  EXPECT_NEAR(lr.energy.total, dr.energy.total, 1e-7);
}

class Ls3dfAccuracy : public ::testing::Test {
 protected:
  // One shared expensive setup for several assertions.
  static void SetUpTestSuite() {
    s_ = new Structure(h2_chain(3));
    lo_ = new Ls3dfOptions(chain_options());
    solver_ = new Ls3dfSolver(*s_, *lo_);
    result_ = new Ls3dfResult(solver_->solve());
    direct_ = new ScfResult(direct_reference(*s_, *solver_, *lo_, 6));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete direct_;
    delete solver_;
    delete lo_;
    delete s_;
  }
  static Structure* s_;
  static Ls3dfOptions* lo_;
  static Ls3dfSolver* solver_;
  static Ls3dfResult* result_;
  static ScfResult* direct_;
};
Structure* Ls3dfAccuracy::s_ = nullptr;
Ls3dfOptions* Ls3dfAccuracy::lo_ = nullptr;
Ls3dfSolver* Ls3dfAccuracy::solver_ = nullptr;
Ls3dfResult* Ls3dfAccuracy::result_ = nullptr;
ScfResult* Ls3dfAccuracy::direct_ = nullptr;

TEST_F(Ls3dfAccuracy, BothConverge) {
  EXPECT_TRUE(result_->converged);
  EXPECT_TRUE(direct_->converged);
}

TEST_F(Ls3dfAccuracy, TotalEnergyAgreesToMevPerAtom) {
  // The paper: "the total energy differed by only a few meV per atom".
  const double dmev = (result_->energy.total - direct_->energy.total) /
                      s_->size() * units::kHartreeToMeV;
  EXPECT_LT(std::abs(dmev), 10.0) << "dE = " << dmev << " meV/atom";
}

TEST_F(Ls3dfAccuracy, ChargePatchingErrorSmall) {
  // The +- cancellation leaves only a tiny pre-normalization charge
  // mismatch (fraction of an electron out of 6).
  EXPECT_LT(result_->charge_patch_error, 0.1);
}

TEST_F(Ls3dfAccuracy, ConvergenceHistoryDecaysLikeFig6) {
  const auto& h = result_->conv_history;
  ASSERT_GE(h.size(), 4u);
  EXPECT_LT(h.back(), 1e-2 * h.front());
}

TEST_F(Ls3dfAccuracy, OccupiedSpectrumAgreesRelatively) {
  // Paper Sec. V: eigenenergy differences of a few meV between LS3DF and
  // direct LDA, using the converged LS3DF potential to solve the full
  // system. The absolute potential reference is arbitrary (the paper
  // notes V_in has an arbitrary shift), so compare the spectrum relative
  // to the HOMO.
  GVectors basis(s_->lattice(), solver_->global_grid(), lo_->ecut);
  Hamiltonian h(*s_, basis);

  const EigensolverOptions opt{60, 1e-8, true};
  BatchWorkspace ws;
  h.set_local_potential(result_->v_eff);
  MatC p1 = random_wavefunctions(basis, 6, 5);
  const EigensolverResult e1 =
      solve_all_band_batched<double>({{&h, &p1}}, opt, ws)[0];
  h.set_local_potential(direct_->v_eff);
  MatC p2 = random_wavefunctions(basis, 6, 5);
  const EigensolverResult e2 =
      solve_all_band_batched<double>({{&h, &p2}}, opt, ws)[0];

  const int homo = 2;  // 6 electrons -> 3 occupied bands
  for (int j = 0; j <= homo; ++j) {
    const double rel =
        ((e1.eigenvalues[j] - e1.eigenvalues[homo]) -
         (e2.eigenvalues[j] - e2.eigenvalues[homo])) *
        units::kHartreeToMeV;
    EXPECT_LT(std::abs(rel), 30.0) << "band " << j;
  }
}

TEST_F(Ls3dfAccuracy, DensityAgreesWithDirect) {
  const double pv = s_->lattice().volume() /
                    static_cast<double>(result_->rho.size());
  double l1 = 0;
  for (std::size_t i = 0; i < result_->rho.size(); ++i)
    l1 += std::abs(result_->rho[i] - direct_->rho[i]);
  l1 *= pv;
  // Within ~10% of the total charge for this tiny-buffer toy setup.
  EXPECT_LT(l1, 0.1 * s_->num_electrons());
}

TEST_F(Ls3dfAccuracy, PhaseProfileHasAllFourPhases) {
  const Ls3dfResult& r = *result_;
  for (const char* phase : {"phase.gen_vf_s", "phase.petot_f_s",
                            "phase.gen_dens_s", "phase.genpot_s"}) {
    EXPECT_GT(phase_total(r, phase), 0.0) << phase;
    EXPECT_EQ(phase_count(r, phase), r.iterations) << phase;
  }
  // PEtot_F dominates (the paper's premise for parallel scalability).
  EXPECT_GT(phase_total(r, "phase.petot_f_s"),
            phase_total(r, "phase.gen_vf_s"));
  EXPECT_GT(phase_total(r, "phase.petot_f_s"),
            phase_total(r, "phase.gen_dens_s"));
}

TEST_F(Ls3dfAccuracy, FragmentStructureInvariants) {
  // 3 corners x 2 sizes = 6 fragments; signed owned-atom count telescopes
  // to the real atom count.
  EXPECT_EQ(solver_->num_fragments(), 6);
  const auto& frags = solver_->decomposition().fragments();
  long signed_atoms = 0;
  for (int f = 0; f < solver_->num_fragments(); ++f) {
    EXPECT_GT(solver_->fragment_atom_count(f), 0);
    EXPECT_GT(solver_->fragment_electrons(f), 0);
    (void)frags;
  }
  // Signed electron count over *owned* atoms equals total electrons:
  // verified indirectly through the charge patching error above.
  (void)signed_atoms;
}

TEST_F(Ls3dfAccuracy, FragmentCostsFeedScheduler) {
  auto costs = solver_->fragment_costs();
  ASSERT_EQ(static_cast<int>(costs.size()), solver_->num_fragments());
  for (double c : costs) EXPECT_GT(c, 0);
  GroupAssignment ga = assign_fragments(costs, 3);
  EXPECT_GT(ga.efficiency, 0.5);
  EXPECT_LE(ga.efficiency, 1.0 + 1e-12);
}

TEST(Ls3df, LargerBufferImprovesAccuracy) {
  // The paper: LS3DF accuracy "increases exponentially with the fragment
  // size" (buffer plays that role at fixed division). Compare the total-
  // energy error at buffer 2 vs buffer 4 grid points.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();

  lo.buffer_points = 2;
  Ls3dfSolver small(s, lo);
  Ls3dfResult r_small = small.solve();

  lo.buffer_points = 4;
  Ls3dfSolver big(s, lo);
  Ls3dfResult r_big = big.solve();

  ScfResult dr = direct_reference(s, big, lo, 6);
  ASSERT_TRUE(dr.converged);
  const double err_small = std::abs(r_small.energy.total - dr.energy.total);
  const double err_big = std::abs(r_big.energy.total - dr.energy.total);
  EXPECT_LT(err_big, err_small);
}

TEST(Ls3df, BitIdenticalAcrossWorkerCountsWithZeroSteadyStateAllocs) {
  // The engine's determinism contract: for a fixed seed the patched
  // density is *bit-identical* for any batch width and worker count —
  // fragments are solved independently and every reduction runs in
  // fragment order. The same solves double as the allocation probe: the
  // per-batch eigensolver workspaces (member arenas + apply stack) may
  // only grow during the first outer iteration; afterwards every lockstep
  // solve reuses warm buffers. The count is read at each iteration's
  // end-of-iteration sequence point through the progress callback.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.max_iterations = 3;
  lo.l1_tol = 0.0;  // fixed number of outer iterations

  std::vector<double> reference;
  for (int width : {1, 4}) {
    for (int workers : {1, 2, 4}) {
      lo.batch_width = width;
      lo.n_workers = workers;
      Ls3dfSolver solver(s, lo);
      std::vector<long> allocs;
      solver.set_progress([&](const Ls3dfProgress&) {
        allocs.push_back(solver.workspace_allocations());
      });
      const Ls3dfResult r = solver.solve();
      ASSERT_EQ(r.iterations, 3);
      ASSERT_EQ(allocs.size(), 3u);
      EXPECT_GT(allocs[0], 0) << "width=" << width << " workers=" << workers;
      for (std::size_t it = 1; it < allocs.size(); ++it)
        EXPECT_EQ(allocs[it], allocs[0])
            << "fragment workspaces grew in iteration " << it + 1
            << " at width=" << width << " workers=" << workers;

      if (reference.empty()) {
        reference.assign(r.rho.data(), r.rho.data() + r.rho.size());
      } else {
        ASSERT_EQ(r.rho.size(), reference.size());
        for (std::size_t i = 0; i < r.rho.size(); ++i)
          ASSERT_EQ(r.rho[i], reference[i])
              << "density differs at point " << i << " for width=" << width
              << " workers=" << workers;
      }
    }
  }
}

TEST(Ls3df, BatchesRespectWidthAndSizeClass) {
  // Batch composition on a freshly constructed solver: every batch holds
  // at most batch_width members of one size class, and every fragment
  // lands in exactly one batch. Identical (grid, ng, nb) implies an
  // identical analytic cost, so members of one batch share it.
  Structure s = h2_chain(3);
  for (int width : {1, 2, 4}) {
    Ls3dfOptions lo = chain_options();
    lo.batch_width = width;
    Ls3dfSolver solver(s, lo);
    const auto& batches = solver.batches();
    ASSERT_FALSE(batches.empty());
    const std::vector<double> costs = solver.fragment_costs();
    std::vector<int> seen(solver.num_fragments(), 0);
    for (const FragmentBatch& b : batches) {
      ASSERT_FALSE(b.members.empty());
      ASSERT_LE(static_cast<int>(b.members.size()), width);
      for (int f : b.members) {
        ++seen[f];
        EXPECT_EQ(costs[f], costs[b.members.front()])
            << "fragment " << f << " width=" << width;
      }
    }
    for (int f = 0; f < solver.num_fragments(); ++f)
      EXPECT_EQ(seen[f], 1) << "fragment " << f << " batched " << seen[f]
                            << " times at width=" << width;
  }
}

TEST(Ls3df, BatchedBitIdenticalAcrossWidthsAndWorkers) {
  // The batching contract: fused lockstep solves of same-size-class
  // batches produce the same patched density — bit for bit — as solving
  // every fragment on its own (width 1), for any batch width and worker
  // count.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;  // fixed number of outer iterations

  std::vector<double> reference;
  {
    lo.batch_width = 1;
    lo.n_workers = 1;
    Ls3dfSolver solver(s, lo);
    Ls3dfResult r = solver.solve();
    reference.assign(r.rho.data(), r.rho.data() + r.rho.size());
  }
  for (int width : {1, 2, 4}) {
    for (int workers : {1, 4}) {
      if (width == 1 && workers == 1) continue;  // the reference itself
      lo.batch_width = width;
      lo.n_workers = workers;
      Ls3dfSolver solver(s, lo);
      Ls3dfResult r = solver.solve();
      ASSERT_EQ(r.rho.size(), reference.size());
      for (std::size_t i = 0; i < r.rho.size(); ++i)
        ASSERT_EQ(r.rho[i], reference[i])
            << "density differs at point " << i << " for width=" << width
            << " workers=" << workers;
    }
  }
}

TEST(Ls3df, ShardedSolveBitIdenticalAcrossShardsAndWorkers) {
  // The sharding contract: with the global grid split into x-slabs —
  // Gen_dens patching into owning shards, GENPOT through the distributed
  // transpose, mixing shard-local — solve() reproduces the default
  // single in-process shard bit for bit, for any shard count and worker
  // count.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.max_iterations = 3;
  lo.l1_tol = 0.0;  // fixed number of outer iterations

  Ls3dfResult ref;
  {
    lo.n_shards = 0;
    lo.n_workers = 1;
    Ls3dfSolver solver(s, lo);
    EXPECT_EQ(solver.active_shards(), 1);
    EXPECT_STREQ(solver.shard_transport(), "inproc");
    ref = solver.solve();
  }
  // Transport × shards × workers: the proc backend (one forked worker
  // process per shard over shared memory) must reproduce the same bits
  // as the in-process mailboxes — and both must match the reference.
  for (TransportKind kind : {TransportKind::kInProc, TransportKind::kProc}) {
    for (int shards : {1, 2, 4}) {
      for (int workers :
           kind == TransportKind::kInProc ? std::vector<int>{1, 4}
                                          : std::vector<int>{2}) {
        lo.transport = kind;
        lo.n_shards = shards;
        lo.n_workers = workers;
        Ls3dfSolver solver(s, lo);
        EXPECT_EQ(solver.active_shards(), shards);
        EXPECT_STREQ(solver.shard_transport(), transport_name(kind));
        Ls3dfResult r = solver.solve();
        ASSERT_EQ(r.iterations, ref.iterations);
        ASSERT_EQ(r.conv_history.size(), ref.conv_history.size());
        for (std::size_t i = 0; i < ref.conv_history.size(); ++i)
          ASSERT_EQ(r.conv_history[i], ref.conv_history[i])
              << "L1 metric differs at iteration " << i << " for shards="
              << shards << " workers=" << workers << " "
              << transport_name(kind);
        ASSERT_EQ(r.charge_patch_error, ref.charge_patch_error);
        ASSERT_EQ(r.rho.size(), ref.rho.size());
        for (std::size_t i = 0; i < ref.rho.size(); ++i)
          ASSERT_EQ(r.rho[i], ref.rho[i])
              << "density differs at point " << i << " for shards="
              << shards << " workers=" << workers << " "
              << transport_name(kind);
        for (std::size_t i = 0; i < ref.v_eff.size(); ++i)
          ASSERT_EQ(r.v_eff[i], ref.v_eff[i])
              << "potential differs at point " << i << " for shards="
              << shards << " workers=" << workers << " "
              << transport_name(kind);
        ASSERT_EQ(r.energy.total, ref.energy.total);
      }
    }
  }
}

TEST(Ls3df, NoRankMaterializesTheDenseGridOnTheShardedPath) {
  // The footprint contract behind the slab-local setup: every piece of
  // persistent sharded state (field slabs, FFT slab/pencil scratch,
  // exchange lanes) is proportional to global/N, so doubling the shard
  // count roughly halves the per-rank footprint and no rank ever holds a
  // dense-grid-sized allocation.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.max_iterations = 1;
  lo.l1_tol = 0.0;
  for (TransportKind kind : {TransportKind::kInProc, TransportKind::kProc}) {
    std::vector<std::size_t> peak(5, 0);
    lo.transport = kind;
    for (int shards : {2, 4}) {
      lo.n_shards = shards;
      Ls3dfSolver solver(s, lo);
      Ls3dfResult r = solver.solve();  // warms every exchange lane
      ASSERT_EQ(r.iterations, 1);
      const Vec3i g = solver.global_grid();
      const std::size_t slab_ceil =
          static_cast<std::size_t>((g.x + shards - 1) / shards) * g.y * g.z;
      for (int rank = 0; rank < shards; ++rank) {
        const std::size_t fp = solver.shard_rank_footprint(rank);
        ASSERT_GT(fp, 0u);
        // ~6 real slabs + ~3 complex FFT buffers + exchange lanes (the
        // proc backend stores send and recv extents separately, so its
        // exchange term doubles): under 16 slab-equivalents, and in
        // particular each constituent array is slab-sized, never
        // global-sized.
        EXPECT_LE(fp, 16 * slab_ceil)
            << "shards=" << shards << " rank=" << rank << " "
            << transport_name(kind);
        peak[shards] = std::max(peak[shards], fp);
      }
    }
    // Scaling: 4 shards must hold roughly half of 2 shards' per-rank
    // state (the constant exchange/scratch tail keeps it from exactly
    // half).
    EXPECT_LT(peak[4], peak[2] * 3 / 4)
        << "per-rank footprint does not scale down with the shard count on "
        << transport_name(kind);
  }
}

TEST(Ls3df, ShardedProfileHasTransposeSubPhase) {
  // The all-to-all cost is visible next to the compute phases — one
  // phase.genpot_transpose_s sample per genpot call (the initial-guess
  // genpot plus one per outer iteration).
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.n_shards = 2;
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;
  Ls3dfSolver solver(s, lo);
  Ls3dfResult r = solver.solve();
  EXPECT_EQ(phase_count(r, "phase.genpot_transpose_s"), r.iterations + 1);
  EXPECT_GT(phase_total(r, "phase.genpot_transpose_s"), 0.0);
  for (const char* phase : {"phase.gen_vf_s", "phase.petot_f_s",
                            "phase.gen_dens_s", "phase.genpot_s"})
    EXPECT_EQ(phase_count(r, phase), r.iterations) << phase;
}

TEST(Ls3df, ShardExchangeBuffersSteadyStateAllocatesNothing) {
  // The shard exchange buffers (all-to-all mailboxes + reduction tables)
  // may only grow while the first GENPOT warms them; afterwards whole
  // solve() calls reuse warm buffers.
  // Both in-process backends share the contract: the proc transport's
  // shared-memory extents are grow-only exactly like the mailboxes.
  for (TransportKind kind : {TransportKind::kInProc, TransportKind::kProc}) {
    Structure s = h2_chain(3);
    Ls3dfOptions lo = chain_options();
    lo.transport = kind;
    lo.n_shards = 3;
    lo.n_workers = 2;
    lo.max_iterations = 2;
    lo.l1_tol = 0.0;
    Ls3dfSolver solver(s, lo);
    EXPECT_EQ(solver.shard_allocations(), 0) << transport_name(kind);

    // First solve() warms everything: transpose mailboxes on the first
    // GENPOT, the plane-partials table on the first reduction.
    Ls3dfResult r1 = solver.solve();
    ASSERT_EQ(r1.iterations, 2);
    const long warm = solver.shard_allocations();
    EXPECT_GT(warm, 0) << transport_name(kind);

    // Every further solve() must reuse the warm buffers.
    Ls3dfResult r2 = solver.solve();
    ASSERT_EQ(r2.iterations, 2);
    EXPECT_EQ(solver.shard_allocations(), warm)
        << "shard exchange buffers grew after the first solve on "
        << transport_name(kind);
  }
}

TEST(Ls3df, ChainDagBitIdenticalAcrossWorkersWithChainAttribution) {
  // The ordered-commit contract: the barrier-free TaskGraph iteration
  // (per-batch restrict -> solve -> ordered-patch-commit chains) lands
  // on the same bits for any worker count, however the chains
  // interleave — and reports the per-chain attribution.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.max_iterations = 3;
  lo.l1_tol = 0.0;  // fixed number of outer iterations

  lo.n_workers = 1;
  const Ls3dfResult ref = Ls3dfSolver(s, lo).solve();

  for (int workers : {1, 2, 4}) {
    lo.n_workers = workers;
    Ls3dfSolver solver(s, lo);
    Ls3dfResult r = solver.solve();
    ASSERT_EQ(r.iterations, ref.iterations);
    ASSERT_EQ(r.conv_history.size(), ref.conv_history.size());
    for (std::size_t i = 0; i < ref.conv_history.size(); ++i)
      ASSERT_EQ(r.conv_history[i], ref.conv_history[i])
          << "L1 differs at iteration " << i << " workers=" << workers;
    ASSERT_EQ(r.charge_patch_error, ref.charge_patch_error);
    ASSERT_EQ(r.rho.size(), ref.rho.size());
    for (std::size_t i = 0; i < ref.rho.size(); ++i)
      ASSERT_EQ(r.rho[i], ref.rho[i])
          << "density differs at point " << i << " workers=" << workers;
    for (std::size_t i = 0; i < ref.v_eff.size(); ++i)
      ASSERT_EQ(r.v_eff[i], ref.v_eff[i])
          << "potential differs at point " << i << " workers=" << workers;
    ASSERT_EQ(r.energy.total, ref.energy.total);

    // Chain attribution: one entry per batch, every chain actually
    // restricted, solved and patched.
    ASSERT_EQ(r.chain_times.size(), solver.batches().size());
    for (const auto& ct : r.chain_times) {
      EXPECT_GT(ct.restrict_s, 0.0);
      EXPECT_GT(ct.solve_s, 0.0);
      EXPECT_GT(ct.patch_s, 0.0);
    }
    EXPECT_GE(r.overlap_fraction, 0.0);
  }
}

TEST(Ls3df, GraphExtendedGenpotBitIdenticalAcrossShardsAndTransports) {
  // The graph-extended GENPOT seam (per-rank partial sums + chained
  // collectives) must not change a bit when the slabs split three ways,
  // on either non-SPMD transport.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;
  lo.n_workers = 2;

  const Ls3dfResult ref = Ls3dfSolver(s, lo).solve();  // one shard
  lo.n_shards = 3;
  for (TransportKind kind : {TransportKind::kInProc, TransportKind::kProc}) {
    lo.transport = kind;
    Ls3dfSolver solver(s, lo);
    Ls3dfResult r = solver.solve();
    ASSERT_EQ(r.conv_history.size(), ref.conv_history.size());
    for (std::size_t i = 0; i < ref.conv_history.size(); ++i)
      ASSERT_EQ(r.conv_history[i], ref.conv_history[i]) << transport_name(kind);
    for (std::size_t i = 0; i < ref.rho.size(); ++i)
      ASSERT_EQ(r.rho[i], ref.rho[i]) << "point " << i << " "
                                      << transport_name(kind);
    ASSERT_EQ(r.energy.total, ref.energy.total);
    // The transpose sub-phase survives the graph restructuring: one
    // sample per genpot (initial + one per iteration).
    EXPECT_EQ(phase_count(r, "phase.genpot_transpose_s"), r.iterations + 1);
  }
}

TEST(Ls3df, ThreadSpmdSolveBitIdenticalToInProcess) {
  // The rank-local SPMD contract: N OS threads, each owning one rank of
  // a make_thread_spmd_group and holding only ~global/N of every sharded
  // container, reproduce the single in-process shard bit for bit.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.max_iterations = 3;
  lo.l1_tol = 0.0;

  Ls3dfResult ref;
  Vec3i g;
  {
    Ls3dfOptions d = lo;
    d.n_workers = 1;
    Ls3dfSolver solver(s, d);
    g = solver.global_grid();
    ref = solver.solve();
  }
  for (int shards : {2, 4}) {
    auto group = make_thread_spmd_group(shards);
    std::vector<Ls3dfResult> res(shards);
    std::vector<std::size_t> fp(shards, 0);
    std::vector<std::thread> threads;
    for (int r = 0; r < shards; ++r)
      threads.emplace_back([&, r]() {
        Ls3dfOptions o = lo;
        o.n_shards = shards;
        o.n_workers = 1;
        o.transport = TransportKind::kThreads;
        o.transport_factory = [&group, r, shards](int n_ranks, int,
                                                  std::size_t) {
          EXPECT_EQ(n_ranks, shards);
          return std::move(group[r]);
        };
        Ls3dfSolver solver(s, o);
        res[r] = solver.solve();
        fp[r] = solver.shard_rank_footprint(r);
      });
    for (auto& t : threads) t.join();

    const std::size_t slab_ceil =
        static_cast<std::size_t>((g.x + shards - 1) / shards) * g.y * g.z;
    for (int r = 0; r < shards; ++r) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " rank=" +
                   std::to_string(r));
      ASSERT_EQ(res[r].iterations, ref.iterations);
      ASSERT_EQ(res[r].conv_history.size(), ref.conv_history.size());
      for (std::size_t i = 0; i < ref.conv_history.size(); ++i)
        ASSERT_EQ(res[r].conv_history[i], ref.conv_history[i])
            << "L1 metric differs at iteration " << i;
      ASSERT_EQ(res[r].charge_patch_error, ref.charge_patch_error);
      ASSERT_EQ(res[r].rho.size(), ref.rho.size());
      for (std::size_t i = 0; i < ref.rho.size(); ++i)
        ASSERT_EQ(res[r].rho[i], ref.rho[i])
            << "density differs at point " << i;
      for (std::size_t i = 0; i < ref.v_eff.size(); ++i)
        ASSERT_EQ(res[r].v_eff[i], ref.v_eff[i])
            << "potential differs at point " << i;
      ASSERT_EQ(res[r].energy.total, ref.energy.total);
      // True rank-local residency: resident doubles stay
      // slab-proportional — no thread ever held a dense-grid-sized
      // sharded state. The chain DAG keeps the Gen_VF halo lanes and
      // the Gen_dens window lanes posted concurrently, so its budget
      // sits a few slab-equivalents above the 16 of the non-SPMD
      // footprint probe.
      EXPECT_GT(fp[r], 0u);
      EXPECT_LE(fp[r], 20 * slab_ceil);
    }
  }
}

TEST(Ls3df, ThreadSpmdCheckpointBytesMatchDenseAndResumeContinues) {
  // Snapshot portability across transports: the file rank 0 of a
  // thread-SPMD group writes must be byte-identical to the one a
  // dense-per-process run with the same shard count writes — and a
  // crashed SPMD solve must resume from it onto the uninterrupted bits.
  const std::string dense_path = "/tmp/ls3df_spmd_ckpt_dense.snap";
  const std::string spmd_path = "/tmp/ls3df_spmd_ckpt.snap";
  for (const std::string& p : {dense_path, spmd_path}) {
    std::remove(p.c_str());
    std::remove((p + ".1").c_str());
  }

  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;
  lo.n_shards = 2;

  // Dense-per-process reference run, checkpointing every iteration.
  Ls3dfOptions dl = lo;
  dl.n_workers = 2;
  dl.checkpoint.path = dense_path;
  const Ls3dfResult ref = Ls3dfSolver(s, dl).solve();

  // One thread-SPMD solve; tweak(options, rank) customizes each rank,
  // and act runs the per-rank body (solve, crash, resume...).
  const auto spmd_run =
      [&](const std::function<void(Ls3dfOptions&, int)>& tweak,
          const std::function<void(Ls3dfSolver&, int)>& act) {
        auto group = make_thread_spmd_group(2);
        std::vector<std::thread> threads;
        for (int r = 0; r < 2; ++r)
          threads.emplace_back([&, r]() {
            Ls3dfOptions o = lo;
            o.n_workers = 1;
            o.transport = TransportKind::kThreads;
            o.transport_factory = [&group, r](int, int, std::size_t) {
              return std::move(group[r]);
            };
            tweak(o, r);
            Ls3dfSolver solver(s, o);
            act(solver, r);
          });
        for (auto& t : threads) t.join();
      };

  // SPMD run with the same trajectory; only rank 0 writes the file.
  std::vector<Ls3dfResult> res(2);
  spmd_run([&](Ls3dfOptions& o, int) { o.checkpoint.path = spmd_path; },
           [&](Ls3dfSolver& solver, int r) { res[r] = solver.solve(); });
  for (int r = 0; r < 2; ++r) {
    ASSERT_EQ(res[r].rho.size(), ref.rho.size()) << r;
    for (std::size_t i = 0; i < ref.rho.size(); ++i)
      ASSERT_EQ(res[r].rho[i], ref.rho[i]) << "rank " << r << " point " << i;
    ASSERT_EQ(res[r].energy.total, ref.energy.total) << r;
  }
  const auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.good()) << p;
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  };
  const std::vector<char> a = slurp(dense_path);
  const std::vector<char> b = slurp(spmd_path);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b) << "SPMD snapshot bytes differ from the "
                         "dense-per-process snapshot";

  // Crash every rank in iteration 2's first batch solve (the iteration-1
  // snapshot is committed); all ranks throw at the same phase point, so
  // no rank is left blocked in a collective.
  for (const std::string& p : {spmd_path, spmd_path + ".1"})
    std::remove(p.c_str());
  std::shared_ptr<int> per_iter[2];  // resolved by act once batches exist
  spmd_run(
      [&](Ls3dfOptions& o, int r) {
        o.checkpoint.path = spmd_path;
        auto counter = std::make_shared<std::atomic<int>>(0);
        per_iter[r] = std::make_shared<int>(1 << 30);
        o.on_batch_solve = [counter, limit = per_iter[r]](int) {
          if (counter->fetch_add(1) == *limit)
            throw std::runtime_error("injected crash");
        };
      },
      [&](Ls3dfSolver& solver, int r) {
        *per_iter[r] = static_cast<int>(solver.batches().size());
        EXPECT_THROW(solver.solve(), std::runtime_error);
      });

  // Fresh SPMD group resumes from the snapshot: indistinguishable from
  // never having crashed.
  std::vector<Ls3dfResult> resumed(2);
  spmd_run([](Ls3dfOptions&, int) {},
           [&](Ls3dfSolver& solver, int r) {
             resumed[r] = solver.resume(spmd_path);
           });
  for (int r = 0; r < 2; ++r) {
    ASSERT_EQ(resumed[r].iterations, ref.iterations) << r;
    ASSERT_EQ(resumed[r].conv_history.size(), ref.conv_history.size()) << r;
    for (std::size_t i = 0; i < ref.conv_history.size(); ++i)
      ASSERT_EQ(resumed[r].conv_history[i], ref.conv_history[i])
          << "rank " << r << " iteration " << i;
    for (std::size_t i = 0; i < ref.rho.size(); ++i)
      ASSERT_EQ(resumed[r].rho[i], ref.rho[i])
          << "rank " << r << " point " << i;
    ASSERT_EQ(resumed[r].energy.total, ref.energy.total) << r;
  }
  for (const std::string& p : {dense_path, spmd_path}) {
    std::remove(p.c_str());
    std::remove((p + ".1").c_str());
  }
}

TEST(Ls3df, OverlapProfileAttributionSumsToIterationWall) {
  // Under overlap the phase.*_s histograms hold attributed per-node busy
  // time, and phase.handoff_s the task graph's hand-off between nodes
  // (TaskGraph::run's return value). On one worker lane nothing runs
  // concurrently, so their sums must add up to the measured iteration
  // wall (the iter.wall_s series) within 1% — and the phase windows
  // still interleave (the depth-first chain schedule), giving a positive
  // measured overlap fraction.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;
  lo.n_workers = 1;
  Ls3dfSolver solver(s, lo);
  Ls3dfResult r = solver.solve();
  ASSERT_EQ(r.iterations, 2);

  const char* attributed[] = {"phase.gen_vf_s", "phase.petot_f_s",
                              "phase.gen_dens_s", "phase.genpot_s",
                              "phase.mix_s", "phase.handoff_s"};
  double sum = 0;
  for (const char* key : attributed) {
    EXPECT_EQ(phase_count(r, key), r.iterations) << key;
    sum += phase_total(r, key);
  }
  const std::vector<double>& walls = r.metrics.series.at("iter.wall_s");
  ASSERT_EQ(walls.size(), 2u);
  double wall = 0;
  for (double w : walls) wall += w;
  ASSERT_GT(wall, 0.0);
  // Sanitizer instrumentation inflates the per-node scheduling gaps the
  // attribution cannot see; keep the 1% contract where timing is real.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  const double tol = 0.10 * wall;
#else
  const double tol = 0.01 * wall;
#endif
  EXPECT_NEAR(sum, wall, tol)
      << "attributed " << sum << " s vs wall " << wall << " s";
  EXPECT_GT(r.overlap_fraction, 0.0);
  // PEtot_F still dominates the attributed breakdown.
  EXPECT_GT(phase_total(r, "phase.petot_f_s"),
            phase_total(r, "phase.gen_vf_s"));
  EXPECT_GT(phase_total(r, "phase.petot_f_s"),
            phase_total(r, "phase.gen_dens_s"));
}

TEST(Ls3df, OverlapChainFailureSurfacesCleanlyAndPoolIsReusable) {
  // Failure propagation through overlapped chains: an eigensolve that
  // throws must surface as solve()'s latched error — dependents never
  // run, in-flight chains drain, no hang — and the shared pool, the
  // solver and its shard transport must all be reusable afterwards.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;

  Ls3dfResult ref = Ls3dfSolver(s, lo).solve();  // clean reference

  lo.n_workers = 4;
  lo.n_shards = 2;  // the retry below reuses this solver's transport
  auto armed = std::make_shared<bool>(true);
  lo.on_batch_solve = [armed](int batch) {
    if (batch == 1 && *armed) {
      *armed = false;
      throw std::runtime_error("injected eigensolver fault");
    }
  };
  Ls3dfSolver solver(s, lo);
  EXPECT_THROW(solver.solve(), std::runtime_error);

  // Same solver, disarmed hook: the next solve() completes on the same
  // pool and the same (still warm) shard transport.
  Ls3dfResult retry = solver.solve();
  EXPECT_EQ(retry.iterations, 2);

  // The pool is untouched: a fresh solver reproduces the reference bits.
  lo.on_batch_solve = nullptr;
  Ls3dfResult clean = Ls3dfSolver(s, lo).solve();
  ASSERT_EQ(clean.rho.size(), ref.rho.size());
  for (std::size_t i = 0; i < ref.rho.size(); ++i)
    ASSERT_EQ(clean.rho[i], ref.rho[i]) << "point " << i;
  // And an unrelated parallel_for still drains normally.
  std::vector<int> hits(64, 0);
  parallel_for(64, 4, [&](int i, int) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Ls3df, ProgressCallbackThrowLatchesCleanSolverError) {
  // Regression: an exception escaping the user's Ls3dfOptions::progress
  // callback used to unwind solve() as whatever the user threw, leaving
  // the failure unattributed. It must latch as a clean solver error that
  // names the callback (and carries the user's message), and the
  // solver, its shard transport, and the shared pool must all stay
  // reusable — exactly like an injected engine fault.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;

  Ls3dfResult ref = Ls3dfSolver(s, lo).solve();  // clean reference

  lo.n_workers = 4;
  lo.n_shards = 2;
  auto armed = std::make_shared<bool>(true);
  lo.progress = [armed](const Ls3dfProgress&) {
    if (*armed) {
      *armed = false;
      throw std::out_of_range("user callback bug");
    }
  };
  Ls3dfSolver solver(s, lo);
  try {
    solver.solve();
    FAIL() << "expected the progress-callback throw to surface";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("progress callback threw"), std::string::npos)
        << what;
    EXPECT_NE(what.find("user callback bug"), std::string::npos) << what;
  }

  // Same solver, disarmed callback: the retry completes on the same
  // pool and the same (still warm) shard transport. It runs on warm
  // wavefunctions from the failed attempt — a different, equally valid
  // trajectory — so bit-identity to a fresh instance needs
  // reset_state() first.
  Ls3dfResult retry = solver.solve();
  EXPECT_EQ(retry.iterations, 2);
  solver.reset_state();
  Ls3dfResult reset = solver.solve();
  ASSERT_EQ(reset.rho.size(), ref.rho.size());
  for (std::size_t i = 0; i < ref.rho.size(); ++i)
    ASSERT_EQ(reset.rho[i], ref.rho[i]) << "point " << i;
  // And an unrelated parallel_for still drains normally.
  std::vector<int> hits(64, 0);
  parallel_for(64, 4, [&](int i, int) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Ls3df, OverlapProcWorkerDeathLatchesNotHangs) {
  // A ProcTransport worker killed mid-solve (OOM-kill stand-in) must
  // surface as a clean latched error from the overlapped solve() — the
  // GENPOT collective detects the dead child — never a hang, and the
  // shared pool must stay reusable for new solvers.
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;
  lo.n_shards = 2;
  lo.n_workers = 2;
  lo.transport = TransportKind::kProc;

  auto armed = std::make_shared<std::atomic<bool>>(true);
  Ls3dfSolver* live = nullptr;
  lo.on_batch_solve = [armed, &live](int) {
    if (!armed->exchange(false)) return;
    auto* proc = dynamic_cast<ProcTransport*>(live->shard_transport_object());
    ASSERT_NE(proc, nullptr);
    proc->kill_worker_for_test(1);
  };
  Ls3dfSolver solver(s, lo);
  live = &solver;
  EXPECT_THROW(solver.solve(), std::runtime_error);

  // Pool and a fresh transport are fully usable afterwards: a new
  // proc-backed solver reproduces the in-process reference bits.
  lo.on_batch_solve = nullptr;
  lo.transport = TransportKind::kInProc;
  Ls3dfResult ref = Ls3dfSolver(s, lo).solve();
  lo.transport = TransportKind::kProc;
  Ls3dfResult r = Ls3dfSolver(s, lo).solve();
  ASSERT_EQ(r.rho.size(), ref.rho.size());
  for (std::size_t i = 0; i < ref.rho.size(); ++i)
    ASSERT_EQ(r.rho[i], ref.rho[i]) << "point " << i;
}

TEST(Ls3df, FragmentSmearingKeepsChargeExact) {
  Structure s = h2_chain(3);
  Ls3dfOptions lo = chain_options();
  lo.fragment_smearing = 0.02;
  lo.max_iterations = 8;
  lo.l1_tol = 1e-3;
  Ls3dfSolver solver(s, lo);
  Ls3dfResult r = solver.solve();
  const double pv =
      s.lattice().volume() / static_cast<double>(r.rho.size());
  EXPECT_NEAR(r.rho.sum() * pv, s.num_electrons(), 1e-9);
}

}  // namespace
}  // namespace ls3df
