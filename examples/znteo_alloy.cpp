// The paper's science workflow, end to end, on the scaled-down model
// alloy: build a ZnTe1-xOx supercell, converge it with LS3DF, then use
// the folded spectrum method to inspect only the band-edge states and
// decide the solar-cell question of Sec. VII: is there a finite gap
// between the oxygen-induced band and the ZnTe conduction band?
//
//   run: ./build/examples/znteo_alloy
#include <cstdio>
#include <cmath>

#include "atoms/builders.h"
#include "common/constants.h"
#include "dft/eigensolver.h"
#include "dft/fsm.h"
#include "fragment/ls3df.h"

using namespace ls3df;

int main() {
  // A quasi-1D model alloy keeps this example under a minute.
  Structure s = build_model_znteo({3, 1, 1}, 1, 7);
  std::printf("ZnTeO model alloy: %d atoms (%d O), box %.0f x %.0f x %.0f "
              "Bohr\n",
              s.size(), s.count_species(Species::kO),
              s.lattice().lengths().x, s.lattice().lengths().y,
              s.lattice().lengths().z);

  Ls3dfOptions lo;
  lo.division = {3, 1, 1};
  lo.points_per_cell = 8;
  lo.buffer_points = 4;
  lo.ecut = 0.9;
  lo.extra_bands = 4;
  lo.fragment_smearing = 0.01;
  lo.wall_height = 0.0;         // periodic buffers patch best here
  lo.atom_margin = 0.0;
  lo.eig.max_iterations = 8;
  lo.max_iterations = 40;
  lo.l1_tol = 5e-4;

  Ls3dfSolver solver(s, lo);
  std::printf("LS3DF: %d fragments on a %d x %d x %d global grid\n",
              solver.num_fragments(), solver.global_grid().x,
              solver.global_grid().y, solver.global_grid().z);
  Ls3dfResult r = solver.solve();
  std::printf("outer SCF: %s in %d iterations, residual %.2e a.u.\n",
              r.converged ? "converged" : "NOT converged", r.iterations,
              r.conv_history.back());
  std::printf("patched total energy: %.6f Ha\n", r.energy.total);

  // Band edges from FSM on the converged potential (the paper's linear-
  // scaling post-processing step).
  GVectors basis(s.lattice(), solver.global_grid(), lo.ecut);
  Hamiltonian h(s, basis);
  h.set_local_potential(r.v_eff);

  const int n_occ = static_cast<int>(s.num_electrons() / 2);
  MatC psi = random_wavefunctions(basis, n_occ + 1, 3);
  BatchWorkspace ws;
  const EigensolverResult coarse =
      solve_all_band_batched<double>({{&h, &psi}}, {25, 1e-5, true}, ws)[0];
  const double homo = coarse.eigenvalues[n_occ - 1];

  FsmOptions fopt;
  fopt.eps_ref = homo + 0.01;
  fopt.n_states = 4;
  fopt.max_iterations = 100;
  FsmResult fsm = folded_spectrum(h, fopt);

  // The O-derived state is the most localized empty state (in this
  // few-atom model it hybridizes with the host CBM, so classify by IPR).
  int o_state = -1;
  double best_ipr = 0;
  for (int j = 0; j < fopt.n_states; ++j) {
    if (fsm.eigenvalues[j] <= homo + 1e-9) continue;
    const double ipr = inverse_participation_ratio(h, fsm.psi.col(j));
    if (ipr > best_ipr) {
      best_ipr = ipr;
      o_state = j;
    }
  }
  std::printf("\nband-edge states (FSM around the gap):\n");
  std::printf("  %-10s %10s %8s %s\n", "state", "E (eV)", "IPR", "character");
  for (int j = 0; j < fopt.n_states; ++j) {
    const double e = fsm.eigenvalues[j] * units::kHartreeToEv;
    const double ipr = inverse_participation_ratio(h, fsm.psi.col(j));
    const bool occupied = fsm.eigenvalues[j] <= homo + 1e-9;
    const char* what = occupied       ? "valence"
                       : j == o_state ? "O-derived (most localized)"
                                      : "conduction";
    std::printf("  %-10d %10.3f %8.2f %s\n", j, e, ipr, what);
  }
  std::printf("\n(the paper's verdict: a finite O-band -> CBM gap means the "
              "alloy can serve as an intermediate-band solar cell)\n");
  return r.converged ? 0 : 1;
}
