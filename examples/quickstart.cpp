// Quickstart: build a small periodic system, run a direct Kohn-Sham SCF
// calculation, and print energies -- the minimal tour of the public API.
//
//   build:  cmake --build build --target quickstart
//   run:    ./build/examples/quickstart
#include <cstdio>

#include "atoms/structure.h"
#include "common/constants.h"
#include "dft/scf.h"

using namespace ls3df;

int main() {
  // An H2 molecule in a periodic box (lengths in Bohr).
  Structure s(Lattice::cubic(8.0));
  s.add_atom(Species::kH, {3.3, 4.0, 4.0});
  s.add_atom(Species::kH, {4.7, 4.0, 4.0});

  ScfOptions opt;
  opt.ecut = 1.5;            // plane-wave cutoff (Hartree)
  opt.max_iterations = 80;
  opt.l1_tol = 1e-4;         // on int |V_out - V_in| d3r

  std::printf("H2 in a %.1f Bohr box, %g electrons, ecut %.1f Ha\n",
              s.lattice().lengths().x, s.num_electrons(), opt.ecut);

  ScfResult r = run_scf(s, opt);

  std::printf("converged: %s after %d iterations (residual %.2e)\n",
              r.converged ? "yes" : "no", r.iterations,
              r.conv_history.back());
  std::printf("\nband energies (eV):\n");
  for (std::size_t j = 0; j < r.eigenvalues.size(); ++j)
    std::printf("  band %zu: %8.3f  (occ %.1f)\n", j,
                r.eigenvalues[j] * units::kHartreeToEv, r.occupations[j]);

  std::printf("\ntotal energy breakdown (Ha):\n");
  std::printf("  kinetic   %12.6f\n", r.energy.kinetic);
  std::printf("  nonlocal  %12.6f\n", r.energy.nonlocal);
  std::printf("  local     %12.6f\n", r.energy.local);
  std::printf("  hartree   %12.6f\n", r.energy.hartree);
  std::printf("  xc        %12.6f\n", r.energy.xc);
  std::printf("  ewald     %12.6f\n", r.energy.ewald);
  std::printf("  total     %12.6f\n", r.energy.total);
  return r.converged ? 0 : 1;
}
