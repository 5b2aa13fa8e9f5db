// Direct (whole-system) self-consistent field driver: the O(N^3) baseline
// the paper compares LS3DF against (stand-alone PEtot / PARATEC class).
// The loop structure matches Fig. 2 with a single "fragment" spanning the
// entire cell: V_in -> solve bands -> rho -> V_out -> mix -> repeat, with
// convergence measured by  int |V_out - V_in| d3r  (Fig. 6 metric). The
// bands are solved by the all-band Davidson (solve_all_band_batched) as a
// one-member batch, the same body the LS3DF fragments run.
#pragma once

#include <cstdint>
#include <vector>

#include "atoms/structure.h"
#include "dft/eigensolver.h"
#include "dft/energy.h"
#include "dft/hamiltonian.h"
#include "dft/mixing.h"
#include "fft/dist_fft3d.h"
#include "grid/sharded_field.h"

namespace ls3df {

struct ScfOptions {
  double ecut = 2.0;          // wavefunction cutoff, Hartree
  int n_bands = 0;            // 0 = occupied + 25% (min 4) empty bands
  int max_iterations = 60;
  double l1_tol = 1e-3;       // a.u., on int |V_out - V_in| d3r
  double mix_alpha = 0.6;
  EigensolverOptions eig{/*max_iterations=*/12, /*residual_tol=*/1e-6,
                         /*precondition=*/true};
  std::uint64_t seed = 12345;
  bool compute_energy = true;
  // Gaussian occupation smearing width (Ha). 0 keeps integer occupations
  // (the paper's gapped systems); > 0 stabilizes SCF for (near-)metallic
  // or level-crossing cases by fractionally occupying degenerate shells.
  double smearing = 0.0;
};

struct ScfResult {
  FieldR v_eff;                     // converged effective potential
  FieldR rho;                       // converged density
  MatC psi;                         // final wavefunctions
  std::vector<double> eigenvalues;  // band energies (Ha)
  std::vector<double> occupations;
  EnergyBreakdown energy;
  std::vector<double> conv_history;  // int |V_out - V_in| per iteration
  int iterations = 0;
  bool converged = false;
};

// Occupations for `electrons` electrons over n_bands (spin-degenerate).
std::vector<double> fill_occupations(double electrons, int n_bands);

// Gaussian-smeared occupations: f_i = erfc((eps_i - mu)/sigma), with the
// chemical potential mu found by bisection so that sum f_i = electrons.
std::vector<double> smeared_occupations(const std::vector<double>& eigenvalues,
                                        double electrons, double sigma);

// Effective potential from a density: V_ion + V_H[rho] + V_xc[rho].
FieldR effective_potential(const FieldR& vion, const FieldR& rho,
                           const Lattice& lat);

// The sharded twin: GENPOT assembled on x-slabs — Hartree per-shard in
// G-space via the distributed FFT, LDA xc slab-locally — bit-identical
// per point to effective_potential on the dense grid for any shard
// count. `vh` and `vxc` are caller-owned scratch shaped like `rho`, so
// the steady state allocates nothing.
void sharded_effective_potential(const ShardedFieldR& vion,
                                 const ShardedFieldR& rho, const Lattice& lat,
                                 DistFft3D& fft, ShardedFieldR& vh,
                                 ShardedFieldR& vxc, ShardedFieldR& v_out);

// The xc + assembly stage of the sharded GENPOT alone: per slab,
// v_out = (vion + v_h) + vxc[rho] in the dense accumulation order.
// Shared by sharded_effective_potential and the overlapped driver's
// chained GENPOT nodes (fragment/ls3df.cpp), which run the Hartree
// stage (poisson/sharded_poisson.h) as a separate graph node.
void sharded_assemble_potential(const ShardedFieldR& vion,
                                const ShardedFieldR& rho,
                                const ShardedFieldR& vh, ShardedFieldR& vxc,
                                ShardedFieldR& v_out, ShardComm& comm);

ScfResult run_scf(const Structure& s, const ScfOptions& opt);

// As run_scf but reusing an existing Hamiltonian (and its basis) plus an
// initial potential guess; used by the LS3DF driver for fragments and by
// restart workflows.
ScfResult run_scf(Hamiltonian& h, const FieldR& vion, const FieldR& v_start,
                  const ScfOptions& opt);

}  // namespace ls3df
