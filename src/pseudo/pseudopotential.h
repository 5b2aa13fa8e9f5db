// Model norm-conserving pseudopotentials in the same q-space formulation
// the paper uses (Sec. V: "a q-space nonlocal Kleinman-Bylander projector
// for the nonlocal potential calculation").
//
// The paper's empirical radial tables are not publicly available, so the
// radial data are analytic (see DESIGN.md substitution #2):
//   local part     v_loc(r) = -Z erf(r / rloc) / r + c1 exp(-r^2 / rc1^2)
//   in q-space     v_loc(q) = -4 pi Z exp(-q^2 rloc^2 / 4) / q^2
//                             + c1 (pi rc1^2)^{3/2} exp(-q^2 rc1^2 / 4)
//   KB projectors  f_s(q) = exp(-q^2 r0^2 / 4)                (l = 0)
//                  f_p,m(q) = q_m r1 exp(-q^2 r1^2 / 4)       (l = 1)
// with channel strengths D_l (Hartree). The q -> 0 limit of the local part
// keeps only the regular piece (pi Z rloc^2 + Gaussian term); the Coulomb
// divergence cancels against the Hartree G = 0 term for neutral cells,
// with the ion-ion part handled by the Ewald module.
#pragma once

#include <complex>
#include <vector>

#include "atoms/structure.h"
#include "grid/field3d.h"
#include "grid/gvectors.h"
#include "linalg/matrix.h"

namespace ls3df {

struct PseudoParams {
  double zval;   // valence charge
  double rloc;   // local screening radius (Bohr)
  double c1;     // local Gaussian amplitude (Hartree)
  double rc1;    // local Gaussian radius (Bohr)
  double d0;     // s-channel KB strength (Hartree); 0 disables
  double r0;     // s projector radius (Bohr)
  double d1;     // p-channel KB strength (Hartree); 0 disables
  double r1;     // p projector radius (Bohr)
};

// Model parameters per species (tuned so that ZnTe-class cells are
// semiconducting and O substitution pulls states below the host CBM).
// The table is read-only, so every solve in the process sees the same
// physics.
const PseudoParams& pseudo_params(Species s);

// v_loc(q) for one atom of species s, without the structure factor or the
// 1/volume normalization; q2 = |q|^2. At q = 0 returns the regular part.
double vloc_q(const PseudoParams& p, double q2);

// Total local pseudopotential on the real-space grid of `shape` for the
// given structure (assembled in reciprocal space over the dense grid, then
// inverse-FFT'd).
FieldR build_local_potential(const Structure& s, Vec3i shape);

// Gaussian valence-charge superposition: a smooth, correctly normalized
// initial guess for the electron density (integrates to num_electrons();
// the normalization uses the plane-blocked sum of grid/sharded_field.h so
// the sharded builder below reproduces the same bits).
FieldR build_initial_density(const Structure& s, Vec3i shape);

class DistFft3D;
class ShardComm;
template <typename T>
class ShardedField3D;

// The sharded twin, built slab-locally: each rank fills its G-space
// pencil block with the same per-G coefficients, the distributed inverse
// transform lands the guess on `out`'s x-slabs, and the normalization is
// the plane-blocked sum — bit-identical per point to build_initial_density
// for any shard count, with no step materializing the dense grid.
void build_initial_density_sharded(const Structure& s, DistFft3D& fft,
                                   ShardComm& comm,
                                   ShardedField3D<double>& out);

// Separable Kleinman-Bylander nonlocal operator in a plane-wave basis:
//   V_NL = sum_p |beta_p> D_p <beta_p|,
// with beta_p(G) = f_l(G) exp(-i G . R_a) and D_p folded with 1/volume so
// the operator is size-consistent. Applied with BLAS-2 one band at a time
// here; the BLAS-3 all-band form is the pair of batched GEMMs in
// Hamiltonian::apply_batched, which reads projectors() and strengths().
// The two support the Sec. IV optimization comparison.
class NonlocalKB {
 public:
  NonlocalKB(const Structure& s, const GVectors& basis);

  int num_projectors() const { return projectors_.cols(); }
  const MatC& projectors() const { return projectors_; }
  const std::vector<double>& strengths() const { return strengths_; }

  // out += V_NL * psi for a single band (BLAS-2 path).
  void apply_one_band(const std::complex<double>* psi,
                      std::complex<double>* out) const;

  // Nonlocal energy sum_p D_p |<beta_p|psi_i>|^2 summed over columns with
  // the given occupations.
  double energy(const MatC& psi, const std::vector<double>& occ) const;

  // Per-atom nonlocal energy decomposition (needed by the LS3DF patched
  // energy, which assigns atomic contributions to fragments).
  std::vector<double> energy_per_atom(const MatC& psi,
                                      const std::vector<double>& occ) const;

 private:
  MatC projectors_;              // n_G x n_proj
  std::vector<double> strengths_;  // D_p / volume
  std::vector<int> proj_atom_;   // owning atom per projector
  int n_atoms_ = 0;
};

}  // namespace ls3df
