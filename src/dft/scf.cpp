#include "dft/scf.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "poisson/poisson.h"
#include "poisson/sharded_poisson.h"
#include "pseudo/pseudopotential.h"
#include "xc/lda.h"

namespace ls3df {

std::vector<double> fill_occupations(double electrons, int n_bands) {
  std::vector<double> occ(n_bands, 0.0);
  double remaining = electrons;
  for (int j = 0; j < n_bands && remaining > 0; ++j) {
    occ[j] = std::min(2.0, remaining);
    remaining -= occ[j];
  }
  return occ;
}

std::vector<double> smeared_occupations(const std::vector<double>& eigenvalues,
                                        double electrons, double sigma) {
  const int nb = static_cast<int>(eigenvalues.size());
  assert(sigma > 0 && nb > 0);
  auto count = [&](double mu) {
    double n = 0;
    for (double e : eigenvalues) n += std::erfc((e - mu) / sigma);
    return n;  // erfc in [0,2]: spin degeneracy included
  };
  double lo = eigenvalues.front() - 20 * sigma;
  double hi = eigenvalues.back() + 20 * sigma;
  for (int it = 0; it < 200 && hi - lo > 1e-14 * (1 + std::abs(hi)); ++it) {
    const double mid = 0.5 * (lo + hi);
    (count(mid) < electrons ? lo : hi) = mid;
  }
  const double mu = 0.5 * (lo + hi);
  std::vector<double> occ(nb);
  for (int j = 0; j < nb; ++j) occ[j] = std::erfc((eigenvalues[j] - mu) / sigma);
  // Exact normalization (bisection leaves a tiny mismatch).
  double total = 0;
  for (double f : occ) total += f;
  if (total > 0)
    for (double& f : occ) f *= electrons / total;
  return occ;
}

FieldR effective_potential(const FieldR& vion, const FieldR& rho,
                           const Lattice& lat) {
  const double point_vol = lat.volume() / static_cast<double>(rho.size());
  FieldR v = vion;
  HartreeResult hart = solve_poisson(rho, lat);
  v += hart.potential;
  XcResult xc = lda_xc_field(rho, point_vol);
  v += xc.vxc;
  return v;
}

void sharded_assemble_potential(const ShardedFieldR& vion,
                                const ShardedFieldR& rho,
                                const ShardedFieldR& vh, ShardedFieldR& vxc,
                                ShardedFieldR& v_out, ShardComm& comm) {
  // Slab-local assembly in the dense accumulation order:
  // (vion + vh) + vxc per point.
  comm.each_rank([&](int r) {
    lda_vxc_into(rho.slab(r), vxc.slab(r));
    FieldR& v = v_out.slab(r);
    v = vion.slab(r);
    v += vh.slab(r);
    v += vxc.slab(r);
  });
}

void sharded_effective_potential(const ShardedFieldR& vion,
                                 const ShardedFieldR& rho, const Lattice& lat,
                                 DistFft3D& fft, ShardedFieldR& vh,
                                 ShardedFieldR& vxc, ShardedFieldR& v_out) {
  sharded_hartree(fft, rho, lat, vh);
  sharded_assemble_potential(vion, rho, vh, vxc, v_out, fft.comm());
}

ScfResult run_scf(const Structure& s, const ScfOptions& opt) {
  const Vec3i grid = default_fft_grid(s.lattice(), opt.ecut);
  GVectors basis(s.lattice(), grid, opt.ecut);
  Hamiltonian h(s, basis);

  const FieldR vion = h.local_potential();  // bare ionic at construction
  FieldR rho0 = build_initial_density(s, grid);
  FieldR v0 = effective_potential(vion, rho0, s.lattice());
  return run_scf(h, vion, v0, opt);
}

ScfResult run_scf(Hamiltonian& h, const FieldR& vion, const FieldR& v_start,
                  const ScfOptions& opt) {
  const Structure& s = h.structure();
  const Lattice& lat = h.basis().lattice();
  const double point_vol = lat.volume() / static_cast<double>(vion.size());

  const double electrons = s.num_electrons();
  int n_occ = static_cast<int>(std::ceil(electrons / 2.0));
  int n_bands = opt.n_bands;
  if (n_bands <= 0) n_bands = n_occ + std::max(4, n_occ / 4);
  n_bands = std::min(n_bands, h.basis().count());

  ScfResult result;
  result.occupations = fill_occupations(electrons, n_bands);

  MatC psi = random_wavefunctions(h.basis(), n_bands, opt.seed);
  const std::vector<FragmentSolve> solve{{&h, &psi}};
  BatchWorkspace ws;
  PotentialMixer mixer(opt.mix_alpha);

  FieldR v_in = v_start;
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    result.iterations = iter + 1;
    h.set_local_potential(v_in);

    const EigensolverResult eig =
        solve_all_band_batched<double>(solve, opt.eig, ws)[0];
    result.eigenvalues = eig.eigenvalues;
    if (opt.smearing > 0.0)
      result.occupations =
          smeared_occupations(eig.eigenvalues, electrons, opt.smearing);

    FieldR rho = h.density(psi, result.occupations);
    FieldR v_out = effective_potential(vion, rho, lat);

    const double l1 = l1_distance(v_out, v_in, point_vol);
    result.conv_history.push_back(l1);
    result.rho = std::move(rho);

    if (l1 < opt.l1_tol) {
      result.converged = true;
      result.v_eff = v_in;
      break;
    }
    v_in = mixer.mix(v_in, v_out);
  }
  if (!result.converged) result.v_eff = v_in;

  result.psi = std::move(psi);
  if (opt.compute_energy)
    result.energy =
        total_energy(h, result.psi, result.occupations, result.rho, vion);
  return result;
}

}  // namespace ls3df
