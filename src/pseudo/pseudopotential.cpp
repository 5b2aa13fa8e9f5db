#include "pseudo/pseudopotential.h"

#include <cassert>
#include <cmath>

#include "common/constants.h"
#include "fft/dist_fft3d.h"
#include "fft/fft3d.h"
#include "grid/sharded_field.h"
#include "linalg/blas.h"

namespace ls3df {

using cd = std::complex<double>;

namespace {

const PseudoParams kParams[static_cast<int>(Species::kCount)] = {
    // zval  rloc   c1    rc1    d0    r0    d1    r1
    {2.0, 1.10, 0.90, 0.90, 1.20, 1.00, 0.00, 1.00},   // Zn
    {6.0, 1.25, -0.35, 1.10, 2.20, 1.05, 0.80, 1.25},  // Te
    // O: the wide attractive well (c1, rc1) is what traps conduction-like
    // states below the host CBM -- the oxygen-induced mid-gap band of the
    // paper's ZnTe1-xOx study (Sec. VII, Fig. 7).
    {6.0, 0.75, -1.00, 2.50, 2.80, 0.62, 1.10, 0.70},  // O
    {2.0, 1.20, 0.85, 1.00, 1.10, 1.10, 0.00, 1.10},   // Cd
    {6.0, 1.18, -0.30, 1.05, 2.00, 1.00, 0.70, 1.18},  // Se
    {1.0, 0.50, 0.00, 0.50, 0.00, 0.50, 0.00, 0.50},   // H
    {4.0, 1.05, -0.10, 0.95, 1.60, 1.00, 0.40, 1.05},  // Si
};

}  // namespace

const PseudoParams& pseudo_params(Species s) {
  return kParams[static_cast<int>(s)];
}

double vloc_q(const PseudoParams& p, double q2) {
  const double gauss =
      p.c1 * std::pow(units::kPi * p.rc1 * p.rc1, 1.5) *
      std::exp(-q2 * p.rc1 * p.rc1 / 4.0);
  if (q2 < 1e-12) {
    // Regular part of the Coulomb term at q = 0 (the "alpha" term).
    return units::kPi * p.zval * p.rloc * p.rloc + gauss;
  }
  return -units::kFourPi * p.zval * std::exp(-q2 * p.rloc * p.rloc / 4.0) / q2 +
         gauss;
}

FieldR build_local_potential(const Structure& s, Vec3i shape) {
  const Lattice& lat = s.lattice();
  const double inv_vol = 1.0 / lat.volume();
  const Vec3d b = lat.reciprocal();
  FieldC vg(shape);

  // Assemble V(G) = (1/Omega) sum_a v_a(|G|) exp(-i G . R_a) over the
  // dense grid.
  for (int i1 = 0; i1 < shape.x; ++i1) {
    const double gx = GVectors::freq(i1, shape.x) * b.x;
    for (int i2 = 0; i2 < shape.y; ++i2) {
      const double gy = GVectors::freq(i2, shape.y) * b.y;
      for (int i3 = 0; i3 < shape.z; ++i3) {
        const double gz = GVectors::freq(i3, shape.z) * b.z;
        const double q2 = gx * gx + gy * gy + gz * gz;
        cd acc(0, 0);
        for (const auto& atom : s.atoms()) {
          const PseudoParams& p = pseudo_params(atom.species);
          const double phase = -(gx * atom.position.x + gy * atom.position.y +
                                 gz * atom.position.z);
          acc += vloc_q(p, q2) * cd(std::cos(phase), std::sin(phase));
        }
        vg(i1, i2, i3) = acc * inv_vol;
      }
    }
  }

  const Fft3D fft(shape);
  fft.inverse(vg.raw());
  // The inverse FFT convention includes 1/N; V(G) was defined as Fourier
  // *coefficients*, so multiply back by N.
  const double n = static_cast<double>(vg.size());
  FieldR v(shape);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = vg[i].real() * n;
  return v;
}

namespace {

// One Fourier coefficient of the Gaussian valence-charge superposition —
// the shared per-G arithmetic of the dense and sharded builders (their
// bit-identity rests on this being the single implementation).
inline cd initial_density_g(const Structure& s, double gx, double gy,
                            double gz, double inv_vol) {
  const double q2 = gx * gx + gy * gy + gz * gz;
  cd acc(0, 0);
  for (const auto& atom : s.atoms()) {
    const PseudoParams& p = pseudo_params(atom.species);
    // Gaussian of width ~ rloc carrying the valence charge.
    const double w = p.rloc;
    const double amp = p.zval * std::exp(-q2 * w * w / 4.0);
    const double phase = -(gx * atom.position.x + gy * atom.position.y +
                           gz * atom.position.z);
    acc += amp * cd(std::cos(phase), std::sin(phase));
  }
  return acc * inv_vol;
}

}  // namespace

FieldR build_initial_density(const Structure& s, Vec3i shape) {
  const Lattice& lat = s.lattice();
  const Vec3d b = lat.reciprocal();
  const double inv_vol = 1.0 / lat.volume();
  FieldC rg(shape);
  for (int i1 = 0; i1 < shape.x; ++i1) {
    const double gx = GVectors::freq(i1, shape.x) * b.x;
    for (int i2 = 0; i2 < shape.y; ++i2) {
      const double gy = GVectors::freq(i2, shape.y) * b.y;
      for (int i3 = 0; i3 < shape.z; ++i3) {
        const double gz = GVectors::freq(i3, shape.z) * b.z;
        rg(i1, i2, i3) = initial_density_g(s, gx, gy, gz, inv_vol);
      }
    }
  }
  const Fft3D fft(shape);
  fft.inverse(rg.raw());
  const double n = static_cast<double>(rg.size());
  FieldR rho(shape);
  for (std::size_t i = 0; i < rho.size(); ++i)
    rho[i] = std::max(0.0, rg[i].real() * n);
  // Renormalize exactly to the electron count (Gaussian overlap and the
  // max(0,.) clamp can shift the integral slightly). Plane-blocked sum:
  // the deterministic reduction shared with the sharded builder.
  const double point_vol = lat.volume() / static_cast<double>(rho.size());
  const double total = plane_sum(rho) * point_vol;
  if (total > 0) rho *= s.num_electrons() / total;
  return rho;
}

void build_initial_density_sharded(const Structure& s, DistFft3D& fft,
                                   ShardComm& comm, ShardedFieldR& out) {
  const Vec3i shape = fft.shape();
  assert(out.global_shape() == shape && out.n_shards() == comm.n_ranks());
  const Lattice& lat = s.lattice();
  const Vec3d b = lat.reciprocal();
  const double inv_vol = 1.0 / lat.volume();
  // Fill each rank's G-space pencil block directly — the dense builder's
  // coefficients in the pencil layout; no rank touches the dense grid.
  comm.each_rank([&](int r) {
    cplx* p = fft.pencil(r);
    for (int iy = fft.y0(r); iy < fft.y1(r); ++iy) {
      const double gy = GVectors::freq(iy, shape.y) * b.y;
      for (int iz = 0; iz < shape.z; ++iz) {
        const double gz = GVectors::freq(iz, shape.z) * b.z;
        for (int ix = 0; ix < shape.x; ++ix, ++p)
          *p = initial_density_g(s, GVectors::freq(ix, shape.x) * b.x, gy,
                                 gz, inv_vol);
      }
    }
  });
  // The distributed inverse is bit-identical to the dense Fft3D inverse
  // (fft/dist_fft3d.h), so the slabs hold the dense builder's values.
  fft.inverse(out);
  const double n = static_cast<double>(static_cast<std::size_t>(shape.x) *
                                       shape.y * shape.z);
  comm.each_rank([&](int r) {
    FieldR& slab = out.slab(r);
    for (std::size_t i = 0; i < slab.size(); ++i)
      slab[i] = std::max(0.0, slab[i] * n);
  });
  const double point_vol = lat.volume() / n;
  const double total = plane_sum(out, comm) * point_vol;
  if (total > 0) {
    const double scale = s.num_electrons() / total;
    comm.each_rank([&](int r) { out.slab(r) *= scale; });
  }
}

NonlocalKB::NonlocalKB(const Structure& s, const GVectors& basis)
    : n_atoms_(s.size()) {
  // Count projectors.
  int n_proj = 0;
  for (const auto& atom : s.atoms()) {
    const PseudoParams& p = pseudo_params(atom.species);
    if (p.d0 != 0.0) n_proj += 1;
    if (p.d1 != 0.0) n_proj += 3;
  }
  const int ng = basis.count();
  projectors_.resize(ng, n_proj);
  strengths_.resize(n_proj);
  proj_atom_.resize(n_proj);
  const double inv_vol = 1.0 / basis.lattice().volume();

  int col = 0;
  for (int a = 0; a < s.size(); ++a) {
    const Atom& atom = s.atom(a);
    const PseudoParams& p = pseudo_params(atom.species);
    if (p.d0 != 0.0) {
      for (int g = 0; g < ng; ++g) {
        const Vec3d G = basis.g(g);
        const double f = std::exp(-basis.g2(g) * p.r0 * p.r0 / 4.0);
        const double phase = -G.dot(atom.position);
        projectors_(g, col) = f * cd(std::cos(phase), std::sin(phase));
      }
      strengths_[col] = p.d0 * inv_vol;
      proj_atom_[col] = a;
      ++col;
    }
    if (p.d1 != 0.0) {
      for (int m = 0; m < 3; ++m) {
        for (int g = 0; g < ng; ++g) {
          const Vec3d G = basis.g(g);
          const double f =
              G[m] * p.r1 * std::exp(-basis.g2(g) * p.r1 * p.r1 / 4.0);
          const double phase = -G.dot(atom.position);
          projectors_(g, col) = f * cd(std::cos(phase), std::sin(phase));
        }
        strengths_[col] = p.d1 * inv_vol;
        proj_atom_[col] = a;
        ++col;
      }
    }
  }
  assert(col == n_proj);
}

void NonlocalKB::apply_one_band(const cd* psi, cd* out) const {
  const int n_proj = projectors_.cols();
  if (n_proj == 0) return;
  const int ng = projectors_.rows();
  std::vector<cd> P(n_proj);
  gemv(Op::kConjTrans, cd(1, 0), projectors_, psi, cd(0, 0), P.data());
  for (int p = 0; p < n_proj; ++p) P[p] *= strengths_[p];
  gemv(Op::kNone, cd(1, 0), projectors_, P.data(), cd(1, 0), out);
  (void)ng;
}

double NonlocalKB::energy(const MatC& psi,
                          const std::vector<double>& occ) const {
  const auto per_atom = energy_per_atom(psi, occ);
  double e = 0;
  for (double v : per_atom) e += v;
  return e;
}

std::vector<double> NonlocalKB::energy_per_atom(
    const MatC& psi, const std::vector<double>& occ) const {
  std::vector<double> out(n_atoms_, 0.0);
  const int n_proj = projectors_.cols();
  if (n_proj == 0) return out;
  assert(static_cast<int>(occ.size()) == psi.cols());
  MatC P = overlap(projectors_, psi);
  for (int j = 0; j < psi.cols(); ++j)
    for (int p = 0; p < n_proj; ++p)
      out[proj_atom_[p]] += occ[j] * strengths_[p] * std::norm(P(p, j));
  return out;
}

}  // namespace ls3df
