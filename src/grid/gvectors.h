// Plane-wave basis: the set of reciprocal-lattice vectors G with kinetic
// energy |G|^2/2 below the cutoff, plus the gather/scatter maps between the
// compact coefficient vector (length n_G) and the full FFT grid. This is
// the q-space representation the paper's PEtot_F solver works in.
#pragma once

#include <complex>
#include <vector>

#include "common/vec3.h"
#include "fft/fft3d.h"
#include "grid/field3d.h"
#include "grid/lattice.h"

namespace ls3df {

class GVectors {
 public:
  // ecut is in Hartree (callers typically convert from Rydberg). The
  // wavefunction basis keeps |G|^2/2 <= ecut; the density/potential grid
  // must be large enough to hold products (the usual factor-2 rule is the
  // caller's responsibility via the grid shape).
  GVectors(const Lattice& lattice, Vec3i grid_shape, double ecut_hartree);

  int count() const { return static_cast<int>(fft_index_.size()); }
  const Lattice& lattice() const { return lattice_; }
  Vec3i grid_shape() const { return grid_shape_; }
  double ecut() const { return ecut_; }

  // Cartesian G vector and |G|^2 of basis element g.
  const Vec3d& g(int i) const { return g_[i]; }
  double g2(int i) const { return g2_[i]; }
  const double* g2_data() const { return g2_.data(); }  // count() values
  // Linear index into the FFT grid for basis element g.
  std::size_t fft_index(int i) const { return fft_index_[i]; }
  // Integer Miller triplet (signed frequencies) of basis element g.
  const Vec3i& miller(int i) const { return miller_[i]; }

  // Index of the G = 0 element (always present).
  int g0_index() const { return g0_; }

  // The 1D lines a wavefunction FFT on this basis must run: yz lists the
  // grid columns (iy,iz), as iy*n3 + iz, that hold at least one basis
  // element (the x-lines), z the planes iz that do (the y-lines of every
  // ix). Both ascending, built in the constructor's sphere scan. Pass it
  // to the pruned Fft3D::inverse/forward (fft/fft3d.h), which are bit-
  // identical to the full transforms on scattered input and on the
  // gathered output.
  const FftLines& fft_lines() const { return lines_; }

  // Scatter compact coefficients onto a zeroed FFT grid.
  void scatter(const std::complex<double>* coeff, FieldC& grid) const;
  // Gather FFT-grid values into compact coefficients.
  void gather(const FieldC& grid, std::complex<double>* coeff) const;

  // Raw-pointer variants over a caller-owned grid of grid_shape() extent
  // (used by the batched Hamiltonian path, whose grids live in a
  // contiguous many-transform stack rather than in Field3D objects), in
  // either precision (Real = double or float).
  template <typename Real>
  void scatter(const std::complex<Real>* coeff,
               std::complex<Real>* grid) const;
  template <typename Real>
  void gather(const std::complex<Real>* grid,
              std::complex<Real>* coeff) const;

  // Signed FFT frequency for index i on an axis of n points.
  static int freq(int i, int n) { return i <= n / 2 ? i : i - n; }

 private:
  Lattice lattice_;
  Vec3i grid_shape_;
  double ecut_;
  int g0_ = -1;
  std::vector<Vec3d> g_;
  std::vector<double> g2_;
  std::vector<std::size_t> fft_index_;
  std::vector<Vec3i> miller_;
  FftLines lines_;
};

}  // namespace ls3df
