// Three-dimensional complex FFT over a periodic box, built from the 1D
// planner. This is the transform that moves wavefunctions and densities
// between real space and reciprocal (q) space, and the kernel behind
// GENPOT's global Poisson solve.
//
// Data layout: row-major with z fastest, i.e. index(ix,iy,iz) =
// (ix*n2 + iy)*n3 + iz, matching Grid3D.
//
// Axis order: forward transforms apply z, then y, then x; the inverse
// applies x, then y, then z. Per-axis line transforms commute exactly in
// real arithmetic but not in floating point, so the order is part of the
// bit-level contract: the slab-distributed DistFft3D (fft/dist_fft3d.h)
// reproduces this dense transform bit for bit by running z and y locally
// per x-slab and crossing the single pencil transpose for the x axis, in
// both directions.
//
// Pruned transforms: a wavefunction's coefficients fill only the
// |G|^2/2 <= ecut sphere of its grid, so most 1D lines of a wavefunction
// transform are all zero going in or thrown away coming out. The pruned
// inverse/forward take an FftLines table (built by GVectors) and keep the
// same axis order while skipping those lines:
//   inverse  x-lines only for the occupied (iy,iz) columns, y-lines only
//            for the occupied iz planes, then every z-line;
//   forward  every z-line, y-lines only for the occupied iz planes, then
//            x-lines only for the occupied (iy,iz) columns.
// The result is bit-identical to the full transform where it is defined:
// every skipped inverse line has all-zero input, so its transform is
// exact zeros, and every skipped forward line feeds only outputs off the
// sphere; the surviving lines run the same plans on the same data. The
// caller's contract: the inverse input must be zero outside the sphere
// (a GVectors::scatter guarantees it), and forward outputs are valid only
// on the sphere points (read them with GVectors::gather). Dense fields —
// densities, potentials, GENPOT's Poisson solve — use the full transform.
//
// Like the 1D planner, the 3D transform is templated over the real type:
// BasicFft3D<double> (alias Fft3D) is the bit-exact engine path,
// BasicFft3D<float> (alias Fft3DF) the single-precision plan behind the
// float instantiation of the lockstep Davidson (the mixed-precision
// path). Both share the axis-order contract.
//
// Every line is transformed in place, in tiles of BasicFft1D::kTile
// lines through its 1D plan's transform_lines (fft/fft.h): z-rows, then
// y-lines numbered (ix, iz) across the x-slabs, then x-columns (for a
// pruned transform, the FftLines lists), so a tile stays full across
// slab boundaries. A line's bits do not depend on its tile, so the
// tiling is invisible. A 3D plan holds no buffer of its own, and the
// constructor throws std::invalid_argument unless every extent is a
// smooth length.
//
// Thread safety: a 3D plan is as immutable as its 1D plans (fft/fft.h,
// "Thread safety"), so any number of threads may transform distinct
// grids through one instance at once. Code that transforms owns its
// plans.
#pragma once

#include <vector>

#include "common/vec3.h"
#include "fft/fft.h"

namespace ls3df {

// The 1D lines a pruned transform runs (see "Pruned transforms" above).
// Both lists are ascending.
struct FftLines {
  std::vector<int> yz;  // occupied columns iy*n3 + iz: the x-lines
  std::vector<int> z;   // occupied planes iz: the y-lines of every ix
};

template <typename Real>
class BasicFft3D {
 public:
  using Cplx = std::complex<Real>;

  explicit BasicFft3D(Vec3i shape);

  const Vec3i& shape() const { return shape_; }
  std::size_t size() const {
    return static_cast<std::size_t>(shape_.x) * shape_.y * shape_.z;
  }

  // In-place transforms. Forward: no scaling; inverse: scales by 1/(n1*n2*n3).
  void forward(Cplx* data) const { transform(data, false); }
  void inverse(Cplx* data) const { transform(data, true); }
  void forward(std::vector<Cplx>& v) const { forward(v.data()); }
  void inverse(std::vector<Cplx>& v) const { inverse(v.data()); }

  // Pruned transforms over the lines of `lines` (same scaling as above).
  void forward(Cplx* data, const FftLines& lines) const {
    transform(data, false, &lines);
  }
  void inverse(Cplx* data, const FftLines& lines) const {
    transform(data, true, &lines);
  }

  // Many-transform sweep over a contiguous stack of `count` grids of this
  // shape (stack[g * size() .. (g+1) * size())). Transforms are
  // independent, so the sweep fans out over min(n_workers, count) lanes
  // of the shared pool, every lane through this plan; each grid's
  // arithmetic is exactly what a serial forward()/inverse() call would
  // produce, so results are bit-identical for any n_workers.
  void forward_many(Cplx* stack, int count, int n_workers = 1) const;
  void inverse_many(Cplx* stack, int count, int n_workers = 1) const;

  // Pruned many-transform sweeps: grid g is transformed with the table
  // *lines[g]. This is the transform shape the batched fragment solver
  // feeds: one sweep serves every band of every fragment in a batch, each
  // pruned with its own member's sphere. Bit-identical to `count` serial
  // pruned transforms for any n_workers.
  void forward_many(Cplx* stack, int count, const FftLines* const* lines,
                    int n_workers = 1) const;
  void inverse_many(Cplx* stack, int count, const FftLines* const* lines,
                    int n_workers = 1) const;

 private:
  // A null `lines` is the full transform.
  void transform(Cplx* data, bool inv, const FftLines* lines = nullptr) const;
  void transform_many(Cplx* stack, int count, const FftLines* const* lines,
                      bool inv, int n_workers) const;
  void transform_x(Cplx* data, bool inv, const std::vector<int>* yz) const;
  void transform_y(Cplx* data, bool inv, const std::vector<int>* z) const;
  void transform_z(Cplx* data, bool inv) const;

  Vec3i shape_;
  BasicFft1D<Real> fx_, fy_, fz_;
};

using Fft3D = BasicFft3D<double>;
using Fft3DF = BasicFft3D<float>;

}  // namespace ls3df
