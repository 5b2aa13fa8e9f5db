// Slab-decomposed distributed 3D FFT over a ShardComm — the transform
// behind the sharded GENPOT pipeline.
//
// == Architecture ==
//
// Real-space data lives as x-slabs (rank r owns global x planes
// [x0(r), x1(r)), grid/sharded_field.h layout). One forward transform:
//
//   1. local 2D:   each rank transforms its slab along z then y — both
//                  axes are complete inside an x-slab. Lines run in
//                  place, in tiles through the transform's own 1D plans'
//                  transform_lines (fft/fft.h), with the per-line bits
//                  of the dense Fft3D's z/y passes.
//   2. transpose:  one ShardComm::all_to_all pencil transpose: block
//                  (src -> dst) carries src's x planes of dst's y range.
//                  After it, rank r owns y-pencils: global y in
//                  [y0(r), y1(r)), full x and z, laid out x-fastest
//                  (pencil index ((iy - y0) * nz + iz) * nx + ix).
//   3. local 1D:   each rank transforms its pencils along x (contiguous
//                  rows).
//
// The inverse runs the mirror image (x on pencils, transpose back, then
// y and z on slabs), which matches the dense Fft3D inverse axis order
// (x, y, z) exactly. Because per-line arithmetic is the dense code's and
// the axis order agrees in both directions, the distributed transform is
// *bit-identical* to the dense one for any shard count and worker count.
// G-space pointwise kernels (the Poisson solve, the initial density)
// therefore apply to the pencils with dense-path bits.
//
// The three 1D plans (x, y and z) are built at construction and shared
// by every rank: plans are immutable (fft/fft.h, "Thread safety"), so
// the ranks' concurrent each_rank bodies transform through them at once.
// All rank buffers (the complex slab and the pencil block) are sized
// once at construction and never reallocated; the all_to_all mailboxes
// grow only on the first exchange (probed via ShardComm::allocations()).
// Per rank the footprint is ~2x global/N complex values plus the rank's
// ~global/N of mailboxes — no step touches the full grid. Storage follows the ShardComm's mode: under an SPMD
// transport (comm.local_rank() >= 0) only the local rank's buffers are
// allocated, so the whole-transform resident footprint really is
// ~global/N per process; the in-process backends keep all N ranks'
// buffers in the one orchestrating process.
//
// The transpose's data movement is whatever Transport backs the
// ShardComm (transport/transport.h): zero-copy mailboxes in process,
// shared-memory copies by the per-rank worker processes under the proc
// transport, MPI_Alltoallv under MPI — the pack/unpack bodies here are
// identical in all three, and the transform stays bit-identical to the
// dense Fft3D for the in-process backends.
#pragma once

#include <stdexcept>

#include "fft/fft.h"
#include "grid/gvectors.h"
#include "grid/lattice.h"
#include "grid/sharded_field.h"
#include "parallel/shard_comm.h"

namespace ls3df {

class DistFft3D {
 public:
  DistFft3D(Vec3i shape, ShardComm& comm);

  const Vec3i& shape() const { return shape_; }
  ShardComm& comm() const { return comm_; }
  int n_shards() const { return comm_.n_ranks(); }

  // Real-space x-slab extents (== ShardedField3D's partition).
  int x0(int r) const { return ShardedFieldR::shard_begin(shape_.x, n_shards(), r); }
  int x1(int r) const { return ShardedFieldR::shard_begin(shape_.x, n_shards(), r + 1); }
  // G-space y-pencil extents.
  int y0(int r) const { return ShardedFieldR::shard_begin(shape_.y, n_shards(), r); }
  int y1(int r) const { return ShardedFieldR::shard_begin(shape_.y, n_shards(), r + 1); }

  // Forward: real x-slabs -> G-space pencils (held internally; no
  // scaling, like Fft3D::forward). Phased — call from the orchestrator
  // thread, never from inside each_rank.
  void forward(const ShardedFieldR& in);
  // Inverse: pencils -> real parts into `out` x-slabs (scales by 1/N^3
  // via the per-axis inverse transforms, like Fft3D::inverse).
  void inverse(ShardedFieldR& out);

  // Rank r's pencil block: ((iy - y0(r)) * nz + iz) * nx + ix. Mutate
  // between forward and inverse for G-space kernels (from each_rank, or
  // from the orchestrator). Rank-local mode holds only the local rank's
  // block (see the storage note below).
  cplx* pencil(int r) {
    if (local_ >= 0 && r != local_)
      throw std::logic_error(
          "DistFft3D::pencil: rank-local FFT does not hold this rank's "
          "pencils");
    return pencil_[r].data();
  }
  std::size_t pencil_size(int r) const { return pencil_[r].size(); }
  // Per-rank slab extent (complex elements) for footprint probes.
  std::size_t slab_size(int r) const { return slab_[r].size(); }

  // Wall seconds spent in the transpose (pack + unpack) phases since the
  // last call — the feed of the phase.genpot_transpose_s histogram.
  double take_transpose_seconds() {
    const double t = transpose_s_;
    transpose_s_ = 0;
    return t;
  }

 private:
  void transpose_to_pencils();
  void transpose_to_slabs();
  void slab_lines(int r, bool inv);
  void pencil_lines(int r, bool inv);

  Vec3i shape_;
  ShardComm& comm_;
  Fft1D fx_, fy_, fz_;
  // comm.local_rank() at construction: -1 allocates every rank's
  // buffers (dense-per-process); >= 0 allocates only that rank's (SPMD
  // rank-local mode — non-resident slots are empty vectors, so the
  // *_size probes report true resident extents).
  int local_ = -1;
  std::vector<std::vector<cplx>> slab_;     // per-rank complex x-slab
  std::vector<std::vector<cplx>> pencil_;   // per-rank y-pencil block
  double transpose_s_ = 0;
};

// Apply fn(value, g2) to every G-space pencil point between a forward
// and an inverse transform, with g2 = |G|^2 of that point — the
// pencil layout walk of the sharded Poisson kernel. The per-point g2
// arithmetic matches the dense kernel loops term for term.
template <typename Fn>
void for_each_pencil_g2(DistFft3D& fft, const Lattice& lat, const Fn& fn) {
  const Vec3i s = fft.shape();
  const Vec3d b = lat.reciprocal();
  fft.comm().each_rank([&](int r) {
    cplx* p = fft.pencil(r);
    for (int iy = fft.y0(r); iy < fft.y1(r); ++iy) {
      const double gy = GVectors::freq(iy, s.y) * b.y;
      for (int iz = 0; iz < s.z; ++iz) {
        const double gz = GVectors::freq(iz, s.z) * b.z;
        for (int ix = 0; ix < s.x; ++ix, ++p) {
          const double gx = GVectors::freq(ix, s.x) * b.x;
          fn(*p, gx * gx + gy * gy + gz * gz);
        }
      }
    }
  });
}

}  // namespace ls3df
