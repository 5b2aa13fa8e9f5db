// Distributed scalar field: the global periodic grid sharded into x-slabs.
//
// == Architecture ==
//
// Rank r of a ShardComm owns global x planes [x0(r), x1(r)) with
//   x0(r) = floor(nx * r / N)
// — exactly the slab partition Gen_dens has always used, so fragment
// densities accumulate straight into owning shards. Each slab is an
// ordinary Field3D of shape (x1-x0, ny, nz) with the same z-fastest
// layout as the dense grid: global point (gx, iy, iz) lives in slab
// owner_of(gx) at local (gx - x0, iy, iz).
//
// == Storage modes (who owns which slabs) ==
//
// Dense-per-process (local_rank() == -1, the in-process transports):
// one object holds all N slabs; rank bodies fan out over the shared
// pool and touch only rank-owned slabs. to_dense()/from_dense() convert
// the whole field at setup and result-gather time.
//
// Rank-local (local_rank() >= 0, SPMD transports — threads, MPI): the
// object allocates ONLY the local rank's slab; every other slot is an
// empty Field3D, so resident bytes are ~global/N. slab(r) for a
// non-resident r, to_dense(), and extract_into() throw std::logic_error
// — cross-rank reads must go through explicit collectives:
// gather_dense() below (an allgatherv route, one slab of staging at a
// time) rebuilds the dense field on every rank at public-API/snapshot
// boundaries, and the solver's halo/window exchanges
// (fragment/ls3df.cpp) move slab data inside the iteration. from_dense
// stays legal and copies only the local slab (each rank restricts the
// same dense source). Layout queries (x0/x1/owner_of/slab_elements)
// never touch payload and work in both modes.
//
// Dataflow through one sharded GENPOT step (fragment/ls3df.cpp):
//   Gen_dens   each rank scans the fragment list and accumulates every
//              window restricted to its slab (accumulate_window_shard) —
//              owner-computes; under MPI this is the reduce_scatter seam
//              of parallel/shard_comm.h.
//   FFT        DistFft3D (fft/dist_fft3d.h) transforms x-slabs to
//              y-pencils through one all_to_all transpose.
//   Gen_VF     extract_into gathers a fragment box from the slabs that
//              overlap it — the halo/gather seam; reads only, so fragment
//              tasks run concurrently against the same sharded field.
//
// Reductions: global sums over the dense grid are flat running sums,
// which no slab decomposition can reproduce bitwise. The canonical
// deterministic reduction is therefore *plane-blocked*: one partial per
// global x plane (each plane lives wholly inside one shard), partials
// combined in plane order. plane_sum/plane_dot/plane_l1 below compute it
// for dense fields, and the sharded overloads reproduce the identical
// bits via a ShardComm all_gather of the per-plane partials — for any
// shard count, a single shard included.
#pragma once

#include <cassert>
#include <stdexcept>

#include "grid/field3d.h"
#include "parallel/shard_comm.h"

namespace ls3df {

template <typename T>
class ShardedField3D {
 public:
  ShardedField3D() = default;
  // local_rank == -1: dense-per-process, all N slabs resident.
  // local_rank >= 0: rank-local, only that slab is allocated (SPMD;
  // pass ShardComm::local_rank()).
  ShardedField3D(Vec3i global_shape, int n_shards, int local_rank = -1)
      : global_(global_shape), n_shards_(n_shards), local_(local_rank) {
    assert(n_shards >= 1 && n_shards <= global_shape.x);
    assert(local_rank < n_shards);
    slabs_.reserve(n_shards);
    for (int r = 0; r < n_shards; ++r) {
      if (local_ >= 0 && r != local_)
        slabs_.emplace_back();  // non-resident: empty placeholder
      else
        slabs_.emplace_back(Vec3i{x1(r) - x0(r), global_.y, global_.z});
    }
  }

  const Vec3i& global_shape() const { return global_; }
  int n_shards() const { return n_shards_; }
  // -1 in dense-per-process mode; the one resident rank otherwise.
  int local_rank() const { return local_; }
  bool has_slab(int r) const { return local_ < 0 || r == local_; }

  // Slab extents: rank r owns global x planes [x0(r), x1(r)).
  int x0(int r) const { return shard_begin(global_.x, n_shards_, r); }
  int x1(int r) const { return shard_begin(global_.x, n_shards_, r + 1); }
  static int shard_begin(int n, int n_shards, int r) {
    return static_cast<int>(static_cast<long>(n) * r / n_shards);
  }
  int owner_of(int gx) const {
    // Inverse of shard_begin's linear split; verify against the rounding.
    int r = static_cast<int>((static_cast<long>(gx) * n_shards_) / global_.x);
    while (r > 0 && gx < x0(r)) --r;
    while (r + 1 < n_shards_ && gx >= x1(r)) ++r;
    return r;
  }

  Field3D<T>& slab(int r) {
    check_resident(r);
    return slabs_[r];
  }
  const Field3D<T>& slab(int r) const {
    check_resident(r);
    return slabs_[r];
  }
  // Layout-only slab size (valid for every rank in both modes).
  std::size_t slab_elements(int r) const {
    return static_cast<std::size_t>(x1(r) - x0(r)) * global_.y * global_.z;
  }

  // --- dense <-> sharded (setup / result gather only) -----------------
  // Rank-local mode copies only the resident slab (each rank restricts
  // the same dense source).
  void from_dense(const Field3D<T>& dense) {
    assert(dense.shape() == global_);
    const std::size_t plane =
        static_cast<std::size_t>(global_.y) * global_.z;
    for (int r = 0; r < n_shards_; ++r) {
      if (!has_slab(r)) continue;
      const T* src = dense.data() + static_cast<std::size_t>(x0(r)) * plane;
      std::copy(src, src + slabs_[r].size(), slabs_[r].data());
    }
  }
  // Dense-per-process mode only: rank-local callers hold one slab and
  // must gather through the transport (gather_dense below).
  Field3D<T> to_dense() const {
    if (local_ >= 0)
      throw std::logic_error(
          "ShardedField3D::to_dense: rank-local field holds one slab; "
          "use gather_dense(field, comm)");
    Field3D<T> dense(global_);
    const std::size_t plane =
        static_cast<std::size_t>(global_.y) * global_.z;
    for (int r = 0; r < n_shards_; ++r)
      std::copy(slabs_[r].data(), slabs_[r].data() + slabs_[r].size(),
                dense.data() + static_cast<std::size_t>(x0(r)) * plane);
    return dense;
  }

  // --- Gen_VF primitive: periodic sub-box gather across shards --------
  // Identical values to Field3D::extract_into on the dense field; reads
  // only, so concurrent fragment extractions are safe. Dense-per-process
  // mode only: rank-local readers cannot see remote slabs, so the SPMD
  // Gen_VF path assembles fragment boxes from its own slab plus the
  // halo-exchanged planes instead (fragment/ls3df.cpp).
  void extract_into(Vec3i offset, Field3D<T>& out) const {
    if (local_ >= 0)
      throw std::logic_error(
          "ShardedField3D::extract_into: rank-local field cannot read "
          "remote slabs; use the solver's halo exchange");
    const Vec3i sub = out.shape();
    for (int ix = 0; ix < sub.x; ++ix) {
      const int gx = pmod(offset.x + ix, global_.x);
      const Field3D<T>& s = slabs_[owner_of(gx)];
      const int lx = gx - x0(owner_of(gx));
      for (int iy = 0; iy < sub.y; ++iy) {
        const int gy = pmod(offset.y + iy, global_.y);
        for (int iz = 0; iz < sub.z; ++iz) {
          const int gz = pmod(offset.z + iz, global_.z);
          out(ix, iy, iz) = s(lx, gy, gz);
        }
      }
    }
  }

  // --- Gen_dens primitive: signed window accumulation into one shard --
  // Field3D::accumulate_window restricted to this shard's x planes: same
  // loop order, same per-point arithmetic, so the patched slab is
  // bit-identical to the dense accumulation's plane range for any shard
  // count. Call from rank r only.
  void accumulate_window_shard(int r, Vec3i offset, const Field3D<T>& sub,
                               Vec3i sub_offset, Vec3i region, T weight) {
    assert(sub_offset.x >= 0 && sub_offset.x + region.x <= sub.shape().x);
    assert(sub_offset.y >= 0 && sub_offset.y + region.y <= sub.shape().y);
    assert(sub_offset.z >= 0 && sub_offset.z + region.z <= sub.shape().z);
    Field3D<T>& s = slab(r);
    const int xb = x0(r), xe = x1(r);
    for (int ix = 0; ix < region.x; ++ix) {
      const int gx = pmod(offset.x + ix, global_.x);
      if (gx < xb || gx >= xe) continue;
      for (int iy = 0; iy < region.y; ++iy) {
        const int gy = pmod(offset.y + iy, global_.y);
        for (int iz = 0; iz < region.z; ++iz) {
          const int gz = pmod(offset.z + iz, global_.z);
          s(gx - xb, gy, gz) +=
              weight * sub(sub_offset.x + ix, sub_offset.y + iy,
                           sub_offset.z + iz);
        }
      }
    }
  }

 private:
  void check_resident(int r) const {
    if (local_ >= 0 && r != local_)
      throw std::logic_error(
          "ShardedField3D::slab: rank-local field does not hold this "
          "rank's slab");
  }

  Vec3i global_{0, 0, 0};
  int n_shards_ = 0;
  int local_ = -1;
  std::vector<Field3D<T>> slabs_;
};

using ShardedFieldR = ShardedField3D<double>;
using ShardedFieldC = ShardedField3D<std::complex<double>>;

// --- plane-blocked deterministic reductions ---------------------------
// One partial per global x plane, accumulated in flat order within the
// plane, then summed in plane order. The dense and sharded overloads
// produce bit-identical results for any shard count.
double plane_sum(const FieldR& f);
double plane_dot(const FieldR& a, const FieldR& b);
// Sum_i |a_i - b_i| (multiply by the point volume for the SCF metric).
double plane_l1(const FieldR& a, const FieldR& b);

double plane_sum(const ShardedFieldR& f, ShardComm& comm);
double plane_dot(const ShardedFieldR& a, const ShardedFieldR& b,
                 ShardComm& comm);
double plane_l1(const ShardedFieldR& a, const ShardedFieldR& b,
                ShardComm& comm);

// Rebuild the dense field on every rank through the transport, one slab
// of allgatherv staging at a time (so the transient exchange footprint
// is bounded by the largest slab, not the global grid). Works in both
// storage modes — the rank-local replacement for to_dense() at
// public-API and snapshot boundaries.
FieldR gather_dense(const ShardedFieldR& f, ShardComm& comm);

}  // namespace ls3df
