#include "fft/fft3d.h"

#include "parallel/thread_pool.h"

namespace ls3df {

template <typename Real>
BasicFft3D<Real>::BasicFft3D(Vec3i shape)
    : shape_(shape),
      fx_(shape.x),
      fy_(shape.y),
      fz_(shape.z) {}

template <typename Real>
void BasicFft3D<Real>::transform_z(Cplx* data, bool inv) const {
  // Axis z: the n1 * n2 contiguous rows.
  const int n3 = shape_.z;
  fz_.transform_lines(inv, shape_.x * shape_.y, 1, [&](int row) {
    return data + static_cast<std::size_t>(row) * n3;
  });
}

template <typename Real>
void BasicFft3D<Real>::transform_y(Cplx* data, bool inv,
                                   const std::vector<int>* z) const {
  const int n2 = shape_.y, n3 = shape_.z;
  // Axis y: stride n3 within each x-slab; only the planes in `z` if
  // given. Line i = (ix, k) runs across the x-slabs, so tiles stay full.
  const int nz = z ? static_cast<int>(z->size()) : n3;
  fy_.transform_lines(inv, shape_.x * nz, n3, [&](int i) {
    const int ix = i / nz, k = i % nz;
    return data + static_cast<std::size_t>(ix) * n2 * n3 + (z ? (*z)[k] : k);
  });
}

template <typename Real>
void BasicFft3D<Real>::transform_x(Cplx* data, bool inv,
                                   const std::vector<int>* yz) const {
  // Axis x: stride n2*n3; only the (iy,iz) columns in `yz` if given.
  const std::ptrdiff_t sx = static_cast<std::ptrdiff_t>(shape_.y) * shape_.z;
  const int ncol = yz ? static_cast<int>(yz->size()) : shape_.y * shape_.z;
  fx_.transform_lines(inv, ncol, sx,
                      [&](int k) { return data + (yz ? (*yz)[k] : k); });
}

template <typename Real>
void BasicFft3D<Real>::transform(Cplx* data, bool inv,
                                 const FftLines* lines) const {
  // Forward applies z, y, x; inverse undoes them in reverse (x, y, z).
  // The mirrored order is what lets the slab-distributed transform
  // (fft/dist_fft3d.h) stay bit-identical to this dense path with a
  // single pencil transpose per direction: the x axis — the one that
  // crosses shard boundaries — always sits on the transposed side.
  // A pruned transform keeps the order and drops lines (see header).
  const std::vector<int>* yz = lines ? &lines->yz : nullptr;
  const std::vector<int>* z = lines ? &lines->z : nullptr;
  if (inv) {
    transform_x(data, true, yz);
    transform_y(data, true, z);
    transform_z(data, true);
  } else {
    transform_z(data, false);
    transform_y(data, false, z);
    transform_x(data, false, yz);
  }
}

// `lines` null: full transforms; else grid g is pruned with *lines[g].
template <typename Real>
void BasicFft3D<Real>::transform_many(Cplx* stack, int count,
                                      const FftLines* const* lines, bool inv,
                                      int n_workers) const {
  parallel_for(count, n_workers, [&](int g, int /*worker*/) {
    transform(stack + static_cast<std::size_t>(g) * size(), inv,
              lines ? lines[g] : nullptr);
  });
}

template <typename Real>
void BasicFft3D<Real>::forward_many(Cplx* stack, int count,
                                    int n_workers) const {
  transform_many(stack, count, nullptr, false, n_workers);
}

template <typename Real>
void BasicFft3D<Real>::inverse_many(Cplx* stack, int count,
                                    int n_workers) const {
  transform_many(stack, count, nullptr, true, n_workers);
}

template <typename Real>
void BasicFft3D<Real>::forward_many(Cplx* stack, int count,
                                    const FftLines* const* lines,
                                    int n_workers) const {
  transform_many(stack, count, lines, false, n_workers);
}

template <typename Real>
void BasicFft3D<Real>::inverse_many(Cplx* stack, int count,
                                    const FftLines* const* lines,
                                    int n_workers) const {
  transform_many(stack, count, lines, true, n_workers);
}

template class BasicFft3D<double>;
template class BasicFft3D<float>;

}  // namespace ls3df
