// Scalar field on a periodic real-space grid. Layout: z fastest, matching
// Fft3D. Supports the periodic sub-box extraction and signed accumulation
// that Gen_VF (global potential -> fragment boxes) and Gen_dens (fragment
// densities -> global density) are built from.
#pragma once

#include <cassert>
#include <complex>
#include <vector>

#include "common/vec3.h"

namespace ls3df {

template <typename T>
class Field3D {
 public:
  Field3D() : shape_{0, 0, 0} {}
  explicit Field3D(Vec3i shape) : shape_(shape) {
    assert(shape.x >= 1 && shape.y >= 1 && shape.z >= 1);
    data_.assign(static_cast<std::size_t>(shape.x) * shape.y * shape.z, T{});
  }

  const Vec3i& shape() const { return shape_; }
  std::size_t size() const { return data_.size(); }

  std::size_t index(int ix, int iy, int iz) const {
    return (static_cast<std::size_t>(ix) * shape_.y + iy) * shape_.z + iz;
  }

  T& operator()(int ix, int iy, int iz) { return data_[index(ix, iy, iz)]; }
  const T& operator()(int ix, int iy, int iz) const {
    return data_[index(ix, iy, iz)];
  }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  // Periodic (wrapped) access for possibly out-of-range indices.
  const T& at_periodic(int ix, int iy, int iz) const {
    return data_[index(pmod(ix, shape_.x), pmod(iy, shape_.y),
                       pmod(iz, shape_.z))];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::vector<T>& raw() { return data_; }
  const std::vector<T>& raw() const { return data_; }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  Field3D& operator+=(const Field3D& o) {
    assert(o.shape() == shape_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
    return *this;
  }
  Field3D& operator-=(const Field3D& o) {
    assert(o.shape() == shape_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
    return *this;
  }
  Field3D& operator*=(T s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  // Sum of all grid values (multiply by the grid-point volume to get an
  // integral over the cell).
  T sum() const {
    T acc{};
    for (const auto& v : data_) acc += v;
    return acc;
  }

  // Extract a sub-box of the given shape starting at `offset` (grid
  // points, may be negative or beyond the edge; wraps periodically).
  Field3D extract(Vec3i offset, Vec3i sub_shape) const {
    Field3D out(sub_shape);
    extract_into(offset, out);
    return out;
  }

  // Same, into an already-shaped field (overwritten; no allocation) —
  // the steady-state Gen_VF primitive.
  void extract_into(Vec3i offset, Field3D& out) const {
    const Vec3i sub_shape = out.shape();
    for (int ix = 0; ix < sub_shape.x; ++ix) {
      const int gx = pmod(offset.x + ix, shape_.x);
      for (int iy = 0; iy < sub_shape.y; ++iy) {
        const int gy = pmod(offset.y + iy, shape_.y);
        for (int iz = 0; iz < sub_shape.z; ++iz) {
          const int gz = pmod(offset.z + iz, shape_.z);
          out(ix, iy, iz) = data_[index(gx, gy, gz)];
        }
      }
    }
  }

  // Accumulate `sub * weight` into this field at `offset`, wrapping
  // periodically. `region` restricts the accumulated part of `sub` to its
  // leading region.x x region.y x region.z corner (used to add only a
  // fragment's interior cells, excluding its buffer).
  void accumulate(Vec3i offset, const Field3D& sub, T weight) {
    accumulate_region(offset, sub, sub.shape(), weight);
  }
  void accumulate_region(Vec3i offset, const Field3D& sub, Vec3i region,
                         T weight) {
    accumulate_window(offset, sub, {0, 0, 0}, region, weight);
  }

  // General form: add `weight * sub[sub_offset .. sub_offset+region)` into
  // this field starting at `offset` (periodic wrap on this field only).
  // This is the Gen_dens primitive: a fragment's *interior* window (its
  // cells, excluding the buffer) is accumulated into the global density.
  void accumulate_window(Vec3i offset, const Field3D& sub, Vec3i sub_offset,
                         Vec3i region, T weight) {
    assert(sub_offset.x >= 0 && sub_offset.x + region.x <= sub.shape().x);
    assert(sub_offset.y >= 0 && sub_offset.y + region.y <= sub.shape().y);
    assert(sub_offset.z >= 0 && sub_offset.z + region.z <= sub.shape().z);
    for (int ix = 0; ix < region.x; ++ix) {
      const int gx = pmod(offset.x + ix, shape_.x);
      for (int iy = 0; iy < region.y; ++iy) {
        const int gy = pmod(offset.y + iy, shape_.y);
        for (int iz = 0; iz < region.z; ++iz) {
          const int gz = pmod(offset.z + iz, shape_.z);
          data_[index(gx, gy, gz)] +=
              weight * sub(sub_offset.x + ix, sub_offset.y + iy,
                           sub_offset.z + iz);
        }
      }
    }
  }

 private:
  Vec3i shape_;
  std::vector<T> data_;
};

using FieldR = Field3D<double>;
using FieldC = Field3D<std::complex<double>>;

// L1 distance between two fields times the grid-point volume: the paper's
// SCF convergence metric  int |V_out(r) - V_in(r)| d3r  (Fig. 6).
inline double l1_distance(const FieldR& a, const FieldR& b,
                          double point_volume) {
  assert(a.shape() == b.shape());
  double acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
  return acc * point_volume;
}

}  // namespace ls3df
