// Dense column-major matrix, the container behind wavefunction coefficient
// blocks (n_G x n_bands), overlap matrices and subspace Hamiltonians.
// Column-major so that one band (one column) is contiguous, mirroring the
// layout plane-wave codes use for BLAS-3 orthogonalization.
#pragma once

#include <cassert>
#include <complex>
#include <cstddef>
#include <vector>

namespace ls3df {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols) : rows_(rows), cols_(cols) {
    assert(rows >= 0 && cols >= 0);
    data_.assign(static_cast<std::size_t>(rows) * cols, T{});
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const {
    return static_cast<std::size_t>(rows_) * cols_;
  }
  bool empty() const { return size() == 0; }

  T& operator()(int i, int j) {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }
  const T& operator()(int i, int j) const {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  T* col(int j) { return data_.data() + static_cast<std::size_t>(j) * rows_; }
  const T* col(int j) const {
    return data_.data() + static_cast<std::size_t>(j) * rows_;
  }

  // Zero the logical rows x cols extent (reshape may keep larger
  // backing storage; the slack is never read and need not be swept).
  void set_zero() { std::fill(data_.begin(), data_.begin() + size(), T{}); }
  void resize(int rows, int cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows) * cols, T{});
  }
  // Set dimensions reusing storage without the zero-fill of resize();
  // element values are unspecified. Storage grows monotonically to the
  // peak extent and is never shrunk or re-initialized below it, so a
  // shrink-then-grow cycle (the workspace-reuse pattern) sweeps no
  // memory at all.
  void reshape(int rows, int cols) {
    rows_ = rows;
    cols_ = cols;
    const std::size_t need = static_cast<std::size_t>(rows) * cols;
    if (need > data_.size()) data_.resize(need);
  }

  static Matrix identity(int n) {
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

 private:
  int rows_ = 0, cols_ = 0;
  std::vector<T> data_;
};

using MatR = Matrix<double>;
using MatC = Matrix<std::complex<double>>;
// Single-precision complex blocks: the storage type of the fp32 arenas
// behind the float instantiation of the lockstep Davidson
// (dft/eigensolver.h).
using MatCF = Matrix<std::complex<float>>;

}  // namespace ls3df
