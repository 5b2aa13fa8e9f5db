#include "linalg/eigen.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <stdexcept>

namespace ls3df {

namespace {
using cd = std::complex<double>;

// One Jacobi rotation zeroing A(p,q). For a Hermitian matrix the 2x2 block
// [a_pp, a_pq; conj(a_pq), a_qq] is diagonalized by a complex rotation
// R = [c, s; -conj(s), c] with real c.
struct JacobiRot {
  double c;
  cd s;
};

JacobiRot compute_rotation(double app, double aqq, cd apq) {
  const double absapq = std::abs(apq);
  if (absapq == 0.0) return {1.0, cd(0, 0)};
  const cd phase = apq / absapq;
  const double tau = (aqq - app) / (2.0 * absapq);
  // tan(theta) root with smaller magnitude for stability.
  const double t = (tau >= 0 ? 1.0 : -1.0) /
                   (std::abs(tau) + std::sqrt(1.0 + tau * tau));
  const double c = 1.0 / std::sqrt(1.0 + t * t);
  return {c, phase * (t * c)};
}

// The rotation loops: over n entries at the given stride (in complex
// elements), [x, y] <- [c x - conj(u) y, u x + c y]. Written in real
// arithmetic with exactly the operands and order std::complex uses for
// `c * x - std::conj(u) * y` and `u * x + c * y` (real-times-complex
// scales each part; a complex product is (ar*br - ai*bi, ar*bi + ai*br)),
// so the bits are those of the complex expressions for finite data while
// the loop carries no NaN-recovery branch.
void rotate_pair(cd* x, cd* y, int n, std::ptrdiff_t stride, double c,
                 cd u) {
  double* xp = reinterpret_cast<double*>(x);
  double* yp = reinterpret_cast<double*>(y);
  const double ur = u.real(), ui = u.imag(), vi = -ui;  // conj(u) = (ur, vi)
  for (int k = 0; k < n; ++k) {
    const std::ptrdiff_t i = 2 * stride * k;
    const double xr = xp[i], xi = xp[i + 1], yr = yp[i], yi = yp[i + 1];
    xp[i] = xr * c - (ur * yr - vi * yi);
    xp[i + 1] = xi * c - (ur * yi + vi * yr);
    yp[i] = (ur * xr - ui * xi) + yr * c;
    yp[i + 1] = (ur * xi + ui * xr) + yi * c;
  }
}

// Jacobi eigendecomposition into caller-provided storage. Shared by the
// allocating and arena-backed entry points so both produce bit-identical
// results. M/V/evecs are fully overwritten; no input state survives.
void eigh_core(const MatC& A, MatC& M, MatC& V, std::vector<int>& order,
               std::vector<double>& evals, MatC& evecs) {
  const int n = A.rows();
  assert(A.cols() == n);
  M.reshape(n, n);
  // Symmetrize from the lower triangle.
  for (int j = 0; j < n; ++j) {
    M(j, j) = cd(A(j, j).real(), 0.0);
    for (int i = j + 1; i < n; ++i) {
      M(i, j) = A(i, j);
      M(j, i) = std::conj(A(i, j));
    }
  }
  V.reshape(n, n);
  for (int j = 0; j < n; ++j) {
    cd* vj = V.col(j);
    std::fill(vj, vj + n, cd{});
    vj[j] = cd(1.0, 0.0);
  }

  auto off_norm = [&]() {
    double s = 0;
    for (int j = 0; j < n; ++j)
      for (int i = j + 1; i < n; ++i) s += std::norm(M(i, j));
    return std::sqrt(2.0 * s);
  };

  const int max_sweeps = 60;
  double scale = 0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) scale = std::max(scale, std::abs(M(i, j)));
  const double tol = 1e-14 * std::max(scale, 1.0);

  for (int sweep = 0; sweep < max_sweeps && off_norm() > tol * n; ++sweep) {
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const cd apq = M(p, q);
        if (std::abs(apq) <= tol * 1e-2) continue;
        const auto [c, s] =
            compute_rotation(M(p, p).real(), M(q, q).real(), apq);
        // Apply R^H M R where R mixes columns/rows p and q: columns
        // [p, q] <- [c p - conj(s) q, s p + c q], then rows
        // [p, q] <- [c p - s q, conj(s) p + c q]; V accumulates R.
        rotate_pair(M.col(p), M.col(q), n, 1, c, s);
        rotate_pair(&M(p, 0), &M(q, 0), n, n, c, std::conj(s));
        rotate_pair(V.col(p), V.col(q), n, 1, c, s);
      }
    }
  }

  // Sort ascending by eigenvalue.
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return M(a, a).real() < M(b, b).real(); });

  evals.resize(n);
  evecs.reshape(n, n);
  for (int j = 0; j < n; ++j) {
    evals[j] = M(order[j], order[j]).real();
    for (int i = 0; i < n; ++i) evecs(i, j) = V(i, order[j]);
  }
}

// Cholesky into caller-provided lower-triangular storage (upper triangle
// zeroed). Shared by the allocating and arena-backed entry points.
void cholesky_core(const MatC& A, MatC& L) {
  const int n = A.rows();
  assert(A.cols() == n);
  double scale = 0.0;
  for (int j = 0; j < n; ++j) scale = std::max(scale, A(j, j).real());
  // Reject near-singular matrices too: downstream triangular solves would
  // amplify rounding noise catastrophically.
  const double min_pivot = std::max(scale, 1e-300) * 1e-13;
  L.reshape(n, n);
  for (int j = 0; j < n; ++j) {
    cd* lj = L.col(j);
    std::fill(lj, lj + j, cd{});  // strict upper triangle of this column
    double d = A(j, j).real();
    for (int k = 0; k < j; ++k) d -= std::norm(L(j, k));
    if (d <= min_pivot)
      throw std::runtime_error("cholesky: not (numerically) positive definite");
    const double ljj = std::sqrt(d);
    L(j, j) = ljj;
    for (int i = j + 1; i < n; ++i) {
      cd acc = A(i, j);
      for (int k = 0; k < j; ++k) acc -= L(i, k) * std::conj(L(j, k));
      L(i, j) = acc / ljj;
    }
  }
}

}  // namespace

MatC& EigenScratch::mat(int slot, int rows, int cols) {
  assert(slot >= 0 && slot < kSlots);
  const std::size_t need = static_cast<std::size_t>(rows) * cols;
  if (need > mat_peak_[slot]) {
    mat_peak_[slot] = need;
    ++allocs_;
  }
  mats_[slot].reshape(rows, cols);
  return mats_[slot];
}

std::vector<double>& EigenScratch::dvec(int n) {
  if (static_cast<std::size_t>(n) > dvec_peak_) {
    dvec_peak_ = n;
    ++allocs_;
  }
  dvec_.resize(n);
  return dvec_;
}

std::vector<int>& EigenScratch::ivec(int n) {
  if (static_cast<std::size_t>(n) > ivec_peak_) {
    ivec_peak_ = n;
    ++allocs_;
  }
  ivec_.resize(n);
  return ivec_;
}

void EigenScratch::reserve(int dim) {
  for (int slot = 0; slot < kSlots; ++slot) mat(slot, dim, dim);
  dvec(dim);
  ivec(dim);
}

EighResult eigh(const MatC& A) {
  MatC M, V;
  std::vector<int> order;
  EighResult result;
  eigh_core(A, M, V, order, result.eigenvalues, result.eigenvectors);
  return result;
}

EighView eigh(const MatC& A, EigenScratch& ws) {
  const int n = A.rows();
  MatC& M = ws.mat(EigenScratch::kM, n, n);
  MatC& V = ws.mat(EigenScratch::kV, n, n);
  MatC& evecs = ws.mat(EigenScratch::kEvecs, n, n);
  std::vector<int>& order = ws.ivec(n);
  std::vector<double>& evals = ws.dvec(n);
  eigh_core(A, M, V, order, evals, evecs);
  return EighView{&evals, &evecs};
}

EighResultReal eigh(const MatR& A) {
  const int n = A.rows();
  MatC Ac(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) Ac(i, j) = cd(A(i, j), 0.0);
  EighResult r = eigh(Ac);
  EighResultReal out;
  out.eigenvalues = std::move(r.eigenvalues);
  out.eigenvectors.resize(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      out.eigenvectors(i, j) = r.eigenvectors(i, j).real();
  return out;
}

MatC cholesky(const MatC& A) {
  MatC L;
  cholesky_core(A, L);
  return L;
}

void cholesky(const MatC& A, MatC& L) { cholesky_core(A, L); }

void trsm_right_lherm(const MatC& L, MatC& B) {
  // Solve X L^H = B, i.e. for each row x of B: x = b * L^{-H}.
  // L^H is upper triangular with (L^H)(k,j) = conj(L(j,k)).
  // Forward substitution over columns: X(:,0) = B(:,0)/conj(L(0,0)), then
  // X(:,j) = (B(:,j) - sum_{k<j} X(:,k) conj(L(j,k))) / conj(L(j,j)).
  const int n = L.rows();
  const int m = B.rows();
  assert(B.cols() == n);
  for (int j = 0; j < n; ++j) {
    cd* bj = B.col(j);
    for (int k = 0; k < j; ++k) {
      const cd ljk = std::conj(L(j, k));
      if (ljk == cd(0, 0)) continue;
      const cd* bk = B.col(k);
      for (int i = 0; i < m; ++i) bj[i] -= bk[i] * ljk;
    }
    const cd d = std::conj(L(j, j));
    for (int i = 0; i < m; ++i) bj[i] /= d;
  }
}

std::vector<double> solve_linear(MatR A, std::vector<double> b) {
  const int n = A.rows();
  assert(A.cols() == n && static_cast<int>(b.size()) == n);
  for (int k = 0; k < n; ++k) {
    // Partial pivot.
    int piv = k;
    for (int i = k + 1; i < n; ++i)
      if (std::abs(A(i, k)) > std::abs(A(piv, k))) piv = i;
    if (std::abs(A(piv, k)) < 1e-300)
      throw std::runtime_error("solve_linear: singular matrix");
    if (piv != k) {
      for (int j = 0; j < n; ++j) std::swap(A(k, j), A(piv, j));
      std::swap(b[k], b[piv]);
    }
    for (int i = k + 1; i < n; ++i) {
      const double f = A(i, k) / A(k, k);
      if (f == 0.0) continue;
      for (int j = k; j < n; ++j) A(i, j) -= f * A(k, j);
      b[i] -= f * b[k];
    }
  }
  std::vector<double> x(n);
  for (int i = n - 1; i >= 0; --i) {
    double acc = b[i];
    for (int j = i + 1; j < n; ++j) acc -= A(i, j) * x[j];
    x[i] = acc / A(i, i);
  }
  return x;
}

}  // namespace ls3df
