#include "linalg/eigen.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace ls3df {

namespace {
using cd = std::complex<double>;

// Complex products in plain real arithmetic: std::complex's operator*
// carries a NaN-recovery branch that keeps the loops below scalar.
inline cd mul(cd a, cd b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}
inline cd mulc(cd a, cd b) {  // conj(a) * b
  return {a.real() * b.real() + a.imag() * b.imag(),
          a.real() * b.imag() - a.imag() * b.real()};
}

// Householder reduction of the Hermitian matrix held in M's lower
// triangle to a real symmetric tridiagonal, Q^H A Q = T (LAPACK zhetd2,
// lower): Q = H(0) H(1) ... H(n-2) with H(i) = I - tau_i v_i v_i^H acting
// on rows i+1.., v_i = [1; M(i+2.., i)]. Each reflector is chosen, as in
// zlarfg, to leave a real subdiagonal beta. On return d and e hold T's
// diagonal and subdiagonal, tau the reflector scalars, and M's strictly
// sub-subdiagonal part the reflector tails; p is an n-vector of scratch.
void tridiagonalize(MatC& M, double* d, double* e, cd* tau, cd* p) {
  const int n = M.rows();
  for (int i = 0; i + 1 < n; ++i) {
    const int m = n - i - 1;  // reflector length
    cd* v = &M(i + 1, i);
    double xnorm2 = 0;
    for (int k = 1; k < m; ++k) xnorm2 += std::norm(v[k]);
    const double ar = v[0].real(), ai = v[0].imag();
    d[i] = M(i, i).real();
    if (xnorm2 == 0 && ai == 0) {  // already reduced: H(i) = I
      tau[i] = 0;
      e[i] = ar;
      continue;
    }
    const double beta = -std::copysign(std::sqrt(ar * ar + ai * ai + xnorm2),
                                       ar);
    const cd t((beta - ar) / beta, -ai / beta);
    const cd scale = 1.0 / (v[0] - beta);
    for (int k = 1; k < m; ++k) v[k] = mul(scale, v[k]);
    v[0] = 1.0;
    tau[i] = t;
    e[i] = beta;

    // p = tau A22 v from A22's lower triangle (zhemv); A22 is the
    // trailing block at rows/cols i+1.., its column jj starting at a.
    // Only the real part of its diagonal is read.
    std::fill(p, p + m, cd{});
    for (int jj = 0; jj < m; ++jj) {
      const cd* a = &M(i + 1, i + 1 + jj);
      const cd t1 = mul(t, v[jj]);
      cd upper{};  // row jj of the upper triangle times v
      for (int kk = jj + 1; kk < m; ++kk) {
        p[kk] += mul(t1, a[kk]);
        upper += mulc(a[kk], v[kk]);
      }
      p[jj] += t1 * a[jj].real() + mul(t, upper);
    }
    // p += alpha v with alpha = -tau (p^H v) / 2, then
    // A22 -= v p^H + p v^H (zher2, lower triangle, real diagonal).
    cd pv{};
    for (int k = 0; k < m; ++k) pv += mulc(p[k], v[k]);
    const cd alpha = -0.5 * mul(t, pv);
    for (int k = 0; k < m; ++k) p[k] += mul(alpha, v[k]);
    for (int jj = 0; jj < m; ++jj) {
      cd* a = &M(i + 1, i + 1 + jj);
      const cd pj = std::conj(p[jj]), vj = std::conj(v[jj]);
      a[jj] = a[jj].real() - 2 * mul(v[jj], pj).real();
      for (int kk = jj + 1; kk < m; ++kk)
        a[kk] -= mul(v[kk], pj) + mul(p[kk], vj);
    }
  }
  if (n > 0) d[n - 1] = M(n - 1, n - 1).real();
}

// Implicit-shift QL on the symmetric tridiagonal (d, e), e[i] coupling
// d[i] and d[i+1]: d becomes the (unsorted) eigenvalues and the columns
// of the n x n rotation product Z, which must start as the identity,
// the eigenvectors of T. Throws if an eigenvalue needs more than 60
// iterations (never seen: QL converges cubically).
void tridiagonal_ql(int n, double* d, double* e, MatR& Z) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  if (n > 0) e[n - 1] = 0;
  for (int l = 0; l < n; ++l) {
    for (int iter = 0;; ++iter) {
      int m = l;
      for (; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= kEps * dd) break;
      }
      if (m == l) break;
      if (iter == 60)
        throw std::runtime_error("eigh: tridiagonal QL did not converge");
      // Wilkinson-style shift from the leading 2x2 block, then chase the
      // bulge from m - 1 up to l with plane rotations.
      double g = (d[l + 1] - d[l]) / (2 * e[l]);
      double r = std::hypot(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1, c = 1, p = 0;
      int i = m - 1;
      for (; i >= l; --i) {
        const double f = s * e[i], b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0) {  // underflow: split the block here and retry
          d[i + 1] -= p;
          e[m] = 0;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        double* zi = Z.col(i);
        double* zi1 = Z.col(i + 1);
        for (int k = 0; k < n; ++k) {
          const double x = zi[k], y = zi1[k];
          zi1[k] = s * x + c * y;
          zi[k] = c * x - s * y;
        }
      }
      if (r == 0 && i >= l) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0;
    }
  }
}

// Hermitian eigendecomposition into caller-provided storage, shared by
// every entry point so all give the same bits: all n eigenvalues, and
// the eigenvectors of the lowest nvec (evecs is n x nvec). M (n x n+2)
// takes the working copy of A plus the tau and scratch columns, Z
// (n x n+2) the tridiagonal's rotations plus d and e; both are fully
// overwritten. The QL rotations run on all n columns of Z; the
// back-transform and the phase fix act on each eigenvector alone, so an
// eigenvector's bits do not depend on nvec.
void eigh_into(const MatC& A, int nvec, MatC& M, MatR& Z,
               std::vector<int>& order, std::vector<double>& evals,
               MatC& evecs) {
  const int n = A.rows();
  assert(A.cols() == n);
  assert(nvec >= 0 && nvec <= n);
  M.reshape(n, n + 2);
  for (int j = 0; j < n; ++j)
    std::copy(A.col(j) + j, A.col(j) + n, M.col(j) + j);
  Z.reshape(n, n + 2);
  double* d = Z.col(n);
  double* e = Z.col(n + 1);
  cd* tau = M.col(n);
  tridiagonalize(M, d, e, tau, M.col(n + 1));

  for (int j = 0; j < n; ++j) {
    double* zj = Z.col(j);
    std::fill(zj, zj + n, 0.0);
    zj[j] = 1.0;
  }
  tridiagonal_ql(n, d, e, Z);

  // Ascending, ties in index order.
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return d[a] < d[b] || (d[a] == d[b] && a < b);
  });
  evals.resize(n);
  for (int j = 0; j < n; ++j) evals[j] = d[order[j]];
  evecs.reshape(n, nvec);
  for (int j = 0; j < nvec; ++j) {
    const double* z = Z.col(order[j]);
    cd* vj = evecs.col(j);
    for (int k = 0; k < n; ++k) vj[k] = z[k];
  }

  // Back-transform V = Q Z = H(0) (H(1) (... H(n-2) Z)).
  for (int i = n - 2; i >= 0; --i) {
    if (tau[i] == cd{}) continue;
    const int m = n - i - 1;
    cd* v = &M(i + 1, i);
    v[0] = 1.0;
    for (int j = 0; j < nvec; ++j) {
      cd* x = evecs.col(j) + i + 1;
      cd vx{};
      for (int k = 0; k < m; ++k) vx += mulc(v[k], x[k]);
      const cd w = mul(tau[i], vx);
      for (int k = 0; k < m; ++k) x[k] -= mul(w, v[k]);
    }
  }

  // Phase convention: each eigenvector's largest-magnitude component
  // (lowest index on ties) is real and positive.
  for (int j = 0; j < nvec; ++j) {
    cd* vj = evecs.col(j);
    int kmax = 0;
    double big = -1;
    for (int k = 0; k < n; ++k) {
      const double a = std::norm(vj[k]);
      if (a > big) {
        big = a;
        kmax = k;
      }
    }
    const double mag = std::abs(vj[kmax]);
    if (mag == 0) continue;
    const cd phase(vj[kmax].real() / mag, -vj[kmax].imag() / mag);
    for (int k = 0; k < n; ++k) vj[k] = mul(phase, vj[k]);
    vj[kmax] = mag;
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

MatR& EigenScratch::rmat(int rows, int cols) {
  const std::size_t need = static_cast<std::size_t>(rows) * cols;
  if (need > rmat_peak_) {
    rmat_peak_ = need;
    ++allocs_;
  }
  rmat_.reshape(rows, cols);
  return rmat_;
}

void EigenScratch::reserve(int dim) {
  for (int slot = 0; slot < kSlots; ++slot) mat(slot, dim, dim);
  mat(kM, dim, dim + 2);
  rmat(dim, dim + 2);
  dvec(dim);
  ivec(dim);
}

EighResult eigh(const MatC& A) {
  MatC M;
  MatR Z;
  std::vector<int> order;
  EighResult result;
  eigh_into(A, A.rows(), M, Z, order, result.eigenvalues,
            result.eigenvectors);
  return result;
}

EighView eigh(const MatC& A, EigenScratch& ws) {
  return eigh_lowest(A, A.rows(), ws);
}

EighView eigh_lowest(const MatC& A, int k, EigenScratch& ws) {
  const int n = A.rows();
  MatC& M = ws.mat(EigenScratch::kM, n, n + 2);
  MatC& evecs = ws.mat(EigenScratch::kEvecs, n, k);
  MatR& Z = ws.rmat(n, n + 2);
  std::vector<int>& order = ws.ivec(n);
  std::vector<double>& evals = ws.dvec(n);
  eigh_into(A, k, M, Z, order, evals, evecs);
  return EighView{&evals, &evecs};
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
