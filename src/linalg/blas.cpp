#include "linalg/blas.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "parallel/thread_pool.h"

namespace ls3df {

namespace {

template <typename T>
struct IsComplex : std::false_type {};
template <typename R>
struct IsComplex<std::complex<R>> : std::true_type {};

template <typename T>
T apply_op(Op op, const Matrix<T>& A, int i, int j) {
  switch (op) {
    case Op::kNone:
      return A(i, j);
    case Op::kTrans:
      return A(j, i);
    case Op::kConjTrans:
      if constexpr (IsComplex<T>::value)
        return std::conj(A(j, i));
      else
        return A(j, i);
  }
  return T{};
}

// Rows of A/B processed per cache block in the A^H B kernel: two A
// columns + two B columns of 256 complex values are 16 KiB, comfortably
// inside L1, so the 2x2 tile streams from cache while the accumulators
// stay in registers.
constexpr int kKBlock = 256;

// Blocked overlap kernel: C(:, j0:j1) += alpha * A^H B(:, j0:j1) with A
// (ka x m), B (ka x n), both column-major. 2x2 register tiles over (i, j),
// k-blocked so the four active columns stay L1-resident. Complex
// arithmetic is expanded into real/imaginary parts so the compiler can
// vectorize the inner loop. The column range exists for gemm_batched's
// tile grid; j0 must be even (relative to column 0) so the 2-column
// pairing — and therefore the exact floating-point expression used for
// each C element — matches the full-range sweep. Templated over the real
// type: <double> is the reference path, <float> the mixed-precision fast
// path (accumulators stay in the element type, which is where the fp32
// SIMD-width win comes from).
template <typename R>
void gemm_conjtrans_none_blocked(std::complex<R> alpha,
                                 const Matrix<std::complex<R>>& A,
                                 const Matrix<std::complex<R>>& B,
                                 Matrix<std::complex<R>>& C, int j0, int j1) {
  using cd = std::complex<R>;
  const int ka = A.rows(), m = C.rows();
  const int n = j1;
  for (int kk = 0; kk < ka; kk += kKBlock) {
    const int ke = std::min(ka, kk + kKBlock);
    int j = j0;
    for (; j + 1 < n; j += 2) {
      const cd* b0 = B.col(j);
      const cd* b1 = B.col(j + 1);
      int i = 0;
      for (; i + 1 < m; i += 2) {
        const cd* a0 = A.col(i);
        const cd* a1 = A.col(i + 1);
        R r00 = 0, s00 = 0, r01 = 0, s01 = 0;
        R r10 = 0, s10 = 0, r11 = 0, s11 = 0;
        for (int l = kk; l < ke; ++l) {
          const R ar0 = a0[l].real(), ai0 = a0[l].imag();
          const R ar1 = a1[l].real(), ai1 = a1[l].imag();
          const R br0 = b0[l].real(), bi0 = b0[l].imag();
          const R br1 = b1[l].real(), bi1 = b1[l].imag();
          // conj(a) * b = (ar*br + ai*bi) + i (ar*bi - ai*br)
          r00 += ar0 * br0 + ai0 * bi0;
          s00 += ar0 * bi0 - ai0 * br0;
          r01 += ar0 * br1 + ai0 * bi1;
          s01 += ar0 * bi1 - ai0 * br1;
          r10 += ar1 * br0 + ai1 * bi0;
          s10 += ar1 * bi0 - ai1 * br0;
          r11 += ar1 * br1 + ai1 * bi1;
          s11 += ar1 * bi1 - ai1 * br1;
        }
        C(i, j) += alpha * cd(r00, s00);
        C(i, j + 1) += alpha * cd(r01, s01);
        C(i + 1, j) += alpha * cd(r10, s10);
        C(i + 1, j + 1) += alpha * cd(r11, s11);
      }
      for (; i < m; ++i) {
        const cd* ai = A.col(i);
        cd acc0{}, acc1{};
        for (int l = kk; l < ke; ++l) {
          acc0 += std::conj(ai[l]) * b0[l];
          acc1 += std::conj(ai[l]) * b1[l];
        }
        C(i, j) += alpha * acc0;
        C(i, j + 1) += alpha * acc1;
      }
    }
    for (; j < n; ++j) {
      const cd* bj = B.col(j);
      for (int i = 0; i < m; ++i) {
        const cd* ai = A.col(i);
        cd acc{};
        for (int l = kk; l < ke; ++l) acc += std::conj(ai[l]) * bj[l];
        C(i, j) += alpha * acc;
      }
    }
  }
}

// Blocked gaxpy kernel: C(:, j0:j1) += alpha * A B(:, j0:j1) with A
// (m x k), B (k x n). Four C columns advance per sweep of A, quartering
// the dominant A traffic of the plain column-at-a-time gaxpy for the
// tall-skinny shapes PEtot_F produces. j0 must be a multiple of 4 so the
// 4-column grouping matches the full-range sweep (see gemm_batched).
template <typename R>
void gemm_none_none_blocked(std::complex<R> alpha,
                            const Matrix<std::complex<R>>& A,
                            const Matrix<std::complex<R>>& B,
                            Matrix<std::complex<R>>& C, int j0, int j1) {
  using cd = std::complex<R>;
  const int m = C.rows(), k = A.cols();
  const int n = j1;
  int j = j0;
  for (; j + 3 < n; j += 4) {
    cd* c0 = C.col(j);
    cd* c1 = C.col(j + 1);
    cd* c2 = C.col(j + 2);
    cd* c3 = C.col(j + 3);
    for (int l = 0; l < k; ++l) {
      const cd b0 = alpha * B(l, j);
      const cd b1 = alpha * B(l, j + 1);
      const cd b2 = alpha * B(l, j + 2);
      const cd b3 = alpha * B(l, j + 3);
      const cd* al = A.col(l);
      const R br0 = b0.real(), bi0 = b0.imag();
      const R br1 = b1.real(), bi1 = b1.imag();
      const R br2 = b2.real(), bi2 = b2.imag();
      const R br3 = b3.real(), bi3 = b3.imag();
      for (int i = 0; i < m; ++i) {
        const R ar = al[i].real(), ai = al[i].imag();
        c0[i] += cd(ar * br0 - ai * bi0, ar * bi0 + ai * br0);
        c1[i] += cd(ar * br1 - ai * bi1, ar * bi1 + ai * br1);
        c2[i] += cd(ar * br2 - ai * bi2, ar * bi2 + ai * br2);
        c3[i] += cd(ar * br3 - ai * bi3, ar * bi3 + ai * br3);
      }
    }
  }
  for (; j < n; ++j) {
    cd* cj = C.col(j);
    for (int l = 0; l < k; ++l) {
      const cd b = alpha * B(l, j);
      if (b == cd{}) continue;
      const cd* al = A.col(l);
      for (int i = 0; i < m; ++i) cj[i] += al[i] * b;
    }
  }
}

template <typename T>
void gemm_impl(Op opA, Op opB, T alpha, const Matrix<T>& A,
               const Matrix<T>& B, T beta, Matrix<T>& C) {
  const int m = C.rows(), n = C.cols();
  const int k = (opA == Op::kNone) ? A.cols() : A.rows();
  assert(((opA == Op::kNone) ? A.rows() : A.cols()) == m);
  assert(((opB == Op::kNone) ? B.rows() : B.cols()) == k);
  assert(((opB == Op::kNone) ? B.cols() : B.rows()) == n);

  if (beta == T{}) {
    C.set_zero();
  } else if (beta != T{1}) {
    for (std::size_t i = 0; i < C.size(); ++i) C.data()[i] *= beta;
  }

  if constexpr (IsComplex<T>::value) {
    if (opA == Op::kNone && opB == Op::kNone) {
      gemm_none_none_blocked(alpha, A, B, C, 0, n);
      return;
    }
    if (opA == Op::kConjTrans && opB == Op::kNone) {
      gemm_conjtrans_none_blocked(alpha, A, B, C, 0, n);
      return;
    }
  } else {
    if (opA == Op::kNone && opB == Op::kNone) {
      // Fast path: gaxpy ordering, stride-1 over columns of A and C.
      for (int j = 0; j < n; ++j) {
        T* cj = C.col(j);
        for (int l = 0; l < k; ++l) {
          const T b = alpha * B(l, j);
          if (b == T{}) continue;
          const T* al = A.col(l);
          for (int i = 0; i < m; ++i) cj[i] += al[i] * b;
        }
      }
      return;
    }
  }
  // General (rare) path.
  for (int j = 0; j < n; ++j)
    for (int l = 0; l < k; ++l) {
      const T b = alpha * apply_op(opB, B, l, j);
      if (b == T{}) continue;
      for (int i = 0; i < m; ++i) C(i, j) += apply_op(opA, A, i, l) * b;
    }
}

// Columns of C per batched work unit. A multiple of both register-tile
// widths (2 for the conj-trans kernel, 4 for the gaxpy kernel), so every
// tile's column pairing starts exactly where the full-range sweep would
// put it and the batched arithmetic is element-for-element identical to
// serial gemm().
constexpr int kBatchTileCols = 32;

// General op fallback restricted to a column range (rare in the batched
// path; kept for completeness).
template <typename R>
void gemm_general_range(Op opA, Op opB, std::complex<R> alpha,
                        const Matrix<std::complex<R>>& A,
                        const Matrix<std::complex<R>>& B,
                        Matrix<std::complex<R>>& C, int j0, int j1) {
  using cd = std::complex<R>;
  const int m = C.rows();
  const int k = (opA == Op::kNone) ? A.cols() : A.rows();
  for (int j = j0; j < j1; ++j)
    for (int l = 0; l < k; ++l) {
      const cd b = alpha * apply_op(opB, B, l, j);
      if (b == cd{}) continue;
      for (int i = 0; i < m; ++i) C(i, j) += apply_op(opA, A, i, l) * b;
    }
}

}  // namespace

template <typename Real>
void gemm_batched(Op opA, Op opB, std::complex<Real> alpha,
                  const std::vector<GemmBatchItemT<Real>>& items,
                  std::complex<Real> beta, int n_workers) {
  using cd = std::complex<Real>;
  using Mat = Matrix<cd>;
  using Item = GemmBatchItemT<Real>;
  if (items.empty()) return;

  // Flatten the batch into (member, column tile) work units. The unit
  // count depends only on the item shapes — never on n_workers — and each
  // C element is written by exactly one unit, so scheduling cannot change
  // any value.
  struct Unit {
    int item;
    int j0, j1;
  };
  std::vector<Unit> units;
  for (int t = 0; t < static_cast<int>(items.size()); ++t) {
    const Item& it = items[t];
    assert(it.a && it.b && it.c);
    const Mat& A = *it.a;
    const Mat& B = *it.b;
    Mat& C = *it.c;
    const int m = C.rows(), n = C.cols();
    const int k = (opA == Op::kNone) ? A.cols() : A.rows();
    assert(((opA == Op::kNone) ? A.rows() : A.cols()) == m);
    assert(((opB == Op::kNone) ? B.rows() : B.cols()) == k);
    assert(((opB == Op::kNone) ? B.cols() : B.rows()) == n);
    (void)A;
    (void)B;
    (void)m;
    (void)k;
    for (int j0 = 0; j0 < n; j0 += kBatchTileCols)
      units.push_back({t, j0, std::min(n, j0 + kBatchTileCols)});
  }

  const auto run_unit = [&](const Unit& u) {
    const Item& it = items[u.item];
    Mat& C = *it.c;
    // Per-tile beta handling mirrors gemm_impl's whole-matrix pass.
    if (beta == cd{}) {
      for (int j = u.j0; j < u.j1; ++j)
        std::fill(C.col(j), C.col(j) + C.rows(), cd{});
    } else if (beta != cd{1}) {
      for (int j = u.j0; j < u.j1; ++j) {
        cd* cj = C.col(j);
        for (int i = 0; i < C.rows(); ++i) cj[i] *= beta;
      }
    }
    if (u.j0 == u.j1) return;
    if (opA == Op::kNone && opB == Op::kNone) {
      gemm_none_none_blocked(alpha, *it.a, *it.b, C, u.j0, u.j1);
    } else if (opA == Op::kConjTrans && opB == Op::kNone) {
      gemm_conjtrans_none_blocked(alpha, *it.a, *it.b, C, u.j0, u.j1);
    } else {
      gemm_general_range(opA, opB, alpha, *it.a, *it.b, C, u.j0, u.j1);
    }
  };

  const int n_units = static_cast<int>(units.size());
  if (n_workers <= 1 || n_units <= 1) {
    for (const Unit& u : units) run_unit(u);
  } else {
    parallel_for(n_units, n_workers,
                 [&](int u, int /*worker*/) { run_unit(units[u]); });
  }
}

template void gemm_batched<double>(Op, Op, std::complex<double>,
                                   const std::vector<GemmBatchItemT<double>>&,
                                   std::complex<double>, int);
template void gemm_batched<float>(Op, Op, std::complex<float>,
                                  const std::vector<GemmBatchItemT<float>>&,
                                  std::complex<float>, int);

void gemm(Op opA, Op opB, std::complex<double> alpha, const MatC& A,
          const MatC& B, std::complex<double> beta, MatC& C) {
  gemm_impl(opA, opB, alpha, A, B, beta, C);
}

void gemm(Op opA, Op opB, double alpha, const MatR& A, const MatR& B,
          double beta, MatR& C) {
  gemm_impl(opA, opB, alpha, A, B, beta, C);
}

void gemm(Op opA, Op opB, std::complex<float> alpha, const MatCF& A,
          const MatCF& B, std::complex<float> beta, MatCF& C) {
  gemm_impl(opA, opB, alpha, A, B, beta, C);
}

void gemv(Op opA, std::complex<double> alpha, const MatC& A,
          const std::complex<double>* x, std::complex<double> beta,
          std::complex<double>* y) {
  const int m = A.rows(), n = A.cols();
  if (opA == Op::kNone) {
    for (int i = 0; i < m; ++i) y[i] *= beta;
    for (int j = 0; j < n; ++j) {
      const std::complex<double> xj = alpha * x[j];
      const std::complex<double>* aj = A.col(j);
      for (int i = 0; i < m; ++i) y[i] += aj[i] * xj;
    }
  } else {
    assert(opA == Op::kConjTrans);
    for (int j = 0; j < n; ++j) {
      const std::complex<double>* aj = A.col(j);
      std::complex<double> acc{};
      for (int i = 0; i < m; ++i) acc += std::conj(aj[i]) * x[i];
      y[j] = beta * y[j] + alpha * acc;
    }
  }
}

MatC overlap(const MatC& A, const MatC& B) {
  MatC S(A.cols(), B.cols());
  gemm(Op::kConjTrans, Op::kNone, std::complex<double>(1.0), A, B,
       std::complex<double>(0.0), S);
  return S;
}

std::complex<double> zdotc(int n, const std::complex<double>* x,
                           const std::complex<double>* y) {
  // acc += conj(x[i]) * y[i] in real arithmetic, with std::complex's
  // operands and order (conj(x) = (xr, -xi)): same bits for finite data,
  // no NaN-recovery branch in the loop.
  const double* xp = reinterpret_cast<const double*>(x);
  const double* yp = reinterpret_cast<const double*>(y);
  double ar = 0, ai = 0;
  for (int i = 0; i < n; ++i) {
    const double xr = xp[2 * i], nxi = -xp[2 * i + 1];
    const double yr = yp[2 * i], yi = yp[2 * i + 1];
    ar += xr * yr - nxi * yi;
    ai += xr * yi + nxi * yr;
  }
  return {ar, ai};
}

double dznrm2(int n, const std::complex<double>* x) {
  double acc = 0;
  for (int i = 0; i < n; ++i) acc += std::norm(x[i]);
  return std::sqrt(acc);
}

void zaxpy(int n, std::complex<double> a, const std::complex<double>* x,
           std::complex<double>* y) {
  // y[i] += a * x[i] in real arithmetic, as zdotc above.
  const double* xp = reinterpret_cast<const double*>(x);
  double* yp = reinterpret_cast<double*>(y);
  const double ar = a.real(), ai = a.imag();
  for (int i = 0; i < n; ++i) {
    const double xr = xp[2 * i], xi = xp[2 * i + 1];
    yp[2 * i] += ar * xr - ai * xi;
    yp[2 * i + 1] += ar * xi + ai * xr;
  }
}

void zscal(int n, std::complex<double> a, std::complex<double>* x) {
  for (int i = 0; i < n; ++i) x[i] *= a;
}

std::complex<float> cdotc(int n, const std::complex<float>* x,
                          const std::complex<float>* y) {
  // Accumulate in double, round once (see blas.h).
  std::complex<double> acc{};
  for (int i = 0; i < n; ++i)
    acc += std::conj(std::complex<double>(x[i])) * std::complex<double>(y[i]);
  return std::complex<float>(acc);
}

float scnrm2(int n, const std::complex<float>* x) {
  double acc = 0;
  for (int i = 0; i < n; ++i) acc += std::norm(std::complex<double>(x[i]));
  return static_cast<float>(std::sqrt(acc));
}

void caxpy(int n, std::complex<float> a, const std::complex<float>* x,
           std::complex<float>* y) {
  for (int i = 0; i < n; ++i) y[i] += a * x[i];
}

void cscal(int n, std::complex<float> a, std::complex<float>* x) {
  for (int i = 0; i < n; ++i) x[i] *= a;
}

}  // namespace ls3df
