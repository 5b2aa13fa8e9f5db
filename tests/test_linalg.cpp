// Linear algebra tests: gemm/gemv against reference implementations,
// Hermitian eigensolver invariants, Cholesky-based orthonormalization (the
// all-band overlap-matrix scheme from Sec. IV), linear solves, and the
// Levenberg-Marquardt fitter on the Amdahl model used in Sec. VI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/eigen.h"
#include "linalg/lstsq.h"
#include "linalg/matrix.h"

namespace ls3df {
namespace {

using cd = std::complex<double>;

MatC random_matc(int m, int n, std::uint64_t seed) {
  Rng rng(seed);
  MatC A(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      A(i, j) = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return A;
}

MatR random_matr(int m, int n, std::uint64_t seed) {
  Rng rng(seed);
  MatR A(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) A(i, j) = rng.uniform(-1, 1);
  return A;
}

MatC hermitian_from(const MatC& B) {
  const int n = B.rows();
  MatC H(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) H(i, j) = 0.5 * (B(i, j) + std::conj(B(j, i)));
  return H;
}

cd ref_entry(Op opA, const MatC& A, int i, int j) {
  if (opA == Op::kNone) return A(i, j);
  if (opA == Op::kTrans) return A(j, i);
  return std::conj(A(j, i));
}

MatC ref_gemm(Op opA, Op opB, cd alpha, const MatC& A, const MatC& B, cd beta,
              MatC C) {
  const int m = C.rows(), n = C.cols();
  const int k = (opA == Op::kNone) ? A.cols() : A.rows();
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      cd acc(0, 0);
      for (int l = 0; l < k; ++l)
        acc += ref_entry(opA, A, i, l) * ref_entry(opB, B, l, j);
      C(i, j) = alpha * acc + beta * C(i, j);
    }
  return C;
}

double frob_diff(const MatC& A, const MatC& B) {
  double s = 0;
  for (int j = 0; j < A.cols(); ++j)
    for (int i = 0; i < A.rows(); ++i) s += std::norm(A(i, j) - B(i, j));
  return std::sqrt(s);
}

struct GemmCase {
  Op opA, opB;
  int m, n, k;
};

class GemmOps : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmOps, MatchesReference) {
  const auto& c = GetParam();
  const MatC A = (c.opA == Op::kNone) ? random_matc(c.m, c.k, 1)
                                      : random_matc(c.k, c.m, 1);
  const MatC B = (c.opB == Op::kNone) ? random_matc(c.k, c.n, 2)
                                      : random_matc(c.n, c.k, 2);
  MatC C = random_matc(c.m, c.n, 3);
  const cd alpha(1.3, -0.2), beta(0.4, 0.9);
  MatC expected = ref_gemm(c.opA, c.opB, alpha, A, B, beta, C);
  gemm(c.opA, c.opB, alpha, A, B, beta, C);
  EXPECT_LT(frob_diff(C, expected), 1e-11 * c.m * c.n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmOps,
    ::testing::Values(GemmCase{Op::kNone, Op::kNone, 5, 7, 3},
                      GemmCase{Op::kNone, Op::kNone, 16, 16, 16},
                      GemmCase{Op::kNone, Op::kNone, 1, 1, 1},
                      GemmCase{Op::kConjTrans, Op::kNone, 4, 6, 9},
                      GemmCase{Op::kConjTrans, Op::kNone, 8, 8, 32},
                      GemmCase{Op::kTrans, Op::kNone, 5, 5, 5},
                      GemmCase{Op::kNone, Op::kConjTrans, 6, 4, 7},
                      GemmCase{Op::kNone, Op::kTrans, 3, 8, 2},
                      GemmCase{Op::kConjTrans, Op::kConjTrans, 4, 4, 4},
                      GemmCase{Op::kTrans, Op::kTrans, 7, 3, 5}));

TEST(Gemm, BetaZeroOverwritesNanFree) {
  // beta = 0 must not propagate garbage from uninitialized C.
  MatC A = random_matc(3, 4, 10), B = random_matc(4, 2, 11);
  MatC C(3, 2);
  C(0, 0) = cd(1e300, -1e300);
  gemm(Op::kNone, Op::kNone, cd(1, 0), A, B, cd(0, 0), C);
  MatC expected = ref_gemm(Op::kNone, Op::kNone, cd(1, 0), A, B, cd(0, 0),
                           MatC(3, 2));
  EXPECT_LT(frob_diff(C, expected), 1e-12);
}

TEST(Gemm, RealMatchesComplex) {
  MatR A = random_matr(6, 5, 20), B = random_matr(5, 4, 21);
  MatR C(6, 4);
  gemm(Op::kNone, Op::kNone, 2.0, A, B, 0.0, C);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 6; ++i) {
      double acc = 0;
      for (int l = 0; l < 5; ++l) acc += A(i, l) * B(l, j);
      EXPECT_NEAR(C(i, j), 2.0 * acc, 1e-12);
    }
}

TEST(GemmBatched, BitIdenticalToLoopedGemm) {
  // The batched-solve contract: fusing products into one sweep must not
  // change a single bit relative to member-by-member gemm() calls, for
  // any worker count. Shapes mix tall-skinny (the fragment overlap
  // shape), odd column counts (exercise the pairing remainder) and
  // per-member differences (the nonlocal path).
  struct Shape {
    int m, n, k;
  };
  const std::vector<Shape> shapes{{150, 17, 64}, {150, 32, 64}, {96, 5, 33}};
  for (Op opA : {Op::kConjTrans, Op::kNone}) {
    std::vector<MatC> As, Bs, Cb, Cl;
    for (std::size_t t = 0; t < shapes.size(); ++t) {
      const auto [m, n, k] = shapes[t];
      // op(A) is m x k: for kConjTrans store A as k x m.
      As.push_back(random_matc(opA == Op::kNone ? m : k,
                               opA == Op::kNone ? k : m, 11 + t));
      Bs.push_back(random_matc(k, n, 50 + t));
      Cb.push_back(random_matc(m, n, 90 + t));
      Cl.push_back(Cb.back());
    }
    for (const cd beta : {cd(0, 0), cd(1, 0), cd(0.5, -0.25)}) {
      for (int workers : {1, 4}) {
        std::vector<MatC> cb = Cb, cl = Cl;
        std::vector<GemmBatchItem> items;
        for (std::size_t t = 0; t < shapes.size(); ++t)
          items.push_back({&As[t], &Bs[t], &cb[t]});
        gemm_batched(opA, Op::kNone, cd(0.7, 0.3), items, beta, workers);
        for (std::size_t t = 0; t < shapes.size(); ++t)
          gemm(opA, Op::kNone, cd(0.7, 0.3), As[t], Bs[t], beta, cl[t]);
        for (std::size_t t = 0; t < shapes.size(); ++t)
          for (int j = 0; j < cb[t].cols(); ++j)
            for (int i = 0; i < cb[t].rows(); ++i)
              ASSERT_EQ(cb[t](i, j), cl[t](i, j))
                  << "item " << t << " (" << i << "," << j << ") opA="
                  << static_cast<int>(opA) << " workers=" << workers;
      }
    }
  }
}

TEST(GemmBatched, WideMatrixCrossesTileBoundaries) {
  // More columns than one 32-column tile: the tile grid must reproduce
  // the full-range kernel exactly across tile seams.
  MatC A = random_matc(64, 80, 3);
  MatC B = random_matc(64, 80, 4);
  MatC Cb(80, 80), Cl(80, 80);
  std::vector<GemmBatchItem> items{{&A, &B, &Cb}};
  gemm_batched(Op::kConjTrans, Op::kNone, cd(1, 0), items, cd(0, 0), 4);
  gemm(Op::kConjTrans, Op::kNone, cd(1, 0), A, B, cd(0, 0), Cl);
  for (int j = 0; j < 80; ++j)
    for (int i = 0; i < 80; ++i) ASSERT_EQ(Cb(i, j), Cl(i, j));
}

TEST(EighArena, MatchesAllocatingEigh) {
  EigenScratch ws;
  for (int n : {1, 2, 5, 16}) {
    MatC A = random_matc(n, n, 7 * n);
    // Hermitize.
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < j; ++i) A(i, j) = std::conj(A(j, i));
    EighResult ref = eigh(A);
    EighView arena = eigh(A, ws);
    ASSERT_EQ(static_cast<int>(arena.eigenvalues->size()), n);
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ((*arena.eigenvalues)[j], ref.eigenvalues[j]) << n;
      for (int i = 0; i < n; ++i)
        ASSERT_EQ((*arena.eigenvectors)(i, j), ref.eigenvectors(i, j)) << n;
    }
  }
}

TEST(EighArena, LowestKBitIdenticalToFullEigh) {
  // eigh_lowest back-transforms and phase-fixes only k eigenvectors; each
  // one's arithmetic does not depend on the others, so the n x k block
  // must be byte for byte the first k columns of the full eigh, and the
  // eigenvalues all n of them.
  EigenScratch ws;
  for (int n : {1, 2, 5, 16, 33, 48}) {
    const MatC A = hermitian_from(random_matc(n, n, 11 * n));
    const EighResult full = eigh(A);
    for (int k : {0, 1, n / 2, n}) {
      const EighView low = eigh_lowest(A, k, ws);
      ASSERT_EQ(static_cast<int>(low.eigenvalues->size()), n);
      ASSERT_EQ(low.eigenvectors->rows(), n);
      ASSERT_EQ(low.eigenvectors->cols(), k);
      EXPECT_EQ(std::memcmp(low.eigenvalues->data(), full.eigenvalues.data(),
                            sizeof(double) * n),
                0)
          << "n=" << n << " k=" << k;
      EXPECT_EQ(std::memcmp(low.eigenvectors->data(),
                            full.eigenvectors.data(), sizeof(cd) * n * k),
                0)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(EighArena, SteadyStateAllocatesNothing) {
  EigenScratch ws;
  ws.reserve(16);
  const long after_reserve = ws.allocations();
  EXPECT_GT(after_reserve, 0);
  for (int rep = 0; rep < 4; ++rep)
    for (int n : {16, 8, 3}) {
      MatC A = random_matc(n, n, 100 + n);
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < j; ++i) A(i, j) = std::conj(A(j, i));
      eigh(A, ws);
      eigh_lowest(A, n / 2, ws);
    }
  EXPECT_EQ(ws.allocations(), after_reserve);
}

TEST(CholeskyArena, MatchesAllocatingCholesky) {
  MatC X = random_matc(40, 6, 17);
  MatC S = overlap(X, X);
  MatC ref = cholesky(S);
  MatC L;
  cholesky(S, L);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 6; ++i) ASSERT_EQ(L(i, j), ref(i, j));
  MatC bad(2, 2);
  bad(0, 0) = 1.0;
  bad(1, 1) = -1.0;
  EXPECT_THROW(cholesky(bad, L), std::runtime_error);
}

TEST(Gemv, MatchesGemm) {
  const int m = 9, n = 6;
  MatC A = random_matc(m, n, 30);
  MatC x = random_matc(n, 1, 31);
  MatC y = random_matc(m, 1, 32);
  MatC y_ref = y;
  const cd alpha(0.7, 0.1), beta(-0.3, 0.5);
  gemm(Op::kNone, Op::kNone, alpha, A, x, beta, y_ref);
  gemv(Op::kNone, alpha, A, x.col(0), beta, y.col(0));
  EXPECT_LT(frob_diff(y, y_ref), 1e-12);
}

TEST(Gemv, ConjTransMatchesGemm) {
  const int m = 9, n = 6;
  MatC A = random_matc(m, n, 40);
  MatC x = random_matc(m, 1, 41);
  MatC y = random_matc(n, 1, 42);
  MatC y_ref = y;
  const cd alpha(1.0, -1.0), beta(0.25, 0.0);
  gemm(Op::kConjTrans, Op::kNone, alpha, A, x, beta, y_ref);
  gemv(Op::kConjTrans, alpha, A, x.col(0), beta, y.col(0));
  EXPECT_LT(frob_diff(y, y_ref), 1e-12);
}

TEST(Overlap, IsHermitianForSelfOverlap) {
  MatC X = random_matc(20, 6, 50);
  MatC S = overlap(X, X);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 6; ++i)
      EXPECT_LT(std::abs(S(i, j) - std::conj(S(j, i))), 1e-12);
  for (int i = 0; i < 6; ++i) EXPECT_GT(S(i, i).real(), 0.0);
}

TEST(Level1, DotNormAxpyScal) {
  const int n = 17;
  MatC x = random_matc(n, 1, 60), y = random_matc(n, 1, 61);
  const cd d = zdotc(n, x.col(0), y.col(0));
  cd ref(0, 0);
  for (int i = 0; i < n; ++i) ref += std::conj(x(i, 0)) * y(i, 0);
  EXPECT_LT(std::abs(d - ref), 1e-12);

  EXPECT_NEAR(dznrm2(n, x.col(0)),
              std::sqrt(zdotc(n, x.col(0), x.col(0)).real()), 1e-12);

  MatC y2 = y;
  zaxpy(n, cd(2, -1), x.col(0), y2.col(0));
  for (int i = 0; i < n; ++i)
    EXPECT_LT(std::abs(y2(i, 0) - (y(i, 0) + cd(2, -1) * x(i, 0))), 1e-13);

  zscal(n, cd(0.5, 0.5), y2.col(0));
  // Just check magnitude scaling of first element against manual compute.
  EXPECT_LT(std::abs(y2(0, 0) -
                     cd(0.5, 0.5) * (y(0, 0) + cd(2, -1) * x(0, 0))),
            1e-13);
}

class EighSizes : public ::testing::TestWithParam<int> {};

TEST_P(EighSizes, ReconstructsMatrix) {
  const int n = GetParam();
  MatC H = hermitian_from(random_matc(n, n, 70 + n));
  EighResult r = eigh(H);
  // A = V diag(w) V^H.
  MatC VD(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      VD(i, j) = r.eigenvectors(i, j) * r.eigenvalues[j];
  MatC A(n, n);
  gemm(Op::kNone, Op::kConjTrans, cd(1, 0), VD, r.eigenvectors, cd(0, 0), A);
  EXPECT_LT(frob_diff(A, H), 1e-10 * n);
}

TEST_P(EighSizes, EigenvectorsOrthonormal) {
  const int n = GetParam();
  MatC H = hermitian_from(random_matc(n, n, 170 + n));
  EighResult r = eigh(H);
  MatC S = overlap(r.eigenvectors, r.eigenvectors);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      const double expected = (i == j) ? 1.0 : 0.0;
      EXPECT_LT(std::abs(S(i, j) - cd(expected, 0)), 1e-11) << i << "," << j;
    }
}

TEST_P(EighSizes, EigenvaluesAscending) {
  const int n = GetParam();
  MatC H = hermitian_from(random_matc(n, n, 270 + n));
  EighResult r = eigh(H);
  for (int i = 1; i < n; ++i)
    EXPECT_LE(r.eigenvalues[i - 1], r.eigenvalues[i] + 1e-14);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighSizes, ::testing::Values(1, 2, 3, 5, 8,
                                                             13, 21, 40));

// Test-only oracle: a cyclic Jacobi eigensolver written with
// std::complex expressions, rotated to a 1e-14 off-diagonal threshold;
// an algorithm independent of the library's Householder + QL eigh.
EighResult eigh_complex_oracle(const MatC& A) {
  const int n = A.rows();
  MatC M(n, n), V = MatC::identity(n);
  for (int j = 0; j < n; ++j) {
    M(j, j) = cd(A(j, j).real(), 0.0);
    for (int i = j + 1; i < n; ++i) {
      M(i, j) = A(i, j);
      M(j, i) = std::conj(A(i, j));
    }
  }
  auto off_norm = [&]() {
    double s = 0;
    for (int j = 0; j < n; ++j)
      for (int i = j + 1; i < n; ++i) s += std::norm(M(i, j));
    return std::sqrt(2.0 * s);
  };
  double scale = 0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) scale = std::max(scale, std::abs(M(i, j)));
  const double tol = 1e-14 * std::max(scale, 1.0);
  for (int sweep = 0; sweep < 60 && off_norm() > tol * n; ++sweep) {
    for (int p = 0; p < n - 1; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const cd apq = M(p, q);
        if (std::abs(apq) <= tol * 1e-2) continue;
        const double app = M(p, p).real(), aqq = M(q, q).real();
        const double absapq = std::abs(apq);
        const cd phase = apq / absapq;
        const double tau = (aqq - app) / (2.0 * absapq);
        const double t = (tau >= 0 ? 1.0 : -1.0) /
                         (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const cd s = phase * (t * c);
        for (int k = 0; k < n; ++k) {
          const cd mkp = M(k, p), mkq = M(k, q);
          M(k, p) = c * mkp - std::conj(s) * mkq;
          M(k, q) = s * mkp + c * mkq;
        }
        for (int k = 0; k < n; ++k) {
          const cd mpk = M(p, k), mqk = M(q, k);
          M(p, k) = c * mpk - s * mqk;
          M(q, k) = std::conj(s) * mpk + c * mqk;
        }
        for (int k = 0; k < n; ++k) {
          const cd vkp = V(k, p), vkq = V(k, q);
          V(k, p) = c * vkp - std::conj(s) * vkq;
          V(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return M(a, a).real() < M(b, b).real(); });
  EighResult r;
  r.eigenvalues.resize(n);
  r.eigenvectors.resize(n, n);
  for (int j = 0; j < n; ++j) {
    r.eigenvalues[j] = M(order[j], order[j]).real();
    for (int i = 0; i < n; ++i) r.eigenvectors(i, j) = V(i, order[j]);
  }
  return r;
}

// Q diag(d) Q^H with Q the eigenvectors of a random Hermitian matrix.
MatC hermitian_with_spectrum(const std::vector<double>& d,
                             std::uint64_t seed) {
  const int n = static_cast<int>(d.size());
  const MatC Q = eigh(hermitian_from(random_matc(n, n, seed))).eigenvectors;
  MatC QD(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) QD(i, j) = Q(i, j) * d[j];
  MatC H(n, n);
  gemm(Op::kNone, Op::kConjTrans, cd(1, 0), QD, Q, cd(0, 0), H);
  return H;
}

double frob(const MatC& A) {
  double s = 0;
  for (std::size_t k = 0; k < A.size(); ++k) s += std::norm(A.data()[k]);
  return std::sqrt(s);
}

// V_c V_c^H over the columns [lo, hi) of V.
MatC projector(const MatC& V, int lo, int hi) {
  const int n = V.rows();
  MatC Vc(n, hi - lo);
  for (int j = lo; j < hi; ++j)
    std::copy(V.col(j), V.col(j) + n, Vc.col(j - lo));
  MatC P(n, n);
  gemm(Op::kNone, Op::kConjTrans, cd(1, 0), Vc, Vc, cd(0, 0), P);
  return P;
}

// eigh against the backward-error bounds of a stable Hermitian solver,
// with c n eps as the unit: ||AV - V Lambda|| / ||A|| and ||V^H V - I||
// within it, each eigenvalue within it times ||A|| of the Jacobi oracle,
// and each cluster's spectral projector (eigenvalues closer than 1e-6
// ||A|| share one; a degenerate eigenspace has no unique basis) within
// it times ||A|| over the cluster's distance to the rest of the spectrum.
// c = 8: the worst case here needs c = 3-4, mostly for the projectors,
// where the oracle's own 1e-14 rotation threshold counts too.
void expect_eigh_within_bounds(const MatC& H, const char* kind) {
  constexpr double kC = 8.0;
  const int n = H.rows();
  const double unit = kC * n * std::numeric_limits<double>::epsilon();
  const double norm_a = std::max(frob(H), 1e-300);
  const EighResult r = eigh(H);
  const EighResult ref = eigh_complex_oracle(H);
  ASSERT_EQ(static_cast<int>(r.eigenvalues.size()), n);

  MatC R(n, n);
  gemm(Op::kNone, Op::kNone, cd(1, 0), H, r.eigenvectors, cd(0, 0), R);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      R(i, j) -= r.eigenvectors(i, j) * r.eigenvalues[j];
  EXPECT_LE(frob(R) / norm_a, unit) << kind << " residual n = " << n;
  MatC S = overlap(r.eigenvectors, r.eigenvectors);
  for (int i = 0; i < n; ++i) S(i, i) -= 1.0;
  EXPECT_LE(frob(S), unit) << kind << " orthonormality n = " << n;

  for (int j = 0; j < n; ++j)
    EXPECT_LE(std::abs(r.eigenvalues[j] - ref.eigenvalues[j]),
              unit * norm_a)
        << kind << " eigenvalue " << j << " n = " << n;

  const std::vector<double>& w = ref.eigenvalues;
  for (int lo = 0, hi; lo < n; lo = hi) {
    for (hi = lo + 1; hi < n && w[hi] - w[hi - 1] < 1e-6 * norm_a; ++hi) {
    }
    double gap = HUGE_VAL;
    if (lo > 0) gap = std::min(gap, w[lo] - w[lo - 1]);
    if (hi < n) gap = std::min(gap, w[hi] - w[hi - 1]);
    if (gap == HUGE_VAL) continue;  // one cluster: the projector is I
    EXPECT_LE(frob_diff(projector(r.eigenvectors, lo, hi),
                        projector(ref.eigenvectors, lo, hi)),
              unit * norm_a / gap)
        << kind << " projector [" << lo << ", " << hi << ") n = " << n;
  }
}

TEST(Eigh, WithinBoundsOfComplexRotationOracle) {
  for (int n = 1; n <= 48; ++n) {
    expect_eigh_within_bounds(hermitian_from(random_matc(n, n, 900 + n)),
                              "random");
    Rng rng(1900 + n);
    std::vector<double> clustered(n), degenerate(n);
    for (int i = 0; i < n; ++i) {
      clustered[i] = (i % 3) + 1e-9 * rng.uniform(-1, 1);
      degenerate[i] = i < n / 2 ? -1.0 : 2.0;
    }
    expect_eigh_within_bounds(hermitian_with_spectrum(clustered, 2900 + n),
                              "clustered");
    expect_eigh_within_bounds(hermitian_with_spectrum(degenerate, 3900 + n),
                              "degenerate");
    MatC D(n, n);
    for (int i = 0; i < n; ++i) D(i, i) = rng.uniform(-2, 2);
    expect_eigh_within_bounds(D, "diagonal");
  }
}

// Each eigenvector's largest-magnitude component (lowest index on ties)
// is real and positive. So a real symmetric matrix gets real
// eigenvectors, a diagonal one the unit vectors, and re-phasing the
// basis (A -> D A D^H, D a diagonal unitary) re-phases the eigenvectors
// by D and nothing else.
TEST(Eigh, PhaseConvention) {
  const auto largest = [](const MatC& V, int j) {
    int kmax = 0;
    for (int k = 1; k < V.rows(); ++k)
      if (std::norm(V(k, j)) > std::norm(V(kmax, j))) kmax = k;
    return kmax;
  };
  for (int n : {1, 2, 3, 5, 16, 32, 48}) {
    const MatC A = hermitian_from(random_matc(n, n, 4900 + n));
    const EighResult r = eigh(A);
    for (int j = 0; j < n; ++j) {
      const cd top = r.eigenvectors(largest(r.eigenvectors, j), j);
      EXPECT_EQ(top.imag(), 0.0) << "n = " << n << " column " << j;
      EXPECT_GT(top.real(), 0.0) << "n = " << n << " column " << j;
    }

    Rng rng(5900 + n);
    std::vector<cd> phase(n);
    for (cd& p : phase) p = std::polar(1.0, rng.uniform(-M_PI, M_PI));
    MatC B(n, n);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        B(i, j) = phase[i] * A(i, j) * std::conj(phase[j]);
    const EighResult rb = eigh(B);
    for (int j = 0; j < n; ++j) {
      // D v_j, re-phased so its largest component is real and positive.
      const int k = largest(r.eigenvectors, j);
      const cd fix = std::conj(phase[k]);
      for (int i = 0; i < n; ++i)
        EXPECT_LT(std::abs(rb.eigenvectors(i, j) -
                           phase[i] * r.eigenvectors(i, j) * fix),
                  1e-10)
            << "n = " << n << " (" << i << ", " << j << ")";
    }

    MatC S(n, n);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) S(i, j) = A(i, j).real();
    const EighResult rs = eigh(S);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        EXPECT_EQ(rs.eigenvectors(i, j).imag(), 0.0) << "n = " << n;
  }

  MatC D(4, 4);
  const double diag[4] = {0.5, -1.0, 2.0, -3.0};
  for (int i = 0; i < 4; ++i) D(i, i) = diag[i];
  const EighResult rd = eigh(D);
  const int order[4] = {3, 1, 0, 2};
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(rd.eigenvalues[j], diag[order[j]]);
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(rd.eigenvectors(i, j), cd(i == order[j] ? 1.0 : 0.0, 0.0));
  }
}

TEST(Eigh, NonFiniteInputThrows) {
  for (double bad : {std::nan(""), HUGE_VAL}) {
    MatC A = hermitian_from(random_matc(6, 6, 77));
    A(3, 1) = bad;
    EXPECT_THROW(eigh(A), std::runtime_error);
  }
}

TEST(Eigh, DiagonalMatrix) {
  MatC H(3, 3);
  H(0, 0) = 3.0;
  H(1, 1) = -1.0;
  H(2, 2) = 2.0;
  EighResult r = eigh(H);
  EXPECT_NEAR(r.eigenvalues[0], -1.0, 1e-13);
  EXPECT_NEAR(r.eigenvalues[1], 2.0, 1e-13);
  EXPECT_NEAR(r.eigenvalues[2], 3.0, 1e-13);
}

TEST(Eigh, KnownTwoByTwo) {
  // [[2, i], [-i, 2]] has eigenvalues 1 and 3.
  MatC H(2, 2);
  H(0, 0) = 2.0;
  H(1, 1) = 2.0;
  H(0, 1) = cd(0, 1);
  H(1, 0) = cd(0, -1);
  EighResult r = eigh(H);
  EXPECT_NEAR(r.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 3.0, 1e-12);
}

TEST(Eigh, TraceAndDeterminantInvariants) {
  const int n = 10;
  MatC H = hermitian_from(random_matc(n, n, 99));
  EighResult r = eigh(H);
  double trace = 0;
  for (int i = 0; i < n; ++i) trace += H(i, i).real();
  double sum = 0;
  for (double w : r.eigenvalues) sum += w;
  EXPECT_NEAR(sum, trace, 1e-10);
}

TEST(Cholesky, ReconstructsAndOrthonormalizes) {
  // The all-band orthonormalization path: S = X^H X, L = chol(S),
  // X <- X L^{-H} must produce an orthonormal block.
  MatC X = random_matc(50, 8, 123);
  MatC S = overlap(X, X);
  MatC L = cholesky(S);
  // Check L L^H = S.
  MatC R(8, 8);
  gemm(Op::kNone, Op::kConjTrans, cd(1, 0), L, L, cd(0, 0), R);
  EXPECT_LT(frob_diff(R, S), 1e-10);

  trsm_right_lherm(L, X);
  MatC I = overlap(X, X);
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 8; ++i)
      EXPECT_LT(std::abs(I(i, j) - cd(i == j ? 1.0 : 0.0, 0.0)), 1e-10);
}

TEST(Cholesky, ThrowsOnIndefinite) {
  MatC A(2, 2);
  A(0, 0) = 1.0;
  A(1, 1) = -1.0;
  EXPECT_THROW(cholesky(A), std::runtime_error);
}

TEST(SolveLinear, KnownSystem) {
  MatR A(2, 2);
  A(0, 0) = 2; A(0, 1) = 1;
  A(1, 0) = 1; A(1, 1) = 3;
  auto x = solve_linear(A, {5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinear, NeedsPivoting) {
  MatR A(2, 2);
  A(0, 0) = 0; A(0, 1) = 1;
  A(1, 0) = 1; A(1, 1) = 0;
  auto x = solve_linear(A, {2, 7});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveLinear, ThrowsOnSingular) {
  MatR A(2, 2);
  A(0, 0) = 1; A(0, 1) = 2;
  A(1, 0) = 2; A(1, 1) = 4;
  EXPECT_THROW(solve_linear(A, {1, 2}), std::runtime_error);
}

TEST(SolveLinear, RandomSystemsResidualSmall) {
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 8;
    MatR A = random_matr(n, n, 300 + trial);
    for (int i = 0; i < n; ++i) A(i, i) += 3.0;  // keep well-conditioned
    Rng rng(400 + trial);
    std::vector<double> b(n);
    for (auto& v : b) v = rng.uniform(-1, 1);
    auto x = solve_linear(A, b);
    for (int i = 0; i < n; ++i) {
      double acc = 0;
      for (int j = 0; j < n; ++j) acc += A(i, j) * x[j];
      EXPECT_NEAR(acc, b[i], 1e-10);
    }
  }
}

TEST(Lstsq, RecoversExactSolutionForConsistentSystem) {
  MatR A = random_matr(20, 3, 500);
  std::vector<double> x_true = {1.5, -2.0, 0.75};
  std::vector<double> b(20, 0.0);
  for (int i = 0; i < 20; ++i)
    for (int j = 0; j < 3; ++j) b[i] += A(i, j) * x_true[j];
  auto x = lstsq(A, b);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(x[j], x_true[j], 1e-10);
}

TEST(Lstsq, LineFit) {
  // Fit y = 2x + 1 with noise-free data.
  MatR A(5, 2);
  std::vector<double> b(5);
  for (int i = 0; i < 5; ++i) {
    A(i, 0) = i;
    A(i, 1) = 1.0;
    b[i] = 2.0 * i + 1.0;
  }
  auto x = lstsq(A, b);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(LevenbergMarquardt, FitsExponential) {
  // y = a * exp(b x).
  auto model = [](const std::vector<double>& p, double x) {
    return p[0] * std::exp(p[1] * x);
  };
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    const double x = 0.1 * i;
    xs.push_back(x);
    ys.push_back(2.5 * std::exp(-1.3 * x));
  }
  auto fit = fit_levenberg_marquardt(model, xs, ys, {1.0, -0.5});
  EXPECT_NEAR(fit.params[0], 2.5, 1e-6);
  EXPECT_NEAR(fit.params[1], -1.3, 1e-6);
  EXPECT_LT(fit.rms_residual, 1e-8);
}

TEST(LevenbergMarquardt, FitsAmdahlModel) {
  // The paper's strong-scaling analysis: P(n) = Ps * n / (1 + (n-1) alpha),
  // fitted by least squares to (cores, Tflop/s) pairs. Generate synthetic
  // data from known (Ps, alpha) and recover them.
  const double Ps = 2.39e-3, alpha = 1.0 / 101000.0;  // Tflop/s per core
  auto model = [](const std::vector<double>& p, double n) {
    return p[0] * n / (1.0 + (n - 1.0) * p[1]);
  };
  std::vector<double> xs = {1080, 2160, 4320, 8640, 17280};
  std::vector<double> ys;
  for (double n : xs) ys.push_back(model({Ps, alpha}, n));
  auto fit = fit_levenberg_marquardt(model, xs, ys, {1e-3, 1e-4});
  EXPECT_NEAR(fit.params[0] / Ps, 1.0, 1e-4);
  EXPECT_NEAR(fit.params[1] / alpha, 1.0, 1e-2);
  EXPECT_LT(fit.mean_abs_rel_dev, 1e-6);
}

}  // namespace
}  // namespace ls3df
