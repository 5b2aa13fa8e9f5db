// Dense Hermitian eigensolver and Cholesky-based utilities. Sizes here
// are subspace dimensions (the Rayleigh-Ritz matrices of the Davidson
// solver, up to 2 nb <= ~100 rows). eigh() reduces A to a real symmetric
// tridiagonal by Householder reflectors (LAPACK zhetd2), diagonalizes
// that by implicit-shift QL and back-transforms the eigenvectors: about
// 19 n^3 real flops, with rounding errors of order n eps ||A||.
#pragma once

#include <complex>
#include <vector>

#include "linalg/matrix.h"

namespace ls3df {

struct EighResult {
  std::vector<double> eigenvalues;  // ascending
  MatC eigenvectors;                // columns; A * v_k = w_k * v_k
};

// Full eigendecomposition of a Hermitian matrix (only the lower triangle
// and the real part of the diagonal are read). Eigenvalues ascend, ties
// in a fixed order; each eigenvector's largest-magnitude component
// (lowest index on ties) is real and positive, so the vectors do not
// depend on the solver's sign or phase choices. Throws
// std::runtime_error if the QL iteration does not converge, as on a
// non-finite A.
EighResult eigh(const MatC& A);

// Grow-only scratch arena for the dense solvers below. The Rayleigh-Ritz
// loop of the iterative eigensolver calls eigh() every iteration on a
// subspace matrix of at most a few hundred rows; with an arena those
// calls allocate nothing once the arena has reached its peak — the last
// per-iteration heap source the fragment-workspace probe could not see.
// allocations() counts capacity-growth events exactly like
// EigenWorkspace so the two probes compose.
class EigenScratch {
 public:
  static constexpr int kSlots = 5;  // M, evecs, S, L, caller slot

  // Slot ids for the arena-backed entry points and their callers.
  static constexpr int kM = 0, kEvecs = 1, kS = 2, kL = 3, kA = 4;

  MatC& mat(int slot, int rows, int cols);
  MatR& rmat(int rows, int cols);  // eigh's real rotations
  std::vector<double>& dvec(int n);
  std::vector<int>& ivec(int n);

  // Grow every slot to the given subspace dimension so steady-state use
  // can never allocate (idempotent once grown).
  void reserve(int dim);

  long allocations() const { return allocs_; }

 private:
  MatC mats_[kSlots];
  std::size_t mat_peak_[kSlots] = {};
  MatR rmat_;
  std::size_t rmat_peak_ = 0;
  std::vector<double> dvec_;
  std::vector<int> ivec_;
  std::size_t dvec_peak_ = 0, ivec_peak_ = 0;
  long allocs_ = 0;
};

// Arena-backed eigendecomposition: identical arithmetic to eigh(), but
// every temporary and both outputs live in (and persist through) the
// caller's scratch arena. The returned views alias scratch storage and
// stay valid until the next arena-backed call on the same scratch.
struct EighView {
  const std::vector<double>* eigenvalues;  // ascending, n entries
  const MatC* eigenvectors;                // n x n, or n x k (eigh_lowest)
};
EighView eigh(const MatC& A, EigenScratch& ws);

// Arena-backed, with only the eigenvectors of the k lowest eigenvalues
// (0 <= k <= n): every eigenvalue, and the n x k block whose columns are
// bit-identical to the first k of eigh(). The reduction and the QL
// rotations still run on all n; the back-transform, about 8 n^2 real
// flops per vector, runs on the k alone. Rayleigh-Ritz takes the lowest
// nb of its 2 nb pairs this way.
EighView eigh_lowest(const MatC& A, int k, EigenScratch& ws);

// Cholesky factorization A = L * L^H of a Hermitian positive-definite
// matrix; returns lower-triangular L. Throws std::runtime_error if A is
// not (numerically) positive definite.
MatC cholesky(const MatC& A);

// Arena-backed variant: factors into caller-owned (typically
// scratch-resident) storage, allocating nothing once L has reached its
// peak extent. Same arithmetic and same not-positive-definite throw.
void cholesky(const MatC& A, MatC& L);

// Solve X * L^H = B in place (right triangular solve), i.e. replace B by
// B * L^{-H}. Used to orthonormalize a band block from its overlap matrix:
// given S = X^H X = L L^H, the block X L^{-H} is orthonormal.
void trsm_right_lherm(const MatC& L, MatC& B);

// Solve the small linear system A x = b by Gaussian elimination with
// partial pivoting (A is copied). Used by the least-squares and mixing
// machinery.
std::vector<double> solve_linear(MatR A, std::vector<double> b);

}  // namespace ls3df
