// Iterative eigensolvers for the fragment Schroedinger equation.
//
// The paper's Sec. IV optimization study compares two schemes:
//  - solve_all_band_batched: the blocked Davidson working on all
//    wavefunctions simultaneously; orthogonalization via overlap matrix +
//    Cholesky and nonlocal projection via BLAS-3 (the optimized PEtot_F).
//    It is the one all-band body: LS3DF fragment batches, the direct SCF
//    (dft/scf) and single-Hamiltonian solves all run it, the latter two
//    as one-member batches.
//  - solve_band_by_band: conjugate gradient one band at a time with
//    Gram-Schmidt orthogonalization against lower bands (the original
//    PEtot scheme; BLAS-2 dominated), kept as the paper's baseline.
// Both use the Teter-Payne-Allan kinetic preconditioner standard in
// planewave codes [Payne et al., Rev. Mod. Phys. 64, 1045 (1992)].
//
// == Batched fragment eigensolves (architecture) ==
//
// LS3DF's runtime is dominated by thousands of *small* fragment solves
// whose BLAS-3 calls and FFTs are individually too skinny to saturate the
// kernels. Fragments in the same size class share identical (ng, nb)
// shapes, so solve_all_band_batched() runs K of them in lockstep:
//
//   one batched H application      Hamiltonian::apply_batched on the
//   per sweep, on the new          accepted corrections W of every
//   corrections only               member — each band scattered into a
//                                  contiguous grid stack, one G-sphere-
//                                  pruned inverse/forward many-transform
//                                  sweep (Fft3D::forward_many), one fused
//                                  nonlocal GEMM grid (gemm_batched);
//   K small Rayleigh-Ritz solves   subspace G = V^H HV and the Ritz
//                                  rotations X = V Y, HX = HV Y run as
//                                  batched GEMMs; the dense eigh of each
//                                  (<= 2nb)^2 subspace matrix stays per
//                                  member, arena-backed, back-transforming
//                                  only the nb vectors Y keeps
//                                  (eigh_lowest);
//   per-member scalar steps        residuals, TPA preconditioning and
//                                  search-space expansion fan out over
//                                  members.
//
// The next search space is V = [X | W], and X's H-image is the HX the
// Ritz rotation has just formed, so HV = [HX | H W] costs one apply of
// the corrections alone, at most nb columns per sweep. Each call starts
// with one full apply of the orthonormalized guess, so it begins from an
// exact H psi; after that HX carries the rounding of its GEMMs from
// sweep to sweep. That drift is measured, not refreshed:
// at convergence the reported max_residual matches a fresh
// |H psi - eps psi| within the bounds of test_eigensolver's
// BatchedSolver.ReportedResidualMatchesFreshApply (1e-6 relative in
// fp64, 1% in fp32).
//
// Members converge independently: a converged member drops out of the
// lockstep batch and the remaining members keep iterating, so every
// member executes exactly the arithmetic of its own one-member batch —
// results are invariant under batch width and worker count (bit for
// bit); batching only changes scheduling and cache behaviour.
//
// This driver is also the seam a GPU backend slots into: the contiguous
// grid stack, the fused GEMM work grid, and the per-batch workspace
// arenas are exactly the units a device stream wants, while the
// per-member scalar steps stay on the host. Porting apply_batched and
// gemm_batched moves the dominant cost to the device without touching
// the batch scheduler or the SCF loop.
//
// == Live lane width (donation) ==
//
// The batched driver takes an optional live_lanes callback. When set, it
// re-reads it at every sweep boundary (each batched apply, each
// batched GEMM, each per-member fan-out) and uses the returned width for
// that sweep instead of the fixed n_workers it was launched with. The
// LS3DF engine points this at LaneBudget::allowance(): as sibling chains
// of the same dispatch round retire, their worker lanes are donated and
// the still-running solves widen mid-flight. Every batched kernel is
// worker-count-invariant by construction, so a donated width change can
// never alter results — the bit-identity contract holds for any donated
// width (tests/test_equivalence.cpp draws worker and batch widths).
//
// == Mixed precision (one template, two instantiations) ==
//
// solve_all_band_batched<Real> is one lockstep Davidson body instantiated
// for double (the reference) and float (the mixed-precision path): Ritz
// blocks in the EigenWorkspace's Real slots, Hamiltonian::apply_batched
// <Real> for the applications (single-precision FFT plans and GEMM cores
// for float) and Real batched GEMMs for the Rayleigh-Ritz projections.
// Three `if constexpr` points are float-only; they keep it stable:
//   - the fp32 slots are reserved beside the double ones, and the
//     starting orthonormalization runs in double, then rounds once into
//     the fp32 block (no float Cholesky needed);
//   - the tiny subspace matrix G is promoted to double for the dense
//     eigh (free next to the fp32 GEMMs, keeps the rotation
//     well-conditioned), and the rotation Y rounded back to fp32;
//   - the residual tolerance is floored at 2e-5 — fp32 cannot resolve
//     tighter residuals, so the solver must not chase them.
// The promotion policy lives in the LS3DF engine (fragment/ls3df.h,
// Ls3dfOptions::precision): early outer SCF iterations run the float
// instantiation while the mixer's L1 residual is above promote_factor *
// l1_tol, then every later iteration runs the double one, which erases
// the fp32 rounding history (the converged fixed point is the fp64 one).
// The float path is NOT bit-identical to the reference; its own bits are
// pinned by the kMixed golden cases (tests/golden_refs.h) and its
// accuracy by trajectory checks (tests/test_mixed_precision.cpp). It is
// off by default.
#pragma once

#include <deque>
#include <functional>
#include <tuple>
#include <vector>

#include "dft/hamiltonian.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"

namespace ls3df {

struct EigensolverOptions {
  int max_iterations = 25;     // outer iterations (all-band) or CG steps/band
  double residual_tol = 1e-7;  // max |H psi - eps psi| to declare converged
  bool precondition = true;
};

struct EigensolverResult {
  std::vector<double> eigenvalues;  // ascending, one per band
  int iterations = 0;
  double max_residual = 0.0;
  bool converged = false;
};

// Reusable scratch arena for the block temporaries of the iterative
// solvers. One arena per persistent worker lane: buffers grow to the
// largest fragment the lane ever solves and are then reused across
// fragments and outer SCF iterations with zero further heap traffic.
// allocations() counts capacity-growth events, which is the probe the
// LS3DF determinism test uses to verify the steady state allocates
// nothing.
//
// An arena carries no state between solves — every slot is fully
// overwritten before it is read — so results are independent of which
// lane (and therefore which arena) a fragment lands on.
class EigenWorkspace {
 public:
  static constexpr int kMatSlots = 10;  // kV..kY in eigensolver.cpp
  static constexpr int kVecSlots = 5;  // kHpsi..kPrevDir

  // Slot `slot` of the Real-precision block arena resized to rows x cols
  // (values unspecified). Storage is reused; an allocation is counted
  // only when the element count exceeds the slot's previous peak (when
  // the underlying vector really grows). The float slots back
  // solve_all_band_batched<float> and stay empty until the mixed-
  // precision path first touches the lane, so fp64-only runs pay nothing.
  template <typename Real = double>
  Matrix<std::complex<Real>>& mat(int slot, int rows, int cols);
  // Same for contiguous complex vectors.
  std::vector<std::complex<double>>& vec(int slot, int n);

  // Scratch arena for the dense eigh/cholesky calls of the Rayleigh-Ritz
  // loop (linalg/eigen.h), owned by the same lane as the block slots so
  // the whole solve allocates nothing in the steady state.
  EigenScratch& scratch() { return scratch_; }

  // Grow every slot to the extents a fragment of (ng, nb) can ever need,
  // so solves of any fragment at or below those extents never allocate.
  // block additionally reserves the double block-solver matrix slots
  // (the band-by-band solver only uses the vector slots).
  void reserve(int ng, int nb, bool block = true);
  // Same for the Real-precision block-solver matrix slots alone: the
  // search space V and its H-image HV (ng x min(2nb, ng)); the Ritz block
  // X, HX, residuals R and corrections T (ng x nb); the apply block W and
  // its image HW (ng x nb: the starting guess once, then at most nb
  // accepted corrections per sweep); the subspace matrix G and the Ritz
  // rotation Y.
  template <typename Real>
  void reserve_mats(int ng, int nb);

  long allocations() const { return allocs_ + scratch_.allocations(); }

 private:
  template <typename Real>
  struct MatSlots {
    Matrix<std::complex<Real>> mats[kMatSlots];
    std::size_t peak[kMatSlots] = {};
  };

  std::tuple<MatSlots<double>, MatSlots<float>> mats_;
  std::vector<std::complex<double>> vecs_[kVecSlots];
  std::size_t vec_peak_[kVecSlots] = {};
  EigenScratch scratch_;
  long allocs_ = 0;
};

// Workspace set of a fragment batch: one EigenWorkspace per member plus
// the apply-stack arena. One BatchWorkspace per scheduled batch,
// persistent across outer SCF iterations (batch composition is fixed by
// the size-class grouping, so slots reach their peak in the first
// iteration and are reused ever after).
class BatchWorkspace {
 public:
  EigenWorkspace& member(int i);
  ApplyBatchWorkspace& apply() { return apply_; }

  // Capacity-growth events across every member arena and the apply stack.
  long allocations() const;

  // Dispatch-control scratch hoisted out of the lockstep driver: per
  // precision, the batched-apply item list and the three Rayleigh-Ritz
  // GEMM item lists; and the active/still member index sets. A fresh
  // heap allocation per sweep would keep the steady-state allocation
  // probes from going flat; these are grow-only instead, and capacity
  // growth folds into allocations() once per solve via
  // note_dispatch_capacity().
  template <typename Real>
  struct DispatchLists {
    std::vector<Hamiltonian::ApplyItemT<Real>> apply_items;
    std::vector<GemmBatchItemT<Real>> g_items, x_items, hx_items;
  };
  template <typename Real>
  DispatchLists<Real>& lists() {
    return std::get<DispatchLists<Real>>(lists_);
  }
  std::vector<int> active, still;

  // Grow-only byte arena for the driver's per-member bookkeeping table
  // (a trivially-destructible internal struct; sized bytes, aligned for
  // any object type by the underlying allocator).
  void* member_table(std::size_t bytes);
  void note_dispatch_capacity();

 private:
  std::deque<EigenWorkspace> members_;  // deque: stable member addresses
  ApplyBatchWorkspace apply_;
  std::tuple<DispatchLists<double>, DispatchLists<float>> lists_;
  std::vector<unsigned char> member_table_;
  std::size_t member_table_peak_ = 0;
  std::size_t dispatch_peak_ = 0;
  long allocs_ = 0;
};

// Orthonormalize the columns of X in place via S = X^H X, X <- X L^{-H}
// (BLAS-3; the paper's overlap-matrix scheme). Falls back to Gram-Schmidt
// if S is numerically singular.
void orthonormalize_cholesky(MatC& X);
// Arena-backed variant (identical arithmetic; S and L live in the
// scratch, so steady-state calls allocate nothing).
void orthonormalize_cholesky(MatC& X, EigenScratch& ws);

// Classic modified Gram-Schmidt, one column at a time (BLAS-1/2; the
// original band-by-band scheme).
void orthonormalize_gram_schmidt(MatC& X);

// Rayleigh-Ritz within span(X): rotates X (and optionally HX) to
// approximate eigenvectors, returns subspace eigenvalues ascending.
std::vector<double> subspace_rotate(const Hamiltonian& h, MatC& X);

// One member of a batched fragment solve.
struct FragmentSolve {
  const Hamiltonian* h = nullptr;
  MatC* psi = nullptr;  // initial guess in, eigenvector approximations out
};

// Blocked Davidson with TPA preconditioning, run for every member in
// lockstep (see the architecture block above). Each psi holds its
// member's initial guess (columns need not be orthonormal) and is
// replaced by the lowest psi.cols() eigenvector approximations; all block
// temporaries live in (and persist through) the caller's workspace. All
// members must share the FFT grid shape (same size class). live_lanes,
// when set, is re-read at every sweep boundary and overrides n_workers
// for that sweep (the lane-donation hook; see the architecture block).
//
// Real = double: results[i] is bit-identical to the one-member batch
// {frags[i]} for any batch width, n_workers, and live_lanes schedule.
// Real = float (the mixed-precision path; see the architecture block):
// takes the same double-precision psi blocks — the guess is
// orthonormalized in double, rounded once into the fp32 slots, iterated
// in fp32, and the result rounded back into psi. NOT bit-identical to
// the double instantiation: the effective residual tolerance is floored
// at 2e-5 and eigenvalues carry fp32 subspace accuracy. Its results are
// still invariant under batch width, n_workers and live_lanes.
template <typename Real = double>
std::vector<EigensolverResult> solve_all_band_batched(
    const std::vector<FragmentSolve>& frags, const EigensolverOptions& opt,
    BatchWorkspace& ws, int n_workers = 1,
    const std::function<int()>& live_lanes = {});

// Two per-member scalar steps of the Davidson sweep, shared with the
// folded spectrum method (dft/fsm), which runs the same block iteration
// on (H - eps_ref)^2.
//
// Residuals R = HX - X diag(evals); returns the max column norm.
template <typename Real>
double residual_block(const Matrix<std::complex<Real>>& X,
                      const Matrix<std::complex<Real>>& HX,
                      const std::vector<double>& evals,
                      Matrix<std::complex<Real>>& R);
// New search space [X | accepted corrections] in Vn: corrections are
// Gram-Schmidt-appended one at a time (two projection passes);
// (numerically) dependent columns are dropped, and the total is capped at
// Vn.cols() (== min(2nb, ng)) so the subspace can never exceed the full
// basis (small fragments can have very few plane waves). Returns the
// accepted column count; T is consumed. The dependence threshold scales
// with the precision: 1e-8 for double, 1e-4 for float (a float
// correction with a smaller surviving norm is rounding noise, not a
// direction).
template <typename Real>
int expand_search_space(const Matrix<std::complex<Real>>& X,
                        Matrix<std::complex<Real>>& T,
                        Matrix<std::complex<Real>>& Vn);

// Band-by-band preconditioned CG.
EigensolverResult solve_band_by_band(const Hamiltonian& h, MatC& psi,
                                     const EigensolverOptions& opt,
                                     EigenWorkspace& ws);
EigensolverResult solve_band_by_band(const Hamiltonian& h, MatC& psi,
                                     const EigensolverOptions& opt = {});

// Random (reproducible) plane-wave coefficients damped at high kinetic
// energy: the standard starting guess.
MatC random_wavefunctions(const GVectors& basis, int n_bands,
                          std::uint64_t seed);

}  // namespace ls3df
