#include "dft/eigensolver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <new>
#include <numeric>
#include <type_traits>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/eigen.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace ls3df {

using cd = std::complex<double>;
using cf = std::complex<float>;

namespace {

// Level-1 shims dispatching on the element type, so the scalar Davidson
// steps below can be templated over the real type: the double overloads
// are the zdotc/dznrm2/zaxpy/zscal kernels every fp64 solver here calls,
// the float ones back the mixed-precision instantiation.
inline cd dotc(int n, const cd* x, const cd* y) { return zdotc(n, x, y); }
inline cf dotc(int n, const cf* x, const cf* y) { return cdotc(n, x, y); }
inline double nrm2(int n, const cd* x) { return dznrm2(n, x); }
inline double nrm2(int n, const cf* x) { return scnrm2(n, x); }
inline void axpy(int n, cd a, const cd* x, cd* y) { zaxpy(n, a, x, y); }
inline void axpy(int n, cf a, const cf* x, cf* y) { caxpy(n, a, x, y); }
inline void scal(int n, cd a, cd* x) { zscal(n, a, x); }
inline void scal(int n, cf a, cf* x) { cscal(n, a, x); }

// Teter-Payne-Allan preconditioner factor for x = (kinetic of G) / (band
// kinetic energy).
double tpa_factor(double x) {
  const double num = 27.0 + 18.0 * x + 12.0 * x * x + 8.0 * x * x * x;
  const double x4 = x * x * x * x;
  return num / (num + 16.0 * x4);
}

// Apply TPA preconditioner to a residual vector for a band with kinetic
// energy ekin. The factor is computed in double for either precision
// (it is a handful of scalar ops per G) and rounded into the output.
template <typename Real>
void precondition_tpa(const GVectors& basis, double ekin,
                      const std::complex<Real>* r, std::complex<Real>* out) {
  const double ek = std::max(ekin, 1e-6);
  for (int g = 0; g < basis.count(); ++g) {
    const double x = 0.5 * basis.g2(g) / ek;
    out[g] = Real(tpa_factor(x)) * r[g];
  }
}

template <typename Real>
double band_kinetic(const GVectors& basis, const std::complex<Real>* psi) {
  double e = 0;
  for (int g = 0; g < basis.count(); ++g)
    e += 0.5 * basis.g2(g) * static_cast<double>(std::norm(psi[g]));
  return e;
}

// Mat slots of the all-band solver (V/HV sized up to ng x 2nb, the rest
// ng x nb or smaller). W/HW carry the columns of one batched apply.
constexpr int kV = 0, kHV = 1, kX = 2, kHX = 3, kR = 4, kT = 5, kW = 6,
              kHW = 7, kG = 8, kY = 9;
// Vec slots of the band-by-band solver.
constexpr int kHpsi = 0, kRes = 1, kDir = 2, kHDir = 3, kPrevDir = 4;

}  // namespace

template <typename Real>
Matrix<std::complex<Real>>& EigenWorkspace::mat(int slot, int rows,
                                                int cols) {
  assert(slot >= 0 && slot < kMatSlots);
  MatSlots<Real>& slots = std::get<MatSlots<Real>>(mats_);
  const std::size_t need = static_cast<std::size_t>(rows) * cols;
  if (need > slots.peak[slot]) {
    slots.peak[slot] = need;
    ++allocs_;
  }
  // reshape, not resize: no zero-fill sweep — every slot is fully
  // written before it is read (which also keeps results independent of
  // the arena's history).
  slots.mats[slot].reshape(rows, cols);
  return slots.mats[slot];
}

template MatC& EigenWorkspace::mat<double>(int, int, int);
template MatCF& EigenWorkspace::mat<float>(int, int, int);

std::vector<std::complex<double>>& EigenWorkspace::vec(int slot, int n) {
  assert(slot >= 0 && slot < kVecSlots);
  if (static_cast<std::size_t>(n) > vec_peak_[slot]) {
    vec_peak_[slot] = n;
    ++allocs_;
  }
  vecs_[slot].resize(n);
  return vecs_[slot];
}

template <typename Real>
void EigenWorkspace::reserve_mats(int ng, int nb) {
  const int vmax = std::min(2 * nb, ng);
  mat<Real>(kV, ng, vmax);
  mat<Real>(kHV, ng, vmax);
  mat<Real>(kX, ng, nb);
  mat<Real>(kHX, ng, nb);
  mat<Real>(kR, ng, nb);
  mat<Real>(kT, ng, nb);
  // The apply block: nb columns for the starting H psi, at most
  // vmax - nb <= nb corrections per sweep after that.
  mat<Real>(kW, ng, nb);
  mat<Real>(kHW, ng, nb);
  mat<Real>(kG, vmax, vmax);
  mat<Real>(kY, vmax, nb);
}

template void EigenWorkspace::reserve_mats<double>(int, int);
template void EigenWorkspace::reserve_mats<float>(int, int);

void EigenWorkspace::reserve(int ng, int nb, bool block) {
  if (block) reserve_mats<double>(ng, nb);
  for (int s = 0; s < kVecSlots; ++s) vec(s, ng);
  scratch_.reserve(block ? std::max(std::min(2 * nb, ng), 2) : 2);
}

EigenWorkspace& BatchWorkspace::member(int i) {
  assert(i >= 0);
  while (static_cast<int>(members_.size()) <= i) members_.emplace_back();
  return members_[i];
}

long BatchWorkspace::allocations() const {
  long total = apply_.allocations() + allocs_;
  for (const EigenWorkspace& ws : members_) total += ws.allocations();
  return total;
}

void* BatchWorkspace::member_table(std::size_t bytes) {
  if (bytes > member_table_peak_) {
    member_table_peak_ = bytes;
    ++allocs_;
    member_table_.resize(bytes);
  }
  return member_table_.data();
}

void BatchWorkspace::note_dispatch_capacity() {
  const auto lists_capacity = [](const auto& l) {
    return l.apply_items.capacity() + l.g_items.capacity() +
           l.x_items.capacity() + l.hx_items.capacity();
  };
  const std::size_t cap = lists_capacity(lists<double>()) +
                          lists_capacity(lists<float>()) +
                          active.capacity() + still.capacity();
  if (cap > dispatch_peak_) {
    dispatch_peak_ = cap;
    ++allocs_;
  }
}

void orthonormalize_cholesky(MatC& X) {
  MatC S = overlap(X, X);
  try {
    MatC L = cholesky(S);
    trsm_right_lherm(L, X);
  } catch (const std::runtime_error&) {
    orthonormalize_gram_schmidt(X);
  }
}

void orthonormalize_cholesky(MatC& X, EigenScratch& ws) {
  MatC& S = ws.mat(EigenScratch::kS, X.cols(), X.cols());
  gemm(Op::kConjTrans, Op::kNone, cd(1, 0), X, X, cd(0, 0), S);
  try {
    MatC& L = ws.mat(EigenScratch::kL, X.cols(), X.cols());
    cholesky(S, L);
    trsm_right_lherm(L, X);
  } catch (const std::runtime_error&) {
    orthonormalize_gram_schmidt(X);
  }
}

void orthonormalize_gram_schmidt(MatC& X) {
  const int ng = X.rows(), nb = X.cols();
  assert(nb <= ng);
  Rng rng(0xec5f00du);
  for (int j = 0; j < nb; ++j) {
    cd* xj = X.col(j);
    double nrm = 0;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const double before = dznrm2(ng, xj);
      // Project twice (classical Gram-Schmidt applied twice is stable).
      for (int pass = 0; pass < 2; ++pass) {
        for (int k = 0; k < j; ++k) {
          const cd proj = zdotc(ng, X.col(k), xj);
          zaxpy(ng, -proj, X.col(k), xj);
        }
      }
      nrm = dznrm2(ng, xj);
      if (nrm > 1e-10 * std::max(before, 1.0)) break;
      // Column (numerically) inside span of earlier ones: replace with a
      // deterministic random vector and retry.
      for (int g = 0; g < ng; ++g)
        xj[g] = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
    }
    zscal(ng, cd(1.0 / nrm, 0.0), xj);
  }
}

std::vector<double> subspace_rotate(const Hamiltonian& h, MatC& X) {
  MatC HX;
  h.apply(X, HX);
  MatC G = overlap(X, HX);
  EighResult r = eigh(G);
  MatC Xr(X.rows(), X.cols());
  gemm(Op::kNone, Op::kNone, cd(1, 0), X, r.eigenvectors, cd(0, 0), Xr);
  X = std::move(Xr);
  return r.eigenvalues;
}

MatC random_wavefunctions(const GVectors& basis, int n_bands,
                          std::uint64_t seed) {
  Rng rng(seed);
  MatC psi(basis.count(), n_bands);
  for (int j = 0; j < n_bands; ++j) {
    for (int g = 0; g < basis.count(); ++g) {
      // Damp high-G components so the guess has low kinetic energy.
      const double damp = 1.0 / (1.0 + basis.g2(g));
      psi(g, j) = damp * cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
    }
  }
  orthonormalize_cholesky(psi);
  return psi;
}

// The per-iteration scalar steps of the Davidson sweep, templated over
// the real type: the double instantiation serves the fp64 lockstep body
// and the folded spectrum method, the float one the mixed-precision body.

template <typename Real>
double residual_block(const Matrix<std::complex<Real>>& X,
                      const Matrix<std::complex<Real>>& HX,
                      const std::vector<double>& evals,
                      Matrix<std::complex<Real>>& R) {
  using C = std::complex<Real>;
  const int ng = X.rows(), nb = X.cols();
  std::copy(HX.data(), HX.data() + HX.size(), R.data());
  for (int j = 0; j < nb; ++j)
    axpy(ng, C(Real(-evals[j]), Real(0)), X.col(j), R.col(j));
  double max_res = 0;
  for (int j = 0; j < nb; ++j)
    max_res = std::max(max_res, nrm2(ng, R.col(j)));
  return max_res;
}

template <typename Real>
int expand_search_space(const Matrix<std::complex<Real>>& X,
                        Matrix<std::complex<Real>>& T,
                        Matrix<std::complex<Real>>& Vn) {
  using C = std::complex<Real>;
  const double drop_tol = sizeof(Real) == sizeof(double) ? 1e-8 : 1e-4;
  const int ng = X.rows(), nb = X.cols();
  for (int j = 0; j < nb; ++j) std::copy(X.col(j), X.col(j) + ng, Vn.col(j));
  int cols = nb;
  for (int j = 0; j < nb && cols < Vn.cols(); ++j) {
    C* t = T.col(j);
    for (int pass = 0; pass < 2; ++pass)
      for (int k = 0; k < cols; ++k) {
        const C proj = dotc(ng, Vn.col(k), t);
        axpy(ng, -proj, Vn.col(k), t);
      }
    const double nrm = nrm2(ng, t);
    if (nrm < drop_tol) continue;  // dependent: drop
    scal(ng, C(Real(1.0 / nrm), Real(0)), t);
    std::copy(t, t + ng, Vn.col(cols));
    ++cols;
  }
  return cols;
}

template double residual_block<double>(const MatC&, const MatC&,
                                       const std::vector<double>&, MatC&);
template int expand_search_space<double>(const MatC&, MatC&, MatC&);

namespace {

// Preconditioned correction block T from residuals R.
template <typename Real>
void correction_block(const GVectors& basis, bool precondition,
                      const Matrix<std::complex<Real>>& X,
                      const Matrix<std::complex<Real>>& R,
                      Matrix<std::complex<Real>>& T) {
  const int ng = X.rows(), nb = X.cols();
  for (int j = 0; j < nb; ++j) {
    if (precondition) {
      precondition_tpa(basis, band_kinetic(basis, X.col(j)), R.col(j),
                       T.col(j));
    } else {
      std::copy(R.col(j), R.col(j) + ng, T.col(j));
    }
  }
}

// Per-member bookkeeping of the lockstep driver. Trivially destructible
// (pointers and scalars only) so it can live in the workspace's grow-only
// byte arena instead of a fresh vector per solve.
struct BatchMember {
  const Hamiltonian* h;
  MatC* psi;
  EigenWorkspace* ws;
  int ng, nb, vmax;
  int cols;  // current Ritz-block width
  bool done;
};

}  // namespace

template <typename Real>
std::vector<EigensolverResult> solve_all_band_batched(
    const std::vector<FragmentSolve>& frags, const EigensolverOptions& opt,
    BatchWorkspace& ws, int n_workers,
    const std::function<int()>& live_lanes) {
  using Member = BatchMember;
  using C = std::complex<Real>;
  using Mat = Matrix<C>;
  constexpr bool kF32 = std::is_same_v<Real, float>;
  const int k_members = static_cast<int>(frags.size());
  std::vector<EigensolverResult> results(k_members);
  if (k_members == 0) return results;

  // Live lane width: re-read at every sweep boundary. Every batched
  // kernel below is worker-count-invariant, so a width change between
  // sweeps can never change results — donation only moves wall time.
  const auto lanes = [&]() {
    return live_lanes ? std::max(1, live_lanes()) : n_workers;
  };

  // fp32 residuals bottom out near its epsilon; chasing a tighter
  // tolerance would spin the loop on rounding noise (see eigensolver.h).
  const double tol =
      kF32 ? std::max(opt.residual_tol, 2e-5) : opt.residual_tol;

  Member* mem = static_cast<Member*>(
      ws.member_table(sizeof(Member) * static_cast<std::size_t>(k_members)));
  for (int i = 0; i < k_members; ++i) {
    Member& m = *new (mem + i) Member();
    m.h = frags[i].h;
    m.psi = frags[i].psi;
    m.ws = &ws.member(i);
    m.ng = m.h->basis().count();
    m.nb = m.psi->cols();
    m.vmax = std::min(2 * m.nb, m.ng);
    m.cols = m.nb;
    m.done = false;
    assert(m.psi->rows() == m.ng);
    assert(m.nb <= m.ng);
    assert(m.h->basis().grid_shape() == frags[0].h->basis().grid_shape());
  }

  std::vector<int>& active = ws.active;
  active.resize(k_members);
  std::iota(active.begin(), active.end(), 0);
  BatchWorkspace::DispatchLists<Real>& lists = ws.lists<Real>();

  // Writes a member's Ritz block back into its (double) psi; the float
  // instantiation widens each element exactly.
  const auto store_psi = [](const Mat& X, MatC& psi) {
    std::copy(X.data(), X.data() + X.size(), psi.data());
  };

  // Per-member setup: slot reservation, double-precision
  // orthonormalization, V <- psi (for float: the fp32 slots are reserved
  // too and the guess rounds once into the fp32 Ritz block).
  parallel_for(k_members, lanes(), [&](int i, int /*worker*/) {
    Member& m = mem[i];
    m.ws->reserve(m.ng, m.nb, /*block=*/true);
    if constexpr (kF32) m.ws->reserve_mats<float>(m.ng, m.nb);
    orthonormalize_cholesky(*m.psi, m.ws->scratch());
    Mat& V = m.ws->mat<Real>(kV, m.ng, m.nb);
    std::copy(m.psi->data(), m.psi->data() + m.psi->size(), V.data());
  });

  // One batched H application serves every active member: H maps V's
  // columns [first, cols) into HV's, through the W/HW slots. first is 0
  // for the starting block and nb in a sweep, where HV's first nb
  // columns already hold HX. Each member keeps its original workspace
  // slot even after earlier members converge out of the item list, so
  // per-slot arena peaks never regress.
  const auto batched_apply = [&](const std::vector<int>& who,
                                 bool corrections_only) {
    const auto first = [&](const Member& m) {
      return corrections_only ? m.nb : 0;
    };
    const int n_who = static_cast<int>(who.size());
    parallel_for(n_who, lanes(), [&](int a, int /*worker*/) {
      Member& m = mem[who[a]];
      const Mat& V = m.ws->mat<Real>(kV, m.ng, m.cols);
      Mat& W = m.ws->mat<Real>(kW, m.ng, m.cols - first(m));
      std::copy(V.col(first(m)), V.col(0) + V.size(), W.data());
    });
    std::vector<Hamiltonian::ApplyItemT<Real>>& items = lists.apply_items;
    items.clear();
    for (int i : who) {
      Member& m = mem[i];
      items.push_back({m.h, &m.ws->mat<Real>(kW, m.ng, m.cols - first(m)),
                       &m.ws->mat<Real>(kHW, m.ng, m.cols - first(m)), i});
    }
    Hamiltonian::apply_batched(items, ws.apply(), lanes());
    parallel_for(n_who, lanes(), [&](int a, int /*worker*/) {
      Member& m = mem[who[a]];
      const Mat& HW = m.ws->mat<Real>(kHW, m.ng, m.cols - first(m));
      Mat& HV = m.ws->mat<Real>(kHV, m.ng, m.cols);
      std::copy(HW.data(), HW.data() + HW.size(), HV.col(first(m)));
    });
  };

  // Rayleigh-Ritz across the active members: the subspace projection and
  // both Ritz rotations run as batched GEMMs; the dense eigh of each
  // small G stays per member (arena-backed), fanned out over members.
  const auto rayleigh_ritz = [&](const std::vector<int>& who) {
    std::vector<GemmBatchItemT<Real>>& g_items = lists.g_items;
    g_items.clear();
    for (int i : who) {
      Member& m = mem[i];
      g_items.push_back({&m.ws->mat<Real>(kV, m.ng, m.cols),
                         &m.ws->mat<Real>(kHV, m.ng, m.cols),
                         &m.ws->mat<Real>(kG, m.cols, m.cols)});
    }
    gemm_batched(Op::kConjTrans, Op::kNone, C(1, 0), g_items, C(0, 0),
                 lanes());
    parallel_for(static_cast<int>(who.size()), lanes(),
                 [&](int a, int /*worker*/) {
                   Member& m = mem[who[a]];
                   EigensolverResult& res = results[who[a]];
                   const int dim = m.cols;
                   MatC& G = m.ws->mat(kG, dim, dim);
                   if constexpr (kF32) {
                     // Promote the fp32 G to double for the dense eigh.
                     const MatCF& Gf = m.ws->mat<float>(kG, dim, dim);
                     std::copy(Gf.data(), Gf.data() + Gf.size(), G.data());
                   }
                   EighView eg = eigh_lowest(G, m.nb, m.ws->scratch());
                   Mat& Y = m.ws->mat<Real>(kY, dim, m.nb);
                   for (int j = 0; j < m.nb; ++j)
                     for (int i2 = 0; i2 < dim; ++i2)
                       Y(i2, j) = C((*eg.eigenvectors)(i2, j));
                   res.eigenvalues.assign(eg.eigenvalues->begin(),
                                          eg.eigenvalues->begin() + m.nb);
                 });
    std::vector<GemmBatchItemT<Real>>& x_items = lists.x_items;
    std::vector<GemmBatchItemT<Real>>& hx_items = lists.hx_items;
    x_items.clear();
    hx_items.clear();
    for (int i : who) {
      Member& m = mem[i];
      Mat& Y = m.ws->mat<Real>(kY, m.cols, m.nb);
      x_items.push_back({&m.ws->mat<Real>(kV, m.ng, m.cols), &Y,
                         &m.ws->mat<Real>(kX, m.ng, m.nb)});
      hx_items.push_back({&m.ws->mat<Real>(kHV, m.ng, m.cols), &Y,
                          &m.ws->mat<Real>(kHX, m.ng, m.nb)});
    }
    gemm_batched(Op::kNone, Op::kNone, C(1, 0), x_items, C(0, 0), lanes());
    gemm_batched(Op::kNone, Op::kNone, C(1, 0), hx_items, C(0, 0), lanes());
  };

  // The only full apply: every call starts from an exact H psi.
  batched_apply(active, /*corrections_only=*/false);

  for (int iter = 0; iter < opt.max_iterations && !active.empty(); ++iter) {
    TraceSpan sweep(kF32 ? "davidson.sweep.f32" : "davidson.sweep",
                    TraceCat::kSolver, active.size());
    for (int i : active) results[i].iterations = iter + 1;

    rayleigh_ritz(active);

    // Per-member tail: residuals, convergence, preconditioning, search-
    // space expansion straight into V. Members are independent, so this
    // fans out. X sits unchanged in V's first nb columns, so its
    // H-image is the HX the Ritz rotation just formed.
    parallel_for(static_cast<int>(active.size()), lanes(),
                 [&](int a, int /*worker*/) {
                   Member& m = mem[active[a]];
                   EigensolverResult& res = results[active[a]];
                   Mat& X = m.ws->mat<Real>(kX, m.ng, m.nb);
                   Mat& HX = m.ws->mat<Real>(kHX, m.ng, m.nb);
                   Mat& R = m.ws->mat<Real>(kR, m.ng, m.nb);
                   res.max_residual =
                       residual_block(X, HX, res.eigenvalues, R);
                   if (res.max_residual < tol) {
                     res.converged = true;
                     store_psi(X, *m.psi);
                     m.done = true;
                     return;
                   }
                   Mat& T = m.ws->mat<Real>(kT, m.ng, m.nb);
                   correction_block(m.h->basis(), opt.precondition, X, R, T);
                   Mat& V = m.ws->mat<Real>(kV, m.ng, m.vmax);
                   const int cols = expand_search_space(X, T, V);
                   if (cols == m.nb) {
                     res.converged = true;
                     store_psi(X, *m.psi);
                     m.done = true;
                     return;
                   }
                   m.cols = cols;
                   Mat& HV = m.ws->mat<Real>(kHV, m.ng, cols);
                   std::copy(HX.data(), HX.data() + HX.size(), HV.data());
                 });

    // Converged members drop out; the rest advance in lockstep (swap, not
    // move: both index buffers stay resident in the workspace).
    std::vector<int>& still = ws.still;
    still.clear();
    for (int i : active)
      if (!mem[i].done) still.push_back(i);
    active.swap(still);
    // H on the accepted corrections only.
    if (!active.empty()) batched_apply(active, /*corrections_only=*/true);
  }

  // Budget exhausted: return the best current Ritz vectors for whoever is
  // left (one final rotation).
  if (!active.empty()) {
    rayleigh_ritz(active);
    parallel_for(static_cast<int>(active.size()), lanes(),
                 [&](int a, int /*worker*/) {
                   Member& m = mem[active[a]];
                   store_psi(m.ws->mat<Real>(kX, m.ng, m.nb), *m.psi);
                 });
  }
  ws.note_dispatch_capacity();
  return results;
}

template std::vector<EigensolverResult> solve_all_band_batched<double>(
    const std::vector<FragmentSolve>&, const EigensolverOptions&,
    BatchWorkspace&, int, const std::function<int()>&);
template std::vector<EigensolverResult> solve_all_band_batched<float>(
    const std::vector<FragmentSolve>&, const EigensolverOptions&,
    BatchWorkspace&, int, const std::function<int()>&);

EigensolverResult solve_band_by_band(const Hamiltonian& h, MatC& psi,
                                     const EigensolverOptions& opt,
                                     EigenWorkspace& ws) {
  const GVectors& basis = h.basis();
  const int ng = basis.count();
  const int nb = psi.cols();
  ws.reserve(ng, nb, /*block=*/false);
  orthonormalize_gram_schmidt(psi);

  EigensolverResult result;
  std::vector<cd>& hpsi = ws.vec(kHpsi, ng);
  std::vector<cd>& r = ws.vec(kRes, ng);
  std::vector<cd>& d = ws.vec(kDir, ng);
  std::vector<cd>& hd = ws.vec(kHDir, ng);
  std::vector<cd>& prev_d = ws.vec(kPrevDir, ng);
  double max_res = 0;

  for (int j = 0; j < nb; ++j) {
    cd* x = psi.col(j);
    bool have_prev = false;  // no CG history at the start of each band
    double prev_r2 = 0;

    // Orthogonalize the starting vector against the already-converged
    // lower bands (they moved since the initial Gram-Schmidt); otherwise
    // the minimization slides back into the lowest states.
    for (int k = 0; k < j; ++k) {
      const cd proj = zdotc(ng, psi.col(k), x);
      zaxpy(ng, -proj, psi.col(k), x);
    }
    {
      const double nrm = dznrm2(ng, x);
      if (nrm < 1e-12) {
        Rng rng(0xbadc0de + j);
        for (int g = 0; g < ng; ++g)
          x[g] = cd(rng.uniform(-1, 1), rng.uniform(-1, 1)) /
                 (1.0 + basis.g2(g));
        for (int k = 0; k < j; ++k) {
          const cd proj = zdotc(ng, psi.col(k), x);
          zaxpy(ng, -proj, psi.col(k), x);
        }
      }
      zscal(ng, cd(1.0 / dznrm2(ng, x), 0.0), x);
    }

    for (int step = 0; step < opt.max_iterations; ++step) {
      if (j == 0 && step == 0) result.iterations = 0;
      h.apply_band(x, hpsi.data());
      const double eps = zdotc(ng, x, hpsi.data()).real();
      // Residual, projected against all bands <= j (Gram-Schmidt style).
      for (int g = 0; g < ng; ++g) r[g] = hpsi[g] - eps * x[g];
      for (int k = 0; k <= j; ++k) {
        const cd proj = zdotc(ng, psi.col(k), r.data());
        zaxpy(ng, -proj, psi.col(k), r.data());
      }
      const double rn = dznrm2(ng, r.data());
      max_res = std::max(max_res, rn);
      if (rn < opt.residual_tol) break;

      // Preconditioned direction with Polak-Ribiere CG mixing.
      if (opt.precondition) {
        precondition_tpa(basis, band_kinetic(basis, x), r.data(), d.data());
      } else {
        std::copy(r.begin(), r.end(), d.begin());
      }
      const double r2 = zdotc(ng, r.data(), d.data()).real();
      if (have_prev && prev_r2 > 0) {
        const double beta = std::max(0.0, r2 / prev_r2);
        zaxpy(ng, cd(beta, 0.0), prev_d.data(), d.data());
      }
      std::copy(d.begin(), d.end(), prev_d.begin());
      have_prev = true;
      prev_r2 = r2;

      // Orthogonalize the direction to bands <= j and normalize.
      for (int k = 0; k <= j; ++k) {
        const cd proj = zdotc(ng, psi.col(k), d.data());
        zaxpy(ng, -proj, psi.col(k), d.data());
      }
      const double dn = dznrm2(ng, d.data());
      if (dn < 1e-14) break;
      zscal(ng, cd(1.0 / dn, 0.0), d.data());

      // Exact 2x2 Rayleigh-Ritz between x and the unit direction d.
      h.apply_band(d.data(), hd.data());
      const double add = zdotc(ng, d.data(), hd.data()).real();
      const cd axd = zdotc(ng, x, hd.data());
      MatC& h2 = ws.scratch().mat(EigenScratch::kA, 2, 2);
      h2(0, 0) = eps;
      h2(1, 1) = add;
      h2(0, 1) = axd;
      h2(1, 0) = std::conj(axd);
      EighView e2 = eigh(h2, ws.scratch());
      const cd c0 = (*e2.eigenvectors)(0, 0), c1 = (*e2.eigenvectors)(1, 0);
      for (int g = 0; g < ng; ++g) x[g] = c0 * x[g] + c1 * d[g];
      // Re-project against lower bands to stop rounding drift from
      // re-introducing converged components, then renormalize.
      for (int k = 0; k < j; ++k) {
        const cd proj = zdotc(ng, psi.col(k), x);
        zaxpy(ng, -proj, psi.col(k), x);
      }
      const double xn = dznrm2(ng, x);
      zscal(ng, cd(1.0 / xn, 0.0), x);
      result.iterations += 1;
    }
  }

  // Final subspace rotation sorts bands and returns eigenvalues.
  result.eigenvalues = subspace_rotate(h, psi);
  result.max_residual = max_res;
  result.converged = max_res < opt.residual_tol;
  return result;
}

EigensolverResult solve_band_by_band(const Hamiltonian& h, MatC& psi,
                                     const EigensolverOptions& opt) {
  EigenWorkspace ws;
  return solve_band_by_band(h, psi, opt, ws);
}

}  // namespace ls3df
