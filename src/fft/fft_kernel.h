// Internal to the FFT: the tile kernel of BasicFft1D and its dispatch.
//
// fft.cpp (portable flags) and fft_avx2.cpp (-mavx2 -ffp-contract=off
// -fno-tree-slp-vectorize) both include this header and compile their
// own copy of the kernel templates below; fft.h's "ISA dispatch" says why
// the copies have the same bits and how a plan picks one. The templates
// sit in an anonymous namespace so that no copy has external or weak
// linkage, and they use no library template or inline function (complex
// values are read and written as pairs of reals), so even an unoptimized
// build emits no weak symbol from the AVX2 TU that the linker could hand
// to portable callers.
#pragma once

#include <complex>
#include <cstddef>

#include "fft/fft.h"

namespace ls3df {
namespace fft_detail {

// Everything one kernel call reads: the plan (fft.h, "The plan") and
// the tile of 1 <= count <= kTile lines, each at `stride` complex values.
template <typename Real>
struct TileJob {
  int n;
  const int* gather;              // leaf order
  const Stage* stages;            // bottom-up
  int n_stages;
  const std::complex<Real>* tw;   // the sign's nontrivial twiddles
  bool inverse;                   // the scatter applies 1/n
  Real* work;                     // two SoA tiles, 4 * n * kTile reals
  std::complex<Real>* const* lines;
  int count;
  std::ptrdiff_t stride;
};

// The AVX2 TU's only external symbols. Call them only where
// avx2_kernel_available() holds.
void tile_kernel_avx2(const TileJob<double>& job);
void tile_kernel_avx2(const TileJob<float>& job);

// True if the CPU runs AVX2. On x86-64 every build compiles the AVX2
// kernel (fft_avx2.cpp fails to compile without -mavx2); elsewhere there
// is none and this is false.
bool avx2_kernel_available();

// The tile kernel `plan` runs: "avx2" or "portable" (fft.h, "ISA
// dispatch"). For tests.
template <typename Real>
const char* kernel_isa(const BasicFft1D<Real>& plan);

// Test and bench hook: every plan constructed while an instance is alive,
// on any thread, runs the portable kernel. Plans built earlier keep
// their kernel, so a plan's owner must be built inside the scope too.
class ScopedPortableKernel {
 public:
  ScopedPortableKernel();
  ~ScopedPortableKernel();
  ScopedPortableKernel(const ScopedPortableKernel&) = delete;
  ScopedPortableKernel& operator=(const ScopedPortableKernel&) = delete;
};

namespace {

// One radix-P butterfly column k2 of a tile of Lanes lines: the sums of
// fft.h's bit contract for the P outputs k = k1*m + k2, in explicit real
// arithmetic, once per lane. Column r of lane t is (cr, ci)[r * cs + t]
// and output k1 goes to (dr, di)[k1 * cs + t]. w holds the column's
// nontrivial twiddles in (k1, r >= 1) order. K0 marks column k2 = 0,
// whose k1 = 0 output takes plain adds (the unity fold): the r = 0 and
// k = 0 terms are never multiplied.
template <int P, int Lanes, bool K0, typename Real>
void butterfly(const Real* __restrict cr, const Real* __restrict ci,
               Real* __restrict dr, Real* __restrict di, std::ptrdiff_t cs,
               const Real* w) {
  Real wr[P][P], wi[P][P];
  for (int k1 = K0 ? 1 : 0; k1 < P; ++k1)
    for (int r = 1; r < P; ++r, w += 2) {
      wr[k1][r] = w[0];
      wi[k1][r] = w[1];
    }
  // Lanes are independent and their outputs never overlap their inputs
  // (distinct tiles), so the lane loop vectorizes; the k1 loop must be
  // unrolled for that at P = 7. The lane loop itself must stay a loop:
  // fully unrolled (as GCC does with the small radix-2 body), only the
  // straight-line vectorizer could pack it, and the AVX2 TU runs without.
#pragma GCC ivdep
#pragma GCC unroll 1
  for (int t = 0; t < Lanes; ++t) {
    Real xr[P], xi[P];
    for (int r = 0; r < P; ++r) {
      xr[r] = cr[r * cs + t];
      xi[r] = ci[r * cs + t];
    }
#pragma GCC unroll 7
    for (int k1 = 0; k1 < P; ++k1) {
      Real ar = Real(0) + xr[0], ai = Real(0) + xi[0];
      if (K0 && k1 == 0) {
        for (int r = 1; r < P; ++r) {
          ar += xr[r];
          ai += xi[r];
        }
      } else {
        for (int r = 1; r < P; ++r) {
          ar += xr[r] * wr[k1][r] - xi[r] * wi[k1][r];
          ai += xr[r] * wi[k1][r] + xi[r] * wr[k1][r];
        }
      }
      dr[k1 * cs + t] = ar;
      di[k1 * cs + t] = ai;
    }
  }
}

// One radix-P stage over `blocks` consecutive length-len blocks of a
// tile: (sr, si) and (dr, di) are the real and imaginary planes of two
// distinct tiles, element k of lane t at k * Lanes + t. tw holds the
// stage's nontrivial twiddles in (k2, k1, r >= 1) order, k >= 1.
template <int P, int Lanes, typename Real>
void combine(const Real* sr, const Real* si, Real* dr, Real* di, int len,
             int blocks, const Real* tw) {
  const int m = len / P;
  const std::ptrdiff_t cs = static_cast<std::ptrdiff_t>(m) * Lanes;
  for (int b = 0; b < blocks; ++b) {
    const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(b) * len * Lanes;
    const Real* w = tw;
    butterfly<P, Lanes, true>(sr + base, si + base, dr + base, di + base, cs,
                              w);
    w += 2 * (P - 1) * (P - 1);
    for (int k2 = 1; k2 < m; ++k2, w += 2 * P * (P - 1)) {
      const std::ptrdiff_t o = base + static_cast<std::ptrdiff_t>(k2) * Lanes;
      butterfly<P, Lanes, false>(sr + o, si + o, dr + o, di + o, cs, w);
    }
  }
}

// How row k of a tile (element k of every lane) moves between the lines
// and the planes. A full tile moves two lanes at a time, one complex
// value from each of two lines as a vector of two reals; a short tile or
// a single line moves lane by lane, the gather zeroing the spare lanes.
// Both move the same values, so the choice never changes a bit.

// Loads the element at real offset j of every line into (kr, ki).
template <int Lanes, typename Real>
void gather_row(const TileJob<Real>& job, bool full, std::ptrdiff_t j,
                Real* __restrict kr, Real* __restrict ki) {
  typedef Real Pair __attribute__((vector_size(2 * sizeof(Real))));
  if (full) {
    for (int t = 0; t < Lanes; t += 2) {
      Pair a, b;
      __builtin_memcpy(&a, reinterpret_cast<const Real*>(job.lines[t]) + j,
                       sizeof a);
      __builtin_memcpy(&b, reinterpret_cast<const Real*>(job.lines[t + 1]) + j,
                       sizeof b);
      const Pair re = __builtin_shufflevector(a, b, 0, 2);
      const Pair im = __builtin_shufflevector(a, b, 1, 3);
      __builtin_memcpy(kr + t, &re, sizeof re);
      __builtin_memcpy(ki + t, &im, sizeof im);
    }
  } else {
    int t = 0;
    for (; t < job.count; ++t) {
      const Real* x = reinterpret_cast<const Real*>(job.lines[t]) + j;
      kr[t] = x[0];
      ki[t] = x[1];
    }
    for (; t < Lanes; ++t) kr[t] = ki[t] = 0;
  }
}

// Stores (kr, ki), times s if `scale`, to the real offset j of every line.
template <int Lanes, typename Real>
void scatter_row(const TileJob<Real>& job, bool full, std::ptrdiff_t j,
                 const Real* __restrict kr, const Real* __restrict ki,
                 bool scale, Real s) {
  typedef Real Pair __attribute__((vector_size(2 * sizeof(Real))));
  if (full) {
    for (int t = 0; t < Lanes; t += 2) {
      Pair re, im;
      __builtin_memcpy(&re, kr + t, sizeof re);
      __builtin_memcpy(&im, ki + t, sizeof im);
      if (scale) {
        re *= s;
        im *= s;
      }
      const Pair a = __builtin_shufflevector(re, im, 0, 2);
      const Pair b = __builtin_shufflevector(re, im, 1, 3);
      __builtin_memcpy(reinterpret_cast<Real*>(job.lines[t]) + j, &a,
                       sizeof a);
      __builtin_memcpy(reinterpret_cast<Real*>(job.lines[t + 1]) + j, &b,
                       sizeof b);
    }
  } else {
    for (int t = 0; t < job.count; ++t) {
      Real* x = reinterpret_cast<Real*>(job.lines[t]) + j;
      x[0] = scale ? kr[t] * s : kr[t];
      x[1] = scale ? ki[t] * s : ki[t];
    }
  }
}

// The whole tile: leaf gather, stages, scatter. Line t's element j is
// the real pair at reinterpret_cast<Real*>(lines[t]) + 2 * j * stride.
// Gather and scatter go row by row (see gather_row). Row order also suits a
// power-of-two stride, which maps every row of a line to one L1 set:
// line by line, each cache line shared by neighbouring lanes was evicted
// before the next lane came back to it.
template <int Lanes, typename Real>
void run(const TileJob<Real>& job) {
  const int n = job.n;
  if (n == 1) return;  // the inverse's 1/n is 1
  const std::ptrdiff_t step = 2 * job.stride;
  const std::size_t plane = static_cast<std::size_t>(n) * Lanes;
  const bool full = Lanes > 1 && job.count == Lanes;
  Real* cr = job.work;
  Real* ci = cr + plane;
  Real* nr = ci + plane;
  Real* ni = nr + plane;
  // Leaf gather through the stride.
  for (int k = 0; k < n; ++k)
    gather_row<Lanes>(job, full, job.gather[k] * step, cr + k * Lanes,
                      ci + k * Lanes);
  for (int l = 0; l < job.n_stages; ++l) {
    const Stage& st = job.stages[l];
    const int blocks = n / st.len;
    const Real* w = reinterpret_cast<const Real*>(job.tw + st.tw);
    switch (st.p) {
      case 2: combine<2, Lanes>(cr, ci, nr, ni, st.len, blocks, w); break;
      case 3: combine<3, Lanes>(cr, ci, nr, ni, st.len, blocks, w); break;
      case 5: combine<5, Lanes>(cr, ci, nr, ni, st.len, blocks, w); break;
      default: combine<7, Lanes>(cr, ci, nr, ni, st.len, blocks, w); break;
    }
    Real* r = cr;
    Real* i = ci;
    cr = nr;
    ci = ni;
    nr = r;
    ni = i;
  }
  // Scatter through the stride; the inverse applies its 1/n here.
  const Real s = static_cast<Real>(1) / static_cast<Real>(n);
  for (int k = 0; k < n; ++k)
    scatter_row<Lanes>(job, full, k * step, cr + k * Lanes, ci + k * Lanes,
                       job.inverse, s);
}

// One tile through the one-lane kernel (a single line) or the kTile-lane
// one (fft.h, "Tiles").
template <typename Real>
void tile_kernel(const TileJob<Real>& job) {
  if (job.count == 1)
    run<1>(job);
  else
    run<kTile>(job);
}

}  // namespace
}  // namespace fft_detail
}  // namespace ls3df
