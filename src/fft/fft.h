// One-dimensional complex FFT of a smooth length.
//
// Lengths must factor entirely into 2, 3, 5 and 7: the transform is a
// table-driven mixed-radix Cooley-Tukey plan, and the constructor throws
// std::invalid_argument for any other length (or n < 1). The plane-wave
// engine only ever chooses smooth grid sizes (good_fft_size, the
// fragment solver's smooth buffers), and Ls3dfOptions rejects a
// non-smooth points_per_cell or division up front.
//
// Conventions: forward transform uses exp(-2*pi*i*j*k/n) with no scaling;
// the inverse uses exp(+2*pi*i*j*k/n) and scales by 1/n, so
// inverse(forward(x)) == x.
//
// Strided lines: forward/inverse transform the n elements data[j*stride],
// j < n, in place. The leaf gather reads through the stride and the
// scatter writes through it, so a y- or x-line of a 3D grid is
// transformed where it lies, with the same bits as the contiguous
// transform of a copy of that line.
//
// Tiles: transform_lines runs many lines of one stride, kTile (8) at a
// time. The leaf gather loads a tile into a structure-of-arrays work
// buffer, a real plane and an imaginary plane of n * kTile values each,
// element k of lane t at k * kTile + t. Every butterfly then runs once
// per lane in an innermost unit-stride lane loop, so each twiddle is
// loaded once per tile and the lane loop vectorizes. A short tile of
// two or more lines pads its unused lanes with zeros, which are computed
// and dropped; a single line runs the one-lane instantiation of the same
// kernel, which is also the single-line forward/inverse. Lanes never
// mix, so a line's bits do not depend on its tile, its lane or its
// neighbours. Two such tiles ping-pong through the stages, so a
// transform needs 4 * n * kTile reals of scratch (10 KiB at n = 40 in
// double), which the plan does not hold (see "Thread safety").
//
// == The plan ==
//
// With the ascending prime factors f_0 <= f_1 <= ... <= f_{L-1} of n,
// level l is a set of n / n_l independent length-n_l sub-transforms,
// n_l = f_l * ... * f_{L-1} (n_0 = n). The constructor builds:
//   - the leaf gather: the digit reversal over the ascending factors,
//     work[k] = data[gather_[k] * stride], which places every length-1
//     leaf where its sub-transform expects it;
//   - one stage per level, run bottom-up (l = L-1 first), each with its
//     twiddles precomputed for both signs.
// A stage of radix p on a block of length n_l = p*m computes, for every
// k2 < m and k1 < p, with k = k1*m + k2 and col_r = block[r*m + k2],
//   X[k] = sum_{r=0..p-1} col_r * w^{r*k},  w = exp(sign*2*pi*i/n_l).
// The twiddle w^{r*k} is the double-computed root e^{-2 pi i e/n} with
// e = (r*k mod n_l) * (n / n_l), flipped to n - e for sign +1 (e != 0).
// The table stores it per (k2, k1, r) for the nontrivial terms only:
// r >= 1 and k >= 1 (see the fold below).
//
// Bit contract: every output is the sum above started from (0, 0) with
// the p products added in ascending r (the r = 0 term included), each
// product formed as re = a.re*w.re - a.im*w.im, im = a.re*w.im +
// a.im*w.re: the sum order of a recursive decimation-in-time transform
// over the same root table (test_fft keeps one as the oracle), which the
// plan matches bit for bit on finite input in both precisions. There is
// no NaN-recovery branch: non-finite input propagates as plain IEEE
// arithmetic. The inverse's 1/n is one multiply per component in the
// scatter, as the oracle applies it after the transform.
//
// The unity fold: the product by the exact root w = roots[0] = (1, -0)
// is replaced by the plain term, re += a.re, im += a.im, and the kernel
// starts each output as 0 + col_0 (the r = 0 term). That covers exactly
// the terms with r*k = 0 (mod n_l): the radix p of a stage is the
// smallest prime factor of n_l, so 0 < r < p gives gcd(r, n_l) = 1, and
// r*k = 0 (mod n_l) forces k = 0. The fold keeps the bits on finite
// input: the exact product is a.re*1 - a.im*(-0) = a.re (and a.re*(-0) +
// a.im*1 = a.im) except that a zero a.re may come out with either sign.
// A signed zero only matters when added to a zero. The accumulator
// starts at +0, and in round-to-nearest a sum is -0 only when both
// operands are -0, so the accumulator is never -0, and adding +0 or -0
// to it gives the same bits. The explicit "0 +" is what keeps a leading
// -0 term from making the accumulator -0; test_fft pins it against the
// recursive oracle with signed-zero inputs.
//
// The transform is templated over the real type: BasicFft1D<double> is
// the engine's bit-exact reference path, BasicFft1D<float> the
// single-precision transform behind the float instantiation of the
// lockstep Davidson (dft/eigensolver.h). Twiddle tables are always
// computed in double and rounded once to the storage type, so the float
// transform carries no accumulated table error.
//
// == ISA dispatch ==
//
// The tile kernel (the leaf gather, the stages and the scatter of one
// tile; fft/fft_kernel.h) is compiled twice: in fft.cpp with the
// project's flags (the portable SSE2 path on x86-64), and in fft_avx2.cpp
// with -mavx2 -ffp-contract=off -fno-tree-slp-vectorize, set on that one
// source in CMakeLists.txt. The AVX2 copy runs the same lane loop four
// doubles (eight floats) per vector instead of two (four); a tile takes
// 0.6-0.7 of the portable time. The two extra flags keep the bits
// whatever else a build enables: -ffp-contract=off forbids fusing a
// multiply and an add into an FMA (one rounding instead of two; -mavx2
// alone enables no FMA, a global -march may), and -fno-tree-slp-vectorize
// stops GCC's straight-line vectorizer, which with FMA available turns
// the complex products into vfmaddsub even with contraction off. Each
// lane then evaluates exactly the sums of the bit contract above, so
// both copies give the same bits, which test_fft checks with memcmp.
//
// Linkage: the kernel templates sit in an anonymous namespace, so each
// TU keeps its own copy, and the AVX2 TU defines nothing but its two
// entry points (double and float). Were an inline function or template
// instantiated there with weak linkage, the linker could keep that AVX2
// copy for the portable callers too, and a CPU without AVX2 would fault
// on it. tools/check_fft_objects.sh (a CI step) checks the objects: no
// FMA in either, no ymm register in fft.cpp's, no weak or other extra
// symbol in fft_avx2.cpp's.
//
// The choice is made once per plan: the constructor asks the CPU
// (__builtin_cpu_supports("avx2")) and stores a pointer to one kernel,
// which every transform calls. There is no option or environment
// variable; only tests and benches force the portable kernel, through
// fft_detail::ScopedPortableKernel (fft/fft_kernel.h).
//
// == Thread safety ==
//
// A plan is immutable after construction: any number of threads may
// transform through one instance at once. The tile scratch lives in one
// grow-only thread_local buffer per Real type, sized on a thread's first
// transform of a longer length and reused after that (no allocation per
// call). The buffer is live only inside one transform() call, which runs
// the kernel to completion on the calling thread and never waits on the
// thread pool, so no other task can run on that thread in between and
// re-enter it.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace ls3df {

using cplx = std::complex<double>;
using cplxf = std::complex<float>;

namespace fft_detail {

// Lines per tile of transform_lines (see the header comment).
constexpr int kTile = 8;

// One combine level of a plan (see the header comment).
struct Stage {
  int p;            // radix
  int len;          // sub-transform length n_l = p * m
  std::size_t tw;   // offset of this stage's nontrivial twiddles
};

// One call of the tile kernel (fft/fft_kernel.h), and the kernel itself.
template <typename Real>
struct TileJob;
template <typename Real>
using TileKernel = void (*)(const TileJob<Real>&);

}  // namespace fft_detail

template <typename Real>
class BasicFft1D;

namespace fft_detail {
// Test hook, declared here for the friend below (fft/fft_kernel.h).
template <typename Real>
const char* kernel_isa(const BasicFft1D<Real>& plan);
}  // namespace fft_detail

template <typename Real>
class BasicFft1D {
 public:
  using Cplx = std::complex<Real>;

  static constexpr int kTile = fft_detail::kTile;

  // Throws std::invalid_argument unless n >= 1 and is_smooth(n).
  explicit BasicFft1D(int n);

  int size() const { return n_; }

  // In-place transforms of the size() elements data[j * stride].
  void forward(Cplx* data, std::ptrdiff_t stride = 1) const {
    transform(&data, 1, stride, -1);
  }
  void inverse(Cplx* data, std::ptrdiff_t stride = 1) const {
    transform(&data, 1, stride, +1);
  }

  void forward(std::vector<Cplx>& data) const { forward(data.data()); }
  void inverse(std::vector<Cplx>& data) const { inverse(data.data()); }

  // In-place transforms of the `count` lines line_at(i), i < count, each
  // at `stride`, in tiles of kTile lines: every line gets the bits of
  // forward/inverse(line_at(i), stride). Lines must not overlap.
  template <typename LineAt>
  void transform_lines(bool inv, int count, std::ptrdiff_t stride,
                       const LineAt& line_at) const {
    Cplx* tile[kTile];
    for (int i0 = 0; i0 < count; i0 += kTile) {
      const int c = count - i0 < kTile ? count - i0 : kTile;
      for (int t = 0; t < c; ++t) tile[t] = line_at(i0 + t);
      transform(tile, c, stride, inv ? +1 : -1);
    }
  }

  // True if n >= 1 factors entirely into {2,3,5,7}: the lengths a plan
  // takes.
  static bool is_smooth(int n);
  // Smallest m >= n whose prime factors are all in {2,3,5}; such sizes
  // keep the FFT cost low and divide evenly for fragment grids.
  static int good_fft_size(int n);

 private:
  // Transforms the 1 <= count <= kTile lines lines[t] at `stride`.
  void transform(Cplx* const* lines, int count, std::ptrdiff_t stride,
                 int sign) const;

  friend const char* fft_detail::kernel_isa<Real>(const BasicFft1D& plan);

  int n_ = 0;
  fft_detail::TileKernel<Real> kernel_;  // chosen once (ISA dispatch)
  std::vector<int> gather_;  // leaf order: work[k] = data[gather_[k] * stride]
  std::vector<fft_detail::Stage> stages_;  // bottom-up (shortest first)
  std::vector<Cplx> tw_[2];       // twiddles for sign -1 [0] and +1 [1]
};

using Fft1D = BasicFft1D<double>;
using Fft1DF = BasicFft1D<float>;

}  // namespace ls3df
