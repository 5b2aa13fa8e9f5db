// One-dimensional complex FFT of arbitrary length.
//
// Smooth lengths (factors 2, 3, 5, 7) use a table-driven mixed-radix
// Cooley-Tukey transform; lengths with larger prime factors fall back to
// Bluestein's chirp-z algorithm. The plane-wave engine always chooses
// smooth grid sizes (see good_fft_size), but the general path keeps the
// transform correct for any size and is exercised by the property tests.
//
// Conventions: forward transform uses exp(-2*pi*i*j*k/n) with no scaling;
// the inverse uses exp(+2*pi*i*j*k/n) and scales by 1/n, so
// inverse(forward(x)) == x.
//
// == The smooth plan ==
//
// With the ascending prime factors f_0 <= f_1 <= ... <= f_{L-1} of n,
// level l is a set of n / n_l independent length-n_l sub-transforms,
// n_l = f_l * ... * f_{L-1} (n_0 = n). The constructor builds:
//   - the leaf gather: the digit reversal over the ascending factors,
//     work[k] = data[gather_[k]], which places every length-1 leaf
//     where its sub-transform expects it;
//   - one stage per level, run bottom-up (l = L-1 first), each with its
//     twiddles precomputed for both signs.
// A stage of radix p on a block of length n_l = p*m computes, for every
// k2 < m and k1 < p, with k = k1*m + k2 and col_r = block[r*m + k2],
//   X[k] = sum_{r=0..p-1} col_r * w^{r*k},  w = exp(sign*2*pi*i/n_l).
// The twiddle w^{r*k} is stored per (k2, k1, r) as the double-computed
// root e^{-2 pi i e/n} with e = (r*k mod n_l) * (n / n_l), flipped to
// n - e for sign +1 (e != 0).
//
// Bit contract: every output is the sum above started from (0, 0) with
// the p products added in ascending r (the r = 0 term included), each
// product formed as re = a.re*w.re - a.im*w.im, im = a.re*w.im +
// a.im*w.re: the sum order of a recursive decimation-in-time transform
// over the same root table (test_fft keeps one as the oracle), which the
// plan matches bit for bit on finite input in both precisions. There is
// no NaN-recovery branch: non-finite input propagates as plain IEEE
// arithmetic.
//
// The transform is templated over the real type: BasicFft1D<double> is
// the engine's bit-exact reference path, BasicFft1D<float> the
// single-precision transform behind the float instantiation of the
// lockstep Davidson (dft/eigensolver.h). Twiddle and chirp tables are
// always computed in double and rounded once to the storage type, so the
// float transform carries no accumulated table error.
//
// Transforms reuse internal scratch buffers, so one instance must not be
// transformed from two threads at once (see fft/plan_cache.h).
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace ls3df {

using cplx = std::complex<double>;
using cplxf = std::complex<float>;

template <typename Real>
class BasicFft1D {
 public:
  using Cplx = std::complex<Real>;

  explicit BasicFft1D(int n);

  int size() const { return n_; }

  // In-place transforms on a contiguous array of length size().
  void forward(Cplx* data) const { transform(data, -1); }
  void inverse(Cplx* data) const;

  void forward(std::vector<Cplx>& data) const { forward(data.data()); }
  void inverse(std::vector<Cplx>& data) const { inverse(data.data()); }

  // True if n factors entirely into {2,3,5,7} (fast path, no Bluestein).
  static bool is_smooth(int n);
  // Smallest m >= n whose prime factors are all in {2,3,5}; such sizes
  // keep the FFT cost low and divide evenly for fragment grids.
  static int good_fft_size(int n);

 private:
  void transform(Cplx* data, int sign) const;
  void transform_smooth(Cplx* data, int sign) const;
  void transform_bluestein(Cplx* data, int sign) const;

  // One combine level of the smooth plan (see the header comment).
  struct Stage {
    int p;            // radix
    int len;          // sub-transform length n_l = p * m
    std::size_t tw;   // offset of this stage's p * len twiddles
  };

  int n_ = 0;
  bool smooth_ = true;
  std::vector<int> gather_;       // leaf order: work_[k] = data[gather_[k]]
  std::vector<Stage> stages_;     // bottom-up (shortest sub-transform first)
  std::vector<Cplx> tw_[2];       // twiddles for sign -1 [0] and +1 [1]
  mutable std::vector<Cplx> work_;  // scratch for the stages (size n)

  // Bluestein state (only populated when !smooth_).
  int bs_m_ = 0;                   // power-of-two convolution length
  std::vector<Cplx> bs_chirp_;     // b_k = exp(+i pi k^2 / n)
  std::vector<Cplx> bs_kernel_fft_;  // FFT of zero-padded chirp kernel
  mutable std::vector<Cplx> bs_work_;  // convolution scratch (size bs_m_)
};

using Fft1D = BasicFft1D<double>;
using Fft1DF = BasicFft1D<float>;

}  // namespace ls3df
