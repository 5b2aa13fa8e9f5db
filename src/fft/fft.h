// One-dimensional complex FFT of arbitrary length.
//
// Smooth lengths (factors 2, 3, 5, 7) use recursive mixed-radix
// Cooley-Tukey; lengths with larger prime factors fall back to Bluestein's
// chirp-z algorithm. The plane-wave engine always chooses smooth grid
// sizes (see good_fft_size), but the general path keeps the transform
// correct for any size and is exercised by the property tests.
//
// Conventions: forward transform uses exp(-2*pi*i*j*k/n) with no scaling;
// the inverse uses exp(+2*pi*i*j*k/n) and scales by 1/n, so
// inverse(forward(x)) == x.
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
  void recurse(Cplx* out, const Cplx* in, int n, int stride, int sign) const;

  int n_ = 0;
  bool smooth_ = true;
  std::vector<int> factors_;      // prime factorization of n (ascending)
  std::vector<Cplx> roots_;       // e^{-2 pi i k / n}, k = 0..n-1
  mutable std::vector<Cplx> work_;  // scratch for recursion (size n)

  // Bluestein state (only populated when !smooth_).
  int bs_m_ = 0;                   // power-of-two convolution length
  std::vector<Cplx> bs_chirp_;     // b_k = exp(+i pi k^2 / n)
  std::vector<Cplx> bs_kernel_fft_;  // FFT of zero-padded chirp kernel
  mutable std::vector<Cplx> bs_work_;  // convolution scratch (size bs_m_)
};

using Fft1D = BasicFft1D<double>;
using Fft1DF = BasicFft1D<float>;

}  // namespace ls3df
