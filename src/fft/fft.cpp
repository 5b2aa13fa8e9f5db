#include "fft/fft.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/constants.h"

namespace ls3df {

namespace {

// Ascending prime factors of a smooth n.
std::vector<int> smooth_factors(int n) {
  std::vector<int> f;
  for (int p : {2, 3, 5, 7}) {
    while (n % p == 0) {
      f.push_back(p);
      n /= p;
    }
  }
  return f;
}

// One radix-P stage over `blocks` consecutive length-len blocks: the
// butterfly sum of fft.h's bit contract, in explicit real arithmetic.
// Reads the contiguous src, writes dst[k * ostride] (dst may alias src:
// each column is loaded before any of its outputs is stored). tw holds
// P*len twiddles in (k2, k1, r) order.
template <int P, typename Real>
void combine(const std::complex<Real>* src, std::complex<Real>* dst,
             std::ptrdiff_t ostride, int len, int blocks,
             const std::complex<Real>* tw) {
  const int m = len / P;
  const Real* in = reinterpret_cast<const Real*>(src);
  Real* out = reinterpret_cast<Real*>(dst);
  const Real* w0 = reinterpret_cast<const Real*>(tw);
  const std::ptrdiff_t os = 2 * ostride;
  for (int b = 0; b < blocks; ++b) {
    const Real* bi = in + 2 * static_cast<std::ptrdiff_t>(b) * len;
    Real* bo = out + os * b * len;
    const Real* w = w0;
    for (int k2 = 0; k2 < m; ++k2) {
      Real cr[P], ci[P], tr[P], ti[P];
      for (int r = 0; r < P; ++r) {
        cr[r] = bi[2 * (r * m + k2)];
        ci[r] = bi[2 * (r * m + k2) + 1];
      }
      for (int k1 = 0; k1 < P; ++k1) {
        Real ar = 0, ai = 0;
        for (int r = 0; r < P; ++r, w += 2) {
          const Real xr = cr[r] * w[0] - ci[r] * w[1];
          const Real xi = cr[r] * w[1] + ci[r] * w[0];
          ar += xr;
          ai += xi;
        }
        tr[k1] = ar;
        ti[k1] = ai;
      }
      for (int k1 = 0; k1 < P; ++k1) {
        bo[os * (k1 * m + k2)] = tr[k1];
        bo[os * (k1 * m + k2) + 1] = ti[k1];
      }
    }
  }
}

}  // namespace

template <typename Real>
bool BasicFft1D<Real>::is_smooth(int n) {
  if (n < 1) return false;
  for (int p : {2, 3, 5, 7})
    while (n % p == 0) n /= p;
  return n == 1;
}

template <typename Real>
int BasicFft1D<Real>::good_fft_size(int n) {
  if (n < 1) return 1;
  for (int m = n;; ++m) {
    int r = m;
    for (int p : {2, 3, 5})
      while (r % p == 0) r /= p;
    if (r == 1) return m;
  }
}

template <typename Real>
BasicFft1D<Real>::BasicFft1D(int n) : n_(n) {
  if (!is_smooth(n))
    throw std::invalid_argument("BasicFft1D: length " + std::to_string(n) +
                                " is not a positive 2-3-5-7-smooth integer");
  const std::vector<int> factors = smooth_factors(n);
  work_.resize(n);
  // Leaf gather: output position k = sum_l r_l * (n_l / f_l) reads
  // input index sum_l r_l * (f_0 * ... * f_{l-1}).
  gather_.resize(n);
  for (int k = 0; k < n; ++k) {
    int rem = k, len = n, stride = 1, in = 0;
    for (int p : factors) {
      const int m = len / p;
      in += (rem / m) * stride;
      rem %= m;
      stride *= p;
      len = m;
    }
    gather_[k] = in;
  }
  std::vector<Cplx> roots(n);  // e^{-2 pi i k / n}, k = 0..n-1
  for (int k = 0; k < n; ++k) {
    const double ang = -units::kTwoPi * k / n;
    roots[k] = Cplx(static_cast<Real>(std::cos(ang)),
                    static_cast<Real>(std::sin(ang)));
  }
  int len = 1;
  for (auto f = factors.rbegin(); f != factors.rend(); ++f) {
    const int p = *f, m = len;
    len *= p;
    stages_.push_back(Stage{p, len, tw_[0].size()});
    const int scale = n / len;
    for (int k2 = 0; k2 < m; ++k2)
      for (int k1 = 0; k1 < p; ++k1)
        for (int r = 0; r < p; ++r) {
          const long e = (static_cast<long>(r) * (k1 * m + k2)) % len;
          tw_[0].push_back(roots[static_cast<std::size_t>(e) * scale]);
          tw_[1].push_back(
              roots[static_cast<std::size_t>(e == 0 ? 0 : len - e) * scale]);
        }
  }
}

template <typename Real>
void BasicFft1D<Real>::inverse(Cplx* data, std::ptrdiff_t stride) const {
  transform(data, stride, +1);
  const Real s = static_cast<Real>(1) / static_cast<Real>(n_);
  for (int i = 0; i < n_; ++i) data[i * stride] *= s;
}

template <typename Real>
void BasicFft1D<Real>::transform(Cplx* data, std::ptrdiff_t stride,
                                 int sign) const {
  if (n_ == 1) return;
  Cplx* work = work_.data();
  for (int k = 0; k < n_; ++k) work[k] = data[gather_[k] * stride];
  const Cplx* tw = tw_[sign > 0 ? 1 : 0].data();
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const Stage& st = stages_[s];
    // The last (whole-length) stage writes the result straight out
    // through the stride.
    const bool last = s + 1 == stages_.size();
    Cplx* dst = last ? data : work;
    const std::ptrdiff_t os = last ? stride : 1;
    const int blocks = n_ / st.len;
    switch (st.p) {
      case 2: combine<2>(work, dst, os, st.len, blocks, tw + st.tw); break;
      case 3: combine<3>(work, dst, os, st.len, blocks, tw + st.tw); break;
      case 5: combine<5>(work, dst, os, st.len, blocks, tw + st.tw); break;
      default: combine<7>(work, dst, os, st.len, blocks, tw + st.tw); break;
    }
  }
}

template class BasicFft1D<double>;
template class BasicFft1D<float>;

}  // namespace ls3df
