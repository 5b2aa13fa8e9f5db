#include "fft/fft.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

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
  // unrolled for that at P = 7.
#pragma GCC ivdep
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
             int blocks, const std::complex<Real>* tw) {
  const int m = len / P;
  const std::ptrdiff_t cs = static_cast<std::ptrdiff_t>(m) * Lanes;
  for (int b = 0; b < blocks; ++b) {
    const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(b) * len * Lanes;
    const Real* w = reinterpret_cast<const Real*>(tw);
    butterfly<P, Lanes, true>(sr + base, si + base, dr + base, di + base, cs,
                              w);
    w += 2 * (P - 1) * (P - 1);
    for (int k2 = 1; k2 < m; ++k2, w += 2 * P * (P - 1)) {
      const std::ptrdiff_t o = base + static_cast<std::ptrdiff_t>(k2) * Lanes;
      butterfly<P, Lanes, false>(sr + o, si + o, dr + o, di + o, cs, w);
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
  work_.resize(4 * static_cast<std::size_t>(n) * kTile);
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
        // r >= 1 and k >= 1 only, so e != 0 (the unity fold, fft.h).
        for (int r = 1; r < p && k1 * m + k2 > 0; ++r) {
          const long e = (static_cast<long>(r) * (k1 * m + k2)) % len;
          tw_[0].push_back(roots[static_cast<std::size_t>(e) * scale]);
          tw_[1].push_back(roots[static_cast<std::size_t>(len - e) * scale]);
        }
  }
}

template <typename Real>
void BasicFft1D<Real>::transform(Cplx* const* lines, int count,
                                 std::ptrdiff_t stride, int sign) const {
  if (count == 1)
    run<1>(lines, 1, stride, sign);
  else
    run<kTile>(lines, count, stride, sign);
}

template <typename Real>
template <int Lanes>
void BasicFft1D<Real>::run(Cplx* const* lines, int count,
                           std::ptrdiff_t stride, int sign) const {
  if (n_ == 1) return;  // the inverse's 1/n is 1
  const std::size_t plane = static_cast<std::size_t>(n_) * Lanes;
  Real* cr = work_.data();
  Real* ci = cr + plane;
  Real* nr = ci + plane;
  Real* ni = nr + plane;
  // Leaf gather through the stride; a short tile zeroes its spare lanes.
  for (int k = 0; k < n_; ++k) {
    const std::ptrdiff_t j = gather_[k] * stride;
    Real* kr = cr + k * Lanes;
    Real* ki = ci + k * Lanes;
    int t = 0;
    for (; t < count; ++t) {
      kr[t] = lines[t][j].real();
      ki[t] = lines[t][j].imag();
    }
    for (; t < Lanes; ++t) kr[t] = ki[t] = 0;
  }
  const Cplx* tw = tw_[sign > 0 ? 1 : 0].data();
  for (const Stage& st : stages_) {
    const int blocks = n_ / st.len;
    const Cplx* w = tw + st.tw;
    switch (st.p) {
      case 2: combine<2, Lanes>(cr, ci, nr, ni, st.len, blocks, w); break;
      case 3: combine<3, Lanes>(cr, ci, nr, ni, st.len, blocks, w); break;
      case 5: combine<5, Lanes>(cr, ci, nr, ni, st.len, blocks, w); break;
      default: combine<7, Lanes>(cr, ci, nr, ni, st.len, blocks, w); break;
    }
    std::swap(cr, nr);
    std::swap(ci, ni);
  }
  // Scatter through the stride; the inverse applies its 1/n here.
  const Real s = sign > 0 ? static_cast<Real>(1) / static_cast<Real>(n_) : 0;
  for (int t = 0; t < count; ++t) {
    Cplx* line = lines[t];
    if (sign > 0)
      for (int k = 0; k < n_; ++k)
        line[k * stride] = Cplx(cr[k * Lanes + t] * s, ci[k * Lanes + t] * s);
    else
      for (int k = 0; k < n_; ++k)
        line[k * stride] = Cplx(cr[k * Lanes + t], ci[k * Lanes + t]);
  }
}

template class BasicFft1D<double>;
template class BasicFft1D<float>;

}  // namespace ls3df
