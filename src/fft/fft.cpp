#include "fft/fft.h"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/constants.h"
#include "fft/fft_kernel.h"

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

// Live ScopedPortableKernel instances.
std::atomic<int> portable_forced{0};

}  // namespace

namespace fft_detail {

bool avx2_kernel_available() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // for plans built before static constructors ran
  return __builtin_cpu_supports("avx2");
#else
  return false;  // CMakeLists.txt adds -mavx2 on x86-64 only
#endif
}

ScopedPortableKernel::ScopedPortableKernel() { ++portable_forced; }
ScopedPortableKernel::~ScopedPortableKernel() { --portable_forced; }

}  // namespace fft_detail

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
BasicFft1D<Real>::BasicFft1D(int n)
    : n_(n), kernel_(fft_detail::tile_kernel<Real>) {
  if (!is_smooth(n))
    throw std::invalid_argument("BasicFft1D: length " + std::to_string(n) +
                                " is not a positive 2-3-5-7-smooth integer");
  if (portable_forced == 0 && fft_detail::avx2_kernel_available())
    kernel_ = fft_detail::tile_kernel_avx2;
  const std::vector<int> factors = smooth_factors(n);
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
    stages_.push_back(fft_detail::Stage{p, len, tw_[0].size()});
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
  // The calling thread's two SoA tiles (fft.h, "Thread safety").
  thread_local std::vector<Real> work;
  const std::size_t need = 4 * static_cast<std::size_t>(n_) * kTile;
  if (work.size() < need) work.resize(need);
  kernel_(fft_detail::TileJob<Real>{
      n_, gather_.data(), stages_.data(), static_cast<int>(stages_.size()),
      tw_[sign > 0 ? 1 : 0].data(), sign > 0, work.data(), lines, count,
      stride});
}

template class BasicFft1D<double>;
template class BasicFft1D<float>;

namespace fft_detail {

template <typename Real>
const char* kernel_isa(const BasicFft1D<Real>& plan) {
  return plan.kernel_ == tile_kernel<Real> ? "portable" : "avx2";
}

template const char* kernel_isa(const BasicFft1D<double>& plan);
template const char* kernel_isa(const BasicFft1D<float>& plan);

}  // namespace fft_detail

}  // namespace ls3df
