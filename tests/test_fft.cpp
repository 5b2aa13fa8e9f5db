// FFT tests: analytic DFTs, round trips, Parseval, linearity, shift
// theorem over 2-3-5-7-smooth sizes, rejection of every other length,
// the plan's bits against a recursive oracle (signed-zero inputs
// included), strided in-place lines against contiguous copies and tiles
// of lines against single-line calls bit for bit, the 3D transform on the grid
// shapes the DFT engine uses (including the paper's 40^3 and 32^3
// per-cell grids), and the G-sphere-pruned transforms against the full
// ones bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/constants.h"
#include "common/rng.h"
#include "fft/fft.h"
#include "fft/fft3d.h"
#include "grid/gvectors.h"

namespace ls3df {
namespace {

// Direct O(n^2) DFT for reference.
std::vector<cplx> dft_reference(const std::vector<cplx>& x, int sign) {
  const int n = static_cast<int>(x.size());
  std::vector<cplx> out(n);
  for (int k = 0; k < n; ++k) {
    cplx acc(0, 0);
    for (int j = 0; j < n; ++j) {
      const double ang = sign * units::kTwoPi * j * k / n;
      acc += x[j] * cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<cplx> random_signal(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return x;
}

double max_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

template <typename Real>
std::vector<std::complex<Real>> random_block(std::size_t n,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<Real>> x(n);
  for (auto& v : x)
    v = std::complex<Real>(static_cast<Real>(rng.uniform(-1, 1)),
                           static_cast<Real>(rng.uniform(-1, 1)));
  return x;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

class Fft1DSizes : public ::testing::TestWithParam<int> {};

TEST_P(Fft1DSizes, MatchesReferenceDft) {
  const int n = GetParam();
  auto x = random_signal(n, 42 + n);
  auto ref = dft_reference(x, -1);
  Fft1D plan(n);
  auto y = x;
  plan.forward(y);
  EXPECT_LT(max_err(y, ref), 1e-9 * n) << "n = " << n;
}

TEST_P(Fft1DSizes, RoundTripIsIdentity) {
  const int n = GetParam();
  auto x = random_signal(n, 1000 + n);
  Fft1D plan(n);
  auto y = x;
  plan.forward(y);
  plan.inverse(y);
  EXPECT_LT(max_err(y, x), 1e-11 * n) << "n = " << n;
}

TEST_P(Fft1DSizes, ParsevalHolds) {
  const int n = GetParam();
  auto x = random_signal(n, 7 + n);
  double time_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  Fft1D plan(n);
  plan.forward(x);
  double freq_energy = 0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / n, time_energy, 1e-9 * n);
}

// Sizes: powers of 2, multiples of 3/5/7, the paper's grid sizes (40, 32)
// and longer mixed composites.
INSTANTIATE_TEST_SUITE_P(AllSizes, Fft1DSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12,
                                           15, 16, 20, 21, 24, 25, 27, 30, 32,
                                           35, 36, 40, 48, 60, 64, 100, 120,
                                           128));

// Lengths with a prime factor above 7 (primes and composites) and
// non-positive lengths have no plan: the constructor throws, in both
// precisions and from the 3D plan too.
TEST(Fft1D, RejectsNonSmoothLength) {
  for (int n : {0, -4, 11, 13, 17, 19, 23, 31, 97, 22, 26, 33, 39, 55, 77}) {
    EXPECT_THROW(Fft1D{n}, std::invalid_argument) << "n = " << n;
    EXPECT_THROW(Fft1DF{n}, std::invalid_argument) << "n = " << n;
  }
  EXPECT_THROW(Fft3D(Vec3i{8, 11, 8}), std::invalid_argument);
  EXPECT_THROW(Fft3DF(Vec3i{8, 8, 0}), std::invalid_argument);
}

TEST(Fft1D, DeltaTransformsToConstant) {
  const int n = 24;
  std::vector<cplx> x(n, cplx(0, 0));
  x[0] = cplx(1, 0);
  Fft1D plan(n);
  plan.forward(x);
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), 1.0, 1e-12);
    EXPECT_NEAR(x[k].imag(), 0.0, 1e-12);
  }
}

TEST(Fft1D, SingleModeTransformsToDelta) {
  const int n = 30, mode = 7;
  std::vector<cplx> x(n);
  for (int j = 0; j < n; ++j) {
    const double ang = units::kTwoPi * mode * j / n;
    x[j] = cplx(std::cos(ang), std::sin(ang));
  }
  Fft1D plan(n);
  plan.forward(x);
  for (int k = 0; k < n; ++k) {
    const double expected = (k == mode) ? n : 0.0;
    EXPECT_NEAR(x[k].real(), expected, 1e-9) << "k=" << k;
    EXPECT_NEAR(x[k].imag(), 0.0, 1e-9) << "k=" << k;
  }
}

TEST(Fft1D, Linearity) {
  const int n = 36;
  auto x = random_signal(n, 1);
  auto y = random_signal(n, 2);
  const cplx a(2.0, -1.0), b(-0.5, 3.0);
  std::vector<cplx> z(n);
  for (int i = 0; i < n; ++i) z[i] = a * x[i] + b * y[i];
  Fft1D plan(n);
  plan.forward(x);
  plan.forward(y);
  plan.forward(z);
  for (int i = 0; i < n; ++i)
    EXPECT_LT(std::abs(z[i] - (a * x[i] + b * y[i])), 1e-10);
}

TEST(Fft1D, ShiftTheorem) {
  // A circular shift by s multiplies the spectrum by exp(-2 pi i k s / n).
  const int n = 40, s = 3;
  auto x = random_signal(n, 9);
  std::vector<cplx> xs(n);
  for (int j = 0; j < n; ++j) xs[j] = x[(j + s) % n];
  Fft1D plan(n);
  auto X = x;
  plan.forward(X);
  plan.forward(xs);
  for (int k = 0; k < n; ++k) {
    const double ang = units::kTwoPi * k * s / n;
    const cplx phase(std::cos(ang), std::sin(ang));
    EXPECT_LT(std::abs(xs[k] - X[k] * phase), 1e-9);
  }
}

TEST(Fft1D, RealSignalHasHermitianSpectrum) {
  const int n = 32;
  Rng rng(17);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(rng.uniform(-1, 1), 0.0);
  Fft1D plan(n);
  plan.forward(x);
  for (int k = 1; k < n; ++k)
    EXPECT_LT(std::abs(x[k] - std::conj(x[n - k])), 1e-10);
}

TEST(Fft1D, SmoothnessDetection) {
  EXPECT_TRUE(Fft1D::is_smooth(1));
  EXPECT_TRUE(Fft1D::is_smooth(8));
  EXPECT_TRUE(Fft1D::is_smooth(40));   // 2^3 * 5
  EXPECT_TRUE(Fft1D::is_smooth(360));  // 2^3*3^2*5
  EXPECT_TRUE(Fft1D::is_smooth(7 * 8));
  EXPECT_FALSE(Fft1D::is_smooth(11));
  EXPECT_FALSE(Fft1D::is_smooth(2 * 13));
  EXPECT_FALSE(Fft1D::is_smooth(97));
  EXPECT_FALSE(Fft1D::is_smooth(0));
  EXPECT_FALSE(Fft1D::is_smooth(-8));
}

TEST(Fft1D, GoodFftSize) {
  EXPECT_EQ(Fft1D::good_fft_size(1), 1);
  EXPECT_EQ(Fft1D::good_fft_size(7), 8);
  EXPECT_EQ(Fft1D::good_fft_size(11), 12);
  EXPECT_EQ(Fft1D::good_fft_size(17), 18);
  EXPECT_EQ(Fft1D::good_fft_size(40), 40);
  EXPECT_EQ(Fft1D::good_fft_size(41), 45);
  // Result never has a factor other than 2, 3, 5.
  for (int n = 1; n <= 200; ++n) {
    int m = Fft1D::good_fft_size(n);
    EXPECT_GE(m, n);
    for (int p : {2, 3, 5})
      while (m % p == 0) m /= p;
    EXPECT_EQ(m, 1);
  }
}

// Test-only copy of the recursive mixed-radix transform the table-driven
// kernel replaced: the generic oracle the optimized kernel must match bit
// for bit (fft.h's bit contract). Roots are computed exactly as the plan
// computes them.
template <typename Real>
class RecursiveFftOracle {
 public:
  using Cplx = std::complex<Real>;

  explicit RecursiveFftOracle(int n) : n_(n), roots_(n), work_(n) {
    int r = n;
    for (int p : {2, 3, 5, 7})
      while (r % p == 0) {
        factors_.push_back(p);
        r /= p;
      }
    for (int k = 0; k < n; ++k) {
      const double ang = -units::kTwoPi * k / n;
      roots_[k] = Cplx(static_cast<Real>(std::cos(ang)),
                       static_cast<Real>(std::sin(ang)));
    }
  }

  void forward(Cplx* data) { transform(data, -1); }
  void inverse(Cplx* data) {
    transform(data, +1);
    const Real s = static_cast<Real>(1) / static_cast<Real>(n_);
    for (int i = 0; i < n_; ++i) data[i] *= s;
  }

 private:
  void transform(Cplx* data, int sign) {
    if (n_ == 1) return;
    recurse(work_.data(), data, n_, 1, sign);
    for (int i = 0; i < n_; ++i) data[i] = work_[i];
  }

  void recurse(Cplx* out, const Cplx* in, int n, int stride, int sign) {
    if (n == 1) {
      out[0] = in[0];
      return;
    }
    int p = 0;
    for (int f : factors_)
      if (n % f == 0) {
        p = f;
        break;
      }
    const int m = n / p;
    for (int r = 0; r < p; ++r)
      recurse(out + r * m, in + static_cast<std::ptrdiff_t>(r) * stride, m,
              stride * p, sign);
    const int scale = n_ / n;
    Cplx t[7];
    Cplx col[7];
    for (int k2 = 0; k2 < m; ++k2) {
      for (int r = 0; r < p; ++r) col[r] = out[r * m + k2];
      for (int k1 = 0; k1 < p; ++k1) {
        const int k = k1 * m + k2;
        Cplx acc(0, 0);
        for (int r = 0; r < p; ++r) {
          long e = (static_cast<long>(r) * k) % n;
          if (sign > 0 && e != 0) e = n - e;
          acc += col[r] * roots_[static_cast<std::size_t>(e) * scale];
        }
        t[k1] = acc;
      }
      for (int k1 = 0; k1 < p; ++k1) out[k1 * m + k2] = t[k1];
    }
  }

  int n_;
  std::vector<int> factors_;
  std::vector<Cplx> roots_;
  std::vector<Cplx> work_;
};

// Every 7-smooth n <= 128 plus two long multi-factor lengths.
template <typename Real>
std::vector<int> smooth_test_sizes() {
  std::vector<int> sizes;
  for (int n = 1; n <= 128; ++n)
    if (BasicFft1D<Real>::is_smooth(n)) sizes.push_back(n);
  sizes.push_back(210);
  sizes.push_back(360);
  return sizes;
}

// Signed-zero inputs: every real and imaginary part is +0 or -0, and
// with `spike` one entry is a random nonzero, so exact zeros meet the
// unity fold (fft.h) in every stage.
template <typename Real>
std::vector<std::complex<Real>> signed_zero_signal(int n, bool spike,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<Real>> x(n);
  for (auto& v : x)
    v = std::complex<Real>(rng.uniform(-1, 1) < 0 ? Real(-0.0) : Real(0),
                           rng.uniform(-1, 1) < 0 ? Real(-0.0) : Real(0));
  if (spike)
    x[n / 3] = std::complex<Real>(static_cast<Real>(rng.uniform(-1, 1)),
                                  static_cast<Real>(rng.uniform(-1, 1)));
  return x;
}

// Every test size, both signs: the table-driven plan reproduces the
// recursive transform bit for bit, on random input and on signed-zero
// input (which pins the unity fold's "0 +").
template <typename Real>
void expect_bits_match_recursive_oracle() {
  using Cplx = std::complex<Real>;
  for (int n : smooth_test_sizes<Real>()) {
    Rng rng(1000 + n);
    std::vector<Cplx> random(n);
    for (auto& v : random)
      v = Cplx(static_cast<Real>(rng.uniform(-1, 1)),
               static_cast<Real>(rng.uniform(-1, 1)));
    BasicFft1D<Real> plan(n);
    RecursiveFftOracle<Real> oracle(n);
    for (const std::vector<Cplx>& x :
         {random, signed_zero_signal<Real>(n, false, 3000 + n),
          signed_zero_signal<Real>(n, true, 4000 + n)}) {
      std::vector<Cplx> fast = x, ref = x;
      plan.forward(fast.data());
      oracle.forward(ref.data());
      EXPECT_EQ(std::memcmp(fast.data(), ref.data(), n * sizeof(Cplx)), 0)
          << "forward n = " << n;
      fast = x;
      ref = x;
      plan.inverse(fast.data());
      oracle.inverse(ref.data());
      EXPECT_EQ(std::memcmp(fast.data(), ref.data(), n * sizeof(Cplx)), 0)
          << "inverse n = " << n;
    }
  }
}

TEST(Fft1D, BitIdenticalToRecursiveOracleFp64) {
  expect_bits_match_recursive_oracle<double>();
}

TEST(Fft1D, BitIdenticalToRecursiveOracleFp32) {
  expect_bits_match_recursive_oracle<float>();
}

// A strided in-place transform of the n elements x[j * stride] has the
// bits of copy -> contiguous transform -> copy back, and leaves every
// slot between the line's elements untouched. Every 7-smooth n <= 128
// plus two long multi-factor lengths, both signs, strides 1, 2, n + 3.
template <typename Real>
void expect_strided_matches_contiguous() {
  using Cplx = std::complex<Real>;
  for (int n : smooth_test_sizes<Real>()) {
    const BasicFft1D<Real> plan(n);
    for (std::ptrdiff_t stride : {std::ptrdiff_t{1}, std::ptrdiff_t{2},
                                  static_cast<std::ptrdiff_t>(n) + 3}) {
      const std::size_t span = static_cast<std::size_t>(n * stride);
      const std::vector<Cplx> x = random_block<Real>(span, 2000 + n);
      for (bool inv : {false, true}) {
        std::vector<Cplx> strided = x, ref = x, line(n);
        if (inv)
          plan.inverse(strided.data(), stride);
        else
          plan.forward(strided.data(), stride);
        for (int j = 0; j < n; ++j) line[j] = ref[j * stride];
        if (inv)
          plan.inverse(line.data());
        else
          plan.forward(line.data());
        for (int j = 0; j < n; ++j) ref[j * stride] = line[j];
        EXPECT_TRUE(same_bits(strided, ref))
            << (inv ? "inverse" : "forward") << " n = " << n
            << " stride = " << stride;
      }
    }
  }
}

TEST(Fft1D, StridedMatchesContiguous) {
  expect_strided_matches_contiguous<double>();
  expect_strided_matches_contiguous<float>();
}

// A tile of `count` lines through transform_lines has, line for line,
// the bits of single-line calls, and leaves every slot between the lines'
// elements untouched. Every test size, every count 1..kTile, strides 1,
// 2 and n + 3, both signs. Lines sit in adjacent columns when the stride
// leaves room (the 3D y- and x-pass shape), else one after another.
template <typename Real>
void expect_tile_matches_single_line() {
  using Cplx = std::complex<Real>;
  constexpr int kTile = BasicFft1D<Real>::kTile;
  for (int n : smooth_test_sizes<Real>()) {
    const BasicFft1D<Real> plan(n);
    for (std::ptrdiff_t stride : {std::ptrdiff_t{1}, std::ptrdiff_t{2},
                                  static_cast<std::ptrdiff_t>(n) + 3}) {
      for (int count = 1; count <= kTile; ++count) {
        const std::ptrdiff_t line_gap = stride >= count ? 1 : n * stride;
        const std::size_t span =
            static_cast<std::size_t>((count - 1) * line_gap + n * stride);
        std::vector<Cplx> x = random_block<Real>(span, 5000 + n + count);
        // Signed zeros in the first line, so the fold meets them in a
        // tile lane as well.
        const std::vector<Cplx> z = signed_zero_signal<Real>(n, true, n);
        for (int j = 0; j < n; ++j) x[j * stride] = z[j];
        for (bool inv : {false, true}) {
          std::vector<Cplx> tile = x, ref = x;
          plan.transform_lines(inv, count, stride, [&](int t) {
            return tile.data() + t * line_gap;
          });
          for (int t = 0; t < count; ++t)
            if (inv)
              plan.inverse(ref.data() + t * line_gap, stride);
            else
              plan.forward(ref.data() + t * line_gap, stride);
          EXPECT_TRUE(same_bits(tile, ref))
              << (inv ? "inverse" : "forward") << " n = " << n
              << " stride = " << stride << " count = " << count;
        }
      }
    }
  }
}

TEST(Fft1D, TileMatchesSingleLineFp64) {
  expect_tile_matches_single_line<double>();
}

TEST(Fft1D, TileMatchesSingleLineFp32) {
  expect_tile_matches_single_line<float>();
}

TEST(Fft3D, RoundTrip) {
  const Vec3i shape{8, 6, 10};
  Fft3D plan(shape);
  Rng rng(3);
  std::vector<cplx> x(plan.size());
  for (auto& v : x) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  auto y = x;
  plan.forward(y);
  plan.inverse(y);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_LT(std::abs(y[i] - x[i]), 1e-10);
}

TEST(Fft3D, SingleModeIsDelta) {
  const Vec3i shape{6, 4, 8};
  const Vec3i mode{2, 3, 5};
  Fft3D plan(shape);
  std::vector<cplx> x(plan.size());
  for (int ix = 0; ix < shape.x; ++ix)
    for (int iy = 0; iy < shape.y; ++iy)
      for (int iz = 0; iz < shape.z; ++iz) {
        const double ang =
            units::kTwoPi * (static_cast<double>(mode.x) * ix / shape.x +
                             static_cast<double>(mode.y) * iy / shape.y +
                             static_cast<double>(mode.z) * iz / shape.z);
        x[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz] =
            cplx(std::cos(ang), std::sin(ang));
      }
  plan.forward(x);
  const std::size_t hit =
      (static_cast<std::size_t>(mode.x) * shape.y + mode.y) * shape.z + mode.z;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double expected = (i == hit) ? static_cast<double>(plan.size()) : 0.0;
    EXPECT_NEAR(x[i].real(), expected, 1e-8) << i;
    EXPECT_NEAR(x[i].imag(), 0.0, 1e-8) << i;
  }
}

TEST(Fft3D, ParsevalHolds) {
  const Vec3i shape{10, 10, 10};
  Fft3D plan(shape);
  Rng rng(8);
  std::vector<cplx> x(plan.size());
  double te = 0;
  for (auto& v : x) {
    v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    te += std::norm(v);
  }
  plan.forward(x);
  double fe = 0;
  for (const auto& v : x) fe += std::norm(v);
  EXPECT_NEAR(fe / static_cast<double>(plan.size()), te, 1e-8 * te);
}

TEST(Fft3D, PaperGridSizes) {
  // The paper uses 40^3 (Franklin, 50 Ry) and 32^3 (Intrepid, 40 Ry)
  // real-space grids per 8-atom cell; both must round-trip exactly.
  for (int n : {32, 40}) {
    Fft3D plan({n, n, n});
    Rng rng(n);
    std::vector<cplx> x(plan.size());
    for (auto& v : x) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    auto y = x;
    plan.forward(y);
    plan.inverse(y);
    double m = 0;
    for (std::size_t i = 0; i < x.size(); ++i)
      m = std::max(m, std::abs(y[i] - x[i]));
    EXPECT_LT(m, 1e-10) << "grid " << n;
  }
}

TEST(Fft3D, MatchesSeparable1DTransforms) {
  const Vec3i shape{4, 6, 5};
  Fft3D plan(shape);
  auto x = random_signal(static_cast<int>(plan.size()), 55);
  auto got = x;
  plan.forward(got);

  // Reference: apply reference DFT along each axis successively.
  auto ref = x;
  // z axis.
  for (int ix = 0; ix < shape.x; ++ix)
    for (int iy = 0; iy < shape.y; ++iy) {
      std::vector<cplx> row(shape.z);
      for (int iz = 0; iz < shape.z; ++iz)
        row[iz] = ref[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz];
      row = dft_reference(row, -1);
      for (int iz = 0; iz < shape.z; ++iz)
        ref[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz] = row[iz];
    }
  // y axis.
  for (int ix = 0; ix < shape.x; ++ix)
    for (int iz = 0; iz < shape.z; ++iz) {
      std::vector<cplx> row(shape.y);
      for (int iy = 0; iy < shape.y; ++iy)
        row[iy] = ref[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz];
      row = dft_reference(row, -1);
      for (int iy = 0; iy < shape.y; ++iy)
        ref[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz] = row[iy];
    }
  // x axis.
  for (int iy = 0; iy < shape.y; ++iy)
    for (int iz = 0; iz < shape.z; ++iz) {
      std::vector<cplx> row(shape.x);
      for (int ix = 0; ix < shape.x; ++ix)
        row[ix] = ref[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz];
      row = dft_reference(row, -1);
      for (int ix = 0; ix < shape.x; ++ix)
        ref[(static_cast<std::size_t>(ix) * shape.y + iy) * shape.z + iz] = row[ix];
    }

  EXPECT_LT(max_err(got, ref), 1e-9);
}

TEST(Fft3DMany, BitIdenticalToSingleTransforms) {
  // The many-transform sweep of the batched fragment path must reproduce
  // per-grid transforms exactly, for any worker count (each lane
  // transforms through its own thread-local plan).
  const Vec3i shape{6, 4, 5};
  Fft3D plan(shape);
  const int count = 7;
  auto stack0 = random_signal(static_cast<int>(plan.size()) * count, 77);
  for (int workers : {1, 4}) {
    auto many = stack0;
    plan.forward_many(many.data(), count, workers);
    auto single = stack0;
    for (int g = 0; g < count; ++g)
      plan.forward(single.data() + static_cast<std::size_t>(g) * plan.size());
    for (std::size_t i = 0; i < many.size(); ++i)
      ASSERT_EQ(many[i], single[i]) << "forward i=" << i
                                    << " workers=" << workers;

    plan.inverse_many(many.data(), count, workers);
    for (int g = 0; g < count; ++g)
      plan.inverse(single.data() + static_cast<std::size_t>(g) * plan.size());
    for (std::size_t i = 0; i < many.size(); ++i)
      ASSERT_EQ(many[i], single[i]) << "inverse i=" << i
                                    << " workers=" << workers;
    // And the round trip still recovers the input to solver precision.
    for (std::size_t i = 0; i < many.size(); ++i)
      ASSERT_LT(std::abs(many[i] - stack0[i]), 1e-12);
  }
}

// --- G-sphere-pruned transforms ---------------------------------------

// A wavefunction basis on `shape` with 1 bohr grid spacing and a cutoff
// whose sphere spans about half of every axis — the default_fft_grid
// proportions of the fragment solver.
GVectors sphere_basis(Vec3i shape, double ecut = 1.2) {
  return GVectors(Lattice({1.0 * shape.x, 1.0 * shape.y, 1.0 * shape.z}),
                  shape, ecut);
}

// Pruned inverse == full inverse over the whole grid (scattered input);
// pruned forward == full forward on the sphere points (dense input).
template <typename Real>
void check_pruned_matches_full(Vec3i shape) {
  using C = std::complex<Real>;
  const GVectors gv = sphere_basis(shape);
  const FftLines& lines = gv.fft_lines();
  // The sphere must actually leave lines out, or nothing is tested.
  ASSERT_LT(lines.yz.size(), static_cast<std::size_t>(shape.y) * shape.z);
  ASSERT_LT(lines.z.size(), static_cast<std::size_t>(shape.z));
  const BasicFft3D<Real> plan(shape);

  const auto coeff = random_block<Real>(gv.count(), 31);
  std::vector<C> full(plan.size());
  gv.scatter(coeff.data(), full.data());
  std::vector<C> pruned = full;
  plan.inverse(full.data());
  plan.inverse(pruned.data(), lines);
  EXPECT_TRUE(same_bits(full, pruned)) << "inverse " << shape;

  full = random_block<Real>(plan.size(), 37);
  pruned = full;
  plan.forward(full.data());
  plan.forward(pruned.data(), lines);
  std::vector<C> c_full(gv.count()), c_pruned(gv.count());
  gv.gather(full.data(), c_full.data());
  gv.gather(pruned.data(), c_pruned.data());
  EXPECT_TRUE(same_bits(c_full, c_pruned)) << "forward " << shape;
}

// Alloy fragment grids, odd 7-smooth axes (15, 21, 9, 5) and
// non-cubic boxes, and the sheet's 9/14-point fragment extents.
const Vec3i kPrunedShapes[] = {{16, 8, 8}, {24, 8, 8},   {15, 15, 15},
                               {21, 9, 5}, {16, 14, 14}, {20, 14, 14}};

TEST(Fft3DPruned, MatchesFullTransformFp64) {
  for (const Vec3i& shape : kPrunedShapes)
    check_pruned_matches_full<double>(shape);
}

TEST(Fft3DPruned, MatchesFullTransformFp32) {
  for (const Vec3i& shape : kPrunedShapes)
    check_pruned_matches_full<float>(shape);
}

TEST(Fft3DPruned, ManySweepBitIdenticalToSerial) {
  // Two spheres on one grid shape, alternating grid by grid: the sweep
  // must prune each grid with its own table, for any worker count.
  const Vec3i shape{16, 14, 14};
  const GVectors small = sphere_basis(shape, 0.8), big = sphere_basis(shape);
  ASSERT_NE(small.fft_lines().yz, big.fft_lines().yz);
  Fft3D plan(shape);
  const int count = 7;
  std::vector<const FftLines*> lines(count);
  std::vector<cplx> stack0(plan.size() * count);
  for (int g = 0; g < count; ++g) {
    const GVectors& gv = g % 2 ? big : small;
    lines[g] = &gv.fft_lines();
    const auto coeff = random_block<double>(gv.count(), 50 + g);
    gv.scatter(coeff.data(), stack0.data() + g * plan.size());
  }
  std::vector<cplx> serial = stack0;
  for (int g = 0; g < count; ++g)
    plan.inverse(serial.data() + g * plan.size(), *lines[g]);
  std::vector<cplx> serial_fwd = serial;
  for (int g = 0; g < count; ++g)
    plan.forward(serial_fwd.data() + g * plan.size(), *lines[g]);
  for (int workers : {1, 2, 4}) {
    std::vector<cplx> many = stack0;
    plan.inverse_many(many.data(), count, lines.data(), workers);
    EXPECT_TRUE(same_bits(many, serial)) << "inverse workers=" << workers;
    plan.forward_many(many.data(), count, lines.data(), workers);
    EXPECT_TRUE(same_bits(many, serial_fwd)) << "forward workers=" << workers;
  }
  // fp32 sweep against fp32 serial transforms.
  Fft3DF plan_f(shape);
  std::vector<cplxf> stack_f(stack0.size());
  for (std::size_t i = 0; i < stack0.size(); ++i)
    stack_f[i] = cplxf(stack0[i]);
  std::vector<cplxf> serial_f = stack_f;
  for (int g = 0; g < count; ++g)
    plan_f.inverse(serial_f.data() + g * plan_f.size(), *lines[g]);
  std::vector<cplxf> serial_fwd_f = serial_f;
  for (int g = 0; g < count; ++g)
    plan_f.forward(serial_fwd_f.data() + g * plan_f.size(), *lines[g]);
  for (int workers : {1, 2, 4}) {
    std::vector<cplxf> many = stack_f;
    plan_f.inverse_many(many.data(), count, lines.data(), workers);
    EXPECT_TRUE(same_bits(many, serial_f))
        << "fp32 inverse workers=" << workers;
    plan_f.forward_many(many.data(), count, lines.data(), workers);
    EXPECT_TRUE(same_bits(many, serial_fwd_f))
        << "fp32 forward workers=" << workers;
  }
}

}  // namespace
}  // namespace ls3df
