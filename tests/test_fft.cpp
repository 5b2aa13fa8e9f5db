// FFT tests: analytic DFTs, round trips, Parseval, linearity, shift
// theorem over 2-3-5-7-smooth sizes, rejection of every other length,
// the plan's bits against a recursive oracle (signed-zero inputs
// included), strided in-place lines against contiguous copies and tiles
// of lines against single-line calls bit for bit, the 3D transform on the grid
// shapes the DFT engine uses (including the paper's 40^3 and 32^3
// per-cell grids), and the G-sphere-pruned transforms against the full
// ones bit for bit. The bit checks run once per tile kernel (portable
// and AVX2; fft.h, "ISA dispatch"): the dense, pruned, many-grid and
// distributed 3D transforms against the oracle applied line by line,
// the two kernels against each other, and one plan shared by concurrent
// threads against serial transforms.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <memory>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/constants.h"
#include "common/rng.h"
#include "fft/dist_fft3d.h"
#include "fft/fft.h"
#include "fft/fft3d.h"
#include "fft/fft_kernel.h"
#include "grid/gvectors.h"
#include "grid/sharded_field.h"
#include "parallel/shard_comm.h"

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

// --- Tile kernel paths (fft.h, "ISA dispatch") ------------------------

// Plans built while a KernelScope is alive run the named tile kernel:
// "portable" through fft_detail::ScopedPortableKernel, "avx2" by default
// (on a CPU with AVX2). The many-grid sweep and DistFft3D transform only
// through plans their owner built, so building the owner inside the
// scope puts every pool lane on that kernel too.
class KernelScope {
 public:
  explicit KernelScope(const std::string& isa) {
    if (isa == "portable")
      force_ = std::make_unique<fft_detail::ScopedPortableKernel>();
  }

 private:
  std::unique_ptr<fft_detail::ScopedPortableKernel> force_;
};

constexpr const char* kAvx2Missing =
    "this is not an x86-64 CPU with AVX2: only the portable tile kernel "
    "runs here";

// A test run once per kernel path, the plans of its body built in that
// path's KernelScope. The AVX2 run is skipped where the CPU lacks AVX2.
class KernelPath : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "avx2" && !fft_detail::avx2_kernel_available())
      GTEST_SKIP() << kAvx2Missing;
    scope_ = std::make_unique<KernelScope>(GetParam());
    ASSERT_EQ(std::string(fft_detail::kernel_isa(Fft1D(12))), GetParam());
    ASSERT_EQ(std::string(fft_detail::kernel_isa(Fft1DF(12))), GetParam());
  }

 private:
  std::unique_ptr<KernelScope> scope_;
};

class Fft1DKernel : public KernelPath {};
class DistFft3DKernel : public KernelPath {};
class Fft3DPruned : public KernelPath {};

const auto kKernelPaths = ::testing::Values("portable", "avx2");
const auto kKernelName = [](const ::testing::TestParamInfo<std::string>& i) {
  return i.param;
};

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

TEST_P(Fft1DKernel, BitIdenticalToRecursiveOracleFp64) {
  expect_bits_match_recursive_oracle<double>();
}

TEST_P(Fft1DKernel, BitIdenticalToRecursiveOracleFp32) {
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

TEST_P(Fft1DKernel, StridedMatchesContiguous) {
  expect_strided_matches_contiguous<double>();
  expect_strided_matches_contiguous<float>();
}

// A tile of `count` lines through transform_lines has, line for line,
// the bits of single-line calls and of the recursive oracle, and leaves
// every slot between the lines' elements untouched. Every test size,
// every count 1..kTile, strides 1, 2 and n + 3, both signs. Lines sit in
// adjacent columns when the stride leaves room (the 3D y- and x-pass
// shape), else one after another.
template <typename Real>
void expect_tile_matches_single_line() {
  using Cplx = std::complex<Real>;
  constexpr int kTile = BasicFft1D<Real>::kTile;
  for (int n : smooth_test_sizes<Real>()) {
    const BasicFft1D<Real> plan(n);
    RecursiveFftOracle<Real> oracle(n);
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
          for (int t = 0; t < count; ++t) {
            std::vector<Cplx> got(n), want(n);
            for (int j = 0; j < n; ++j) {
              got[j] = tile[t * line_gap + j * stride];
              want[j] = x[t * line_gap + j * stride];
            }
            if (inv)
              oracle.inverse(want.data());
            else
              oracle.forward(want.data());
            EXPECT_TRUE(same_bits(got, want))
                << "oracle, " << (inv ? "inverse" : "forward") << " n = " << n
                << " stride = " << stride << " count = " << count
                << " line = " << t;
          }
        }
      }
    }
  }
}

TEST_P(Fft1DKernel, TileMatchesSingleLineFp64) {
  expect_tile_matches_single_line<double>();
}

TEST_P(Fft1DKernel, TileMatchesSingleLineFp32) {
  expect_tile_matches_single_line<float>();
}

INSTANTIATE_TEST_SUITE_P(Kernel, Fft1DKernel, kKernelPaths, kKernelName);

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
  // per-grid transforms exactly, for any worker count (every lane
  // transforms through the one plan).
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

// --- 3D transforms against the line oracle ------------------------------

// The 3D transform in fft3d.h's axis order (forward z, y, x; inverse x,
// y, z) with every line through RecursiveFftOracle: the bits each 3D
// entry must reproduce on either kernel.
template <typename Real>
void oracle_3d(std::complex<Real>* a, Vec3i s, bool inv) {
  const std::ptrdiff_t n23 = static_cast<std::ptrdiff_t>(s.y) * s.z;
  // The n_lines lines of length n at `stride` starting at a + start(i).
  const auto pass = [&](int n, std::ptrdiff_t stride, int n_lines,
                        const auto& start) {
    RecursiveFftOracle<Real> oracle(n);
    std::vector<std::complex<Real>> line(n);
    for (int i = 0; i < n_lines; ++i) {
      std::complex<Real>* p = a + start(i);
      for (int j = 0; j < n; ++j) line[j] = p[j * stride];
      if (inv)
        oracle.inverse(line.data());
      else
        oracle.forward(line.data());
      for (int j = 0; j < n; ++j) p[j * stride] = line[j];
    }
  };
  const auto z = [&] {
    pass(s.z, 1, s.x * s.y, [&](int i) { return std::ptrdiff_t{i} * s.z; });
  };
  const auto y = [&] {
    pass(s.y, s.z, s.x * s.z,
         [&](int i) { return (i / s.z) * n23 + i % s.z; });
  };
  const auto x = [&] {
    pass(s.x, n23, s.y * s.z, [](int i) { return std::ptrdiff_t{i}; });
  };
  if (inv) {
    x();
    y();
    z();
  } else {
    z();
    y();
    x();
  }
}

// Random input with signed zeros along the first z-row, so the unity
// fold meets them in every pass.
template <typename Real>
std::vector<std::complex<Real>> grid_signal(Vec3i shape, std::uint64_t seed) {
  std::vector<std::complex<Real>> x = random_block<Real>(
      static_cast<std::size_t>(shape.x) * shape.y * shape.z, seed);
  const auto z = signed_zero_signal<Real>(shape.z, false, seed);
  for (int j = 0; j < shape.z; ++j) x[j] = z[j];
  return x;
}

// DistFft3D (in-process shards): the pencils hold the oracle's forward
// transform of the real input, and the inverse returns the real parts of
// the oracle's inverse of it, bit for bit.
TEST_P(DistFft3DKernel, BitIdenticalToLineOracle) {
  const Vec3i shape{12, 8, 6};
  FieldR real_in(shape);
  Rng rng(81);
  for (std::size_t i = 0; i < real_in.size(); ++i)
    real_in[i] = rng.uniform(-1, 1);
  std::vector<cplx> fwd(real_in.size());
  for (std::size_t i = 0; i < fwd.size(); ++i) fwd[i] = cplx(real_in[i], 0);
  oracle_3d(fwd.data(), shape, false);
  std::vector<cplx> back = fwd;
  oracle_3d(back.data(), shape, true);
  for (int shards : {1, 2}) {
    for (int workers : {1, 2}) {
      ShardComm comm(shards, workers);
      DistFft3D fft(shape, comm);
      ShardedFieldR in(shape, shards);
      in.from_dense(real_in);
      fft.forward(in);
      std::vector<cplx> got, want;
      for (int r = 0; r < shards; ++r) {
        const cplx* p = fft.pencil(r);
        for (int iy = fft.y0(r); iy < fft.y1(r); ++iy)
          for (int iz = 0; iz < shape.z; ++iz)
            for (int ix = 0; ix < shape.x; ++ix) {
              got.push_back(*p++);
              want.push_back(
                  fwd[(static_cast<std::size_t>(ix) * shape.y + iy) *
                          shape.z + iz]);
            }
      }
      EXPECT_TRUE(same_bits(got, want))
          << "forward shards " << shards << " workers " << workers;
      ShardedFieldR out(shape, shards);
      fft.inverse(out);
      const FieldR dense = out.to_dense();
      std::vector<double> re_got(dense.size()), re_want(dense.size());
      for (std::size_t i = 0; i < dense.size(); ++i) {
        re_got[i] = dense[i];
        re_want[i] = back[i].real();
      }
      EXPECT_TRUE(same_bits(re_got, re_want))
          << "inverse shards " << shards << " workers " << workers;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernel, DistFft3DKernel, kKernelPaths, kKernelName);

// --- G-sphere-pruned transforms ---------------------------------------

// A wavefunction basis on `shape` with 1 bohr grid spacing and a cutoff
// whose sphere spans about half of every axis — the default_fft_grid
// proportions of the fragment solver.
GVectors sphere_basis(Vec3i shape, double ecut = 1.2) {
  return GVectors(Lattice({1.0 * shape.x, 1.0 * shape.y, 1.0 * shape.z}),
                  shape, ecut);
}

// Pruned inverse == full inverse over the whole grid (scattered input);
// pruned forward == full forward on the sphere points (dense input); and
// the full transforms have the line oracle's bits.
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
  std::vector<C> pruned = full, oracle = full;
  plan.inverse(full.data());
  plan.inverse(pruned.data(), lines);
  oracle_3d(oracle.data(), shape, true);
  EXPECT_TRUE(same_bits(full, pruned)) << "inverse " << shape;
  EXPECT_TRUE(same_bits(full, oracle)) << "oracle, inverse " << shape;

  full = grid_signal<Real>(shape, 37);
  pruned = oracle = full;
  plan.forward(full.data());
  plan.forward(pruned.data(), lines);
  oracle_3d(oracle.data(), shape, false);
  std::vector<C> c_full(gv.count()), c_pruned(gv.count());
  gv.gather(full.data(), c_full.data());
  gv.gather(pruned.data(), c_pruned.data());
  EXPECT_TRUE(same_bits(c_full, c_pruned)) << "forward " << shape;
  EXPECT_TRUE(same_bits(full, oracle)) << "oracle, forward " << shape;
}

// Alloy fragment grids, odd 7-smooth axes (15, 21, 9, 5) and
// non-cubic boxes, the sheet's 9/14-point fragment extents, and a cube
// whose x pass runs full tiles at a 4 KiB (2^k) stride.
const Vec3i kPrunedShapes[] = {{16, 8, 8},   {24, 8, 8},   {15, 15, 15},
                               {21, 9, 5},   {16, 14, 14}, {20, 14, 14},
                               {16, 16, 16}};

TEST_P(Fft3DPruned, MatchesFullTransformFp64) {
  for (const Vec3i& shape : kPrunedShapes)
    check_pruned_matches_full<double>(shape);
}

TEST_P(Fft3DPruned, MatchesFullTransformFp32) {
  for (const Vec3i& shape : kPrunedShapes)
    check_pruned_matches_full<float>(shape);
}

// Grid by grid, a stack of serial pruned inverses (of sphere-scattered
// input) has the line oracle's bits, and its serial pruned forwards
// have them on each grid's sphere points.
template <typename Real>
void expect_serial_pruned_match_oracle(
    Vec3i shape, const std::vector<const GVectors*>& gv,
    const std::vector<std::complex<Real>>& input,
    const std::vector<std::complex<Real>>& inverse,
    const std::vector<std::complex<Real>>& forward) {
  using C = std::complex<Real>;
  const std::size_t size = inverse.size() / gv.size();
  std::vector<C> want = input;
  for (std::size_t g = 0; g < gv.size(); ++g)
    oracle_3d(want.data() + g * size, shape, true);
  EXPECT_TRUE(same_bits(inverse, want)) << "oracle, inverse";
  for (std::size_t g = 0; g < gv.size(); ++g) {
    oracle_3d(want.data() + g * size, shape, false);
    std::vector<C> c_got(gv[g]->count()), c_want(gv[g]->count());
    gv[g]->gather(forward.data() + g * size, c_got.data());
    gv[g]->gather(want.data() + g * size, c_want.data());
    EXPECT_TRUE(same_bits(c_got, c_want)) << "oracle, forward grid " << g;
  }
}

TEST_P(Fft3DPruned, ManySweepBitIdenticalToSerial) {
  // Two spheres on one grid shape, alternating grid by grid: the sweep
  // must prune each grid with its own table, for any worker count, and
  // the serial transforms it matches have the line oracle's bits.
  const Vec3i shape{16, 14, 14};
  const GVectors small = sphere_basis(shape, 0.8), big = sphere_basis(shape);
  ASSERT_NE(small.fft_lines().yz, big.fft_lines().yz);
  Fft3D plan(shape);
  const int count = 7;
  std::vector<const FftLines*> lines(count);
  std::vector<const GVectors*> spheres(count);
  std::vector<cplx> stack0(plan.size() * count);
  for (int g = 0; g < count; ++g) {
    const GVectors& gv = g % 2 ? big : small;
    spheres[g] = &gv;
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
  expect_serial_pruned_match_oracle(shape, spheres, stack0, serial,
                                    serial_fwd);
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
  expect_serial_pruned_match_oracle(shape, spheres, stack_f, serial_f,
                                    serial_fwd_f);
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

INSTANTIATE_TEST_SUITE_P(Kernel, Fft3DPruned, kKernelPaths, kKernelName);

// One shared-plan thread's input: kTile + 3 lines of the 1D plan's
// length back to back (a full tile and a short one), a dense grid, and a
// sphere-scattered grid.
struct SharedPlanInput {
  std::vector<cplx> lines, grid, sphere;
};

// Every result, in order, of the transforms a shared-plan thread runs:
// the 1D lines forward then inverse, the dense grid forward then
// inverse, and the sphere grid pruned inverse then pruned forward.
std::vector<std::vector<cplx>> shared_plan_transforms(
    const Fft1D& plan_1d, const Fft3D& plan_3d, const FftLines& lines,
    const SharedPlanInput& in) {
  std::vector<std::vector<cplx>> out;
  const int n = plan_1d.size();
  std::vector<cplx> v = in.lines;
  for (bool inv : {false, true}) {
    plan_1d.transform_lines(inv, static_cast<int>(v.size()) / n, 1,
                            [&](int i) { return v.data() + i * n; });
    out.push_back(v);
  }
  v = in.grid;
  plan_3d.forward(v.data());
  out.push_back(v);
  plan_3d.inverse(v.data());
  out.push_back(v);
  v = in.sphere;
  plan_3d.inverse(v.data(), lines);
  out.push_back(v);
  plan_3d.forward(v.data(), lines);
  out.push_back(v);
  return out;
}

class SharedPlan : public KernelPath {};

TEST_P(SharedPlan, ConcurrentThreadsMatchSerialTransforms) {
  // Plans hold no scratch (fft.h, "Thread safety"): four threads
  // transforming distinct data through one const plan at once, round
  // after round, get the bits of the same transforms run serially.
  constexpr int kThreads = 4, kRounds = 24, kLength = 20;
  const Vec3i shape{16, 14, 14};
  const GVectors gv = sphere_basis(shape);
  const Fft1D plan_1d(kLength);
  const Fft3D plan_3d(shape);
  std::vector<SharedPlanInput> in(kThreads);
  std::vector<std::vector<std::vector<cplx>>> want(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    in[t].lines = random_signal(kLength * (Fft1D::kTile + 3), 300 + t);
    in[t].grid = random_signal(static_cast<int>(plan_3d.size()), 310 + t);
    in[t].sphere.assign(plan_3d.size(), cplx(0, 0));
    gv.scatter(random_signal(gv.count(), 320 + t).data(),
               in[t].sphere.data());
    want[t] = shared_plan_transforms(plan_1d, plan_3d, gv.fft_lines(), in[t]);
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const auto got =
            shared_plan_transforms(plan_1d, plan_3d, gv.fft_lines(), in[t]);
        for (std::size_t k = 0; k < got.size(); ++k)
          if (!same_bits(got[k], want[t][k])) ++mismatches[t];
      }
    });
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

INSTANTIATE_TEST_SUITE_P(Kernel, SharedPlan, kKernelPaths, kKernelName);


// The two kernels against each other, bit for bit: single lines and
// tiles of 1..kTile lines at strides 1, 2 and n + 3 (adjacent columns
// where the stride leaves room), random input with a signed-zero first
// line, then the dense and pruned 3D transforms.
template <typename Real>
void expect_avx2_matches_portable() {
  using Cplx = std::complex<Real>;
  constexpr int kTile = BasicFft1D<Real>::kTile;
  const auto build = [](const char* isa, auto make) {
    KernelScope scope(isa);
    return make();
  };
  for (int n : smooth_test_sizes<Real>()) {
    const auto make = [n] { return std::make_unique<BasicFft1D<Real>>(n); };
    const auto portable = build("portable", make), avx2 = build("avx2", make);
    ASSERT_STREQ(fft_detail::kernel_isa(*portable), "portable");
    ASSERT_STREQ(fft_detail::kernel_isa(*avx2), "avx2");
    for (std::ptrdiff_t stride : {std::ptrdiff_t{1}, std::ptrdiff_t{2},
                                  static_cast<std::ptrdiff_t>(n) + 3}) {
      for (int count = 1; count <= kTile; ++count) {
        const std::ptrdiff_t line_gap = stride >= count ? 1 : n * stride;
        std::vector<Cplx> x = random_block<Real>(
            static_cast<std::size_t>((count - 1) * line_gap + n * stride),
            6000 + n + count);
        const std::vector<Cplx> z = signed_zero_signal<Real>(n, true, n);
        for (int j = 0; j < n; ++j) x[j * stride] = z[j];
        for (bool inv : {false, true}) {
          std::vector<Cplx> a = x, b = x;
          portable->transform_lines(inv, count, stride, [&](int t) {
            return a.data() + t * line_gap;
          });
          avx2->transform_lines(inv, count, stride, [&](int t) {
            return b.data() + t * line_gap;
          });
          EXPECT_TRUE(same_bits(a, b))
              << (inv ? "inverse" : "forward") << " n = " << n
              << " stride = " << stride << " count = " << count;
        }
      }
    }
  }
  for (const Vec3i& shape : kPrunedShapes) {
    const auto make = [shape] {
      return std::make_unique<BasicFft3D<Real>>(shape);
    };
    const auto portable = build("portable", make), avx2 = build("avx2", make);
    const GVectors gv = sphere_basis(shape);
    const FftLines& lines = gv.fft_lines();
    const auto x = grid_signal<Real>(shape, 91);
    for (bool inv : {false, true}) {
      auto a = x, b = x, pa = x, pb = x;
      if (inv) {
        portable->inverse(a.data());
        avx2->inverse(b.data());
        portable->inverse(pa.data(), lines);
        avx2->inverse(pb.data(), lines);
      } else {
        portable->forward(a.data());
        avx2->forward(b.data());
        portable->forward(pa.data(), lines);
        avx2->forward(pb.data(), lines);
      }
      EXPECT_TRUE(same_bits(a, b)) << (inv ? "inverse " : "forward ") << shape;
      EXPECT_TRUE(same_bits(pa, pb))
          << "pruned " << (inv ? "inverse " : "forward ") << shape;
    }
  }
}

TEST(FftKernels, Avx2BitIdenticalToPortable) {
  if (!fft_detail::avx2_kernel_available()) GTEST_SKIP() << kAvx2Missing;
  expect_avx2_matches_portable<double>();
  expect_avx2_matches_portable<float>();
}

}  // namespace
}  // namespace ls3df
