// Unit tests for src/common: Vec3 arithmetic, periodic modulo, RNG
// statistics and determinism, timers, flop accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/constants.h"
#include "common/flops.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/vec3.h"

namespace ls3df {
namespace {

TEST(Vec3, BasicArithmetic) {
  Vec3d a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3d(5, 7, 9));
  EXPECT_EQ(b - a, Vec3d(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3d(2, 4, 6));
  EXPECT_EQ(2.0 * a, Vec3d(2, 4, 6));
  EXPECT_EQ(a / 2.0, Vec3d(0.5, 1, 1.5));
  EXPECT_EQ(-a, Vec3d(-1, -2, -3));
}

TEST(Vec3, DotCrossNorm) {
  Vec3d a{1, 0, 0}, b{0, 1, 0};
  EXPECT_DOUBLE_EQ(a.dot(b), 0.0);
  EXPECT_EQ(a.cross(b), Vec3d(0, 0, 1));
  Vec3d c{3, 4, 0};
  EXPECT_DOUBLE_EQ(c.norm(), 5.0);
  EXPECT_DOUBLE_EQ(c.norm2(), 25.0);
}

TEST(Vec3, CrossIsAnticommutative) {
  Vec3d a{1.5, -2.0, 0.25}, b{0.5, 3.0, -1.0};
  const Vec3d ab = a.cross(b), ba = b.cross(a);
  EXPECT_DOUBLE_EQ(ab.x, -ba.x);
  EXPECT_DOUBLE_EQ(ab.y, -ba.y);
  EXPECT_DOUBLE_EQ(ab.z, -ba.z);
  // Orthogonality of the cross product.
  EXPECT_NEAR(ab.dot(a), 0.0, 1e-14);
  EXPECT_NEAR(ab.dot(b), 0.0, 1e-14);
}

TEST(Vec3, IndexAccess) {
  Vec3i v{7, 8, 9};
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v[1], 8);
  EXPECT_EQ(v[2], 9);
  v[1] = 42;
  EXPECT_EQ(v.y, 42);
  EXPECT_EQ(v.prod(), 7 * 42 * 9);
}

TEST(Pmod, WrapsNegativeIndices) {
  EXPECT_EQ(pmod(-1, 5), 4);
  EXPECT_EQ(pmod(-5, 5), 0);
  EXPECT_EQ(pmod(-6, 5), 4);
  EXPECT_EQ(pmod(7, 5), 2);
  EXPECT_EQ(pmod(0, 5), 0);
  EXPECT_EQ(pmod(Vec3i(-1, 6, 10), Vec3i(5, 5, 5)), Vec3i(4, 1, 0));
}

TEST(Constants, UnitRoundTrips) {
  EXPECT_NEAR(units::kHartreeToEv * units::kEvToHartree, 1.0, 1e-15);
  EXPECT_NEAR(units::kBohrToAngstrom * units::kAngstromToBohr, 1.0, 1e-15);
  EXPECT_DOUBLE_EQ(units::kRydbergToHartree * units::kHartreeToRydberg, 1.0);
  // 1 Ry = 13.6057 eV.
  EXPECT_NEAR(units::kRydbergToHartree * units::kHartreeToEv, 13.6057, 1e-3);
}

TEST(Rng, Deterministic) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, StateRoundTripContinuesTheStreamBitExactly) {
  // The checkpoint contract: a generator restored from state() produces
  // exactly the stream the original would have — across every draw kind
  // (u64, uniform, Box-Muller normal with its rejection loop).
  Rng a(20260808);
  for (int i = 0; i < 17; ++i) a.next_u64();  // advance past the seed
  const Rng::State saved = a.state();

  Rng b(999);  // deliberately different seed: set_state must win
  b.set_state(saved);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
  for (int i = 0; i < 64; ++i) ASSERT_EQ(a.uniform(), b.uniform());
  for (int i = 0; i < 64; ++i) ASSERT_EQ(a.normal(), b.normal());
  for (int i = 0; i < 64; ++i)
    ASSERT_EQ(a.uniform_int(10), b.uniform_int(10));

  // state() is a pure observer: taking it does not perturb the stream.
  Rng c(5);
  (void)c.state();
  Rng d(5);
  EXPECT_EQ(c.next_u64(), d.next_u64());
}

TEST(Rng, UniformRange) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(7);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 5e-3);
  EXPECT_NEAR(var, 1.0 / 12.0, 5e-3);
}

TEST(Rng, UniformIntUnbiasedOverSmallRange) {
  Rng rng(3);
  int counts[5] = {0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(5)];
  for (int k = 0; k < 5; ++k)
    EXPECT_NEAR(counts[k] / static_cast<double>(n), 0.2, 0.01);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LT(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit in 1000 draws
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.normal();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 2000000; ++i) x += std::sqrt(static_cast<double>(i));
  EXPECT_GT(t.seconds(), 0.0);
  const double t1 = t.seconds();
  EXPECT_GE(t.seconds(), t1);
}

TEST(FlopCounter, KernelCounts) {
  EXPECT_EQ(FlopCounter::dgemm(10, 20, 30), 2ull * 10 * 20 * 30);
  EXPECT_EQ(FlopCounter::zgemm(10, 20, 30), 8ull * 10 * 20 * 30);
  // 5 n log2 n for n = 1024: 5 * 1024 * 10.
  EXPECT_EQ(FlopCounter::fft(1024), 5ull * 1024 * 10);
  EXPECT_EQ(FlopCounter::fft(1), 0ull);
  // 3D = sum over pencils.
  const auto f = FlopCounter::fft3d(8, 8, 8);
  EXPECT_EQ(f, 3ull * 64 * FlopCounter::fft(8));
  // Pruned 3D: x-lines on n_yz columns, y-lines on n_z planes of every x,
  // every z-line; full tables are the full transform.
  EXPECT_EQ(FlopCounter::fft3d_lines(16, 8, 8, 9, 3),
            9 * FlopCounter::fft(16) + 16ull * 3 * FlopCounter::fft(8) +
                16ull * 8 * FlopCounter::fft(8));
  EXPECT_EQ(FlopCounter::fft3d_lines(12, 10, 6, 10 * 6, 6),
            FlopCounter::fft3d(12, 10, 6));
}

TEST(FlopCounter, Accumulates) {
  FlopCounter c;
  c.add(100);
  c.add(23);
  EXPECT_EQ(c.total(), 123ull);
  c.clear();
  EXPECT_EQ(c.total(), 0ull);
}

}  // namespace
}  // namespace ls3df
