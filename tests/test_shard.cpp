// Sharded-grid infrastructure tests: the ShardComm collectives, the
// ShardedField3D slab partition and its Gen_VF / Gen_dens primitives,
// the plane-blocked deterministic reductions, the distributed FFT's
// bit-identity against the dense transform, the sharded GENPOT layers
// (Poisson + xc + mixing), and the per-rank memory / steady-state
// allocation contracts of the exchange buffers.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dft/mixing.h"
#include "dft/scf.h"
#include "fft/dist_fft3d.h"
#include "fft/fft3d.h"
#include "grid/gvectors.h"
#include "grid/lattice.h"
#include "grid/sharded_field.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "parallel/shard_comm.h"
#include "poisson/sharded_poisson.h"
#include "transport/thread_transport.h"

namespace ls3df {
namespace {

FieldR random_field(Vec3i shape, std::uint64_t seed) {
  Rng rng(seed);
  FieldR f(shape);
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = rng.uniform(-1, 1);
  return f;
}

FieldR random_density(Vec3i shape, std::uint64_t seed) {
  Rng rng(seed);
  FieldR f(shape);
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = rng.uniform(0.0, 0.4);
  return f;
}

TEST(ShardComm, EachRankVisitsEveryRankOnce) {
  for (int workers : {1, 3, 8}) {
    ShardComm comm(5, workers);
    std::vector<int> hits(5, 0);
    comm.each_rank([&](int r) { ++hits[r]; });
    for (int r = 0; r < 5; ++r) EXPECT_EQ(hits[r], 1) << r;
  }
}

TEST(ShardComm, AllToAllDeliversEveryBlock) {
  for (TransportKind kind : {TransportKind::kInProc, TransportKind::kProc}) {
  const int n = 4;
  ShardComm comm(n, 2, kind);
  // Block (src -> dst) carries src * 10 + dst, repeated src + 1 times.
  std::vector<std::vector<double>> got(n);
  comm.all_to_all(
      [&](int src) {
        for (int dst = 0; dst < n; ++dst) {
          cplx* box = comm.send_box(src, dst, src + 1);
          for (int k = 0; k <= src; ++k) box[k] = cplx(src * 10 + dst, k);
        }
      },
      [&](int dst) {
        for (int src = 0; src < n; ++src) {
          EXPECT_EQ(comm.box_size(src, dst), static_cast<std::size_t>(src + 1));
          const cplx* box = comm.recv_box(src, dst);
          for (int k = 0; k <= src; ++k) {
            got[dst].push_back(box[k].real());
            EXPECT_EQ(box[k], cplx(src * 10 + dst, k));
          }
        }
      });
  for (int dst = 0; dst < n; ++dst)
    EXPECT_EQ(got[dst].size(), static_cast<std::size_t>(1 + 2 + 3 + 4))
        << transport_name(kind);
  }
}

TEST(ShardComm, AllGatherTableIsRankOrdered) {
  for (TransportKind kind : {TransportKind::kInProc, TransportKind::kProc}) {
    ShardComm comm(3, 2, kind);
    const std::vector<int> counts{2, 1, 3};
    const ShardComm::GatherView view =
        comm.all_gather(counts, [&](int r, double* block) {
          for (int k = 0; k < counts[r]; ++k) block[k] = 100.0 * r + k;
        });
    const double* table = view.data();
    const std::vector<double> want{0, 1, 100, 200, 201, 202};
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(table[i], want[i]) << transport_name(kind);
  }
}

TEST(ShardedField, DenseRoundTripAndPartition) {
  const Vec3i shape{10, 4, 5};
  const FieldR dense = random_field(shape, 11);
  for (int n : {1, 2, 3, 4, 10}) {
    ShardedFieldR f(shape, n);
    // Slabs tile [0, nx) in order, and each is within one plane of even.
    EXPECT_EQ(f.x0(0), 0);
    EXPECT_EQ(f.x1(n - 1), shape.x);
    for (int r = 0; r + 1 < n; ++r) EXPECT_EQ(f.x1(r), f.x0(r + 1));
    for (int r = 0; r < n; ++r) {
      EXPECT_LE(f.x1(r) - f.x0(r), (shape.x + n - 1) / n);
      for (int gx = f.x0(r); gx < f.x1(r); ++gx)
        EXPECT_EQ(f.owner_of(gx), r) << gx;
    }
    f.from_dense(dense);
    const FieldR back = f.to_dense();
    for (std::size_t i = 0; i < dense.size(); ++i)
      ASSERT_EQ(back[i], dense[i]);
  }
}

TEST(ShardedField, RankLocalModeHoldsOnlyTheLocalSlab) {
  // The SPMD storage mode: only the local rank's slab is allocated;
  // cross-rank payload access is a latched logic error, never a silent
  // read of an empty placeholder. Layout queries stay valid everywhere.
  const Vec3i shape{10, 4, 5};
  const FieldR dense = random_field(shape, 101);
  const int n = 3;
  for (int local = 0; local < n; ++local) {
    ShardedFieldR f(shape, n, local);
    EXPECT_EQ(f.local_rank(), local);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(f.has_slab(r), r == local);
      EXPECT_EQ(f.x0(r), ShardedFieldR(shape, n).x0(r));
      EXPECT_EQ(f.slab_elements(r),
                static_cast<std::size_t>(f.x1(r) - f.x0(r)) * shape.y *
                    shape.z);
      if (r != local) {
        EXPECT_THROW(f.slab(r), std::logic_error);
      }
    }
    // from_dense restricts the same dense source to the resident slab.
    f.from_dense(dense);
    const Field3D<double>& s = f.slab(local);
    for (int lx = 0; lx < f.x1(local) - f.x0(local); ++lx)
      for (int iy = 0; iy < shape.y; ++iy)
        for (int iz = 0; iz < shape.z; ++iz)
          ASSERT_EQ(s(lx, iy, iz), dense(f.x0(local) + lx, iy, iz));
    // Dense reads that would touch remote slabs are clean errors.
    EXPECT_THROW(f.to_dense(), std::logic_error);
    FieldR box({3, 3, 3});
    EXPECT_THROW(f.extract_into({0, 0, 0}, box), std::logic_error);
  }
}

TEST(ShardedField, GatherDenseRebuildsTheGridInBothModes) {
  const Vec3i shape{9, 4, 5};
  const FieldR dense = random_field(shape, 103);
  const int n = 3;
  // Dense-per-process: gather_dense must agree with to_dense bitwise.
  {
    ShardComm comm(n, 2);
    ShardedFieldR f(shape, n);
    f.from_dense(dense);
    const FieldR got = gather_dense(f, comm);
    for (std::size_t i = 0; i < dense.size(); ++i)
      ASSERT_EQ(got[i], dense[i]);
  }
  // Rank-local SPMD: each rank holds one slab, yet every rank's gather
  // reassembles the full dense grid bit-identically.
  auto group = make_thread_spmd_group(n);
  std::vector<int> ok(n, 0);
  std::vector<std::thread> threads;
  for (int r = 0; r < n; ++r)
    threads.emplace_back([&, r]() {
      ShardComm comm(n, 1, std::move(group[r]));
      ShardedFieldR f(shape, n, comm.local_rank());
      f.from_dense(dense);
      const FieldR got = gather_dense(f, comm);
      bool same = got.size() == dense.size();
      for (std::size_t i = 0; same && i < dense.size(); ++i)
        same = got[i] == dense[i];
      ok[r] = same ? 1 : 0;
    });
  for (auto& t : threads) t.join();
  for (int r = 0; r < n; ++r) EXPECT_EQ(ok[r], 1) << r;
}

TEST(ShardedField, ExtractMatchesDenseBitwise) {
  const Vec3i shape{9, 6, 4};
  const FieldR dense = random_field(shape, 21);
  ShardedFieldR f(shape, 3);
  f.from_dense(dense);
  // Periodic wrap on every side, including negative offsets.
  for (Vec3i offset : {Vec3i{-2, 3, 1}, Vec3i{7, -1, -3}, Vec3i{0, 0, 0}}) {
    const Vec3i sub{6, 5, 6};
    FieldR a(sub), b(sub);
    dense.extract_into(offset, a);
    f.extract_into(offset, b);
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
}

TEST(ShardedField, AccumulateWindowMatchesDenseBitwise) {
  const Vec3i shape{8, 5, 6};
  const FieldR sub1 = random_field({6, 4, 5}, 31);
  const FieldR sub2 = random_field({7, 5, 6}, 32);
  for (int n : {1, 2, 4}) {
    FieldR dense(shape);
    ShardedFieldR sharded(shape, n);
    // Two overlapping signed windows with periodic wrap — the Gen_dens
    // pattern. Apply in the same (fragment) order on both sides.
    const auto apply = [&](const FieldR& sub, Vec3i off, Vec3i so, Vec3i reg,
                           double w) {
      dense.accumulate_window(off, sub, so, reg, w);
      for (int r = 0; r < n; ++r)
        sharded.accumulate_window_shard(r, off, sub, so, reg, w);
    };
    apply(sub1, {6, 2, 4}, {1, 0, 1}, {5, 3, 4}, 1.0);
    apply(sub2, {-3, 1, -2}, {0, 1, 0}, {7, 4, 5}, -1.0);
    const FieldR back = sharded.to_dense();
    for (std::size_t i = 0; i < dense.size(); ++i)
      ASSERT_EQ(back[i], dense[i]);
  }
}

TEST(PlaneReductions, ShardedMatchesDenseBitwise) {
  const Vec3i shape{12, 5, 4};
  const FieldR a = random_field(shape, 41);
  const FieldR b = random_field(shape, 42);
  const double sum_d = plane_sum(a);
  const double l1_d = plane_l1(a, b);
  for (int n : {1, 2, 3, 4}) {
    for (int workers : {1, 4}) {
      ShardComm comm(n, workers);
      ShardedFieldR sa(shape, n), sb(shape, n);
      sa.from_dense(a);
      sb.from_dense(b);
      EXPECT_EQ(plane_sum(sa, comm), sum_d) << n << "x" << workers;
      EXPECT_EQ(plane_l1(sa, sb, comm), l1_d) << n << "x" << workers;
    }
  }
}

// The plane-blocked dot written out: one flat-order partial per x plane,
// partials summed in plane order.
double reference_plane_dot(const FieldR& a, const FieldR& b) {
  const Vec3i shape = a.shape();
  const std::size_t plane = static_cast<std::size_t>(shape.y) * shape.z;
  std::vector<double> partials(shape.x);
  for (int ix = 0; ix < shape.x; ++ix) {
    double acc = 0;
    for (std::size_t k = 0; k < plane; ++k)
      acc += a[ix * plane + k] * b[ix * plane + k];
    partials[ix] = acc;
  }
  double acc = 0;
  for (const double p : partials) acc += p;
  return acc;
}

TEST(PlaneReductions, GramIsOneCollectiveAndMatchesPlaneLoopBitwise) {
  const Vec3i shape{12, 5, 4};
  std::vector<FieldR> dense;
  for (int i = 0; i < 6; ++i) dense.push_back(random_field(shape, 43 + i));
  for (int m = 1; m <= 6; ++m) {
    const std::vector<FieldR> fields(dense.begin(), dense.begin() + m);
    // Every (i, j) entry computed on its own, (j, i) included, so the
    // memcmp below also pins the mirrored lower triangle.
    std::vector<double> want(static_cast<std::size_t>(m) * m);
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < m; ++j)
        want[static_cast<std::size_t>(i) * m + j] =
            reference_plane_dot(fields[i], fields[j]);
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < i; ++j)
        ASSERT_EQ(std::memcmp(&want[static_cast<std::size_t>(i) * m + j],
                              &want[static_cast<std::size_t>(j) * m + i],
                              sizeof(double)),
                  0)
            << "a.b != b.a at m=" << m << " (" << i << ", " << j << ")";
    const std::vector<double> got_dense = plane_gram(fields);
    ASSERT_EQ(got_dense.size(), want.size());
    EXPECT_EQ(std::memcmp(got_dense.data(), want.data(),
                          want.size() * sizeof(double)),
              0)
        << "dense m=" << m;

    for (int n : {1, 2, 3, 4}) {
      for (int workers : {1, 4}) {
        ShardComm comm(n, workers);
        std::vector<ShardedFieldR> sharded;
        for (const FieldR& f : fields) {
          sharded.emplace_back(shape, n);
          sharded.back().from_dense(f);
        }
        MetricsRegistry metrics;
        std::vector<double> got;
        {
          ObsContext ctx;
          ctx.metrics = &metrics;
          ObsContextScope scope(ctx);
          got = plane_gram(sharded, comm);
        }
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(double)),
                  0)
            << "m=" << m << " shards=" << n << " workers=" << workers;
        // Exactly one collective: one wait sample, carrying one partial
        // per plane and upper-triangle entry.
        const MetricsSnapshot snap = metrics.snapshot();
        EXPECT_EQ(snap.histograms.at("transport.phase_wait_s").count, 1u);
        EXPECT_EQ(snap.counters.at("transport.allgather_bytes"),
                  static_cast<double>(shape.x * (m * (m + 1) / 2) *
                                      sizeof(double)));
      }
    }
  }
}

TEST(DistFft3D, ForwardAndInverseBitIdenticalToDense) {
  // The tentpole FFT contract: local z/y transforms + one pencil
  // transpose + x lines reproduce the dense Fft3D bit for bit, in both
  // directions, for any shard and worker count.
  const Vec3i shape{12, 8, 6};
  const FieldR real_in = random_field(shape, 51);

  // Dense reference: forward G-space grid, then the inverse round trip.
  FieldC dense(shape);
  for (std::size_t i = 0; i < real_in.size(); ++i)
    dense[i] = cplx(real_in[i], 0.0);
  const Fft3D plan(shape);
  plan.forward(dense.raw());
  FieldC dense_back = dense;
  plan.inverse(dense_back.raw());

  for (TransportKind kind : {TransportKind::kInProc, TransportKind::kProc}) {
    for (int n : {1, 2, 4}) {
      for (int workers : {1, 4}) {
        ShardComm comm(n, workers, kind);
        DistFft3D fft(shape, comm);
        ShardedFieldR in(shape, n);
        in.from_dense(real_in);
        fft.forward(in);
        // Pencils hold the dense G-space values exactly — on every
        // transport: the proc backend's shared-memory copies must move
        // the same bits the zero-copy mailboxes alias.
        for (int r = 0; r < n; ++r) {
          const cplx* p = fft.pencil(r);
          for (int iy = fft.y0(r); iy < fft.y1(r); ++iy)
            for (int iz = 0; iz < shape.z; ++iz)
              for (int ix = 0; ix < shape.x; ++ix)
                ASSERT_EQ(*p++, dense(ix, iy, iz))
                    << "G(" << ix << "," << iy << "," << iz
                    << ") shards=" << n << " workers=" << workers << " "
                    << transport_name(kind);
        }
        // Inverse returns the dense inverse's real parts exactly.
        ShardedFieldR out(shape, n);
        fft.inverse(out);
        const FieldR got = out.to_dense();
        for (int ix = 0; ix < shape.x; ++ix)
          for (int iy = 0; iy < shape.y; ++iy)
            for (int iz = 0; iz < shape.z; ++iz)
              ASSERT_EQ(got(ix, iy, iz), dense_back(ix, iy, iz).real())
                  << transport_name(kind);
        // And the round trip recovers the input to solver precision.
        for (std::size_t i = 0; i < real_in.size(); ++i)
          ASSERT_LT(std::abs(got[i] - real_in[i]), 1e-12);
      }
    }
  }
}

TEST(DistFft3D, PerRankFootprintStaysSlabSized) {
  // The memory contract: every per-rank buffer (slab, pencil, exchange
  // mailboxes) holds ~global/N values — never the full grid.
  const Vec3i shape{16, 12, 10};
  const std::size_t global =
      static_cast<std::size_t>(shape.x) * shape.y * shape.z;
  for (int n : {2, 4}) {
    ShardComm comm(n, 2);
    DistFft3D fft(shape, comm);
    ShardedFieldR in(shape, n);
    in.from_dense(random_field(shape, 61));
    fft.forward(in);
    const std::size_t ceil_slab = global / n + global % n;
    for (int r = 0; r < n; ++r) {
      EXPECT_LE(fft.pencil_size(r),
                static_cast<std::size_t>((shape.y / n + 1)) * shape.z *
                    shape.x);
      EXPECT_LE(fft.pencil_size(r), ceil_slab + global / n);
      // All mailboxes destined for rank r together carry one slab's worth.
      EXPECT_LE(comm.rank_box_elements(r), ceil_slab);
    }
  }
}

TEST(DistFft3D, ExchangeBuffersAllocateOnlyOnFirstTranspose) {
  // Steady-state allocation contract on both in-process backends: the
  // proc transport's shared-memory extents are grow-only too, and its
  // allocations() counts the same capacity-growth events.
  const Vec3i shape{12, 8, 6};
  for (TransportKind kind : {TransportKind::kInProc, TransportKind::kProc}) {
    ShardComm comm(3, 2, kind);
    DistFft3D fft(shape, comm);
    ShardedFieldR in(shape, 3), out(shape, 3);
    in.from_dense(random_field(shape, 71));
    fft.forward(in);
    fft.inverse(out);
    const long warm = comm.allocations();
    EXPECT_GT(warm, 0) << transport_name(kind);
    for (int rep = 0; rep < 3; ++rep) {
      fft.forward(in);
      fft.inverse(out);
    }
    EXPECT_EQ(comm.allocations(), warm)
        << "shard exchange buffers grew after warm-up on "
        << transport_name(kind);
  }
}

TEST(ShardedPoisson, EffectivePotentialBitIdenticalToDense) {
  const Vec3i shape{10, 8, 6};
  const Lattice lat({7.0, 6.0, 5.0});
  const FieldR vion = random_field(shape, 81);
  const FieldR rho = random_density(shape, 82);
  const FieldR dense = effective_potential(vion, rho, lat);
  for (int n : {1, 2, 4}) {
    for (int workers : {1, 4}) {
      ShardComm comm(n, workers);
      DistFft3D fft(shape, comm);
      ShardedFieldR svion(shape, n), srho(shape, n), vh(shape, n),
          vxc(shape, n), vout(shape, n);
      svion.from_dense(vion);
      srho.from_dense(rho);
      sharded_effective_potential(svion, srho, lat, fft, vh, vxc, vout);
      const FieldR got = vout.to_dense();
      for (std::size_t i = 0; i < dense.size(); ++i)
        ASSERT_EQ(got[i], dense[i])
            << "i=" << i << " shards=" << n << " workers=" << workers;
    }
  }
}

TEST(ShardedMixer, BitIdenticalToDense) {
  const Vec3i shape{10, 6, 4};
  // Dense reference trajectory, long enough for the history to pass
  // kDiisHistory and start evicting its oldest pair.
  constexpr int kIterations = 10;
  static_assert(kIterations > kDiisHistory + 1);
  PotentialMixer dense_mixer(0.6);
  std::vector<FieldR> dense_next;
  FieldR v_in = random_field(shape, 91);
  for (int it = 0; it < kIterations; ++it) {
    const FieldR v_out = random_field(shape, 92 + it);
    v_in = dense_mixer.mix(v_in, v_out);
    dense_next.push_back(v_in);
  }
  for (TransportKind kind : {TransportKind::kInProc, TransportKind::kProc}) {
    for (int n : {1, 2, 4}) {
      ShardComm comm(n, 2, kind);
      ShardedPotentialMixer mixer(0.6, comm);
      ShardedFieldR sv(shape, n);
      sv.from_dense(random_field(shape, 91));
      for (int it = 0; it < kIterations; ++it) {
        ShardedFieldR svo(shape, n);
        svo.from_dense(random_field(shape, 92 + it));
        sv = mixer.mix(sv, svo);
        const FieldR got = sv.to_dense();
        ASSERT_EQ(std::memcmp(got.data(), dense_next[it].data(),
                              got.size() * sizeof(double)),
                  0)
            << "it=" << it << " shards=" << n
            << " transport=" << static_cast<int>(kind);
      }
    }
  }
}

}  // namespace
}  // namespace ls3df
