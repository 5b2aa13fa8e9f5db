// Micro-kernel rates (google-benchmark): the computational primitives
// behind Sec. IV's optimization story. The paper's key kernel facts:
// fragment DGEMMs are tall-skinny (~3000 x 200), the all-band BLAS-3
// reformulation lifted PEtot from 15% to 56% of peak, and FFTs move
// wavefunctions between q-space and real space.
//
// Besides the interactive google-benchmark tables, the binary writes a
// machine-readable summary (name, wall_ms, flops per entry) to
// BENCH_kernels.json — override the path with --json=PATH — so the perf
// trajectory can be tracked across PRs. The summary includes the
// batched-vs-looped probes for the fused kernels (gemm_batched,
// fft_many) and the batched PEtot_F dispatch at width 4, the sharded-grid
// probes: the distributed-transpose FFT round trip (with the transpose's
// share of the wall time) and sharded vs dense GENPOT with the
// bit-identity flag CI asserts, the solve-loop probes on a skewed
// division: s/iteration of the barrier-free chain DAG, its measured
// overlap fraction and its lane-donation events (both asserted > 0 in
// CI), the fp32-vs-fp64 batched Davidson speedup and the mixed-precision
// convergence flag on the Fig. 6 alloy, plus the crash-safety probes:
// solve() wall time with every-2 snapshots vs checkpoint-free (< 5%
// overhead asserted in CI) and the resume-after-crash bit-identity flag.
// Bit-identity of the solve itself is pinned by the golden-reference
// suite (tests/golden_refs.h), not here.
//
// When built with LS3DF_WITH_MPI the binary also self-launches
// `mpirun -np 4 bench_kernels --mpi-child` and folds the child's report
// into the JSON: genpot_mpi_40_s4 (MAX rank wall), genpot_mpi_peak_rss_mb_np4
// (MAX per-rank peak RSS — each rank holds only ~global/N of the sharded
// state), and mpi_bit_identical_to_dense (asserted by the CI mpi-build
// job; 0 if the launch fails, so the assertion trips loudly).
#include <benchmark/benchmark.h>

#include <complex>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <algorithm>

#include "atoms/builders.h"
#include "common/flops.h"
#include "common/rng.h"
#include "common/timer.h"
#include "dft/eigensolver.h"
#include "dft/hamiltonian.h"
#include "dft/scf.h"
#include "fft/dist_fft3d.h"
#include "fft/fft.h"
#include "fft/fft3d.h"
#include "fragment/ls3df.h"
#include "grid/sharded_field.h"
#include "linalg/blas.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/shard_comm.h"
#include "parallel/thread_pool.h"

#ifdef LS3DF_WITH_MPI
#include <mpi.h>
#include <sys/resource.h>

#include "transport/mpi_transport.h"
#endif

namespace {

using namespace ls3df;
using cd = std::complex<double>;

MatC random_matc(int m, int n, std::uint64_t seed) {
  Rng rng(seed);
  MatC A(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i)
      A(i, j) = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return A;
}

// The paper's typical fragment matrix shape, scaled: (n_G x n_bands).
void BM_ZgemmOverlap(benchmark::State& state) {
  const int ng = static_cast<int>(state.range(0));
  const int nb = static_cast<int>(state.range(1));
  MatC X = random_matc(ng, nb, 1);
  for (auto _ : state) {
    MatC S = overlap(X, X);
    benchmark::DoNotOptimize(S.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      8.0 * ng * nb * nb * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ZgemmOverlap)->Args({750, 50})->Args({1500, 100})
    ->Args({3000, 200});

// BLAS-2 (band-by-band) vs BLAS-3 (all-band) projector application.
void BM_GemvBandByBand(benchmark::State& state) {
  const int ng = 1500, nproj = 40, nb = 32;
  MatC B = random_matc(ng, nproj, 2);
  MatC psi = random_matc(ng, nb, 3);
  std::vector<cd> p(nproj);
  for (auto _ : state) {
    for (int j = 0; j < nb; ++j) {
      gemv(Op::kConjTrans, cd(1, 0), B, psi.col(j), cd(0, 0), p.data());
      benchmark::DoNotOptimize(p.data());
    }
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      8.0 * ng * nproj * nb * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemvBandByBand);

void BM_GemmAllBand(benchmark::State& state) {
  const int ng = 1500, nproj = 40, nb = 32;
  MatC B = random_matc(ng, nproj, 2);
  MatC psi = random_matc(ng, nb, 3);
  for (auto _ : state) {
    MatC P = overlap(B, psi);
    benchmark::DoNotOptimize(P.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      8.0 * ng * nproj * nb * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmAllBand);

void BM_Fft1D(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Fft1D plan(n);
  Rng rng(4);
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  for (auto _ : state) {
    plan.forward(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// 32 and 40: the paper's per-cell grid lines; 37: Bluestein path.
BENCHMARK(BM_Fft1D)->Arg(32)->Arg(40)->Arg(64)->Arg(128)->Arg(37);

void BM_Fft3D(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Fft3D plan({n, n, n});
  Rng rng(5);
  std::vector<cplx> x(plan.size());
  for (auto& v : x) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  for (auto _ : state) {
    plan.forward(x.data());
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * plan.size());
}
BENCHMARK(BM_Fft3D)->Arg(16)->Arg(24)->Arg(32)->Arg(40);

void BM_HamiltonianApply(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  Structure s = build_model_znteo({2, 2, 2}, 0, 1);
  GVectors gv(s.lattice(), default_fft_grid(s.lattice(), 1.0), 1.0);
  Hamiltonian h(s, gv);
  MatC psi = random_wavefunctions(gv, nb, 7);
  MatC hpsi;
  for (auto _ : state) {
    h.apply(psi, hpsi);
    benchmark::DoNotOptimize(hpsi.data());
  }
}
BENCHMARK(BM_HamiltonianApply)->Arg(8)->Arg(16)->Arg(32);

// Shared fixtures for the batched-vs-looped probes: the interactive
// google-benchmark entries and the JSON summary time the same work.

// 8 same-shape fragment overlaps (the batched fragment-solve GEMM).
struct GemmBatchFixture {
  static constexpr int kNg = 1500, kNb = 50, kMembers = 8;
  std::vector<MatC> X;
  std::vector<MatC> S;
  std::vector<GemmBatchItem> items;
  GemmBatchFixture() {
    for (int t = 0; t < kMembers; ++t) {
      X.push_back(random_matc(kNg, kNb, 40 + t));
      S.emplace_back(kNb, kNb);
    }
    for (int t = 0; t < kMembers; ++t) items.push_back({&X[t], &X[t], &S[t]});
  }
  GemmBatchFixture(const GemmBatchFixture&) = delete;
  void run_looped() {
    for (int t = 0; t < kMembers; ++t)
      gemm(Op::kConjTrans, Op::kNone, cd(1, 0), X[t], X[t], cd(0, 0), S[t]);
  }
  void run_batched(int workers) {
    gemm_batched(Op::kConjTrans, Op::kNone, cd(1, 0), items, cd(0, 0),
                 workers);
  }
  static double flops() {
    return static_cast<double>(FlopCounter::zgemm(kNb, kNb, kNg)) * kMembers;
  }
};

// A 16-grid many-transform stack (the batched local-potential sweep).
struct FftManyFixture {
  static constexpr int kN = 24, kCount = 16;
  Fft3D plan{{kN, kN, kN}};
  std::vector<cplx> stack;
  FftManyFixture() : stack(plan.size() * kCount) {
    Rng rng(6);
    for (auto& v : stack) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  }
  FftManyFixture(const FftManyFixture&) = delete;
  void run_looped() {
    for (int g = 0; g < kCount; ++g)
      plan.forward(stack.data() + static_cast<std::size_t>(g) * plan.size());
  }
  void run_many(int workers) {
    plan.forward_many(stack.data(), kCount, workers);
  }
  static double flops() {
    return static_cast<double>(FlopCounter::fft3d(kN, kN, kN)) * kCount;
  }
};

// Batched vs looped GEMM on a stack of same-shape fragment overlaps.
void BM_GemmBatched(benchmark::State& state) {
  GemmBatchFixture fx;
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    fx.run_batched(workers);
    benchmark::DoNotOptimize(fx.S[0].data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      fx.flops() * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmBatched)->Arg(1)->Arg(4);

// Many-transform sweep vs looped single transforms.
void BM_FftMany(benchmark::State& state) {
  FftManyFixture fx;
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    fx.run_many(workers);
    benchmark::DoNotOptimize(fx.stack.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.plan.size() *
                          FftManyFixture::kCount);
}
BENCHMARK(BM_FftMany)->Arg(1)->Arg(4);

// Distributed (slab + pencil-transpose) FFT vs the dense transform on
// the paper-scale 40^3 global grid.
struct DistFftFixture {
  static constexpr int kN = 40, kShards = 4;
  Vec3i shape{kN, kN, kN};
  Fft3D dense{Vec3i{kN, kN, kN}};
  ShardComm comm;
  DistFft3D dist;
  std::vector<cplx> dense_x;
  ShardedFieldR in, out;
  DistFftFixture()
      : comm(kShards, std::min(4, default_workers())),
        dist({kN, kN, kN}, comm),
        dense_x(dense.size()),
        in({kN, kN, kN}, kShards),
        out({kN, kN, kN}, kShards) {
    Rng rng(8);
    FieldR f(shape);
    for (std::size_t i = 0; i < f.size(); ++i) f[i] = rng.uniform(-1, 1);
    for (std::size_t i = 0; i < f.size(); ++i) dense_x[i] = cplx(f[i], 0.0);
    in.from_dense(f);
  }
  DistFftFixture(const DistFftFixture&) = delete;
  void run_dense() {
    dense.forward(dense_x.data());
    dense.inverse(dense_x.data());
  }
  void run_dist() {
    dist.forward(in);
    dist.inverse(out);
  }
};

void BM_DistFft3DRoundTrip(benchmark::State& state) {
  DistFftFixture fx;
  for (auto _ : state) {
    fx.run_dist();
    benchmark::DoNotOptimize(fx.out.slab(0).data());
  }
  state.SetItemsProcessed(state.iterations() * fx.dense.size());
}
BENCHMARK(BM_DistFft3DRoundTrip);

void BM_OrthonormalizeCholesky(benchmark::State& state) {
  MatC X0 = random_matc(1200, 48, 9);
  for (auto _ : state) {
    MatC X = X0;
    orthonormalize_cholesky(X);
    benchmark::DoNotOptimize(X.data());
  }
}
BENCHMARK(BM_OrthonormalizeCholesky);

void BM_OrthonormalizeGramSchmidt(benchmark::State& state) {
  MatC X0 = random_matc(1200, 48, 9);
  for (auto _ : state) {
    MatC X = X0;
    orthonormalize_gram_schmidt(X);
    benchmark::DoNotOptimize(X.data());
  }
}
BENCHMARK(BM_OrthonormalizeGramSchmidt);

// ---------------------------------------------------------------------------
// Machine-readable kernel summary.

struct JsonEntry {
  std::string name;
  double wall_ms = 0;
  double flops = 0;  // analytic flops per timed repetition (0 = n/a)
};

// Best-of-reps wall time in milliseconds.
template <typename Fn>
double time_best_ms(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds() * 1e3);
  }
  return best;
}

// An 8-fragment LS3DF problem: H2 chain, division 1x1x4 (four cells
// along z gives four size-2 and four size-1 fragments; a 2x2x2 division
// is structurally degenerate in LS3DF and rejected by the solver).
// batch_width caps the same-size-class lockstep batches.
Ls3dfOptions petot_options(int workers, int batch_width) {
  Ls3dfOptions lo;
  lo.division = {1, 1, 4};
  lo.points_per_cell = 8;
  lo.ecut = 1.0;
  lo.buffer_points = 4;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 8;
  lo.n_workers = workers;
  lo.batch_width = batch_width;
  return lo;
}

Structure petot_structure() {
  const double a = 6.0;
  Structure s(Lattice({a, a, 4 * a}));
  for (int c = 0; c < 4; ++c) {
    s.add_atom(Species::kH, {0.5 * a, 0.5 * a, a * c + 0.5 * a - 0.7});
    s.add_atom(Species::kH, {0.5 * a, 0.5 * a, a * c + 0.5 * a + 0.7});
  }
  return s;
}

// A warmed PEtot_F probe at the given worker count and batch width.
// Warming runs the allocation iteration; the engine is deterministic, so
// every sweep times bit-identical work.
struct PetotProbe {
  Structure s = petot_structure();
  Ls3dfSolver solver;
  double best_ms = 1e300;
  PetotProbe(int workers, int batch_width)
      : solver(s, petot_options(workers, batch_width)) {
    FieldR v = solver.genpot(build_initial_density(s, solver.global_grid()));
    solver.gen_vf(v);
    solver.petot_f();  // warm: arenas and FFT plans allocate here
  }
  void timed_sweep() {
    Timer t;
    solver.petot_f();
    best_ms = std::min(best_ms, t.seconds() * 1e3);
  }
};

std::vector<JsonEntry> kernel_summary() {
  std::vector<JsonEntry> out;

  {
    const int ng = 3000, nb = 200;
    MatC X = random_matc(ng, nb, 1);
    MatC S;
    const double ms = time_best_ms(3, [&]() { S = overlap(X, X); });
    out.push_back({"zgemm_overlap_3000x200", ms,
                   static_cast<double>(FlopCounter::zgemm(nb, nb, ng))});
  }
  {
    const int n = 40;
    Fft3D plan({n, n, n});
    Rng rng(5);
    std::vector<cplx> x(plan.size());
    for (auto& v : x) v = cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const double ms = time_best_ms(5, [&]() { plan.forward(x.data()); });
    out.push_back({"fft3d_40", ms,
                   static_cast<double>(FlopCounter::fft3d(n, n, n))});
  }
  {
    const int nb = 16;
    Structure s = build_model_znteo({2, 2, 2}, 0, 1);
    GVectors gv(s.lattice(), default_fft_grid(s.lattice(), 1.0), 1.0);
    Hamiltonian h(s, gv);
    FlopCounter fc;
    h.set_flop_counter(&fc);
    MatC psi = random_wavefunctions(gv, nb, 7);
    MatC hpsi;
    h.apply(psi, hpsi);  // warm + count one application
    const double flops = static_cast<double>(fc.total());
    h.set_flop_counter(nullptr);
    const double ms = time_best_ms(3, [&]() { h.apply(psi, hpsi); });
    out.push_back({"hamiltonian_apply_16", ms, flops});
  }

  {
    // Batched vs looped GEMM over 8 same-shape fragment overlaps.
    GemmBatchFixture fx;
    const int workers = std::min(4, default_workers());
    const double looped = time_best_ms(3, [&]() { fx.run_looped(); });
    const double batched =
        time_best_ms(3, [&]() { fx.run_batched(workers); });
    out.push_back({"gemm_looped_8x1500x50", looped, fx.flops()});
    out.push_back({"gemm_batched_8x1500x50", batched, fx.flops()});
    out.push_back({"gemm_batched_speedup_over_looped",
                   batched > 0 ? looped / batched : 0, 0});
  }
  {
    // Many-transform FFT sweep vs looped single transforms.
    FftManyFixture fx;
    const int workers = std::min(4, default_workers());
    const double looped = time_best_ms(5, [&]() { fx.run_looped(); });
    const double many = time_best_ms(5, [&]() { fx.run_many(workers); });
    out.push_back({"fft_looped_16x24", looped, fx.flops()});
    out.push_back({"fft_many_16x24", many, fx.flops()});
    out.push_back(
        {"fft_many_speedup_over_looped", many > 0 ? looped / many : 0, 0});
  }

  {
    // Distributed-transpose FFT round trip vs dense on the 40^3 global
    // grid, plus the share of wall time spent in the pencil transpose.
    DistFftFixture fx;
    fx.run_dist();  // warm the exchange mailboxes
    fx.dist.take_transpose_seconds();
    const double dense = time_best_ms(5, [&]() { fx.run_dense(); });
    double transpose_ms = 1e300;
    const double dist = time_best_ms(5, [&]() {
      fx.dist.take_transpose_seconds();
      fx.run_dist();
      transpose_ms =
          std::min(transpose_ms, fx.dist.take_transpose_seconds() * 1e3);
    });
    const double flops = 2.0 * FlopCounter::fft3d(DistFftFixture::kN,
                                                  DistFftFixture::kN,
                                                  DistFftFixture::kN);
    out.push_back({"fft3d_roundtrip_40_dense", dense, flops});
    out.push_back({"dist_fft3d_roundtrip_40_s4", dist, flops});
    out.push_back({"dist_fft3d_transpose_40_s4", transpose_ms, 0});
  }
  {
    // Sharded vs dense GENPOT (V_ion + Hartree + xc) on the 40^3 grid:
    // the cross-PR trajectory entries plus the bit-identity flag CI
    // asserts — the sharded pipeline must reproduce the dense potential
    // exactly.
    const Vec3i shape{40, 40, 40};
    const Lattice lat({12.0, 12.0, 12.0});
    Rng rng(9);
    FieldR vion(shape), rho(shape);
    for (std::size_t i = 0; i < vion.size(); ++i) {
      vion[i] = rng.uniform(-1, 1);
      rho[i] = rng.uniform(0.0, 0.2);
    }
    const double dense_ms = time_best_ms(
        3, [&]() { benchmark::DoNotOptimize(
                       effective_potential(vion, rho, lat).data()); });
    const FieldR v_dense = effective_potential(vion, rho, lat);

    const int shards = 4;
    ShardComm comm(shards, std::min(4, default_workers()));
    DistFft3D fft(shape, comm);
    ShardedFieldR svion(shape, shards), srho(shape, shards),
        vh(shape, shards), vxc(shape, shards), vout(shape, shards);
    svion.from_dense(vion);
    srho.from_dense(rho);
    sharded_effective_potential(svion, srho, lat, fft, vh, vxc, vout);  // warm
    const double sharded_ms = time_best_ms(3, [&]() {
      sharded_effective_potential(svion, srho, lat, fft, vh, vxc, vout);
    });
    const FieldR v_sharded = vout.to_dense();
    bool identical = v_sharded.size() == v_dense.size();
    for (std::size_t i = 0; identical && i < v_dense.size(); ++i)
      identical = v_sharded[i] == v_dense[i];
    out.push_back({"genpot_dense_40", dense_ms, 0});
    out.push_back({"genpot_sharded_40_s4", sharded_ms, 0});
    out.push_back({"genpot_sharded_bit_identical_to_dense",
                   identical ? 1.0 : 0.0, 0});
  }
  {
    // Transport probes: the 40^3 transpose-shaped alltoallv through each
    // backend (one full grid volume of complex values per exchange), the
    // proc-backed GENPOT, and the cross-transport bit-identity flag CI
    // asserts. On this container the proc exchange pays one shm copy +
    // two process wakeups per phase; on multi-core nodes the rank
    // workers run concurrently.
    const Vec3i shape{40, 40, 40};
    const Lattice lat({12.0, 12.0, 12.0});
    Rng rng(9);
    FieldR vion(shape), rho(shape);
    for (std::size_t i = 0; i < vion.size(); ++i) {
      vion[i] = rng.uniform(-1, 1);
      rho[i] = rng.uniform(0.0, 0.2);
    }
    const int shards = 4;
    const int workers = std::min(4, default_workers());
    const std::size_t lane =
        static_cast<std::size_t>(shape.x) * shape.y * shape.z /
        (shards * shards);
    const TransportKind kinds[] = {TransportKind::kInProc,
                                   TransportKind::kProc};
    FieldR v_by_kind[2];
    for (int k = 0; k < 2; ++k) {
      ShardComm comm(shards, workers, kinds[k]);
      const auto exchange = [&]() {
        comm.all_to_all(
            [&](int src) {
              for (int dst = 0; dst < shards; ++dst) {
                cplx* box = comm.send_box(src, dst, lane);
                for (std::size_t i = 0; i < lane; ++i)
                  box[i] = cplx(src + 1.0, dst + 1.0);
              }
            },
            [&](int dst) {
              double acc = 0;
              for (int src = 0; src < shards; ++src) {
                const cplx* box = comm.recv_box(src, dst);
                acc += box[0].real() + box[lane - 1].imag();
              }
              benchmark::DoNotOptimize(acc);
            });
      };
      exchange();  // warm the lanes
      const double ms = time_best_ms(5, exchange);
      out.push_back({std::string("alltoallv_") +
                         transport_name(kinds[k]) + "_40",
                     ms, 0});

      DistFft3D fft(shape, comm);
      ShardedFieldR svion(shape, shards), srho(shape, shards),
          vh(shape, shards), vxc(shape, shards), vout(shape, shards);
      svion.from_dense(vion);
      srho.from_dense(rho);
      // One pass feeds the bit-identity comparison on both backends;
      // only the proc backend is (re)timed — inproc GENPOT is already
      // the genpot_sharded_40_s4 entry above.
      sharded_effective_potential(svion, srho, lat, fft, vh, vxc, vout);
      if (kinds[k] == TransportKind::kProc) {
        const double g_ms = time_best_ms(3, [&]() {
          sharded_effective_potential(svion, srho, lat, fft, vh, vxc, vout);
        });
        out.push_back({"genpot_proc_40_s4", g_ms, 0});
      }
      v_by_kind[k] = vout.to_dense();
    }
    bool identical = v_by_kind[0].size() == v_by_kind[1].size();
    for (std::size_t i = 0; identical && i < v_by_kind[0].size(); ++i)
      identical = v_by_kind[0][i] == v_by_kind[1][i];
    out.push_back({"genpot_proc_bit_identical_to_inproc",
                   identical ? 1.0 : 0.0, 0});
  }

  {
    // Full iterations of the barrier-free chain DAG on the skewed 1x1x4
    // division (two size classes with ~2x cost skew — the LPT tail the
    // chains overlap). The overlap fraction is reported twice: at the
    // multi-worker lane count (real concurrency on multi-core hosts) and
    // on a single lane, where the depth-first chain schedule interleaves
    // phase windows structurally — positive on any core count, asserted
    // > 0 in CI. The two size-class batches are two solve chains, so the
    // first to retire donates its lanes every iteration: the donation
    // count is deterministic (> 0 asserted in CI) on any core count.
    Structure s = petot_structure();
    Ls3dfOptions lo = petot_options(std::min(4, default_workers()), 4);
    lo.max_iterations = 2;
    lo.l1_tol = 0.0;
    lo.compute_energy = false;

    Ls3dfSolver overlapped(s, lo);
    Timer to;
    const Ls3dfResult ro = overlapped.solve();
    const double overlap_ms = to.seconds() * 1e3 / ro.iterations;

    lo.n_workers = 1;
    Ls3dfSolver overlapped_w1(s, lo);
    const Ls3dfResult r1 = overlapped_w1.solve();

    out.push_back({"ls3df_iter_overlap_1x1x4", overlap_ms, 0});
    out.push_back({"ls3df_overlap_fraction_1x1x4", ro.overlap_fraction, 0});
    out.push_back(
        {"ls3df_overlap_fraction_w1_1x1x4", r1.overlap_fraction, 0});
    out.push_back({"ls3df_donated_lane_events",
                   static_cast<double>(overlapped.donated_lane_events()),
                   0});
  }

  // PEtot_F probe: the petot_f() hook's LPT batch dispatch at width 4
  // (the cross-PR trajectory entry), best of five warm sweeps.
  PetotProbe batched_b4(std::min(4, default_workers()), 4);
  for (int rep = 0; rep < 5; ++rep) batched_b4.timed_sweep();
  out.push_back({"petot_f_1x1x4_batched_b4", batched_b4.best_ms, 0});

  {
    // Checkpoint overhead + resume fidelity on the skewed 1x1x4
    // division. Snapshots ride the end-of-iteration sequence point at
    // every-2 cadence; the write is one buffered temp file + atomic
    // rename, so the target is < 5% over the checkpoint-free solve (CI
    // asserts it with the usual timing-noise treatment: interleaved
    // best-of-3 over identical deterministic work). The fidelity flag is
    // the crash-safety contract itself: a solve killed mid-iteration and
    // resumed from its latest snapshot must land on the uninterrupted
    // run's bits.
    Structure s = petot_structure();
    Ls3dfOptions lo = petot_options(std::min(4, default_workers()), 4);
    lo.max_iterations = 3;
    lo.l1_tol = 0.0;
    lo.compute_energy = false;

    const std::string path = "/tmp/ls3df_bench_ckpt.snap";
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
    Ls3dfOptions ck = lo;
    ck.checkpoint.path = path;
    ck.checkpoint.every = 2;

    Ls3dfSolver plain(s, lo);
    Ls3dfSolver snapped(s, ck);
    // The warm pass (arenas, FFT plans) is also the fidelity reference:
    // repeated solve() calls advance the solver-level RNG stream, so the
    // crash + resume below — fresh solvers, first solve each — must be
    // compared against a first solve, not a re-solve.
    const Ls3dfResult r_plain = plain.solve();
    Ls3dfResult r_snap = snapped.solve();
    double plain_ms = 1e300, snap_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      Timer tp;
      benchmark::DoNotOptimize(plain.solve().iterations);
      plain_ms = std::min(plain_ms, tp.seconds() * 1e3);
      Timer ts;
      r_snap = snapped.solve();
      snap_ms = std::min(snap_ms, ts.seconds() * 1e3);
    }
    const double overhead =
        plain_ms > 0 ? std::max(0.0, snap_ms / plain_ms - 1.0) : 0.0;

    // Crash in iteration 3's first batch (the every-2 snapshot from
    // iteration 2 is committed), then resume with a fresh solver.
    Ls3dfOptions crash = ck;
    Ls3dfSolver probe(s, crash);
    const int per_iter = static_cast<int>(probe.batches().size());
    int counter = 0;
    crash.on_batch_solve = [&counter, per_iter](int) {
      if (counter++ == 2 * per_iter)
        throw std::runtime_error("injected crash");
    };
    bool identical = false;
    try {
      Ls3dfSolver victim(s, crash);
      victim.solve();
    } catch (const std::runtime_error&) {
      Ls3dfSolver resumer(s, lo);
      const Ls3dfResult r = resumer.resume(path);
      identical = r.iterations == r_plain.iterations &&
                  r.conv_history.size() == r_plain.conv_history.size() &&
                  r.rho.size() == r_plain.rho.size() &&
                  r.charge_patch_error == r_plain.charge_patch_error;
      for (std::size_t i = 0; identical && i < r_plain.conv_history.size();
           ++i)
        identical = r.conv_history[i] == r_plain.conv_history[i];
      for (std::size_t i = 0; identical && i < r_plain.rho.size(); ++i)
        identical = r.rho[i] == r_plain.rho[i];
    }
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());

    out.push_back({"ls3df_solve_nockpt_1x1x4", plain_ms, 0});
    out.push_back({"ls3df_solve_ckpt_e2_1x1x4", snap_ms, 0});
    out.push_back({"ls3df_checkpoint_overhead_1x1x4", overhead, 0});
    out.push_back({"resume_bit_identical_to_uninterrupted",
                   identical ? 1.0 : 0.0, 0});
  }

  {
    // fp32 vs fp64 batched Davidson on a 3-member ZnTe batch: the same
    // initial wavefunctions through both drivers, interleaved best-of-3.
    // The fp32 stack halves every memory stream in the hot sweeps
    // (FFT grids, projector GEMMs), so the speedup is bandwidth-bound:
    // well above 1 on memory-starved many-core hosts, closer to 1 where
    // the small fixture fits in cache.
    const Lattice lat = Lattice::cubic(8.0);
    const Vec3i grid{12, 12, 12};
    std::vector<std::unique_ptr<Hamiltonian>> hams;
    std::vector<MatC> psis0;
    const int nb = 8;
    for (int t = 0; t < 3; ++t) {
      Structure sb(lat);
      sb.add_atom(Species::kZn, {2.0 + 0.6 * t, 2.0, 2.0});
      sb.add_atom(Species::kTe, {2.0 + 0.6 * t, 2.0, 4.5});
      GVectors gv(lat, grid, 1.4);
      hams.push_back(std::make_unique<Hamiltonian>(sb, gv));
      psis0.push_back(random_wavefunctions(gv, nb, 700 + t));
    }
    const EigensolverOptions opt{10, 1e-9, true};
    const int workers = std::min(4, default_workers());
    BatchWorkspace ws64, ws32;
    double ms64 = 1e300, ms32 = 1e300;
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<MatC> p64 = psis0, p32 = psis0;
      std::vector<FragmentSolve> f64, f32;
      for (int t = 0; t < 3; ++t) {
        f64.push_back({hams[t].get(), &p64[t]});
        f32.push_back({hams[t].get(), &p32[t]});
      }
      Timer t64;
      solve_all_band_batched(f64, opt, ws64, workers);
      const double s64 = t64.seconds() * 1e3;
      Timer t32;
      solve_all_band_batched_f32(f32, opt, ws32, workers);
      const double s32 = t32.seconds() * 1e3;
      if (rep == 0) continue;  // warm: arenas allocate on the first rep
      ms64 = std::min(ms64, s64);
      ms32 = std::min(ms32, s32);
    }
    out.push_back({"davidson_fp64_3x12c_nb8", ms64, 0});
    out.push_back({"davidson_fp32_3x12c_nb8", ms32, 0});
    out.push_back({"davidson_fp32_speedup_over_fp64",
                   ms32 > 0 ? ms64 / ms32 : 0, 0});
  }

  {
    // Mixed-precision trajectory flag on the Fig. 6 configuration (the
    // bench_fig6_scf_convergence model alloy): a kMixed solve must reach
    // the fp64 answer within tolerance spending at most two extra outer
    // iterations. CI asserts the flag; the extra-iteration and energy
    // deltas ride along for the cross-PR trajectory.
    Structure s = build_model_znteo({3, 1, 1}, 1, 42);
    Ls3dfOptions lo;
    lo.division = {3, 1, 1};
    lo.points_per_cell = 8;
    lo.buffer_points = 4;
    lo.ecut = 0.9;
    lo.extra_bands = 4;
    lo.fragment_smearing = 0.01;
    lo.wall_height = 0.0;
    lo.atom_margin = 0.0;
    lo.eig.max_iterations = 5;
    lo.max_iterations = 40;
    lo.l1_tol = 5e-3;
    lo.batch_width = 2;  // the fp32 path lives on the batched dispatch

    Ls3dfSolver ref_solver(s, lo);
    const Ls3dfResult ref = ref_solver.solve();

    lo.precision = Precision::kMixed;
    Ls3dfSolver mixed_solver(s, lo);
    const Ls3dfResult mixed = mixed_solver.solve();

    const double de = std::abs(mixed.energy.total - ref.energy.total);
    const double tol = 1e-4 * std::max(1.0, std::abs(ref.energy.total));
    const bool ok = ref.converged && mixed.converged &&
                    mixed.iterations <= ref.iterations + 2 && de <= tol;
    out.push_back({"mixed_precision_converges_like_fp64", ok ? 1.0 : 0.0, 0});
    out.push_back({"mixed_precision_extra_iters",
                   static_cast<double>(mixed.iterations - ref.iterations),
                   0});
    out.push_back({"mixed_precision_energy_delta", de, 0});
  }

  {
    // Tracing overhead + coverage on the skewed 1x1x4 division, with the
    // barrier-free chain DAG (the densest span stream: node
    // spans from the TaskGraph observer, pool lane spans, Davidson
    // sweeps). Tracing is an A/B toggle over bit-identical arithmetic,
    // so CI asserts overhead < 2% (interleaved best-of-4 over identical
    // deterministic work), the bit-identity flag, and that the union of
    // non-iteration spans covers >= 95% of the iteration wall. The
    // sharded overlapped solve also exports the CI artifacts:
    // BENCH_trace.json (per-rank-attributed Chrome trace, validated by
    // tools/trace_merge) and BENCH_metrics.json (the solve's metrics
    // snapshot, schema ls3df-metrics-v1).
    Structure s = petot_structure();
    Ls3dfOptions lo = petot_options(std::min(4, default_workers()), 4);
    lo.max_iterations = 2;
    lo.l1_tol = 0.0;
    lo.compute_energy = false;

    Ls3dfSolver plain(s, lo);
    TraceRecorder rec(std::size_t{1} << 18);
    Ls3dfOptions lt = lo;
    lt.trace = &rec;
    Ls3dfSolver traced(s, lt);
    // Warm pass (arenas, FFT plans) doubles as the fidelity reference.
    const Ls3dfResult r_plain = plain.solve();
    const Ls3dfResult r_traced = traced.solve();
    double plain_ms = 1e300, traced_ms = 1e300;
    for (int rep = 0; rep < 4; ++rep) {
      Timer tp;
      benchmark::DoNotOptimize(plain.solve().iterations);
      plain_ms = std::min(plain_ms, tp.seconds() * 1e3);
      rec.clear();
      Timer tt;
      benchmark::DoNotOptimize(traced.solve().iterations);
      traced_ms = std::min(traced_ms, tt.seconds() * 1e3);
    }
    const double overhead =
        plain_ms > 0 ? std::max(0.0, traced_ms / plain_ms - 1.0) : 0.0;
    bool identical =
        r_plain.conv_history.size() == r_traced.conv_history.size() &&
        r_plain.rho.size() == r_traced.rho.size();
    for (std::size_t i = 0; identical && i < r_plain.conv_history.size();
         ++i)
      identical = r_plain.conv_history[i] == r_traced.conv_history[i];
    for (std::size_t i = 0; identical && i < r_plain.rho.size(); ++i)
      identical = r_plain.rho[i] == r_traced.rho[i];

    // The sharded overlapped traced solve: artifacts + span coverage.
    TraceRecorder rec_sh(std::size_t{1} << 18);
    Ls3dfOptions ls = lo;
    ls.n_shards = 2;
    ls.trace = &rec_sh;
    Ls3dfSolver sharded(s, ls);
    const Ls3dfResult r_sh = sharded.solve();

    // Coverage: fraction of the "iter" spans' wall covered by the union
    // (across all lanes) of every other span, clipped to the window.
    std::vector<TraceEvent> all;
    for (int t = 0; t < rec_sh.lane_count(); ++t)
      for (const TraceEvent& ev : rec_sh.lane_events(t)) all.push_back(ev);
    double iter_wall = 0, covered = 0;
    for (const TraceEvent& it : all) {
      if (std::strcmp(it.name, "iter") != 0) continue;
      iter_wall += static_cast<double>(it.t1_us - it.t0_us);
      std::vector<std::pair<std::uint32_t, std::uint32_t>> iv;
      for (const TraceEvent& ev : all) {
        if (std::strcmp(ev.name, "iter") == 0) continue;
        const std::uint32_t lo32 = std::max(ev.t0_us, it.t0_us);
        const std::uint32_t hi32 = std::min(ev.t1_us, it.t1_us);
        if (hi32 > lo32) iv.emplace_back(lo32, hi32);
      }
      std::sort(iv.begin(), iv.end());
      std::uint32_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (const auto& w : iv) {
        if (!open || w.first > cur_hi) {
          if (open) covered += static_cast<double>(cur_hi - cur_lo);
          cur_lo = w.first;
          cur_hi = w.second;
          open = true;
        } else {
          cur_hi = std::max(cur_hi, w.second);
        }
      }
      if (open) covered += static_cast<double>(cur_hi - cur_lo);
    }
    const double coverage = iter_wall > 0 ? covered / iter_wall : 0.0;

    rec_sh.write_chrome_json_file("BENCH_trace.json");
    r_sh.metrics.write_json_file("BENCH_metrics.json");

    out.push_back({"ls3df_solve_untraced_1x1x4", plain_ms, 0});
    out.push_back({"ls3df_solve_traced_1x1x4", traced_ms, 0});
    out.push_back({"ls3df_tracing_overhead_1x1x4", overhead, 0});
    out.push_back(
        {"trace_bit_identical_to_untraced", identical ? 1.0 : 0.0, 0});
    out.push_back({"ls3df_trace_coverage_1x1x4", coverage, 0});
    out.push_back({"ls3df_trace_events",
                   static_cast<double>(rec_sh.total_events()), 0});
    out.push_back({"ls3df_trace_dropped",
                   static_cast<double>(rec_sh.dropped()), 0});
  }
  return out;
}

#ifdef LS3DF_WITH_MPI
// Child body of the MPI GENPOT probe, executed under
// `mpirun -np 4 bench_kernels --mpi-child` by append_mpi_entries below.
// Each rank holds only its slab (rank-local SPMD storage), times the
// sharded GENPOT, gathers the result and checks it bitwise against the
// locally computed dense reference, and rank 0 prints one parseable
// line with the MAX wall, MIN identity and MAX per-rank peak RSS.
int run_mpi_child() {
  MPI_Init(nullptr, nullptr);
  int self = 0, world = 0;
  MPI_Comm_rank(MPI_COMM_WORLD, &self);
  MPI_Comm_size(MPI_COMM_WORLD, &world);
  {
    const Vec3i shape{40, 40, 40};
    const Lattice lat({12.0, 12.0, 12.0});
    Rng rng(9);
    FieldR vion(shape), rho(shape);
    for (std::size_t i = 0; i < vion.size(); ++i) {
      vion[i] = rng.uniform(-1, 1);
      rho[i] = rng.uniform(0.0, 0.2);
    }
    const FieldR v_dense = effective_potential(vion, rho, lat);

    ShardComm comm(world, 1, std::make_unique<MpiTransport>(MPI_COMM_WORLD));
    const int lr = comm.local_rank();
    DistFft3D fft(shape, comm);
    ShardedFieldR svion(shape, world, lr), srho(shape, world, lr),
        vh(shape, world, lr), vxc(shape, world, lr), vout(shape, world, lr);
    svion.from_dense(vion);
    srho.from_dense(rho);
    sharded_effective_potential(svion, srho, lat, fft, vh, vxc, vout);  // warm
    const double ms = time_best_ms(3, [&]() {
      sharded_effective_potential(svion, srho, lat, fft, vh, vxc, vout);
    });
    const FieldR got = gather_dense(vout, comm);
    bool identical = got.size() == v_dense.size();
    for (std::size_t i = 0; identical && i < v_dense.size(); ++i)
      identical = got[i] == v_dense[i];

    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    const double rss_mb = ru.ru_maxrss / 1024.0;  // Linux: ru_maxrss in KiB

    double wall_max = 0, rss_max = 0;
    int ident = identical ? 1 : 0, ident_all = 0;
    MPI_Allreduce(&ms, &wall_max, 1, MPI_DOUBLE, MPI_MAX, MPI_COMM_WORLD);
    MPI_Allreduce(&rss_mb, &rss_max, 1, MPI_DOUBLE, MPI_MAX, MPI_COMM_WORLD);
    MPI_Allreduce(&ident, &ident_all, 1, MPI_INT, MPI_MIN, MPI_COMM_WORLD);
    if (self == 0)
      std::printf("mpi_child wall_ms=%.6f identical=%d peak_rss_mb=%.3f\n",
                  wall_max, ident_all, rss_max);
  }
  MPI_Finalize();
  return 0;
}

// Parent side of the MPI probe: self-launch under mpirun and fold the
// child's report into the JSON summary. A failed launch or unparsable
// output emits mpi_bit_identical_to_dense = 0 so the CI assertion
// fails loudly instead of silently skipping the contract.
void append_mpi_entries(std::vector<JsonEntry>& out, const char* argv0) {
  const std::string cmd = std::string("mpirun --oversubscribe -np 4 ") +
                          argv0 + " --mpi-child 2>&1";
  std::string text;
  if (std::FILE* p = popen(cmd.c_str(), "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof buf, p)) text += buf;
    pclose(p);
  }
  double wall = 0, rss = 0;
  int identical = 0;
  const char* line = std::strstr(text.c_str(), "mpi_child ");
  if (!line ||
      std::sscanf(line, "mpi_child wall_ms=%lf identical=%d peak_rss_mb=%lf",
                  &wall, &identical, &rss) != 3) {
    std::fprintf(stderr,
                 "bench_kernels: mpirun probe failed or unparsable output:\n"
                 "%s\n",
                 text.c_str());
    out.push_back({"mpi_bit_identical_to_dense", 0.0, 0});
    return;
  }
  out.push_back({"genpot_mpi_40_s4", wall, 0});
  out.push_back({"genpot_mpi_peak_rss_mb_np4", rss, 0});
  out.push_back({"mpi_bit_identical_to_dense", identical ? 1.0 : 0.0, 0});
}
#endif  // LS3DF_WITH_MPI

void write_json(const std::vector<JsonEntry>& entries, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"wall_ms\": %.6f, \"flops\": %.0f}%s\n",
                 entries[i].name.c_str(), entries[i].wall_ms,
                 entries[i].flops, i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("kernel summary written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
#ifdef LS3DF_WITH_MPI
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--mpi-child") == 0) return run_mpi_child();
#endif
  const char* argv0 = argv[0];
  const char* json_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::vector<JsonEntry> entries = kernel_summary();
#ifdef LS3DF_WITH_MPI
  append_mpi_entries(entries, argv0);
#else
  (void)argv0;
#endif
  write_json(entries, json_path);
  return 0;
}
