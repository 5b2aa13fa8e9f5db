// Reproduces the Sec. IV optimization study as ablations:
//  1. band-by-band (BLAS-2) vs all-band (BLAS-3) fragment solver -- real
//     time to one residual tolerance on a fragment-sized problem;
//  2. Gram-Schmidt vs overlap-matrix (Cholesky) orthogonalization -- real
//     timings;
//  3. file-I/O vs in-memory data passing between phases -- real timings
//     (the early LS3DF prototype passed Gen_VF/Gen_dens data through
//     files; optimization 3 moved it to memory/MPI);
//  4. collective vs point-to-point Gen_VF/Gen_dens communication -- via
//     the calibrated machine model (the hardware-scale effect).
// Paper reference points: Gen_VF 22 s -> 2.5 s, PEtot_F 170 s -> 60 s,
// Gen_dens 19 s -> 2.2 s, GENPOT 22 s -> 0.4 s (2,000-atom CdSe class,
// 8,000 cores), a 4x overall gain; PEtot 15% -> 56% of peak.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "atoms/builders.h"
#include "common/flops.h"
#include "common/rng.h"
#include "common/timer.h"
#include "dft/eigensolver.h"
#include "dft/hamiltonian.h"
#include "linalg/blas.h"
#include "perfmodel/machines.h"
#include "perfmodel/paper_data.h"
#include "perfmodel/simulator.h"

using namespace ls3df;
using cd = std::complex<double>;

namespace {

// Ablation [1] runs both solvers to one residual tolerance under a
// generous iteration cap, so the ratio compares time to the same
// residual rather than iteration budgets.
constexpr double kSolverTol = 1e-6;
constexpr int kSolverCap = 400;  // Davidson sweeps, or CG steps per band

struct SolverRun {
  double seconds = 0;    // mean wall per solve
  double iterations = 0; // mean Davidson sweeps, or CG steps over all bands
  double applies = 0;    // mean H-column applies per solve
  double residual = 0;   // worst final max_j |H psi_j - eps_j psi_j|
};

SolverRun time_solver(bool all_band, int repeats) {
  Structure s = build_model_znteo({2, 2, 2}, 0, 1);
  GVectors gv(s.lattice(), default_fft_grid(s.lattice(), 1.0), 1.0);
  Hamiltonian h(s, gv);
  const EigensolverOptions opt{kSolverCap, kSolverTol, true};
  // The FlopCounter charges every column apply alike (the block apply
  // and apply_band count the same flops per column), so its total over
  // one column's count is the number of columns H was applied to.
  FlopCounter fc;
  h.set_flop_counter(&fc);
  MatC one = random_wavefunctions(gv, 1, 1), h_one;
  h.apply(one, h_one);
  const double per_column = static_cast<double>(fc.total());
  SolverRun run;
  for (int r = 0; r < repeats; ++r) {
    MatC psi = random_wavefunctions(gv, 20, 11 + r);
    fc.clear();
    h.set_flop_counter(&fc);
    Timer t;
    EigensolverResult res;
    if (all_band) {
      BatchWorkspace ws;
      res = solve_all_band_batched<double>({{&h, &psi}}, opt, ws)[0];
    } else {
      res = solve_band_by_band(h, psi, opt);
    }
    run.seconds += t.seconds() / repeats;
    h.set_flop_counter(nullptr);
    run.iterations += static_cast<double>(res.iterations) / repeats;
    run.applies += static_cast<double>(fc.total()) / per_column / repeats;
    // The same residual measure for both sides, outside the timer.
    MatC hpsi;
    h.apply(psi, hpsi);
    for (int j = 0; j < psi.cols(); ++j) {
      double r2 = 0;
      for (int g = 0; g < psi.rows(); ++g)
        r2 += std::norm(hpsi(g, j) - res.eigenvalues[j] * psi(g, j));
      run.residual = std::max(run.residual, std::sqrt(r2));
    }
  }
  return run;
}

double time_orthonormalize(bool cholesky, int repeats) {
  Rng rng(3);
  MatC X0(2000, 64);
  for (int j = 0; j < 64; ++j)
    for (int i = 0; i < 2000; ++i)
      X0(i, j) = cd(rng.uniform(-1, 1), rng.uniform(-1, 1));
  Timer t;
  for (int r = 0; r < repeats; ++r) {
    MatC X = X0;
    if (cholesky)
      orthonormalize_cholesky(X);
    else
      orthonormalize_gram_schmidt(X);
  }
  return t.seconds() / repeats;
}

// Pass a density-sized field between "phases" through a file vs memory.
double time_data_passing(bool via_file, int repeats) {
  FieldR rho({40, 40, 40});
  Rng rng(5);
  for (std::size_t i = 0; i < rho.size(); ++i) rho[i] = rng.uniform(0, 1);
  FieldR sink({40, 40, 40});
  const char* path = "/tmp/ls3df_bench_field.bin";
  Timer t;
  for (int r = 0; r < repeats; ++r) {
    if (via_file) {
      {
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char*>(rho.data()),
                  static_cast<std::streamsize>(rho.size() * sizeof(double)));
      }
      std::ifstream in(path, std::ios::binary);
      in.read(reinterpret_cast<char*>(sink.data()),
              static_cast<std::streamsize>(sink.size() * sizeof(double)));
    } else {
      sink = rho;
    }
  }
  const double dt = t.seconds() / repeats;
  if (via_file) std::remove(path);
  return dt;
}

}  // namespace

int main() {
  std::printf("Sec. IV optimization ablations\n\n");

  std::printf("[1] fragment eigensolver (20 bands, model fragment, to "
              "residual %.0e):\n", kSolverTol);
  const SolverRun bbb = time_solver(false, 3);
  const SolverRun ab = time_solver(true, 3);
  std::printf("    band-by-band (BLAS-2): %8.3f s  %6.0f CG steps      "
              "%6.0f H-column applies  residual %.1e\n",
              bbb.seconds, bbb.iterations, bbb.applies, bbb.residual);
  std::printf("    all-band    (BLAS-3): %8.3f s  %6.0f Davidson sweeps "
              "%6.0f H-column applies  residual %.1e   -> speedup %.2fx\n",
              ab.seconds, ab.iterations, ab.applies, ab.residual,
              bbb.seconds / ab.seconds);
  std::printf("    paper: PEtot_F 170 s -> 60 s (2.8x) from the same change\n\n");

  std::printf("[2] orthogonalization of a 2000x64 band block:\n");
  const double t_gs = time_orthonormalize(false, 10);
  const double t_ch = time_orthonormalize(true, 10);
  std::printf("    Gram-Schmidt (BLAS-1/2): %8.4f s\n", t_gs);
  std::printf("    overlap + Cholesky (BLAS-3): %8.4f s   -> %.2fx faster\n",
              t_ch, t_gs / t_ch);

  std::printf("\n[3] phase data passing (40^3 field, Gen_VF/Gen_dens path):\n");
  const double t_file = time_data_passing(true, 50);
  const double t_mem = time_data_passing(false, 50);
  std::printf("    file I/O : %10.6f s\n", t_file);
  std::printf("    in-memory: %10.6f s   -> %.1fx faster\n", t_mem,
              t_file / t_mem);
  std::printf("    paper: moving from file I/O to memory was 'a major "
              "improvement in scalability'\n");

  std::printf("\n[4] Gen_VF/Gen_dens communication algorithm at scale "
              "(machine model, Intrepid 16x16x8):\n");
  MachineModel old_style = machine_intrepid();
  old_style.comm = CommAlgorithm::kCollective;
  old_style.ov_k = machine_franklin().ov_k;
  old_style.ov_gamma = machine_franklin().ov_gamma;
  for (int cores : {8192, 32768, 131072}) {
    SimResult p2p =
        simulate_scf_iteration(machine_intrepid(), {16, 16, 8}, cores, 64);
    SimResult old =
        simulate_scf_iteration(old_style, {16, 16, 8}, cores, 64);
    std::printf("    %6d cores: collective %6.2f s vs p2p %6.2f s per phase "
                "(comm share %4.1f%% -> %4.1f%%)\n",
                cores, old.t_gen_vf, p2p.t_gen_vf,
                100 * (old.t_gen_vf + old.t_gen_dens) / old.t_iter,
                100 * (p2p.t_gen_vf + p2p.t_gen_dens) / p2p.t_iter);
  }
  std::printf("    paper: on Intrepid the two routines together are <2%% of "
              "the run at 131,072 cores\n");

  std::printf("\n[paper per-phase reference, 2,000-atom CdSe class @ 8,000 "
              "cores]\n");
  for (const auto& pt : paper::kSec4Timings)
    std::printf("    %-9s %6.1f s -> %5.1f s (%.0fx)\n", pt.phase,
                pt.before_s, pt.after_s, pt.before_s / pt.after_s);
  return 0;
}
