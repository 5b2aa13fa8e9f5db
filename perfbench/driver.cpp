// perfbench driver: the repository benchmark of the LS3DF solver.
//
//   perfbench_driver --workload alloy|sheet|service --seed N --seconds S
//                    --trace 0|1 --work-dir DIR
//
// One run measures one workload for a fixed wall-clock window and prints
// one JSON result line on stdout (progress goes to stderr). Inputs are
// generated from --seed: the same seed gives the same inputs. The solver
// only ever sees the generated structures and options.
//
// == Workloads ==
//
//   alloy    The Fig. 6 system of bench/bench_fig6_scf_convergence.cpp: the
//            model ZnTeO alloy (3 Zn-Te dimer cells, one Te replaced by O),
//            3x1x1 division, 8 points per cell, with the seed jittering
//            every atom (+- 0.03 Bohr per axis) and drawing the
//            wavefunction seed. Zn, Te and O all carry nonlocal
//            projectors and every cell holds 8 valence electrons, so
//            PEtot_F runs the full Hamiltonian (local + nonlocal) over
//            several bands per fragment. The SCF runs a fixed 12 outer
//            iterations (the steep first part of the Fig. 6 curve): a
//            converge-to-tolerance solve takes 21-36 iterations
//            depending on the seed, which would swamp any per-iteration
//            change. Global grid on 2 in-process shards, 2 worker lanes,
//            a checkpoint every second iteration.
//   sheet    A 2D sheet of H2 molecules, 3x3x1 division (36 small
//            fragments), global grid on 2 forked worker processes
//            (ProcTransport over shared memory), 4 worker lanes, a
//            checkpoint every second iteration, solved to 1e-2. Many
//            fragments of mixed size: stresses LPT scheduling, the
//            restrict/patch chains, the GENPOT transpose and the
//            multi-process transport.
//   service  The job mix of bench/bench_service.cpp (job_mix()) on the
//            same SolverService configuration (4 lanes, 3 drivers,
//            snapshots every iteration), submitted as a burst of its 11
//            jobs and drained, block after block, for the window: 6 small
//            3-cell jobs of one configuration (warm-instance hits), 2
//            heavy overlapped 4-cell jobs on 2 shards (the LPT tail), one
//            high-priority 3-cell latecomer, and 2 proc-transport 3-cell
//            jobs that each lose a worker to a FaultPlan SIGKILL and retry
//            through recover() + resume(). The seed jitters the four
//            structures and shuffles the submission order of each block.
//            Snapshot warm starts are off: repeated blocks would otherwise
//            resume finished snapshots instead of solving.
//
// == Metrics ==
//
//   --trace 0 (end to end, tracing off):
//     time_to_solution_s  median wall of one solve (service: submit ->
//                         done, queue wait included)
//     p90_latency_s       90th percentile (nearest rank) of the latency
//                         samples: per job on service (every window holds
//                         well over 100 jobs), per outer iteration on
//                         alloy/sheet, whose windows hold too few solves
//                         for a tail
//     s_per_iteration     median wall of one outer SCF iteration
//     solves_per_s        completed solves per second of measured time
//     setup_s             time to construct the Ls3dfSolver instances of
//                         the workload: for each job class the median of
//                         constructions spread over the run (before the
//                         window and between solves or blocks, outside
//                         the measured time), summed over the classes
//   --trace 1 (per layer): the same loop with a TraceRecorder on every
//     solve; spans are kept in memory, aggregated per layer after each
//     solve, and the last solve's trace is written as Chrome JSON to
//     DIR/trace.json. Layer times are per outer iteration unless named
//     per event. Pool busy time counts pool.task spans inside outer
//     iterations. Lane capacity counts, per iteration, the lanes the solve
//     was allowed at that iteration (under the service, its live share of
//     the lane budget), read through the lane-allowance and progress
//     hooks.
//
// == Correctness ==
//
//   Every solve must finish its iterations (converge below its tolerance,
//   or, run to a fixed length, cut the residual 10x at some iteration),
//   keep the patched charge within 5% of the electron count (10% for
//   fixed-length solves), have a density that integrates to it, give an
//   energy in the expected band, and be bitwise identical (density,
//   potential, energy, residual history) to a reference solve of the
//   same input made before the window on another execution
//   configuration: one in-process shard, no checkpoints and a different
//   worker count for alloy/sheet; a standalone Ls3dfSolver::solve() for
//   each service job class (killed jobs included). Every injected kill
//   must cost exactly one retry. Every run also re-solves one fixed input
//   against a recorded total energy (check_golden), which catches a
//   defect all configurations share.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "atoms/builders.h"
#include "atoms/structure.h"
#include "checkpoint/fault_injection.h"
#include "common/rng.h"
#include "common/timer.h"
#include "fragment/ls3df.h"
#include "obs/trace.h"
#include "service/solver_service.h"
#include "transport/proc_transport.h"

using namespace ls3df;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "alloy|sheet|service --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work-dir") a.work_dir = v;
    else usage(("unknown flag " + k).c_str());
  }
  if (a.workload != "alloy" && a.workload != "sheet" &&
      a.workload != "service")
    usage("unknown workload");
  if (a.work_dir.empty()) usage("--work-dir is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t r = static_cast<std::size_t>(std::ceil(q * v.size()));
  r = std::min(std::max<std::size_t>(r, 1), v.size());
  return v[r - 1];
}

// ---------------------------------------------------------------------------
// Inputs

constexpr double kCell = 6.0;  // Bohr; one H2 molecule per cubic cell

// H2 molecules on an m1 x m2 x 1 lattice of cells, bond along x. The seed
// jitters each bond length (0.7 +- 0.025 Bohr half-bond) and molecule
// centre (+- 0.05 Bohr per axis): new geometry on every seed at the same
// cost class.
Structure h2_lattice(int m1, int m2, Rng& rng) {
  Structure s(Lattice({kCell * m1, kCell * m2, kCell}));
  for (int i = 0; i < m1; ++i)
    for (int j = 0; j < m2; ++j) {
      const double half = 0.7 + rng.uniform(-0.025, 0.025);
      const Vec3d c{kCell * (i + 0.5) + rng.uniform(-0.05, 0.05),
                    kCell * (j + 0.5) + rng.uniform(-0.05, 0.05),
                    kCell * 0.5 + rng.uniform(-0.05, 0.05)};
      s.add_atom(Species::kH, {c.x - half, c.y, c.z});
      s.add_atom(Species::kH, {c.x + half, c.y, c.z});
    }
  return s;
}

Ls3dfOptions h2_options(int m1, int m2, int points_per_cell, double tol,
                        std::uint64_t wf_seed) {
  Ls3dfOptions lo;
  lo.division = {m1, m2, 1};
  lo.points_per_cell = points_per_cell;
  lo.ecut = 1.0;
  lo.buffer_points = 3;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 6;
  lo.max_iterations = 40;
  lo.l1_tol = tol;
  lo.seed = wf_seed;
  return lo;
}

// bench_service's base_options(): 8 points per cell, 4 buffer points and
// a fixed iteration count (l1_tol 0) per job.
Ls3dfOptions service_options(int cells, std::uint64_t wf_seed) {
  Ls3dfOptions lo;
  lo.division = {cells, 1, 1};
  lo.points_per_cell = 8;
  lo.ecut = 1.0;
  lo.buffer_points = 4;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 6;
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;
  lo.seed = wf_seed;
  lo.n_workers = 2;
  return lo;
}

constexpr int kAlloyCells = 3;
constexpr int kAlloyIterations = 12;

// One job class: a structure, its options, its service priority and
// share of the mix, whether its jobs lose a worker, and the band the
// total energy per `energy_units` (H2 molecules or alloy cells) must fall
// in.
struct JobClass {
  std::string name;
  Structure structure;
  Ls3dfOptions options;
  int priority = 0;
  int per_block = 1;
  bool inject_kill = false;
  double energy_units = 1, energy_lo = 0, energy_hi = 0;
};

std::vector<JobClass> make_classes(const std::string& workload,
                                   std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  std::vector<JobClass> out;
  auto wf = [&] { return 1000 + rng.uniform_int(std::uint64_t{1} << 20); };
  auto h2 = [](JobClass jc) {
    jc.energy_units = jc.structure.num_electrons() / 2;
    jc.energy_lo = -0.9;
    jc.energy_hi = -0.6;
    return jc;
  };
  if (workload == "alloy") {
    Structure s = build_model_znteo({kAlloyCells, 1, 1}, 1, seed);
    for (Atom& a : s.atoms())
      for (int k = 0; k < 3; ++k) a.position[k] += rng.uniform(-0.03, 0.03);
    // bench_fig6_scf_convergence's options, cut to a fixed length.
    Ls3dfOptions lo;
    lo.division = {kAlloyCells, 1, 1};
    lo.points_per_cell = 8;
    lo.buffer_points = 4;
    lo.ecut = 0.9;
    lo.extra_bands = 4;
    lo.fragment_smearing = 0.01;
    lo.wall_height = 0.0;
    lo.atom_margin = 0.0;
    lo.eig.max_iterations = 5;
    // Every band stays active for all 5 Davidson sweeps, so the cost of
    // an iteration does not hang on how many bands happen to converge
    // early on a given seed.
    lo.eig.residual_tol = 0.0;
    lo.max_iterations = kAlloyIterations;
    lo.l1_tol = 0.0;
    lo.seed = wf();
    lo.n_workers = 2;
    lo.n_shards = 2;
    JobClass jc{"znteo3", std::move(s), lo};
    jc.energy_units = kAlloyCells;
    jc.energy_lo = -11.5;
    jc.energy_hi = -10.0;
    out.push_back(std::move(jc));
  } else if (workload == "sheet") {
    Ls3dfOptions lo = h2_options(3, 3, 5, 1e-2, wf());
    lo.n_workers = 4;
    lo.n_shards = 2;
    lo.transport = TransportKind::kProc;
    out.push_back(h2({"sheet3x3", h2_lattice(3, 3, rng), lo}));
  } else {
    // bench_service's job_mix(), class by class.
    Ls3dfOptions head = service_options(3, wf());
    head.batch_width = 2;
    JobClass c = h2({"head3", h2_lattice(3, 1, rng), head});
    c.per_block = 6;
    out.push_back(std::move(c));

    Ls3dfOptions tail = service_options(4, wf());
    tail.n_shards = 2;
    tail.overlap = true;
    tail.donate = true;
    tail.max_iterations = 3;
    c = h2({"tail4", h2_lattice(4, 1, rng), tail});
    c.per_block = 2;
    out.push_back(std::move(c));

    Ls3dfOptions late = service_options(3, wf());
    late.eig.max_iterations = 5;
    c = h2({"late3", h2_lattice(3, 1, rng), late});
    c.priority = 2;
    out.push_back(std::move(c));

    Ls3dfOptions proc = service_options(3, wf());
    proc.n_shards = 2;
    proc.transport = TransportKind::kProc;
    proc.max_iterations = 3;
    c = h2({"proc3", h2_lattice(3, 1, rng), proc});
    c.per_block = 2;
    c.inject_kill = true;
    out.push_back(std::move(c));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Correctness

bool same_bits(const Ls3dfResult& a, const Ls3dfResult& b) {
  auto eq = [](const double* x, const double* y, std::size_t n) {
    return std::memcmp(x, y, n * sizeof(double)) == 0;
  };
  return a.iterations == b.iterations &&
         a.conv_history.size() == b.conv_history.size() &&
         eq(a.conv_history.data(), b.conv_history.data(),
            a.conv_history.size()) &&
         a.rho.size() == b.rho.size() && a.v_eff.size() == b.v_eff.size() &&
         eq(a.rho.data(), b.rho.data(), a.rho.size()) &&
         eq(a.v_eff.data(), b.v_eff.data(), a.v_eff.size()) &&
         eq(&a.energy.total, &b.energy.total, 1);
}

// Physical sanity of one finished result; "" when it passes.
std::string check_physics(const JobClass& jc, const Ls3dfResult& r) {
  const double ne = jc.structure.num_electrons();
  const Ls3dfOptions& o = jc.options;
  if (r.conv_history.empty()) return "no iterations";
  if (o.l1_tol > 0) {
    if (!r.converged || !(r.conv_history.back() < o.l1_tol))
      return "not converged";
  } else if (r.iterations != o.max_iterations) {
    return "ran " + std::to_string(r.iterations) + " of " +
           std::to_string(o.max_iterations) + " iterations";
  } else if (r.iterations >= 8 &&
             !(*std::min_element(r.conv_history.begin(),
                                 r.conv_history.end()) <
               r.conv_history.front() / 10)) {
    return "residual never fell 10x below its first value";
  }
  // Mid-SCF (fixed-length) densities patch less exactly than converged
  // ones.
  const double patch_tol = o.l1_tol > 0 ? 0.05 : 0.10;
  if (!(std::fabs(r.charge_patch_error) < patch_tol * ne))
    return "patched charge off by " + std::to_string(r.charge_patch_error);
  double q = 0;
  for (std::size_t i = 0; i < r.rho.size(); ++i) q += r.rho.data()[i];
  q *= jc.structure.lattice().volume() / static_cast<double>(r.rho.size());
  if (!(std::fabs(q - ne) < 1e-6 * ne))
    return "density integrates to " + std::to_string(q);
  const double e = r.energy.total / jc.energy_units;
  if (!std::isfinite(e) || e < jc.energy_lo || e > jc.energy_hi)
    return "energy per unit " + std::to_string(e) + " Ha out of band";
  return "";
}

// Absolute reference, the same on every seed: a fixed 3-cell H2 chain
// solved to 1e-4 must reproduce the total energy recorded from this
// solver. Bit-identity between execution configurations cannot catch a
// defect that every configuration shares (a wrong kernel); this can.
constexpr double kGoldenEnergy = -2.2675168447;  // Ha
constexpr double kGoldenTolerance = 1e-6;  // Ha

std::string check_golden() {
  Rng rng(7);
  const Structure s = h2_lattice(3, 1, rng);
  Ls3dfOptions lo = h2_options(3, 1, 8, 1e-4, 2718);
  lo.n_workers = 2;
  const Ls3dfResult r = Ls3dfSolver(s, lo).solve();
  std::fprintf(stderr, "perfbench: golden chain energy %.10f Ha\n",
               r.energy.total);
  if (!r.converged) return "golden chain did not converge";
  if (!(std::fabs(r.energy.total - kGoldenEnergy) < kGoldenTolerance))
    return "golden chain energy " + std::to_string(r.energy.total) +
           " Ha, recorded " + std::to_string(kGoldenEnergy);
  return "";
}

// ---------------------------------------------------------------------------
// Per-layer aggregation over the spans of traced solves

// Lane capacity of one solve: per outer iteration, the lanes the solver
// was allowed (min(n_workers, live allowance)) times the iteration wall.
// Fed by the lane-allowance hook (latest width) and the progress hook
// (end of each iteration).
struct LaneMeter {
  int n_workers = 1;
  std::atomic<int> live{1};
  double capacity_s = 0;  // written by the solve's progress callback only

  explicit LaneMeter(int workers) : n_workers(workers), live(workers) {}

  // Wraps the solver's current hooks (the service's, when bound by it).
  void attach(Ls3dfSolver& solver) {
    const std::function<int()> inner = solver.options().lane_allowance;
    if (inner)
      solver.set_lane_allowance([this, inner] {
        const int a = inner();
        live.store(std::max(1, std::min(n_workers, a)),
                   std::memory_order_relaxed);
        return a;
      });
    const std::function<void(const Ls3dfProgress&)> prog =
        solver.options().progress;
    solver.set_progress([this, prog](const Ls3dfProgress& p) {
      capacity_s += p.wall_s * live.load(std::memory_order_relaxed);
      if (prog) prog(p);
    });
  }
};

using Intervals = std::vector<std::pair<double, double>>;

// Sorted, disjoint union of the intervals.
Intervals merged(Intervals v) {
  std::sort(v.begin(), v.end());
  Intervals out;
  for (const auto& iv : v) {
    if (!out.empty() && iv.first <= out.back().second)
      out.back().second = std::max(out.back().second, iv.second);
    else
      out.push_back(iv);
  }
  return out;
}

// Length of the intersection of two merged() interval sets.
double overlap_us(const Intervals& a, const Intervals& b) {
  double s = 0;
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    s += std::max(0.0, std::min(a[i].second, b[j].second) -
                           std::max(a[i].first, b[j].first));
    if (a[i].second < b[j].second) ++i;
    else ++j;
  }
  return s;
}

struct LayerTotals {
  double iterations = 0;        // outer iterations covered
  double solves = 0;
  double lane_capacity_us = 0;  // sum of LaneMeter capacities
  double pool_busy_us = 0;      // pool.task time inside iterations
  std::map<std::string, double> busy_us;  // per span name
  std::map<std::string, double> count;    // per span name
  double comm_bytes = 0;
  double checkpoint_bytes = 0;
  double overlap_fraction = 0;
  std::uint64_t dropped = 0;  // events lost to ring wrap (must stay 0)

  void add_trace(const TraceRecorder& rec, double lane_capacity_s,
                 double overlap) {
    std::vector<Intervals> pool(static_cast<std::size_t>(rec.lane_count()));
    Intervals iters;
    for (int l = 0; l < rec.lane_count(); ++l) {
      for (const TraceEvent& ev : rec.lane_events(l)) {
        const std::string name = ev.name;
        const double dur = static_cast<double>(ev.t1_us) - ev.t0_us;
        busy_us[name] += dur;
        count[name] += 1;
        if (ev.cat == static_cast<std::uint16_t>(TraceCat::kCollective)) {
          comm_bytes += static_cast<double>(ev.arg);
        } else if (ev.cat == static_cast<std::uint16_t>(TraceCat::kPool)) {
          pool[static_cast<std::size_t>(l)].emplace_back(ev.t0_us, ev.t1_us);
        } else if (ev.cat == static_cast<std::uint16_t>(TraceCat::kSolver) &&
                   name == "iter") {
          iterations += 1;
          iters.emplace_back(ev.t0_us, ev.t1_us);
        } else if (ev.cat ==
                   static_cast<std::uint16_t>(TraceCat::kCheckpoint)) {
          checkpoint_bytes += static_cast<double>(ev.arg);
        }
      }
    }
    // Pool tasks nest (a task may run inner tasks inline), so a lane's
    // busy time is the union of its pool.task intervals; only the part
    // inside outer iterations counts, as lane capacity covers only those.
    const Intervals in_iter = merged(std::move(iters));
    for (Intervals& p : pool) pool_busy_us += overlap_us(merged(p), in_iter);
    lane_capacity_us += lane_capacity_s * 1e6;
    overlap_fraction += overlap;
    solves += 1;
    dropped += rec.dropped();
  }

  double sum_prefix(const std::map<std::string, double>& m,
                    const std::string& prefix) const {
    double s = 0;
    for (const auto& kv : m)
      if (kv.first.compare(0, prefix.size(), prefix) == 0) s += kv.second;
    return s;
  }
};

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name, unit;
  double value;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

// What one run accumulates, whatever the workload.
struct RunStats {
  std::vector<std::vector<double>> setup_s;  // per class, per construction
  std::vector<double> solve_s;     // time to solution, one per solve
  std::vector<double> iter_s;      // every outer iteration wall
  double busy_s = 0;               // measured time the solves ran in
  long attempted = 0, failed = 0;
  long kills = 0, retries = 0;     // service: injected vs retried
  bool correct = true;
  LayerTotals layers;

  // The latency samples p90_latency_s is taken over.
  const std::vector<double>& latency(bool per_job) const {
    return per_job ? solve_s : iter_s;
  }
  double setup() const {
    double s = 0;
    for (const std::vector<double>& c : setup_s) s += median(c);
    return s;
  }
};

void fail(RunStats& st, const std::string& what) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  st.correct = false;
}

// Events kept per recorder lane: several whole solves of the largest
// workload, so no span of a measured solve is overwritten.
constexpr std::size_t kTraceCapacity = 1 << 16;

void write_trace(const TraceRecorder& rec, const Args& args) {
  const std::string path = args.work_dir + "/trace.json";
  if (!rec.write_chrome_json_file(path))
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

// Tail of the solver's iteration-wall series belonging to this solve (a
// warm service instance's registry also holds its earlier jobs).
void push_iter_walls(RunStats& st, const Ls3dfResult& r) {
  auto it = r.metrics.series.find("iter.wall_s");
  if (it == r.metrics.series.end()) return;
  const std::vector<double>& w = it->second;
  const std::size_t n =
      std::min(w.size(), static_cast<std::size_t>(r.iterations));
  st.iter_s.insert(st.iter_s.end(), w.end() - static_cast<long>(n), w.end());
}

Ls3dfResult reference_solve(const JobClass& jc, int workers) {
  Ls3dfOptions o = jc.options;
  o.n_workers = workers;
  o.n_shards = 1;
  o.transport = TransportKind::kInProc;
  o.checkpoint = CheckpointOptions{};
  return Ls3dfSolver(jc.structure, o).solve();
}

// Set-up samples: kSetupReps constructions of every class before the
// window, then kSetupRoundReps more after every solve (alloy/sheet) or
// block (service), outside the measured time. On a shared 4-vCPU VM
// construction time moved by 1.5x with host load over tens of seconds;
// samples spread over the whole run keep one slow stretch from setting
// the median. Each round starts with one discarded warm-up construction
// per class. Returns the seconds the round took.
constexpr int kSetupReps = 4;
constexpr int kSetupRoundReps = 2;

double sample_setup(RunStats& st, const std::vector<JobClass>& classes,
                    int reps) {
  const Timer spent;
  st.setup_s.resize(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const JobClass& jc = classes[c];
    { Ls3dfSolver warm_up(jc.structure, jc.options); }
    for (int i = 0; i < reps; ++i) {
      Timer t;
      Ls3dfSolver solver(jc.structure, jc.options);
      // Construction only; tear-down is not set-up.
      st.setup_s[c].push_back(t.seconds());
    }
  }
  return spent.seconds();
}

// ---------------------------------------------------------------------------
// alloy / sheet: one client solving its input back to back, a fresh
// solver instance per solve.

void run_direct(const Args& args, RunStats& st) {
  std::vector<JobClass> classes = make_classes(args.workload, args.seed);
  JobClass& jc = classes.front();
  jc.options.checkpoint.path = args.work_dir + "/" + jc.name + ".snap";
  jc.options.checkpoint.every = 2;

  // Reference on another execution configuration (untimed oracle).
  const Ls3dfResult ref =
      reference_solve(jc, jc.options.n_workers == 3 ? 2 : 3);
  const std::string phys = check_physics(jc, ref);
  if (!phys.empty()) fail(st, "reference " + jc.name + ": " + phys);
  std::fprintf(stderr, "perfbench: reference %s energy %.10f Ha\n",
               jc.name.c_str(), ref.energy.total);

  sample_setup(st, classes, kSetupReps);

  std::unique_ptr<TraceRecorder> rec;
  Ls3dfOptions o = jc.options;
  if (args.trace) {
    rec = std::make_unique<TraceRecorder>(kTraceCapacity);
    o.trace = rec.get();
  }
  const Timer window;
  while (st.attempted == 0 || window.seconds() < args.seconds) {
    ++st.attempted;
    if (rec) rec->clear();
    std::unique_ptr<Ls3dfSolver> solver;
    if (rec) {
      const std::uint64_t t0 = rec->now_us();
      solver = std::make_unique<Ls3dfSolver>(jc.structure, o);
      rec->emit("bench.construct", TraceCat::kMark, t0, rec->now_us());
    } else {
      solver = std::make_unique<Ls3dfSolver>(jc.structure, o);
    }
    LaneMeter lanes(o.n_workers);
    if (rec) lanes.attach(*solver);

    Ls3dfResult r;
    Timer t_solve;
    try {
      const std::uint64_t t0 = rec ? rec->now_us() : 0;
      r = solver->solve();
      if (rec) rec->emit("bench.solve", TraceCat::kMark, t0, rec->now_us());
    } catch (const std::exception& e) {
      ++st.failed;
      fail(st, std::string("solve threw: ") + e.what());
      continue;
    }
    const double solve_s = t_solve.seconds();
    st.solve_s.push_back(solve_s);
    st.busy_s += solve_s;
    push_iter_walls(st, r);

    const std::string why = check_physics(jc, r);
    if (!why.empty()) {
      ++st.failed;
      fail(st, jc.name + ": " + why);
    } else if (!same_bits(r, ref)) {
      ++st.failed;
      fail(st, jc.name + ": result differs from the reference solve");
    }
    if (rec) st.layers.add_trace(*rec, lanes.capacity_s, r.overlap_fraction);
    solver.reset();
    sample_setup(st, classes, kSetupRoundReps);
  }
  if (rec) write_trace(*rec, args);
  std::remove(jc.options.checkpoint.path.c_str());
  std::remove((jc.options.checkpoint.path + ".1").c_str());
}

// ---------------------------------------------------------------------------
// service: bench_service's job mix as repeated submit-all-then-drain
// blocks on one SolverService.

// The collective (counted from the job's binding) before which a killed
// job's shard-1 worker dies, per victim in a block: bench_service's
// 5 + 3 * victim, past the first snapshot so the retry resumes.
long kill_collective(int victim) { return 5 + 3 * victim; }

void run_service(const Args& args, RunStats& st) {
  const std::vector<JobClass> classes = make_classes("service", args.seed);

  // Standalone references, one per class (untimed oracle: the service
  // contract is bit-identity with Ls3dfSolver::solve()).
  std::vector<Ls3dfResult> refs;
  for (const JobClass& jc : classes) {
    refs.push_back(Ls3dfSolver(jc.structure, jc.options).solve());
    const std::string phys = check_physics(jc, refs.back());
    if (!phys.empty()) fail(st, "reference " + jc.name + ": " + phys);
    std::fprintf(stderr, "perfbench: reference %s energy %.10f Ha\n",
                 jc.name.c_str(), refs.back().energy.total);
  }
  sample_setup(st, classes, kSetupReps);

  std::vector<int> block;  // class index per job of one block
  for (std::size_t c = 0; c < classes.size(); ++c)
    block.insert(block.end(), static_cast<std::size_t>(classes[c].per_block),
                 static_cast<int>(c));
  Rng order(args.seed ^ 0x5eed5eedull);

  SolverServiceOptions so;
  so.total_lanes = 4;
  so.max_concurrent = 3;
  so.checkpoint_dir = args.work_dir;
  so.warm_start = false;
  // Per-job recorders live as long as the service; each job's fits easily.
  so.trace_capacity = args.trace ? 4096 : 0;
  SolverService service(so);

  // Per-job state the service's driver threads reach through on_bind;
  // it outlives the service's use of it (every job is drained before the
  // next block is built, and the service is destroyed first).
  struct Job {
    int cls = 0;
    SolverService::JobId id = 0;
    std::unique_ptr<FaultPlan> plan;
    std::unique_ptr<LaneMeter> lanes;
  };
  std::vector<std::unique_ptr<Job>> jobs;
  SolverService::JobId last_job = 0;

  const Timer window;
  double paused_s = 0;  // set-up sampling between blocks
  while (st.attempted == 0 || window.seconds() - paused_s < args.seconds) {
    for (std::size_t i = block.size() - 1; i > 0; --i)
      std::swap(block[i], block[static_cast<std::size_t>(
                              order.uniform_int(0, static_cast<int>(i) + 1))]);
    std::vector<Job*> batch;
    int victims = 0;
    for (const int c : block) {
      const JobClass& jc = classes[static_cast<std::size_t>(c)];
      jobs.push_back(std::make_unique<Job>());
      Job* job = jobs.back().get();
      job->cls = c;
      JobSpec spec;
      spec.options = jc.options;
      spec.priority = jc.priority;
      spec.name = jc.name;
      if (jc.inject_kill) {
        job->plan = std::make_unique<FaultPlan>(args.seed + jobs.size());
        job->plan->kill_worker_at(kill_collective(victims++), /*rank=*/1);
        ++st.kills;
      }
      if (args.trace) job->lanes = std::make_unique<LaneMeter>(
          jc.options.n_workers);
      if (job->plan || job->lanes)
        spec.on_bind = [job](Ls3dfSolver& solver) {
          if (job->plan)
            if (auto* proc = dynamic_cast<ProcTransport*>(
                    solver.shard_transport_object()))
              proc->set_fault_plan(job->plan.get());
          if (job->lanes) job->lanes->attach(solver);
        };
      job->id = service.submit(jc.structure, std::move(spec));
      batch.push_back(job);
    }
    for (Job* job : batch) {
      const JobClass& jc = classes[static_cast<std::size_t>(job->cls)];
      const JobStatus js = service.wait(job->id);
      ++st.attempted;
      st.retries += js.retries;
      std::string why;
      const Ls3dfResult* r = nullptr;
      if (js.state != JobState::kDone) {
        why = "job failed: " + js.error;
      } else {
        r = &service.result(job->id);
        why = check_physics(jc, *r);
        if (why.empty() &&
            !same_bits(*r, refs[static_cast<std::size_t>(job->cls)]))
          why = "result differs from its standalone solve";
      }
      const std::string snap =
          args.work_dir + "/job" + std::to_string(job->id) + ".snap";
      std::remove(snap.c_str());
      std::remove((snap + ".1").c_str());
      if (!why.empty()) {
        ++st.failed;
        fail(st, jc.name + ": " + why);
        continue;
      }
      st.solve_s.push_back(js.latency_s);
      last_job = job->id;
      push_iter_walls(st, *r);
      if (args.trace)
        if (const TraceRecorder* rec = service.job_trace(job->id))
          st.layers.add_trace(*rec, job->lanes->capacity_s,
                              r->overlap_fraction);
    }
    paused_s += sample_setup(st, classes, kSetupRoundReps);
  }
  st.busy_s = window.seconds() - paused_s;
  if (st.retries != st.kills)
    fail(st, std::to_string(st.kills) + " worker kills injected, " +
                 std::to_string(st.retries) + " retries");
  if (args.trace && last_job != 0)
    if (const TraceRecorder* rec = service.job_trace(last_job))
      write_trace(*rec, args);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const bool service = args.workload == "service";
  RunStats st;
  try {
    const std::string golden = check_golden();
    if (!golden.empty()) fail(st, golden);
    if (service)
      run_service(args, st);
    else
      run_direct(args, st);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const long done = st.attempted - st.failed;
  const std::vector<double>& lat = st.latency(service);
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %ld solves (%ld failed, %ld "
               "retries), median solve %.3f s, p90 latency %.4f s over %zu "
               "samples, median iteration %.4f s, setup %.4f s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), st.attempted,
               st.failed, st.retries, median(st.solve_s),
               percentile(lat, 0.9), lat.size(), median(st.iter_s),
               st.setup());
  if (done == 0 || st.iter_s.empty()) st.correct = false;

  std::vector<Metric> out;
  if (!args.trace) {
    out = {{"time_to_solution_s", "s", median(st.solve_s)},
           {"p90_latency_s", "s", percentile(lat, 0.9)},
           {"s_per_iteration", "s", median(st.iter_s)},
           {"solves_per_s", "1/s",
            st.busy_s > 0 ? static_cast<double>(done) / st.busy_s : 0.0},
           {"setup_s", "s", st.setup()}};
  } else {
    const LayerTotals& L = st.layers;
    if (L.dropped > 0)
      std::fprintf(stderr,
                   "perfbench: trace rings dropped %llu events; layer "
                   "figures undercount\n",
                   static_cast<unsigned long long>(L.dropped));
    const double it = std::max(1.0, L.iterations);
    auto per_iter_ms = [&](const std::string& name) {
      auto f = L.busy_us.find(name);
      return f == L.busy_us.end() ? 0.0 : f->second / it / 1e3;
    };
    const double sweeps = L.sum_prefix(L.count, "davidson.sweep");
    const double sweep_us = L.sum_prefix(L.busy_us, "davidson.sweep");
    const double comm_us = L.sum_prefix(L.busy_us, "comm.");
    const double ck_n = L.sum_prefix(L.count, "Checkpoint");
    const double ck_us = L.sum_prefix(L.busy_us, "Checkpoint");
    out = {
        {"iterations", "count", L.iterations / std::max(1.0, L.solves)},
        {"latency_samples", "count", static_cast<double>(lat.size())},
        {"gen_vf_ms", "ms", per_iter_ms("Gen_VF")},
        {"petot_f_ms", "ms", per_iter_ms("PEtot_F")},
        {"gen_dens_ms", "ms", per_iter_ms("Gen_dens")},
        {"genpot_ms", "ms", per_iter_ms("GENPOT")},
        {"mix_ms", "ms", per_iter_ms("Mix")},
        {"davidson_sweeps", "count", sweeps / it},
        {"davidson_sweep_ms", "ms", sweeps > 0 ? sweep_us / sweeps / 1e3 : 0},
        {"comm_ms", "ms", comm_us / it / 1e3},
        {"comm_bytes", "B", L.comm_bytes / it},
        {"checkpoint_ms", "ms", ck_n > 0 ? ck_us / ck_n / 1e3 : 0},
        {"checkpoint_bytes", "B", ck_n > 0 ? L.checkpoint_bytes / ck_n : 0},
        {"pool_busy_ms", "ms", L.pool_busy_us / it / 1e3},
        {"lane_utilization", "%",
         L.lane_capacity_us > 0 ? 100.0 * L.pool_busy_us / L.lane_capacity_us
                                : 0},
        {"overlap_fraction", "%",
         100.0 * L.overlap_fraction / std::max(1.0, L.solves)},
    };
  }
  print_result(st.correct, st.attempted, st.failed, out);
  return 0;
}
