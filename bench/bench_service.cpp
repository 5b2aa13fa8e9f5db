// SolverService throughput bench: sustained jobs/sec and tail latency
// at a fixed lane budget under a skewed heterogeneous job mix, with
// deterministic FaultPlan worker kills injected through the
// JobSpec::on_bind seam (two of the proc-transport jobs lose a worker
// mid-solve and must retry through recover()+resume()).
//
// Every job's result is compared bit-for-bit against a standalone
// Ls3dfSolver::solve() with the same options; the emitted
// BENCH_service.json carries the verdict as
// "service_bit_identical_to_standalone", which CI asserts. The file
// also embeds the service's own "ls3df-service-v1" snapshot.
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "atoms/builders.h"
#include "checkpoint/fault_injection.h"
#include "common/timer.h"
#include "fragment/ls3df.h"
#include "service/solver_service.h"
#include "transport/proc_transport.h"

using namespace ls3df;

namespace {

Structure h2_chain(int ncells, double a = 6.0) {
  Structure s(Lattice({a * ncells, a, a}));
  for (int c = 0; c < ncells; ++c) {
    s.add_atom(Species::kH, {a * c + 0.5 * a - 0.7, 0.5 * a, 0.5 * a});
    s.add_atom(Species::kH, {a * c + 0.5 * a + 0.7, 0.5 * a, 0.5 * a});
  }
  return s;
}

Ls3dfOptions base_options(int ncells) {
  Ls3dfOptions lo;
  lo.division = {ncells, 1, 1};
  lo.points_per_cell = 8;
  lo.ecut = 1.0;
  lo.buffer_points = 4;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 6;
  lo.max_iterations = 2;
  lo.l1_tol = 0.0;
  return lo;
}

bool bitwise_equal(const Ls3dfResult& a, const Ls3dfResult& b) {
  if (a.iterations != b.iterations) return false;
  if (a.conv_history != b.conv_history) return false;
  if (std::memcmp(&a.charge_patch_error, &b.charge_patch_error,
                  sizeof(double)) != 0)
    return false;
  if (a.rho.size() != b.rho.size() || a.v_eff.size() != b.v_eff.size())
    return false;
  if (std::memcmp(a.rho.data(), b.rho.data(),
                  a.rho.size() * sizeof(double)) != 0)
    return false;
  if (std::memcmp(a.v_eff.data(), b.v_eff.data(),
                  a.v_eff.size() * sizeof(double)) != 0)
    return false;
  return std::memcmp(&a.energy.total, &b.energy.total, sizeof(double)) == 0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t r = static_cast<std::size_t>(std::ceil(q * v.size()));
  r = std::min(std::max<std::size_t>(r, 1), v.size());
  return v[r - 1];
}

// The skewed mix: many small dense jobs, a few heavy sharded/overlapped
// ones (the LPT tail), two proc-transport jobs that will be fault-
// injected, and a repeated configuration so warm instances get hits.
struct BenchJob {
  Structure structure;
  Ls3dfOptions options;
  int priority = 0;
  bool inject_kill = false;
};

std::vector<BenchJob> job_mix() {
  std::vector<BenchJob> jobs;
  for (int i = 0; i < 6; ++i) {  // small head, one shared configuration
    Ls3dfOptions lo = base_options(3);
    lo.n_workers = 2;
    lo.batch_width = 2;
    jobs.push_back({h2_chain(3), lo, 0, false});
  }
  for (int i = 0; i < 2; ++i) {  // heavy sharded tail
    Ls3dfOptions lo = base_options(4);
    lo.n_workers = 2;
    lo.n_shards = 2;
    lo.max_iterations = 3;
    jobs.push_back({h2_chain(4), lo, 0, false});
  }
  {  // high-priority latecomer class
    Ls3dfOptions lo = base_options(3);
    lo.n_workers = 2;
    lo.eig.max_iterations = 5;
    jobs.push_back({h2_chain(3), lo, 2, false});
  }
  for (int i = 0; i < 2; ++i) {  // proc-transport victims: worker kills
    Ls3dfOptions lo = base_options(3);
    lo.n_workers = 2;
    lo.n_shards = 2;
    lo.transport = TransportKind::kProc;
    lo.max_iterations = 3;
    jobs.push_back({h2_chain(3), lo, 0, true});
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;

  const std::string ck_dir = "/tmp/ls3df_bench_service_ck";
  ::mkdir(ck_dir.c_str(), 0755);

  std::vector<BenchJob> mix = job_mix();

  // Standalone references, solved up front (excluded from the timed
  // window — this is the correctness oracle, not the workload).
  std::vector<Ls3dfResult> refs;
  refs.reserve(mix.size());
  for (const BenchJob& j : mix)
    refs.push_back(Ls3dfSolver(j.structure, j.options).solve());

  SolverServiceOptions so;
  so.total_lanes = 4;
  so.max_concurrent = 3;
  so.checkpoint_dir = ck_dir;
  SolverService service(so);

  // One FaultPlan per victim job, killing a worker a little into the
  // solve (past the first checkpoint, so the retry resumes rather than
  // restarting cold). Plans outlive the jobs; fired events never re-arm,
  // so a rebound instance cannot be re-killed.
  std::vector<std::unique_ptr<FaultPlan>> plans;
  int injected = 0;

  Timer wall;
  std::vector<SolverService::JobId> ids;
  for (std::size_t j = 0; j < mix.size(); ++j) {
    std::remove((ck_dir + "/job" + std::to_string(j + 1) + ".snap").c_str());
    std::remove(
        (ck_dir + "/job" + std::to_string(j + 1) + ".snap.1").c_str());
    JobSpec spec;
    spec.options = mix[j].options;
    spec.priority = mix[j].priority;
    spec.name = "bench" + std::to_string(j);
    if (mix[j].inject_kill) {
      auto plan = std::make_unique<FaultPlan>(1234 + j);
      plan->kill_worker_at(/*collective_index=*/5 + 3 * injected,
                           /*rank=*/1);
      FaultPlan* raw = plan.get();
      plans.push_back(std::move(plan));
      ++injected;
      spec.on_bind = [raw](Ls3dfSolver& solver) {
        if (auto* proc = dynamic_cast<ProcTransport*>(
                solver.shard_transport_object()))
          proc->set_fault_plan(raw);
      };
    }
    ids.push_back(service.submit(mix[j].structure, std::move(spec)));
  }
  service.drain();
  const double wall_s = wall.seconds();

  bool bit_identical = true;
  int failed = 0, retries = 0;
  std::vector<double> latencies;
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const JobStatus st = service.status(ids[j]);
    retries += st.retries;
    if (st.state != JobState::kDone) {
      ++failed;
      bit_identical = false;
      std::fprintf(stderr, "job %zu failed: %s\n", j, st.error.c_str());
      continue;
    }
    latencies.push_back(st.latency_s);
    if (!bitwise_equal(service.result(ids[j]), refs[j])) {
      bit_identical = false;
      std::fprintf(stderr, "job %zu drifted from its standalone solve\n", j);
    }
  }
  const double jobs_per_s =
      wall_s > 0 ? static_cast<double>(ids.size() - failed) / wall_s : 0.0;

  std::ofstream os(json_path, std::ios::trunc);
  os << "{\n";
  os << "  \"schema\": \"ls3df-bench-service-v1\",\n";
  os << "  \"total_lanes\": " << so.total_lanes << ",\n";
  os << "  \"max_concurrent\": " << so.max_concurrent << ",\n";
  os << "  \"jobs\": " << ids.size() << ",\n";
  os << "  \"failed\": " << failed << ",\n";
  os << "  \"retries\": " << retries << ",\n";
  os << "  \"injected_worker_kills\": " << injected << ",\n";
  os << "  \"wall_s\": " << wall_s << ",\n";
  os << "  \"jobs_per_s\": " << jobs_per_s << ",\n";
  os << "  \"latency_s\": {\"p50\": " << percentile(latencies, 0.50)
     << ", \"p90\": " << percentile(latencies, 0.90)
     << ", \"p99\": " << percentile(latencies, 0.99)
     << ", \"max\": " << percentile(latencies, 1.0) << "},\n";
  os << "  \"lane_donation_events\": " << service.lane_donation_events()
     << ",\n";
  os << "  \"warm_instance_hits\": " << service.warm_instance_hits()
     << ",\n";
  os << "  \"service_bit_identical_to_standalone\": "
     << (bit_identical ? "true" : "false") << ",\n";
  os << "  \"service\": " << service.service_json() << "}\n";
  os.close();

  std::printf(
      "bench_service: %zu jobs (%d killed workers, %d retries) in %.2fs "
      "-> %.2f jobs/s, p99 %.2fs, donations %ld, warm hits %ld, "
      "bit_identical=%s -> %s\n",
      ids.size(), injected, retries, wall_s, jobs_per_s,
      percentile(latencies, 0.99), service.lane_donation_events(),
      service.warm_instance_hits(), bit_identical ? "true" : "false",
      json_path);
  return bit_identical && failed == 0 ? 0 : 1;
}
