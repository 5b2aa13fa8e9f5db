// Crash-safety suite for the checkpoint/restart subsystem: snapshot
// format round-trips and generation rotation, typed corruption errors
// (truncation, bit flips, version skew) with previous-generation
// fallback, the option-fingerprint refusal, torn-write fault injection,
// and the headline contract — a solve killed mid-SCF and resumed from
// its snapshot finishes bit-identical to one that was never
// interrupted, on one shard, several shards and the proc transport.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "atoms/builders.h"
#include "checkpoint/fault_injection.h"
#include "checkpoint/snapshot.h"
#include "common/timer.h"
#include "fragment/ls3df.h"
#include "transport/proc_transport.h"

namespace ls3df {
namespace {

std::string tmp_path(const std::string& name) {
  return "/tmp/ls3df_test_" + name;
}

void remove_snapshot(const std::string& path) {
  std::remove(path.c_str());
  std::remove(snapshot_previous_path(path).c_str());
  std::remove((path + ".tmp").c_str());
}

// Load the whole file / write it back (the corruption tests damage
// specific bytes of a committed snapshot).
std::vector<unsigned char> slurp(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<unsigned char> bytes;
  unsigned char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
    bytes.insert(bytes.end(), chunk, chunk + n);
  std::fclose(f);
  return bytes;
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

SnapshotErrorCode code_of(const std::string& path) {
  try {
    SnapshotReader r(path);
  } catch (const SnapshotError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected SnapshotError for " << path;
  return SnapshotErrorCode::kIo;
}

void write_generation(const std::string& path, double tag,
                      std::uint64_t fingerprint = 42,
                      FaultPlan* fault = nullptr) {
  SnapshotWriter w(path, fingerprint, fault);
  const double payload[3] = {tag, 2.0 * tag, -tag};
  w.add_f64("field", payload, 3);
  const std::uint64_t meta[2] = {7, static_cast<std::uint64_t>(tag)};
  w.add_u64("meta", meta, 2);
  w.commit();
}

double generation_tag(const SnapshotReader& r) {
  double payload[3];
  r.read_f64("field", payload, 3);
  return payload[0];
}

TEST(Snapshot, Crc32KnownAnswer) {
  // The IEEE 802.3 check value for the ASCII digits "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Snapshot, RoundTripAndGenerationRotation) {
  const std::string path = tmp_path("roundtrip.snap");
  remove_snapshot(path);

  write_generation(path, 1.0);
  {
    SnapshotReader r(path);
    EXPECT_EQ(r.version(), kSnapshotVersion);
    EXPECT_EQ(r.fingerprint(), 42u);
    ASSERT_EQ(r.records().size(), 2u);
    EXPECT_TRUE(r.has("field"));
    EXPECT_TRUE(r.has("meta"));
    EXPECT_FALSE(r.has("ghost"));
    EXPECT_EQ(generation_tag(r), 1.0);
    EXPECT_EQ(r.f64_count("field"), 3u);
    std::uint64_t meta[2];
    r.read_u64("meta", meta, 2);
    EXPECT_EQ(meta[0], 7u);
    // Typed access validates sizes and existence.
    double wrong_count[4];
    EXPECT_THROW(r.read_f64("field", wrong_count, 4), SnapshotError);
    EXPECT_THROW(r.payload("ghost"), SnapshotError);
  }

  // A second commit rotates the first generation to "<path>.1".
  write_generation(path, 2.0);
  EXPECT_EQ(generation_tag(SnapshotReader(path)), 2.0);
  EXPECT_EQ(generation_tag(SnapshotReader(snapshot_previous_path(path))),
            1.0);
  remove_snapshot(path);
}

TEST(Snapshot, TruncationIsTypedAndFallsBackToPreviousGeneration) {
  const std::string path = tmp_path("truncated.snap");
  remove_snapshot(path);
  write_generation(path, 1.0);
  write_generation(path, 2.0);

  // Chop the newest generation mid-payload: a torn write.
  std::vector<unsigned char> bytes = slurp(path);
  bytes.resize(bytes.size() - 10);
  spit(path, bytes);

  EXPECT_EQ(code_of(path), SnapshotErrorCode::kTruncated);
  bool used_fallback = false;
  auto r = open_snapshot_with_fallback(path, &used_fallback);
  EXPECT_TRUE(used_fallback);
  EXPECT_EQ(generation_tag(*r), 1.0);
  remove_snapshot(path);
}

TEST(Snapshot, BitFlipFailsCrcAndFallsBack) {
  const std::string path = tmp_path("bitflip.snap");
  remove_snapshot(path);
  write_generation(path, 1.0);
  write_generation(path, 2.0);

  std::vector<unsigned char> bytes = slurp(path);
  // Flip one bit inside the first record's payload (file header is 24
  // bytes, record header 64).
  bytes[24 + 64 + 5] ^= 0x10;
  spit(path, bytes);

  EXPECT_EQ(code_of(path), SnapshotErrorCode::kCrc);
  bool used_fallback = false;
  auto r = open_snapshot_with_fallback(path, &used_fallback);
  EXPECT_TRUE(used_fallback);
  EXPECT_EQ(generation_tag(*r), 1.0);
  remove_snapshot(path);
}

TEST(Snapshot, VersionSkewIsTypedAndFallsBack) {
  const std::string path = tmp_path("version.snap");
  remove_snapshot(path);
  write_generation(path, 1.0);
  write_generation(path, 2.0);

  std::vector<unsigned char> bytes = slurp(path);
  bytes[8] = 99;  // the u32 version field follows the 8-byte magic
  spit(path, bytes);

  EXPECT_EQ(code_of(path), SnapshotErrorCode::kVersion);
  bool used_fallback = false;
  auto r = open_snapshot_with_fallback(path, &used_fallback);
  EXPECT_TRUE(used_fallback);
  EXPECT_EQ(generation_tag(*r), 1.0);

  // Bad magic is a format error, not a version error.
  bytes[8] = 1;
  bytes[0] = 'X';
  spit(path, bytes);
  EXPECT_EQ(code_of(path), SnapshotErrorCode::kFormat);
  remove_snapshot(path);
}

TEST(Snapshot, BothGenerationsDamagedRethrowsThePrimaryError) {
  const std::string path = tmp_path("bothbad.snap");
  remove_snapshot(path);
  write_generation(path, 1.0);
  write_generation(path, 2.0);

  for (const std::string& p : {path, snapshot_previous_path(path)}) {
    std::vector<unsigned char> bytes = slurp(p);
    bytes[24 + 64 + 2] ^= 0x01;
    spit(p, bytes);
  }
  try {
    open_snapshot_with_fallback(path);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    // The newest generation's failure class is the actionable one.
    EXPECT_EQ(e.code(), SnapshotErrorCode::kCrc);
  }
  remove_snapshot(path);
}

TEST(Snapshot, MissingFileIsAnIoError) {
  const std::string path = tmp_path("missing.snap");
  remove_snapshot(path);
  EXPECT_EQ(code_of(path), SnapshotErrorCode::kIo);
  EXPECT_THROW(open_snapshot_with_fallback(path), SnapshotError);
}

TEST(Snapshot, FaultPlanTornWriteFallsBackToPreviousGeneration) {
  const std::string path = tmp_path("torn.snap");
  remove_snapshot(path);
  write_generation(path, 1.0);

  // The plan tears record #0 of the next writer after 8 of its 24
  // payload bytes; the header still declares both records (a real crash
  // loses payload, not intent), so the reader sees truncation.
  FaultPlan plan;
  plan.truncate_record_at(0, 8);
  write_generation(path, 2.0, 42, &plan);
  // Past the modeled crash point the writer stops consulting the plan.
  EXPECT_EQ(plan.records_seen(), 1);

  EXPECT_EQ(code_of(path), SnapshotErrorCode::kTruncated);
  bool used_fallback = false;
  auto r = open_snapshot_with_fallback(path, &used_fallback);
  EXPECT_TRUE(used_fallback);
  EXPECT_EQ(generation_tag(*r), 1.0);
  remove_snapshot(path);
}

// ---------------------------------------------------------------------------
// Solver-level checkpoint/resume.

Structure h2_chain(int ncells, double a = 6.0) {
  Structure s(Lattice({a * ncells, a, a}));
  for (int c = 0; c < ncells; ++c) {
    s.add_atom(Species::kH, {a * c + 0.5 * a - 0.7, 0.5 * a, 0.5 * a});
    s.add_atom(Species::kH, {a * c + 0.5 * a + 0.7, 0.5 * a, 0.5 * a});
  }
  return s;
}

Ls3dfOptions small_options() {
  Ls3dfOptions lo;
  lo.division = {3, 1, 1};
  lo.points_per_cell = 8;
  lo.ecut = 1.0;
  lo.buffer_points = 4;
  lo.extra_bands = 3;
  lo.eig.max_iterations = 6;
  lo.max_iterations = 3;
  lo.l1_tol = 0.0;  // fixed iteration count: compare full trajectories
  lo.n_workers = 2;
  return lo;
}

void expect_bitwise_equal(const Ls3dfResult& r, const Ls3dfResult& ref) {
  ASSERT_EQ(r.iterations, ref.iterations);
  EXPECT_EQ(r.converged, ref.converged);
  ASSERT_EQ(r.conv_history.size(), ref.conv_history.size());
  for (std::size_t k = 0; k < ref.conv_history.size(); ++k)
    ASSERT_EQ(r.conv_history[k], ref.conv_history[k])
        << "L1 metric differs at iteration " << k;
  ASSERT_EQ(r.charge_patch_error, ref.charge_patch_error);
  ASSERT_EQ(r.rho.size(), ref.rho.size());
  for (std::size_t k = 0; k < ref.rho.size(); ++k)
    ASSERT_EQ(r.rho[k], ref.rho[k]) << "density differs at point " << k;
  ASSERT_EQ(r.v_eff.size(), ref.v_eff.size());
  for (std::size_t k = 0; k < ref.v_eff.size(); ++k)
    ASSERT_EQ(r.v_eff[k], ref.v_eff[k]) << "potential differs at point " << k;
  ASSERT_EQ(r.energy.total, ref.energy.total);
}

// An on_batch_solve hook that throws when the crashing iteration's first
// batch starts (batches_per_iter calls have completed iteration 1, ...).
std::function<void(int)> crash_at_iteration(int iteration,
                                            int batches_per_iter,
                                            int* counter) {
  const int fatal = (iteration - 1) * batches_per_iter;
  return [fatal, counter](int) {
    if ((*counter)++ == fatal)
      throw std::runtime_error("injected crash");
  };
}

TEST(CheckpointResume, FingerprintCoversPhysicsNotExecutionKnobs) {
  Structure s = h2_chain(3);
  Ls3dfOptions base = small_options();
  const std::uint64_t fp = Ls3dfSolver(s, base).state_fingerprint();

  // Execution knobs leave the fingerprint alone (a resume may run on a
  // different machine configuration or iteration cap).
  Ls3dfOptions knobs = base;
  knobs.n_workers = 7;
  knobs.batch_width = 1;
  knobs.n_shards = 1;  // the same single in-process shard as the default
  knobs.max_iterations = 99;
  knobs.checkpoint.path = tmp_path("fp.snap");
  knobs.checkpoint.every = 5;
  EXPECT_EQ(Ls3dfSolver(s, knobs).state_fingerprint(), fp);

  // Anything that shapes the trajectory must change it.
  Ls3dfOptions ecut = base;
  ecut.ecut = 1.1;
  EXPECT_NE(Ls3dfSolver(s, ecut).state_fingerprint(), fp);
  Ls3dfOptions seed = base;
  seed.seed = base.seed + 1;
  EXPECT_NE(Ls3dfSolver(s, seed).state_fingerprint(), fp);
  Ls3dfOptions shards = base;
  shards.n_shards = 2;
  EXPECT_NE(Ls3dfSolver(s, shards).state_fingerprint(), fp);
  // A displaced atom is a different physical problem.
  Structure moved(s.lattice());
  for (int a = 0; a < s.size(); ++a) {
    Vec3d pos = s.atom(a).position;
    if (a == 0) pos.x += 0.1;
    moved.add_atom(s.atom(a).species, pos);
  }
  EXPECT_NE(Ls3dfSolver(moved, base).state_fingerprint(), fp);
}

TEST(CheckpointResume, ResumeRefusesFingerprintMismatch) {
  const std::string path = tmp_path("mismatch.snap");
  remove_snapshot(path);
  Structure s = h2_chain(3);

  Ls3dfOptions lo = small_options();
  lo.checkpoint.path = path;
  Ls3dfSolver(s, lo).solve();

  Ls3dfOptions other = small_options();
  other.mix_alpha = 0.5;  // numerically relevant: different trajectory
  Ls3dfSolver resumer(s, other);
  try {
    resumer.resume(path);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrorCode::kFingerprint);
  }
  remove_snapshot(path);
}

TEST(CheckpointResume, SingleShardKillAndResumeIsBitIdentical) {
  const std::string path = tmp_path("single_shard_kill.snap");
  remove_snapshot(path);
  Structure s = h2_chain(3);
  Ls3dfOptions lo = small_options();

  const Ls3dfResult ref = Ls3dfSolver(s, lo).solve();

  // Crash in iteration 2's first batch solve; the iteration-1 snapshot
  // is already on disk.
  Ls3dfOptions crash = lo;
  crash.checkpoint.path = path;
  Ls3dfSolver probe(s, crash);
  int counter = 0;
  crash.on_batch_solve = crash_at_iteration(
      2, static_cast<int>(probe.batches().size()), &counter);
  Ls3dfSolver victim(s, crash);
  EXPECT_THROW(victim.solve(), std::runtime_error);

  // A fresh process resumes from the snapshot and must land on the
  // reference bits.
  Ls3dfOptions cont = lo;
  cont.checkpoint.path = path;
  Ls3dfSolver resumer(s, cont);
  expect_bitwise_equal(resumer.resume(path), ref);
  remove_snapshot(path);
}

TEST(CheckpointResume, ResumeContinuesPastTheOldIterationCap) {
  const std::string path = tmp_path("extend.snap");
  remove_snapshot(path);
  Structure s = h2_chain(3);
  Ls3dfOptions lo = small_options();
  lo.max_iterations = 4;
  const Ls3dfResult ref = Ls3dfSolver(s, lo).solve();

  // A run that finished its 2-iteration budget cleanly...
  Ls3dfOptions shortrun = lo;
  shortrun.max_iterations = 2;
  shortrun.checkpoint.path = path;
  shortrun.checkpoint.every = 2;
  Ls3dfSolver(s, shortrun).solve();

  // ...resumes under a higher cap (max_iterations is not part of the
  // fingerprint) and matches the uninterrupted 4-iteration run.
  Ls3dfOptions cont = lo;
  Ls3dfSolver resumer(s, cont);
  expect_bitwise_equal(resumer.resume(path), ref);
  remove_snapshot(path);
}

TEST(CheckpointResume, CadenceSkipsIntermediateIterations) {
  const std::string path = tmp_path("cadence.snap");
  remove_snapshot(path);
  Structure s = h2_chain(3);
  Ls3dfOptions lo = small_options();  // 3 iterations
  lo.checkpoint.path = path;
  lo.checkpoint.every = 2;
  Ls3dfSolver(s, lo).solve();

  // Only iteration 2 hit the cadence: one generation, meta pinned at 2.
  SnapshotReader r(path);
  std::uint64_t meta[8];
  r.read_u64("meta", meta, 8);
  EXPECT_EQ(meta[0], 2u);
  EXPECT_EQ(meta[1], 0u);  // not converged
  EXPECT_THROW(SnapshotReader(snapshot_previous_path(path)), SnapshotError);
  remove_snapshot(path);
}

TEST(CheckpointResume, ConvergedSnapshotShortCircuits) {
  const std::string path = tmp_path("converged.snap");
  remove_snapshot(path);
  Structure s = h2_chain(3);
  Ls3dfOptions lo = small_options();
  lo.l1_tol = 1e9;  // converges at iteration 1
  lo.checkpoint.path = path;
  const Ls3dfResult ref = Ls3dfSolver(s, lo).solve();
  ASSERT_TRUE(ref.converged);
  ASSERT_EQ(ref.iterations, 1);

  Ls3dfSolver resumer(s, lo);
  const Ls3dfResult r = resumer.resume(path);
  EXPECT_TRUE(r.converged);
  expect_bitwise_equal(r, ref);
  remove_snapshot(path);
}

TEST(CheckpointResume, ShardedKillAndResumeIsBitIdentical) {
  const std::string path = tmp_path("sharded_kill.snap");
  remove_snapshot(path);
  Structure s = h2_chain(3);
  Ls3dfOptions lo = small_options();
  lo.n_shards = 2;
  const Ls3dfResult ref = Ls3dfSolver(s, lo).solve();

  Ls3dfOptions crash = lo;
  crash.checkpoint.path = path;
  Ls3dfSolver probe(s, crash);
  int counter = 0;
  crash.on_batch_solve = crash_at_iteration(
      3, static_cast<int>(probe.batches().size()), &counter);
  Ls3dfSolver victim(s, crash);
  EXPECT_THROW(victim.solve(), std::runtime_error);

  Ls3dfOptions cont = lo;
  Ls3dfSolver resumer(s, cont);
  expect_bitwise_equal(resumer.resume(path), ref);
  remove_snapshot(path);
}

// The full crash-recovery story on the process-backed transport: a
// deterministic fault (worker SIGKILL, or a stall that trips the phase
// deadline) breaks the solve mid-flight; recover() respawns the lost
// worker; resume() replays from the snapshot and the completed solve is
// bit-identical to the uninterrupted one.
void proc_fault_recover_resume(bool stall) {
  const std::string path =
      tmp_path(stall ? "proc_stall.snap" : "proc_kill.snap");
  const std::string ref_path = path + ".ref";
  remove_snapshot(path);
  remove_snapshot(ref_path);
  Structure s = h2_chain(3);
  Ls3dfOptions lo = small_options();
  lo.n_shards = 2;
  lo.transport = TransportKind::kProc;
  lo.checkpoint.path = ref_path;

  // Reference run with checkpointing on, counting protocol rounds so the
  // fault can be pinned ~2/3 through — after iteration 1's snapshot
  // committed, before the solve finishes.
  FaultPlan counting;
  Ls3dfSolver ref_solver(s, lo);
  auto* ref_t =
      dynamic_cast<ProcTransport*>(ref_solver.shard_transport_object());
  ASSERT_NE(ref_t, nullptr);
  ref_t->set_fault_plan(&counting);
  const Ls3dfResult ref = ref_solver.solve();
  const long rounds = counting.collectives_seen();
  ASSERT_GT(rounds, 6);

  lo.checkpoint.path = path;
  FaultPlan plan;
  if (stall)
    plan.stall_worker_at(2 * rounds / 3, 1, 10000);
  else
    plan.kill_worker_at(2 * rounds / 3, 1);
  Ls3dfSolver victim(s, lo);
  auto* t = dynamic_cast<ProcTransport*>(victim.shard_transport_object());
  ASSERT_NE(t, nullptr);
  t->set_fault_plan(&plan);
  if (stall) t->set_phase_deadline(0.5);

  Timer timer;
  try {
    victim.solve();
    FAIL() << "expected the injected fault to break the solve";
  } catch (const std::runtime_error& e) {
    if (stall) {
      EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
          << e.what();
      // Latched within the deadline, not after the 10 s stall drains.
      EXPECT_LT(timer.seconds(), 8.0);
    }
  }

  // Replace the lost worker, then replay from the snapshot on the very
  // same solver. The restore overwrites every bit the crash dirtied.
  if (stall) t->set_phase_deadline(120.0);
  EXPECT_TRUE(t->recover());
  expect_bitwise_equal(victim.resume(path), ref);
  remove_snapshot(path);
  remove_snapshot(ref_path);
}

TEST(CheckpointResume, ProcWorkerKillRecoverResumeCompletesTheSolve) {
  proc_fault_recover_resume(false);
}

TEST(CheckpointResume, ProcWorkerStallTimesOutRecoversAndResumes) {
  proc_fault_recover_resume(true);
}

TEST(CheckpointResume, TornCheckpointFallsBackOneIteration) {
  const std::string path = tmp_path("torn_ck.snap");
  remove_snapshot(path);
  Structure s = h2_chain(3);
  Ls3dfOptions lo = small_options();
  const Ls3dfResult ref = Ls3dfSolver(s, lo).solve();

  // Checkpoint every iteration, but iteration 3's snapshot suffers a
  // torn write. A counting run totals the records the three writers add
  // (the DIIS depth grows per iteration, so snapshots are not all the
  // same size); tearing near the total lands inside the third snapshot.
  Ls3dfOptions ck = lo;
  ck.checkpoint.path = path;
  FaultPlan counting;
  ck.checkpoint.fault = &counting;
  Ls3dfSolver(s, ck).solve();
  const long total = counting.records_seen();
  ASSERT_GT(total, 4);
  remove_snapshot(path);

  FaultPlan torn;
  torn.truncate_record_at(total - 2, 8);
  ck.checkpoint.fault = &torn;
  Ls3dfSolver(s, ck).solve();

  // The newest generation is damaged; the fallback opener routes resume
  // to the iteration-2 snapshot, and replaying iteration 3 lands on the
  // reference bits.
  EXPECT_EQ(code_of(path), SnapshotErrorCode::kTruncated);
  Ls3dfSolver resumer(s, lo);
  expect_bitwise_equal(resumer.resume(path), ref);
  remove_snapshot(path);
}

}  // namespace
}  // namespace ls3df
