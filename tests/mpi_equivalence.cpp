// MPI-launched equivalence harness (not a gtest binary): run under
// `mpirun -np {2,4}` it asserts that a real SPMD launch — one MPI
// process per shard rank, each holding only ~global/N of the sharded
// state — lands on the golden bits of tests/golden_refs.h (the 4-cell
// H2 chain): density and effective-potential hashes, convergence
// history, charge-patch error and total energy, plus a checkpoint/resume
// round trip from the previous snapshot generation. Every rank compares
// its gathered result locally, and the verdict is MPI_MIN-reduced so any
// rank's mismatch fails the launch. Exit status 0 = golden bits
// everywhere; 1 = mismatch (details on stderr).
//
// Registered with ctest under the "mpi" label when LS3DF_WITH_MPI is ON
// and an mpirun is found; the tier-1 suite never runs it.
#include <mpi.h>

#include <cstdio>
#include <memory>
#include <string>

#include "golden_refs.h"
#include "transport/mpi_transport.h"

namespace {

using namespace ls3df;

bool golden_bits(const Ls3dfResult& r, const char* what, int self) {
  const std::string why = golden::mismatch(r, golden::h2_reference(4));
  if (!why.empty())
    std::fprintf(stderr, "[rank %d] %s: %s\n", self, what, why.c_str());
  return why.empty();
}

}  // namespace

int main(int argc, char** argv) {
  MPI_Init(&argc, &argv);
  int self = 0, world = 0;
  MPI_Comm_rank(MPI_COMM_WORLD, &self);
  MPI_Comm_size(MPI_COMM_WORLD, &world);

  // Four cells, so every rank of an -np 4 launch owns at least one
  // fragment (zero-owned ranks are legal but exercise less).
  const int ncells = 4;
  Structure s = golden::h2_chain(ncells);
  const Ls3dfOptions lo = golden::h2_options(ncells);

  const auto spmd_options = [&]() {
    Ls3dfOptions o = lo;
    o.n_shards = world;
    o.n_workers = 1;
    o.transport = TransportKind::kMpi;
    o.transport_factory = [](int, int, std::size_t) {
      return std::make_unique<MpiTransport>(MPI_COMM_WORLD);
    };
    return o;
  };

  bool ok = true;
  {
    Ls3dfSolver solver(s, spmd_options());
    const Vec3i g = solver.global_grid();
    const std::size_t slab_ceil =
        static_cast<std::size_t>((g.x + world - 1) / world) * g.y * g.z;
    ok = golden_bits(solver.solve(), "solve", self) && ok;
    // Rank-local residency: this process's resident sharded state stays
    // slab-proportional (same budget the thread-SPMD suite pins).
    const std::size_t fp = solver.shard_rank_footprint(self);
    if (fp == 0 || fp > 20 * slab_ceil) {
      std::fprintf(stderr,
                   "[rank %d] footprint %zu doubles exceeds 20 x slab "
                   "(%zu)\n",
                   self, fp, slab_ceil);
      ok = false;
    }
  }

  // Checkpoint/resume round trip: a full run commits a snapshot per
  // iteration (rank 0 writes; the file is byte-portable across
  // transports); resuming from the previous generation — the
  // iteration-1 state — replays iteration 2 onto the same bits.
  const std::string path =
      "/tmp/ls3df_mpi_equiv_np" + std::to_string(world) + ".snap";
  if (self == 0) {
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
  }
  MPI_Barrier(MPI_COMM_WORLD);
  {
    Ls3dfOptions o = spmd_options();
    o.checkpoint.path = path;
    ok = golden_bits(Ls3dfSolver(s, o).solve(), "checkpointed solve", self) &&
         ok;
    MPI_Barrier(MPI_COMM_WORLD);  // rank 0's final commit is visible
    Ls3dfSolver resumer(s, spmd_options());
    ok = golden_bits(resumer.resume(path + ".1"),
                     "resume from iteration-1 snapshot", self) &&
         ok;
  }
  MPI_Barrier(MPI_COMM_WORLD);
  if (self == 0) {
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
  }

  int flag = ok ? 1 : 0, all = 0;
  MPI_Allreduce(&flag, &all, 1, MPI_INT, MPI_MIN, MPI_COMM_WORLD);
  if (self == 0)
    std::printf("mpi_equivalence np=%d: %s\n", world,
                all ? "golden bits on every rank" : "FAILED (see stderr)");
  MPI_Finalize();
  return all ? 0 : 1;
}
