#include "transport/transport.h"

#include <limits>
#include <stdexcept>

#include "transport/inproc_transport.h"
#include "transport/mpi_transport.h"
#include "transport/proc_transport.h"

namespace ls3df {

Transport::~Transport() = default;

const char* transport_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProc:
      return "inproc";
    case TransportKind::kProc:
      return "proc";
    case TransportKind::kThreads:
      return "threads";
    case TransportKind::kMpi:
      return "mpi";
  }
  return "unknown";
}

int transport_max_ranks(TransportKind kind) {
  return kind == TransportKind::kProc ? ProcTransport::kMaxRanks
                                      : std::numeric_limits<int>::max();
}

std::unique_ptr<Transport> make_transport(TransportKind kind, int n_ranks,
                                          std::size_t shm_arena_bytes) {
  switch (kind) {
    case TransportKind::kInProc:
      return std::make_unique<InProcTransport>(n_ranks);
    case TransportKind::kProc:
      return std::make_unique<ProcTransport>(
          n_ranks, shm_arena_bytes ? shm_arena_bytes
                                   : ProcTransport::kDefaultArenaBytes);
    case TransportKind::kThreads:
      // A thread-SPMD group is N coupled instances sharing one core;
      // it cannot be built one rank at a time through this factory.
      throw std::runtime_error(
          "transport 'threads' is built as a group: use "
          "make_thread_spmd_group() and Ls3dfOptions::transport_factory");
    case TransportKind::kMpi:
#ifdef LS3DF_WITH_MPI
      // The communicator defines the rank count; the requested n_ranks
      // must match the SPMD launch width.
      {
        auto t = std::make_unique<MpiTransport>();
        if (t->n_ranks() != n_ranks)
          throw std::runtime_error(
              "MpiTransport: communicator size does not match n_ranks");
        return t;
      }
#else
      throw std::runtime_error(
          "transport 'mpi' requires building with -DLS3DF_WITH_MPI=ON");
#endif
  }
  throw std::invalid_argument("make_transport: unknown TransportKind");
}

}  // namespace ls3df
