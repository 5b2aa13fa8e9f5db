#include "fragment/ls3df.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

#include "checkpoint/snapshot.h"
#include "dft/eigensolver.h"
#include "fft/dist_fft3d.h"
#include "fft/fft.h"
#include "grid/sharded_field.h"
#include "obs/trace.h"
#include "parallel/shard_comm.h"
#include "parallel/task_graph.h"
#include "parallel/thread_pool.h"
#include "poisson/ewald.h"
#include "poisson/poisson.h"
#include "poisson/sharded_poisson.h"
#include "pseudo/pseudopotential.h"
#include "xc/lda.h"

namespace ls3df {

// Sharded-grid state: the ShardComm (over the selected transport) the
// global layers run on, the distributed FFT, and persistent sharded
// fields (ionic potential, the patched density, the Hartree/xc scratch
// of GENPOT, and the solve loop's V_in/V_out). Everything is sized at
// construction; after the first transpose warms the exchange lanes, no
// sharded phase allocates — and every piece is slab-sized, which is what
// shard_rank_footprint() accounts for.
// Shared-memory demand of the proc transport for one global grid: each
// transpose direction posts ~one grid volume of complex values on the
// send side and the same on the (distinct) recv side; 6x plus slack
// covers both directions, the gather/reduce tables and extent
// alignment. The reservation is virtual (lazily committed), so
// over-reserving is free — what matters is that a kProc solve can never
// exhaust the arena mid-pipeline.
static std::size_t transport_arena_bytes(Vec3i grid) {
  const std::size_t vol =
      static_cast<std::size_t>(grid.x) * grid.y * grid.z;
  return std::max(std::size_t{512} << 20,
                  6 * sizeof(std::complex<double>) * vol +
                      (std::size_t{16} << 20));
}

struct Ls3dfSolver::ShardState {
  ShardComm comm;
  DistFft3D fft;
  ShardedFieldR vion;
  mutable ShardedFieldR rho;       // latest patched (then normalized) density
  mutable ShardedFieldR vh, vxc;   // GENPOT assembly scratch
  mutable ShardedFieldR v_scratch; // public-hook genpot target
  ShardedFieldR v_in, v_out;       // solve loop potentials

  // Rank-local (SPMD) exchange plans, computed once at construction from
  // geometry every rank can see — no communication. All extents are
  // fixed for the life of the solver, so the halo buffer and the window
  // lanes never regrow after warm-up.
  struct Spmd {
    // Gen_VF halo: global x planes this rank needs beyond its own slab
    // (ascending), the gx -> halo row map, the receive buffer, and the
    // per-destination list of own planes to send.
    std::vector<int> halo_need;
    std::vector<int> halo_row;  // size nx; -1 = not a halo plane
    mutable FieldR halo;        // {halo_need.size(), ny, nz}
    std::vector<std::vector<int>> halo_send;  // [dst] -> own gx planes
    // Gen_dens windows: per destination, total doubles this rank sends
    // (raw interior-window plane values of its owned fragments), and per
    // owned fragment the starting offset of its segment in each lane —
    // fixed by geometry, so overlap-mode pack nodes write disjoint
    // ranges concurrently.
    std::vector<std::size_t> win_send_doubles;        // [dst]
    std::vector<std::vector<std::size_t>> win_off;    // [f - own_begin][dst]
    mutable std::vector<double*> win_lane;            // cached send lanes
  };
  std::unique_ptr<Spmd> spmd;

  ShardState(Vec3i grid, int n_shards, int n_workers,
             std::unique_ptr<Transport> transport)
      : comm(n_shards, n_workers, std::move(transport)),
        fft(grid, comm),
        vion(grid, n_shards, comm.local_rank()),
        rho(grid, n_shards, comm.local_rank()),
        vh(grid, n_shards, comm.local_rank()),
        vxc(grid, n_shards, comm.local_rank()),
        v_scratch(grid, n_shards, comm.local_rank()),
        v_in(grid, n_shards, comm.local_rank()),
        v_out(grid, n_shards, comm.local_rank()) {}
};

// Mid-SCF state carried from load_resume() to the solve loop. V_in and
// the density restore straight into the ShardState slabs; only the
// scalars and the mixer's DIIS stack travel here.
struct Ls3dfSolver::ResumeState {
  int iterations = 0;
  bool converged = false;
  double charge_patch_error = 0;
  std::vector<double> conv_history;
  std::vector<ShardedFieldR> mix_v, mix_r;
};

struct Ls3dfSolver::FragmentContext {
  // Light metadata (pass 1): present for EVERY fragment on every rank —
  // the geometry, costs and record extents all ranks must agree on
  // (exchange layouts, LPT costs, checkpoint framing) are derived from
  // these without communication.
  Fragment frag;
  Vec3i buffer;         // buffer thickness in grid points per side
  Vec3i grid;           // fragment box grid shape
  Vec3i global_offset;  // fragment box origin on the global grid
  Structure local;      // atoms inside Omega_F (fragment-local coordinates)
  std::vector<int> owned_local;  // local atom indices with home cell in F
  double electrons = 0;
  int n_bands = 0;
  int n_basis = 0;  // plane-wave count at opt.ecut (cost model, psi extents)
  // Heavy solve state (pass 2): allocated only for fragments this rank
  // owns — on SPMD transports that is the contiguous owned range, which
  // is what keeps per-rank fragment memory ~1/N too.
  std::unique_ptr<Hamiltonian> h;
  FieldR wall;  // passivation potential dV_F
  MatC psi;     // wavefunctions, warm-started across outer iterations
  std::vector<double> occ;
  std::vector<double> eigenvalues;
  // Persistent fragment workspaces, allocated once at construction and
  // reused by every outer iteration (never reallocated in the SCF loop).
  FieldR vf;    // Gen_VF restriction target (fragment-box potential)
  FieldR rho;   // fragment density from the latest PEtot_F
};

namespace {

// Largest buffer b <= b_max such that every fragment extent (1 cell and,
// when the axis is divided, 2 cells) plus 2b is a 2-3-5-7-smooth FFT size.
// The buffer must be *uniform across fragment sizes* on each axis: the
// +/- cancellation pairs walls of size-1 and size-2 fragments at the same
// physical face, which requires identical wall-to-interior distances.
// Fragment grids must also stay point-aligned with the global grid, so
// only the buffer is adjustable.
int smooth_uniform_buffer(int p, int m, int b_max) {
  for (int b = b_max; b > 0; --b) {
    const bool ok1 = Fft1D::is_smooth(p + 2 * b);
    const bool ok2 = (m < 3) || Fft1D::is_smooth(2 * p + 2 * b);
    if (ok1 && ok2) return b;
  }
  return 0;
}

// Typed rejection of option values the solver cannot run, before any
// member is built from them (the decomposition is constructed from the
// division in the initializer list).
const Ls3dfOptions& validated(const Ls3dfOptions& opt) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string("Ls3dfOptions::") + what);
  };
  // A division of exactly 2 along an axis is structurally degenerate: the
  // size-2 fragments wrap the whole axis and carry no artificial boundary,
  // so the negative size-1 fragments' boundary effects have nothing to
  // cancel against. LS3DF needs m_i == 1 (undivided) or m_i >= 3; the
  // paper's smallest production division is 3 x 3 x 3.
  for (int i = 0; i < 3; ++i)
    if (opt.division[i] < 1 || opt.division[i] == 2)
      reject("division must have m_i == 1 or m_i >= 3 per axis");
  if (opt.points_per_cell < 4) reject("points_per_cell must be >= 4");
  if (opt.batch_width < 1) reject("batch_width must be >= 1");
  if (opt.n_shards < 0) reject("n_shards must be >= 0");
  if (!opt.overlap) reject("overlap must be true (the only solve driver)");
  if (!opt.donate) reject("donate must be true (live lane donation)");
  return opt;
}

}  // namespace

Ls3dfSolver::Ls3dfSolver(const Structure& s, const Ls3dfOptions& opt)
    : structure_(s), opt_(validated(opt)), decomp_(opt.division),
      rng_(opt.seed) {
  // Route all construction work (potential setup FFTs, shard state)
  // through this instance's observability context.
  ObsContextScope obs_scope(obs_ctx());
  const Vec3i m = opt.division;
  const int p = opt.points_per_cell;
  global_grid_ = {m.x * p, m.y * p, m.z * p};
  vion_ = build_local_potential(structure_, global_grid_);

  const Vec3d L = structure_.lattice().lengths();
  const Vec3d cell_len{L.x / m.x, L.y / m.y, L.z / m.z};

  // Per-axis uniform buffer (same for every fragment size; see
  // smooth_uniform_buffer). Room is limited by the largest fragment:
  // size-2 boxes must still fit in the supercell.
  Vec3i axis_buffer{0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    if (m[i] == 1) continue;  // undivided axis: genuinely periodic
    const int room = (m[i] - 2) * p / 2;
    const int want = std::min(opt.buffer_points, room);
    axis_buffer[i] = want > 0 ? smooth_uniform_buffer(p, m[i], want) : 0;
  }

  const double margin =
      opt.atom_margin >= 0 ? opt.atom_margin : 2.5 * opt.wall_width;

  int findex = 0;
  for (const Fragment& frag : decomp_.fragments()) {
    auto ctx = std::make_unique<FragmentContext>();
    ctx->frag = frag;

    for (int i = 0; i < 3; ++i) {
      ctx->buffer[i] = frag.size[i] >= m[i] ? 0 : axis_buffer[i];
      ctx->grid[i] = frag.size[i] * p + 2 * ctx->buffer[i];
      ctx->global_offset[i] = frag.corner[i] * p - ctx->buffer[i];
    }

    // Fragment box lattice (grid-aligned with the global grid).
    Lattice box({cell_len.x * ctx->grid.x / p, cell_len.y * ctx->grid.y / p,
                 cell_len.z * ctx->grid.z / p});
    ctx->local = Structure(box);

    // Atoms inside Omega_F: window in cell units [lo, lo + width) per
    // axis; width <= m so each atom maps in at most once.
    Vec3d lo, width;
    for (int i = 0; i < 3; ++i) {
      lo[i] = frag.corner[i] - static_cast<double>(ctx->buffer[i]) / p;
      width[i] = frag.size[i] + 2.0 * ctx->buffer[i] / p;
      assert(width[i] <= m[i] + 1e-12);
    }
    for (int a = 0; a < structure_.size(); ++a) {
      const Atom& atom = structure_.atom(a);
      Vec3d u = structure_.lattice().fractional(atom.position);
      Vec3i home;
      Vec3d v;
      bool inside = true;
      for (int i = 0; i < 3; ++i) {
        double ui = (u[i] - std::floor(u[i])) * m[i];  // [0, m)
        home[i] = std::min(static_cast<int>(ui), m[i] - 1);
        // On artificially cut axes, erode the window by the wall margin:
        // an atom inside the wall cannot bind its electrons and would
        // poison the fragment density. Never erode past the buffer --
        // atoms in the fragment's own (interior) cells must stay.
        const double erode =
            (frag.size[i] < m[i])
                ? std::min(margin / cell_len[i],
                           static_cast<double>(ctx->buffer[i]) / p)
                : 0.0;
        const double wlo = lo[i] + erode;
        const double whi = lo[i] + width[i] - erode;
        bool found = false;
        for (int k = -1; k <= 1 && !found; ++k) {
          const double vi = ui + k * m[i];
          if (vi >= wlo - 1e-12 && vi < whi - 1e-12) {
            v[i] = vi;
            found = true;
          }
        }
        if (!found) {
          inside = false;
          break;
        }
      }
      if (!inside) continue;
      const Vec3d local_pos{(v.x - lo.x) * cell_len.x,
                            (v.y - lo.y) * cell_len.y,
                            (v.z - lo.z) * cell_len.z};
      const int local_index = ctx->local.size();
      ctx->local.add_atom(atom.species, local_pos);
      bool owned = true;
      for (int i = 0; i < 3; ++i)
        if (pmod(home[i] - frag.corner[i], m[i]) >= frag.size[i]) {
          owned = false;
          break;
        }
      if (owned) ctx->owned_local.push_back(local_index);
    }

    ctx->electrons = ctx->local.num_electrons();
    {
      // Basis count only (the cost model and psi record extents every
      // rank must know); the heavy pass below rebuilds the basis for
      // fragments this rank actually solves.
      GVectors basis(box, ctx->grid, opt.ecut);
      ctx->n_basis = basis.count();
    }
    const int n_occ = static_cast<int>(std::ceil(ctx->electrons / 2.0));
    ctx->n_bands =
        std::min(std::max(1, n_occ + opt.extra_bands), ctx->n_basis);

    contexts_.push_back(std::move(ctx));
    ++findex;
  }

  measured_seconds_.assign(contexts_.size(), -1.0);
  measured_seconds_f32_.assign(contexts_.size(), -1.0);
  // Phase hooks (gen_vf, petot_f, ...) are callable outside solve():
  // give them the full configured width until the solve loop's iteration
  // boundary consults the live allowance.
  live_workers_ = std::max(1, opt_.n_workers);

  {
    // The global grid always lives on shards. n_shards 0 is one
    // in-process shard (transport and factory ignored); otherwise clamp
    // to the grid's x extent and (without a factory) to the backend's
    // rank ceiling (the proc transport's fixed worker table).
    const bool one_inproc = opt_.n_shards == 0;
    const TransportKind kind =
        one_inproc ? TransportKind::kInProc : opt_.transport;
    const bool factory = opt_.transport_factory && !one_inproc;
    int n = std::min(std::max(1, opt_.n_shards), global_grid_.x);
    if (!factory) n = std::min(n, transport_max_ranks(kind));
    const int nw = std::max(1, opt_.n_workers);
    const std::size_t arena = transport_arena_bytes(global_grid_);
    std::unique_ptr<Transport> t =
        factory ? opt_.transport_factory(n, nw, arena)
                : make_transport(kind, n, nw, arena);
    // Explicit check (not assert): a factory/shard-count mismatch under
    // SPMD would desynchronize collectives, never a tolerable state.
    if (!t || t->n_ranks() != n)
      throw std::invalid_argument(
          "Ls3dfOptions::transport_factory must return a transport with "
          "the clamped shard count");
    shards_ = std::make_unique<ShardState>(global_grid_, n, nw, std::move(t));
    shards_->vion.from_dense(vion_);
    spmd_ = shards_->comm.local_rank() >= 0;
  }

  // Fragment ownership: every fragment on the dense-per-process paths; a
  // contiguous cost-balanced range per rank under SPMD. The partition is
  // pure arithmetic over pass-1 metadata, so every rank computes the
  // identical split without communicating. Contiguity is what lets the
  // Gen_dens window exchange replay contributions in ascending global
  // fragment order (see the rank-local phase bodies).
  own_begin_ = 0;
  own_end_ = static_cast<int>(contexts_.size());
  if (spmd_) {
    const int n = shards_->comm.n_ranks();
    const std::vector<double> costs = analytic_costs();
    std::vector<double> prefix(costs.size() + 1, 0.0);
    for (std::size_t f = 0; f < costs.size(); ++f)
      prefix[f + 1] = prefix[f] + costs[f];
    frag_rank_begin_.assign(n + 1, 0);
    frag_rank_begin_[n] = static_cast<int>(costs.size());
    for (int r = 1; r < n; ++r) {
      const double target = prefix.back() * r / n;
      const auto it =
          std::lower_bound(prefix.begin(), prefix.end(), target);
      const int cut = std::min(static_cast<int>(it - prefix.begin()),
                               static_cast<int>(costs.size()));
      frag_rank_begin_[r] = std::max(cut, frag_rank_begin_[r - 1]);
    }
    const int self = shards_->comm.local_rank();
    own_begin_ = frag_rank_begin_[self];
    own_end_ = frag_rank_begin_[self + 1];
  }

  // Pass 2: heavy per-fragment solve state for the fragments this rank
  // owns (all of them outside SPMD).
  for (int f = own_begin_; f < own_end_; ++f) {
    FragmentContext& ctx = *contexts_[f];
    ctx.vf = FieldR(ctx.grid);
    ctx.rho = FieldR(ctx.grid);
    GVectors basis(ctx.local.lattice(), ctx.grid, opt.ecut);
    ctx.h = std::make_unique<Hamiltonian>(ctx.local, basis);
    ctx.psi =
        random_wavefunctions(basis, ctx.n_bands, opt.seed ^ (0x9e37u + f));
    ctx.occ = fill_occupations(ctx.electrons, ctx.n_bands);

    // Passivation wall on artificially cut faces only.
    ctx.wall = FieldR(ctx.grid);
    for (int i = 0; i < 3; ++i) {
      if (ctx.frag.size[i] >= m[i]) continue;  // spans the axis: physical PBC
      const double h_spacing = cell_len[i] / p;
      for (int ix = 0; ix < ctx.grid.x; ++ix)
        for (int iy = 0; iy < ctx.grid.y; ++iy)
          for (int iz = 0; iz < ctx.grid.z; ++iz) {
            const int idx = i == 0 ? ix : (i == 1 ? iy : iz);
            const int n = ctx.grid[i];
            const double d =
                std::min(idx + 0.5, n - 0.5 - idx) * h_spacing;
            const double w = opt.wall_width;
            ctx.wall(ix, iy, iz) +=
                opt.wall_height * std::exp(-(d * d) / (w * w));
          }
    }
  }

  // SPMD exchange plans: halo-plane sets and window-lane layouts, all
  // derived from geometry every rank can see.
  if (spmd_) {
    ShardState& s = *shards_;
    const int n = s.comm.n_ranks();
    const int self = s.comm.local_rank();
    const int nx = global_grid_.x;
    auto sp = std::make_unique<ShardState::Spmd>();

    std::vector<std::vector<char>> needs(
        n, std::vector<char>(static_cast<std::size_t>(nx), 0));
    for (int r = 0; r < n; ++r) {
      for (int f = frag_rank_begin_[r]; f < frag_rank_begin_[r + 1]; ++f) {
        const FragmentContext& ctx = *contexts_[f];
        for (int ix = 0; ix < ctx.grid.x; ++ix)
          needs[r][pmod(ctx.global_offset.x + ix, nx)] = 1;
      }
      for (int gx = s.rho.x0(r); gx < s.rho.x1(r); ++gx) needs[r][gx] = 0;
    }
    sp->halo_row.assign(static_cast<std::size_t>(nx), -1);
    for (int gx = 0; gx < nx; ++gx)
      if (needs[self][gx]) {
        sp->halo_row[gx] = static_cast<int>(sp->halo_need.size());
        sp->halo_need.push_back(gx);
      }
    if (!sp->halo_need.empty())
      sp->halo = FieldR({static_cast<int>(sp->halo_need.size()),
                         global_grid_.y, global_grid_.z});
    sp->halo_send.resize(n);
    for (int dst = 0; dst < n; ++dst)
      for (int gx = s.rho.x0(self); gx < s.rho.x1(self); ++gx)
        if (needs[dst][gx]) sp->halo_send[dst].push_back(gx);

    sp->win_send_doubles.assign(n, 0);
    sp->win_off.assign(static_cast<std::size_t>(own_end_ - own_begin_),
                       std::vector<std::size_t>(n, 0));
    for (int f = own_begin_; f < own_end_; ++f) {
      const FragmentContext& ctx = *contexts_[f];
      const std::size_t plane_d =
          static_cast<std::size_t>(ctx.frag.size.y) * p *
          (static_cast<std::size_t>(ctx.frag.size.z) * p);
      for (int dst = 0; dst < n; ++dst)
        sp->win_off[f - own_begin_][dst] = sp->win_send_doubles[dst];
      for (int ix = 0; ix < ctx.frag.size.x * p; ++ix) {
        const int gx = pmod(ctx.frag.corner.x * p + ix, nx);
        sp->win_send_doubles[s.rho.owner_of(gx)] += plane_d;
      }
    }
    sp->win_lane.assign(n, nullptr);
    s.spmd = std::move(sp);
  }

  // Size classes for the batched PEtot_F path: fragments whose solves
  // share (grid shape, basis size, band count) can run in lockstep.
  // Batch composition depends only on the decomposition (and, under
  // SPMD, on this rank's owned range — batches never cross ranks), so
  // batches and their workspaces are stable across outer iterations.
  if (own_end_ > own_begin_) {
    std::vector<int> class_of(static_cast<std::size_t>(own_end_ - own_begin_));
    std::map<std::array<int, 5>, int> ids;
    for (int f = own_begin_; f < own_end_; ++f) {
      const FragmentContext& ctx = *contexts_[f];
      const std::array<int, 5> key{ctx.grid.x, ctx.grid.y, ctx.grid.z,
                                   ctx.n_basis, ctx.n_bands};
      auto [it, inserted] = ids.emplace(key, static_cast<int>(ids.size()));
      class_of[f - own_begin_] = it->second;
      (void)inserted;
    }
    batches_ = make_batches(class_of, opt_.batch_width);
    if (own_begin_ > 0)
      for (FragmentBatch& b : batches_)
        for (int& f : b.members) f += own_begin_;
  }
}

Ls3dfSolver::~Ls3dfSolver() = default;

void Ls3dfSolver::gen_vf(const FieldR& v_global) {
  ObsContextScope obs_scope(obs_ctx());
  assert(v_global.shape() == global_grid_);
  // Fragment restrictions are independent: fan out on the engine. Owned
  // fragments only — the rest have no solve state on this rank.
  parallel_for(own_end_ - own_begin_, live_workers_,
               [&](int i, int /*worker*/) {
                 FragmentContext& ctx = *contexts_[own_begin_ + i];
                 v_global.extract_into(ctx.global_offset, ctx.vf);
                 ctx.vf += ctx.wall;
                 ctx.h->set_local_potential(ctx.vf);
               });
}

void Ls3dfSolver::finish_fragment(int f, int n_workers) {
  FragmentContext& ctx = *contexts_[f];
  // Each fragment is filled to local neutrality; with smearing,
  // degenerate shells are occupied fractionally. (A shared global
  // chemical potential in the spirit of Yang's divide-and-conquer
  // was evaluated during development but patched worse than local
  // neutrality for the gapped systems LS3DF targets.)
  if (opt_.fragment_smearing > 0.0 && !ctx.eigenvalues.empty())
    ctx.occ = smeared_occupations(ctx.eigenvalues, ctx.electrons,
                                  opt_.fragment_smearing);
  ctx.h->density_into(ctx.psi, ctx.occ, ctx.rho, n_workers);
}

void Ls3dfSolver::solve_fragment(int f, EigenWorkspace& ws) {
  FragmentContext& ctx = *contexts_[f];
  EigensolverResult r =
      opt_.all_band ? solve_all_band(*ctx.h, ctx.psi, opt_.eig, ws)
                    : solve_band_by_band(*ctx.h, ctx.psi, opt_.eig, ws);
  ctx.eigenvalues = std::move(r.eigenvalues);
  finish_fragment(f);
}

void Ls3dfSolver::record_measured(int f, double seconds) {
  // Route into the EMA of the precision that produced the timing: the
  // fp32 fast path is ~2x faster per iteration, and mixing its samples
  // into the fp64 model would skew LPT for both.
  double& m =
      use_fp32_iter_ ? measured_seconds_f32_[f] : measured_seconds_[f];
  m = m < 0 ? seconds : 0.5 * m + 0.5 * seconds;
}

bool Ls3dfSolver::mixed_precision_available() const {
  // Keyed on options and the global fragment count, NOT on batches_:
  // under SPMD a rank may own zero fragments (empty batches_) while
  // others don't, and a per-rank answer here would desynchronize the
  // precision policy — and with it the convergence latch — across ranks.
  return opt_.precision == Precision::kMixed && opt_.all_band &&
         !contexts_.empty();
}

void Ls3dfSolver::update_precision_policy(
    const std::vector<double>& conv_history) {
  // fp32 while the mixer is still far from self-consistency: no history
  // yet, or the last L1 residual above the promotion threshold — and
  // never again after promotion. The first fp64 iteration cleans the
  // fp32 noise out of the potential, which can briefly *raise* the L1
  // metric past the threshold; without the latch the policy would
  // oscillate back to fp32 and the mixer would grind at the fp32 noise
  // floor instead of converging. Promotion is one-way within a solve().
  if (fp64_promoted_) {
    use_fp32_iter_ = false;
    return;
  }
  const double threshold =
      std::max(opt_.promote_factor * opt_.l1_tol, opt_.l1_tol);
  use_fp32_iter_ = mixed_precision_available() &&
                   (conv_history.empty() || conv_history.back() > threshold);
  if (!use_fp32_iter_ && mixed_precision_available() &&
      !conv_history.empty()) {
    fp64_promoted_ = true;
    metrics_.add("solver.fp64_promotions");
  }
}

long Ls3dfSolver::donated_lane_events() const {
  return lane_budget_.donation_events();
}

// The per-iteration width decision: the configured n_workers, clamped
// by the live cross-job allowance when a service set one. Called at
// every outer-iteration boundary — width is arithmetically invisible
// everywhere it is consumed, so the refresh cadence is a pure
// performance choice.
int Ls3dfSolver::refresh_live_lanes() {
  int w = std::max(1, opt_.n_workers);
  if (opt_.lane_allowance) {
    const int a = opt_.lane_allowance();
    w = std::max(1, std::min(w, a));
  }
  live_workers_ = w;
  return w;
}

void Ls3dfSolver::reset_state() {
  // Re-seed every owned fragment's wavefunctions with the construction
  // formula: the only numeric state that survives across solve() calls
  // is psi (warm-started across outer iterations and across solves), so
  // after this the next solve() is bit-identical to one on a newly
  // constructed instance. Workspaces, transports, plans and measured
  // costs are untouched — all execution-side, none of it reaches the
  // arithmetic.
  for (int f = own_begin_; f < own_end_; ++f) {
    FragmentContext& ctx = *contexts_[f];
    ctx.psi = random_wavefunctions(ctx.h->basis(), ctx.n_bands,
                                   opt_.seed ^ (0x9e37u + f));
  }
  rng_ = Rng(opt_.seed);
  resume_.reset();
}

void Ls3dfSolver::petot_f() {
  ObsContextScope obs_scope(obs_ctx());
  if (batches_.empty()) return;  // this rank owns no fragment
  petot_f_batched(std::max(
      1, std::min(live_workers_, static_cast<int>(batches_.size()))));
}

void Ls3dfSolver::prepare_batch_workspaces() {
  // One persistent workspace per batch, presized to the batch's solve
  // extents (including the apply stack at the maximum Ritz-block width)
  // so the steady state allocates nothing.
  while (batch_workspaces_.size() < batches_.size())
    batch_workspaces_.push_back(std::make_unique<BatchWorkspace>());
  for (std::size_t b = 0; b < batches_.size(); ++b) {
    BatchWorkspace& bw = *batch_workspaces_[b];
    std::size_t stack = 0;
    int i = 0;
    for (int f : batches_[b].members) {
      const FragmentContext& ctx = *contexts_[f];
      const int ng = ctx.h->basis().count();
      const int vmax = std::min(2 * ctx.n_bands, ng);
      bw.member(i).reserve(ng, ctx.n_bands, opt_.all_band);
      if (opt_.all_band) {
        const Vec3i g = ctx.h->basis().grid_shape();
        stack += static_cast<std::size_t>(vmax) * g.x * g.y * g.z;
        bw.apply().proj(i, ctx.h->nonlocal().num_projectors(), vmax);
      }
      ++i;
    }
    if (stack > 0) bw.apply().grid_stack(stack);
  }
}

void Ls3dfSolver::solve_batch(int b, int group,
                              const std::vector<double>& analytic) {
  if (opt_.on_batch_solve) opt_.on_batch_solve(b);
  const FragmentBatch& batch = batches_[b];
  BatchWorkspace& bw = *batch_workspaces_[b];
  const int k_members = static_cast<int>(batch.members.size());
  Timer bt;
  for (int f : batch.members) executed_group_of_[f] = group;
  if (opt_.all_band) {
    std::vector<FragmentSolve> items;
    items.reserve(k_members);
    for (int f : batch.members)
      items.push_back({contexts_[f]->h.get(), &contexts_[f]->psi});
    // Live inner-lane width: the lockstep driver re-reads the budget's
    // allowance at every sweep boundary, so lanes donated by retiring
    // holders widen this solve mid-flight. The kernels are
    // worker-count-invariant, so the width schedule cannot change
    // results.
    const std::function<int()> live_lanes = [this]() {
      return lane_budget_.allowance();
    };
    std::vector<EigensolverResult> rs =
        use_fp32_iter_ ? solve_all_band_batched_f32(items, opt_.eig, bw,
                                                    live_lanes(), live_lanes)
                       : solve_all_band_batched(items, opt_.eig, bw,
                                                live_lanes(), live_lanes);
    for (int k = 0; k < k_members; ++k)
      contexts_[batch.members[k]]->eigenvalues = std::move(rs[k].eigenvalues);
    // Densities member by member, each member's band stack swept by
    // one many-transform pass over this batch's inner lanes (the
    // lanes go to the FFTs, not the member loop — bit-identical
    // either way, so the density sweep may also use donated width).
    for (int k = 0; k < k_members; ++k)
      finish_fragment(batch.members[k], lane_budget_.allowance());
  } else {
    // Band-by-band has no lockstep driver; members still share the
    // batch's schedulable unit and per-member arenas.
    for (int k = 0; k < k_members; ++k)
      solve_fragment(batch.members[k], bw.member(k));
  }
  // Apportion the measured batch time over members by analytic
  // weight (individual lockstep times are not separable).
  const double dt = bt.seconds();
  double asum = 0;
  for (int f : batch.members) asum += analytic[f];
  for (int f : batch.members)
    record_measured(f, asum > 0 ? dt * analytic[f] / asum : dt / k_members);
}

void Ls3dfSolver::petot_f_batched(int n_groups) {
  const int n_frag = static_cast<int>(contexts_.size());
  const int n_batches = static_cast<int>(batches_.size());

  // Refresh batch costs from the (possibly measurement-blended) fragment
  // costs, then LPT over batches: the batch is the schedulable unit.
  const std::vector<double> costs = fragment_costs();
  for (FragmentBatch& b : batches_) {
    b.cost = 0;
    for (int f : b.members) b.cost += costs[f];
  }
  const BatchAssignment ba = assign_batches(batches_, n_frag, n_groups);
  assignment_.group_of = ba.fragment_group_of;
  assignment_.group_cost = ba.batches.group_cost;
  assignment_.max_cost = ba.batches.max_cost;
  assignment_.total_cost = ba.batches.total_cost;
  assignment_.efficiency = ba.batches.efficiency;
  executed_group_of_.assign(n_frag, -1);

  prepare_batch_workspaces();

  std::vector<std::vector<int>> members(n_groups);  // batch ids per group
  for (int b = 0; b < n_batches; ++b)
    members[ba.batches.group_of[b]].push_back(b);

  // Lanes not consumed by batch-level parallelism drive the batched
  // kernels' internal work grids (fused GEMM tiles, many-FFT sweeps):
  // the budget's allowance opens at total/holders and widens as groups
  // retire.
  lane_budget_.reset(live_workers_, n_groups);
  const std::vector<double> analytic = analytic_costs();

  std::vector<double> busy(n_groups, 0.0);
  const auto run_group = [&](int g) {
    Timer timer;
    for (int b : members[g]) solve_batch(b, g, analytic);
    // This group's solves are done: donate its inner lanes so the
    // makespan-tail groups widen.
    lane_budget_.retire(g);
    busy[g] = timer.seconds();
  };

  if (n_groups == 1) {
    run_group(0);
  } else {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n_groups);
    for (int g = 0; g < n_groups; ++g)
      tasks.emplace_back([&run_group, g]() { run_group(g); });
    shared_pool().run_batch(std::move(tasks));
  }

  double total_busy = 0;
  for (double b : busy) total_busy += b;
  profile_.add("PEtot_F.workers", total_busy);
}

FieldR Ls3dfSolver::gen_dens() const {
  gen_dens_sharded();
  return spmd_ ? gather_dense(shards_->rho, shards_->comm)
               : shards_->rho.to_dense();
}

void Ls3dfSolver::gen_dens_sharded() const {
  ShardState& s = *shards_;
  const int p = opt_.points_per_cell;
  if (spmd_) {
    // Rank-local patching: ship the RAW interior-window values of this
    // rank's owned fragments (not pre-folded partials) and let each
    // destination fold them locally in ascending global fragment order —
    // exactly the in-process accumulate order, so the patched density is
    // bit-identical for any transport (see spmd_apply_windows).
    spmd_size_window_lanes();
    for (int f = own_begin_; f < own_end_; ++f) spmd_pack_fragment(f);
    s.comm.transport().alltoallv();
    spmd_apply_windows();
    return;
  }
  // Owner-computes patching: each shard scans the fragment list and
  // accumulates every window restricted to its slab, in fragment order —
  // the same per-point arithmetic as the solve chains' ordered commits,
  // so the patched density is bit-identical for any shard and worker
  // count. No
  // global staging buffer exists; fragments land directly in owning
  // shards. (Under MPI this phase becomes the reduce_scatter seam of
  // parallel/shard_comm.h.)
  s.comm.each_rank([&](int r) {
    s.rho.slab(r).fill(0.0);
    for (const auto& ctx : contexts_) {
      const Vec3i region{ctx->frag.size.x * p, ctx->frag.size.y * p,
                         ctx->frag.size.z * p};
      s.rho.accumulate_window_shard(
          r,
          {ctx->frag.corner.x * p, ctx->frag.corner.y * p,
           ctx->frag.corner.z * p},
          ctx->rho, ctx->buffer, region,
          static_cast<double>(ctx->frag.sign));
    }
  });
}

void Ls3dfSolver::genpot_sharded(const ShardedFieldR& rho,
                                 ShardedFieldR& v_out) const {
  ShardState& s = *shards_;
  // Other users of the shared transform (Kerker mixing) accumulate
  // transpose time between genpot calls; drop it so the sample below is
  // exactly this call's all-to-all cost.
  s.fft.take_transpose_seconds();
  sharded_effective_potential(s.vion, rho, structure_.lattice(), s.fft,
                              s.vh, s.vxc, v_out);
  // Surface the all-to-all cost next to the compute phases: one
  // GENPOT.transpose sample per genpot call (forward + inverse packs).
  profile_.add("GENPOT.transpose", s.fft.take_transpose_seconds());
}

FieldR Ls3dfSolver::genpot(const FieldR& rho) const {
  ShardState& s = *shards_;
  s.rho.from_dense(rho);
  genpot_sharded(s.rho, s.v_scratch);
  return spmd_ ? gather_dense(s.v_scratch, s.comm) : s.v_scratch.to_dense();
}

int Ls3dfSolver::fragment_owner(int f) const {
  if (!spmd_) return 0;
  // frag_rank_begin_ is nondecreasing; the owner is the last rank whose
  // range start is <= f.
  const auto it = std::upper_bound(frag_rank_begin_.begin(),
                                   frag_rank_begin_.end(), f);
  return static_cast<int>(it - frag_rank_begin_.begin()) - 1;
}

void Ls3dfSolver::spmd_fill_halo(const ShardedFieldR& v) const {
  ShardState& s = *shards_;
  ShardState::Spmd& sp = *s.spmd;
  ShardComm& comm = s.comm;
  const int n = comm.n_ranks();
  const int self = comm.local_rank();
  const std::size_t plane =
      static_cast<std::size_t>(global_grid_.y) * global_grid_.z;
  const FieldR& slab = v.slab(self);
  const int xb = v.x0(self);
  // Doubles ride in the complex lanes; receivers recompute the double
  // counts from the (shared, deterministic) plan, never from box_size.
  // Every lane is sized each round, zero included — lanes are shared
  // with the other exchange phases.
  for (int dst = 0; dst < n; ++dst) {
    const std::size_t n_d = sp.halo_send[dst].size() * plane;
    double* out = reinterpret_cast<double*>(
        comm.send_box(self, dst, (n_d + 1) / 2));
    for (int gx : sp.halo_send[dst]) {
      std::memcpy(out, &slab(gx - xb, 0, 0), plane * sizeof(double));
      out += plane;
    }
  }
  comm.transport().alltoallv();
  // src sent exactly the halo planes of ours inside its slab, ascending
  // gx — the subset of halo_need in [x0(src), x1(src)).
  for (int src = 0; src < n; ++src) {
    const double* in =
        reinterpret_cast<const double*>(comm.recv_box(src, self));
    for (std::size_t j = 0; j < sp.halo_need.size(); ++j) {
      const int gx = sp.halo_need[j];
      if (gx < v.x0(src) || gx >= v.x1(src)) continue;
      std::memcpy(&sp.halo(static_cast<int>(j), 0, 0), in,
                  plane * sizeof(double));
      in += plane;
    }
  }
}

void Ls3dfSolver::spmd_extract(const ShardedFieldR& v, Vec3i offset,
                               FieldR& out) const {
  const ShardState& s = *shards_;
  const ShardState::Spmd& sp = *s.spmd;
  const int self = s.comm.local_rank();
  const FieldR& slab = v.slab(self);
  const int xb = v.x0(self), xe = v.x1(self);
  const Vec3i g = global_grid_;
  const Vec3i sub = out.shape();
  // Same loops and pmod arithmetic as ShardedField3D::extract_into, with
  // the source row resolved to the resident slab or the halo buffer — a
  // pure copy either way.
  for (int ix = 0; ix < sub.x; ++ix) {
    const int gx = pmod(offset.x + ix, g.x);
    const double* row;
    if (gx >= xb && gx < xe) {
      row = &slab(gx - xb, 0, 0);
    } else {
      if (sp.halo_row[gx] < 0)
        throw std::logic_error(
            "spmd_extract: global plane missing from the halo plan");
      row = &sp.halo(sp.halo_row[gx], 0, 0);
    }
    for (int iy = 0; iy < sub.y; ++iy) {
      const int gy = pmod(offset.y + iy, g.y);
      const double* line = row + static_cast<std::size_t>(gy) * g.z;
      for (int iz = 0; iz < sub.z; ++iz)
        out(ix, iy, iz) = line[pmod(offset.z + iz, g.z)];
    }
  }
}

void Ls3dfSolver::spmd_size_window_lanes() const {
  ShardState& s = *shards_;
  ShardState::Spmd& sp = *s.spmd;
  const int n = s.comm.n_ranks();
  const int self = s.comm.local_rank();
  // Size every lane once, then cache raw pointers: the solve chains pack
  // fragments from concurrent pool tasks, and send_box itself is
  // not concurrency-safe. Pack targets are disjoint geometry-fixed
  // offsets (win_off), so concurrent packs never touch the same bytes.
  for (int dst = 0; dst < n; ++dst)
    sp.win_lane[dst] = reinterpret_cast<double*>(
        s.comm.send_box(self, dst, (sp.win_send_doubles[dst] + 1) / 2));
}

void Ls3dfSolver::spmd_pack_fragment(int f) const {
  const ShardState& s = *shards_;
  const ShardState::Spmd& sp = *s.spmd;
  const FragmentContext& ctx = *contexts_[f];
  const int p = opt_.points_per_cell;
  const int nx = global_grid_.x;
  const Vec3i region{ctx.frag.size.x * p, ctx.frag.size.y * p,
                     ctx.frag.size.z * p};
  const std::size_t plane_d =
      static_cast<std::size_t>(region.y) * region.z;
  // Raw window values on the wire (the sign is applied by the receiving
  // fold — pre-folding would change the summation order).
  std::vector<std::size_t> off = sp.win_off[f - own_begin_];
  for (int ix = 0; ix < region.x; ++ix) {
    const int gx = pmod(ctx.frag.corner.x * p + ix, nx);
    const int dst = s.rho.owner_of(gx);
    double* out = sp.win_lane[dst] + off[dst];
    off[dst] += plane_d;
    for (int iy = 0; iy < region.y; ++iy)
      for (int iz = 0; iz < region.z; ++iz)
        *out++ = ctx.rho(ctx.buffer.x + ix, ctx.buffer.y + iy,
                         ctx.buffer.z + iz);
  }
}

void Ls3dfSolver::spmd_apply_windows() const {
  ShardState& s = *shards_;
  ShardComm& comm = s.comm;
  const int n = comm.n_ranks();
  const int self = comm.local_rank();
  const int p = opt_.points_per_cell;
  const Vec3i g = global_grid_;
  FieldR& slab = s.rho.slab(self);
  slab.fill(0.0);
  const int xb = s.rho.x0(self);
  // Fold in ascending global fragment order (contiguous ownership makes
  // src-ascending + fragment-ascending-within-src exactly that), and
  // within a fragment in ascending (ix, iy, iz) — the same order and the
  // same `+= sign * value` arithmetic as accumulate_window_shard on the
  // dense-per-process path, hence bit-identical patching.
  for (int src = 0; src < n; ++src) {
    const double* ptr =
        reinterpret_cast<const double*>(comm.recv_box(src, self));
    for (int f = frag_rank_begin_[src]; f < frag_rank_begin_[src + 1];
         ++f) {
      const FragmentContext& ctx = *contexts_[f];
      const double sign = static_cast<double>(ctx.frag.sign);
      const Vec3i region{ctx.frag.size.x * p, ctx.frag.size.y * p,
                         ctx.frag.size.z * p};
      const int cy = ctx.frag.corner.y * p, cz = ctx.frag.corner.z * p;
      for (int ix = 0; ix < region.x; ++ix) {
        const int gx = pmod(ctx.frag.corner.x * p + ix, g.x);
        if (s.rho.owner_of(gx) != self) continue;  // not in src's lane to us
        for (int iy = 0; iy < region.y; ++iy) {
          const int gy = pmod(cy + iy, g.y);
          for (int iz = 0; iz < region.z; ++iz)
            slab(gx - xb, gy, pmod(cz + iz, g.z)) += sign * (*ptr++);
        }
      }
    }
  }
}

int Ls3dfSolver::active_shards() const {
  return shards_->comm.n_ranks();
}

long Ls3dfSolver::shard_allocations() const {
  return shards_->comm.allocations();
}

const char* Ls3dfSolver::shard_transport() const {
  return shards_->comm.transport().name();
}

Transport* Ls3dfSolver::shard_transport_object() const {
  return &shards_->comm.transport();
}

bool Ls3dfSolver::fragment_touches_planes(int f, int x_begin,
                                          int x_end) const {
  const FragmentContext& ctx = *contexts_[f];
  const int p = opt_.points_per_cell;
  const int nx = global_grid_.x;
  const int ext = ctx.frag.size.x * p;  // interior window extent
  if (ext >= nx) return true;
  const int start = ctx.frag.corner.x * p;
  for (int ix = 0; ix < ext; ++ix) {
    const int gx = pmod(start + ix, nx);
    if (gx >= x_begin && gx < x_end) return true;
  }
  return false;
}

std::size_t Ls3dfSolver::shard_rank_footprint(int r) const {
  const ShardState& s = *shards_;
  // Double-equivalents held by rank r across the persistent sharded
  // state: real field slabs, the FFT's complex slab/pencil/line scratch,
  // and the transport lanes destined for r. Every term is proportional
  // to global/N — the sharded pipeline's memory contract. Under SPMD a
  // process holds only its own rank's state, so only the local rank's
  // footprint is answerable (true resident bytes, including the halo
  // buffer the rank-local Gen_VF adds).
  if (spmd_ && r != s.comm.local_rank())
    throw std::logic_error(
        "shard_rank_footprint: only the local rank is resident under an "
        "SPMD transport");
  std::size_t doubles = 0;
  const ShardedFieldR* fields[] = {&s.vion, &s.rho,  &s.vh,   &s.vxc,
                                   &s.v_scratch, &s.v_in, &s.v_out};
  for (const ShardedFieldR* f : fields) doubles += f->slab(r).size();
  doubles += 2 * (s.fft.slab_size(r) + s.fft.pencil_size(r) +
                  s.fft.scratch_size(r));
  doubles += 2 * s.comm.rank_box_elements(r);
  if (s.spmd) doubles += s.spmd->halo.size();
  return doubles;
}

double Ls3dfSolver::fold_fragment_sum(const std::vector<double>& part) const {
  // Signed per-fragment terms folded in ascending global fragment order
  // — worker-count invariant, and under SPMD also rank-count invariant:
  // the allgatherv table concatenates rank blocks in rank order, and
  // contiguous ownership makes that exactly ascending fragment order, so
  // every rank folds the same values in the same order as an in-process
  // run does.
  if (spmd_) {
    ShardComm& comm = shards_->comm;
    const int n = comm.n_ranks();
    std::vector<int> counts(n);
    for (int r = 0; r < n; ++r)
      counts[r] = frag_rank_begin_[r + 1] - frag_rank_begin_[r];
    const ShardComm::GatherView view =
        comm.all_gather(counts, [&](int /*rank*/, double* block) {
          for (int f = own_begin_; f < own_end_; ++f)
            block[f - own_begin_] = part[f];
        });
    const double* all = view.data();
    double total = 0;
    for (std::size_t f = 0; f < part.size(); ++f) total += all[f];
    return total;
  }
  double total = 0;
  for (double t : part) total += t;
  return total;
}

double Ls3dfSolver::patched_kinetic_energy() const {
  const int p = opt_.points_per_cell;
  const double point_vol = structure_.lattice().volume() /
                           static_cast<double>(vion_.size());
  // Per-fragment terms fan out on the engine (owned fragments only); the
  // signed sum runs in fragment order afterwards so the result is
  // worker-count invariant.
  std::vector<double> part(contexts_.size(), 0.0);
  parallel_for(own_end_ - own_begin_, opt_.n_workers,
               [&](int i, int /*worker*/) {
                 const int f = own_begin_ + i;
                 const FragmentContext& ctx = *contexts_[f];
                 FieldR tau =
                     ctx.h->kinetic_energy_density(ctx.psi, ctx.occ);
                 double interior = 0;
                 for (int ix = 0; ix < ctx.frag.size.x * p; ++ix)
                   for (int iy = 0; iy < ctx.frag.size.y * p; ++iy)
                     for (int iz = 0; iz < ctx.frag.size.z * p; ++iz)
                       interior += tau(ctx.buffer.x + ix, ctx.buffer.y + iy,
                                       ctx.buffer.z + iz);
                 part[f] = ctx.frag.sign * interior * point_vol;
               });
  return fold_fragment_sum(part);
}

double Ls3dfSolver::patched_nonlocal_energy() const {
  std::vector<double> part(contexts_.size(), 0.0);
  parallel_for(own_end_ - own_begin_, opt_.n_workers,
               [&](int i, int /*worker*/) {
                 const int f = own_begin_ + i;
                 const FragmentContext& ctx = *contexts_[f];
                 const auto per_atom =
                     ctx.h->nonlocal().energy_per_atom(ctx.psi, ctx.occ);
                 double owned = 0;
                 for (int a : ctx.owned_local) owned += per_atom[a];
                 part[f] = ctx.frag.sign * owned;
               });
  return fold_fragment_sum(part);
}

long Ls3dfSolver::workspace_allocations() const {
  long total = 0;
  for (const auto& bw : batch_workspaces_) total += bw->allocations();
  return total;
}

std::vector<double> Ls3dfSolver::analytic_costs() const {
  std::vector<double> costs;
  costs.reserve(contexts_.size());
  for (const auto& ctx : contexts_) {
    // n_basis, not h->basis().count(): the Hamiltonian exists only for
    // owned fragments, and the cost model must cover all of them (the
    // SPMD fragment partition is computed from these costs).
    const double ng = ctx->n_basis;
    const double nb = ctx->n_bands;
    // Dominant terms of one all-band iteration: subspace gemms + FFTs.
    costs.push_back(ng * nb * nb + ng * std::log2(std::max(2.0, ng)) * nb);
  }
  return costs;
}

std::vector<double> Ls3dfSolver::fragment_costs() const {
  std::vector<double> costs = analytic_costs();
  // Blend in measured solve times once every fragment has one: the
  // analytic model is the iteration-1 prior, measurements re-balance
  // later iterations. Rescaling to the analytic total keeps the blend
  // meaningful (LPT itself is scale-invariant).
  // The upcoming iteration's precision selects its own measured EMA, so
  // fp32 and fp64 batches are each balanced from timings of their kind.
  const std::vector<double>& measured =
      use_fp32_iter_ ? measured_seconds_f32_ : measured_seconds_;
  bool all_measured = !measured.empty();
  for (double m : measured)
    if (m < 0) {
      all_measured = false;
      break;
    }
  if (!all_measured) return costs;
  double analytic_sum = 0, measured_sum = 0;
  for (std::size_t f = 0; f < costs.size(); ++f) {
    analytic_sum += costs[f];
    measured_sum += measured[f];
  }
  if (measured_sum <= 0 || analytic_sum <= 0) return costs;
  const double scale = analytic_sum / measured_sum;
  for (std::size_t f = 0; f < costs.size(); ++f)
    costs[f] = 0.5 * costs[f] + 0.5 * measured[f] * scale;
  return costs;
}

int Ls3dfSolver::fragment_atom_count(int f) const {
  return contexts_[f]->local.size();
}

double Ls3dfSolver::fragment_electrons(int f) const {
  return contexts_[f]->electrons;
}

std::uint64_t Ls3dfSolver::state_fingerprint() const {
  Fingerprint fp;
  static const char kTag[] = "ls3df-snapshot-v1";
  fp.mix_bytes(kTag, sizeof(kTag));
  // The physical problem: lattice, atoms, and thereby the electron count.
  const Vec3d L = structure_.lattice().lengths();
  fp.mix_double(L.x);
  fp.mix_double(L.y);
  fp.mix_double(L.z);
  fp.mix_u64(static_cast<std::uint64_t>(structure_.size()));
  for (int a = 0; a < structure_.size(); ++a) {
    const Atom& atom = structure_.atom(a);
    fp.mix_i64(static_cast<int>(atom.species));
    fp.mix_double(atom.position.x);
    fp.mix_double(atom.position.y);
    fp.mix_double(atom.position.z);
  }
  // Every option that shapes the numerical trajectory. Deliberately
  // absent: max_iterations (resuming with a higher cap is the point),
  // n_workers, batch_width, transport, lane_allowance, trace, progress,
  // on_batch_solve and the checkpoint settings themselves — all
  // bit-invariant execution knobs, so a resume may run on a different
  // machine configuration.
  fp.mix_i64(opt_.division.x);
  fp.mix_i64(opt_.division.y);
  fp.mix_i64(opt_.division.z);
  fp.mix_i64(opt_.points_per_cell);
  fp.mix_i64(opt_.buffer_points);
  fp.mix_double(opt_.ecut);
  fp.mix_double(opt_.wall_height);
  fp.mix_double(opt_.wall_width);
  fp.mix_double(opt_.atom_margin);
  fp.mix_i64(opt_.extra_bands);
  fp.mix_double(opt_.fragment_smearing);
  fp.mix_i64(opt_.eig.max_iterations);
  fp.mix_double(opt_.eig.residual_tol);
  fp.mix_i64(opt_.eig.precondition ? 1 : 0);
  fp.mix_i64(opt_.all_band ? 1 : 0);
  fp.mix_double(opt_.l1_tol);
  fp.mix_i64(static_cast<int>(opt_.mixer));
  fp.mix_double(opt_.mix_alpha);
  fp.mix_u64(opt_.seed);
  fp.mix_i64(static_cast<int>(opt_.precision));
  fp.mix_double(opt_.promote_factor);
  // Shard records are per-slab, so the snapshot binds to the clamped
  // shard count.
  fp.mix_i64(active_shards());
  return fp.value();
}

void Ls3dfSolver::maybe_write_checkpoint(const Ls3dfResult& result,
                                         const ShardedPotentialMixer& mixer) {
  const CheckpointOptions& ck = opt_.checkpoint;
  if (ck.path.empty()) return;
  const int every = std::max(1, ck.every);
  if (!result.converged && result.iterations % every != 0) return;

  ScopedPhase sp(profile_, "Checkpoint");
  TraceSpan ck_span("Checkpoint", TraceCat::kCheckpoint);
  Timer ck_timer;
  // Under SPMD only rank 0 owns the snapshot file; every rank still
  // drives the record gathers below (they are collectives), and the file
  // rank 0 writes is byte-identical to the one a dense-per-process run
  // with the same shard count writes — snapshots are portable across
  // transports.
  std::unique_ptr<SnapshotWriter> w;
  if (!spmd_ || shards_->comm.local_rank() == 0)
    w = std::make_unique<SnapshotWriter>(ck.path, state_fingerprint(),
                                         ck.fault);

  const std::size_t depth = mixer.v_history().size();
  const std::uint64_t meta[8] = {
      static_cast<std::uint64_t>(result.iterations),
      result.converged ? 1u : 0u,
      use_fp32_iter_ ? 1u : 0u,
      fp64_promoted_ ? 1u : 0u,
      contexts_.size(),
      static_cast<std::uint64_t>(active_shards()),
      static_cast<std::uint64_t>(depth),
      result.conv_history.size()};
  if (w) {
    w->add_u64("meta", meta, 8);
    const Rng::State rng_state = rng_.state();
    w->add_u64("rng", rng_state.data(), rng_state.size());
    w->add_f64("conv_history", result.conv_history.data(),
               result.conv_history.size());
    w->add_f64("charge_patch_error", &result.charge_patch_error, 1);
  }

  // Fragment wavefunctions and occupations: PEtot_F warm-starts from
  // psi, so the continued trajectory needs exactly the bits the
  // interrupted run would have carried into its next iteration. Under
  // SPMD each fragment's records route through one gather_one from the
  // owning rank — at most one fragment's psi of staging is ever live.
  for (std::size_t f = 0; f < contexts_.size(); ++f) {
    const FragmentContext& ctx = *contexts_[f];
    if (spmd_) {
      ShardComm& comm = shards_->comm;
      const int owner = fragment_owner(static_cast<int>(f));
      const std::size_t n_d =
          2 * static_cast<std::size_t>(ctx.n_basis) * ctx.n_bands;
      {
        const ShardComm::GatherView view =
            comm.gather_one(owner, n_d, [&](double* block) {
              std::memcpy(block, ctx.psi.data(), n_d * sizeof(double));
            });
        if (w)
          w->add("psi/" + std::to_string(f), RecordKind::kC128,
                 view.data(), n_d * sizeof(double));
      }
      {
        const ShardComm::GatherView view = comm.gather_one(
            owner, static_cast<std::size_t>(ctx.n_bands),
            [&](double* block) {
              std::memcpy(block, ctx.occ.data(),
                          ctx.occ.size() * sizeof(double));
            });
        if (w)
          w->add_f64("occ/" + std::to_string(f), view.data(),
                     static_cast<std::size_t>(ctx.n_bands));
      }
      continue;
    }
    w->add("psi/" + std::to_string(f), RecordKind::kC128, ctx.psi.data(),
           ctx.psi.size() * sizeof(std::complex<double>));
    w->add_f64("occ/" + std::to_string(f), ctx.occ.data(), ctx.occ.size());
  }

  ShardState& s = *shards_;
  write_sharded_field(w.get(), "v_in", s.v_in, s.comm);
  write_sharded_field(w.get(), "rho", s.rho, s.comm);
  for (std::size_t i = 0; i < depth; ++i) {
    write_sharded_field(w.get(), "mixer/v" + std::to_string(i),
                        mixer.v_history()[i], s.comm);
    write_sharded_field(w.get(), "mixer/r" + std::to_string(i),
                        mixer.r_history()[i], s.comm);
  }
  if (w) {
    w->commit();
    ck_span.set_arg(w->payload_bytes());
    metrics_.add("checkpoint.writes");
    metrics_.add("checkpoint.bytes",
                 static_cast<double>(w->payload_bytes()));
    metrics_.observe("checkpoint.write_s", ck_timer.seconds());
  }
}

void Ls3dfSolver::load_resume(const SnapshotReader& r) {
  if (r.fingerprint() != state_fingerprint())
    throw SnapshotError(
        SnapshotErrorCode::kFingerprint,
        "snapshot " + r.path() +
            " was written by a solver with a different state fingerprint "
            "(structure or numerically relevant options differ)");

  std::uint64_t meta[8];
  r.read_u64("meta", meta, 8);
  auto rs = std::make_unique<ResumeState>();
  rs->iterations = static_cast<int>(meta[0]);
  rs->converged = meta[1] != 0;
  // Belt and braces: the fingerprint already pins the layout.
  if (meta[4] != contexts_.size() ||
      meta[5] != static_cast<std::uint64_t>(active_shards()))
    throw SnapshotError(
        SnapshotErrorCode::kFormat,
        "snapshot " + r.path() + ": fragment/shard layout mismatch");
  const std::size_t depth = static_cast<std::size_t>(meta[6]);
  rs->conv_history.resize(static_cast<std::size_t>(meta[7]));
  if (!rs->conv_history.empty())
    r.read_f64("conv_history", rs->conv_history.data(),
               rs->conv_history.size());
  r.read_f64("charge_patch_error", &rs->charge_patch_error, 1);

  std::uint64_t rng_words[4];
  r.read_u64("rng", rng_words, 4);
  rng_.set_state({rng_words[0], rng_words[1], rng_words[2], rng_words[3]});

  for (std::size_t f = 0; f < contexts_.size(); ++f) {
    FragmentContext& ctx = *contexts_[f];
    const auto& bytes = r.payload("psi/" + std::to_string(f));
    // Validate against pass-1 extents (psi itself is empty for fragments
    // other ranks own under SPMD); restore only owned solve state.
    const std::size_t want = static_cast<std::size_t>(ctx.n_basis) *
                             ctx.n_bands * sizeof(std::complex<double>);
    if (bytes.size() != want)
      throw SnapshotError(
          SnapshotErrorCode::kFormat,
          "snapshot record 'psi/" + std::to_string(f) +
              "' does not match this solver's wavefunction extents");
    if (static_cast<int>(f) < own_begin_ || static_cast<int>(f) >= own_end_)
      continue;
    std::memcpy(ctx.psi.data(), bytes.data(), bytes.size());
    r.read_f64("occ/" + std::to_string(f), ctx.occ.data(), ctx.occ.size());
  }

  ShardState& s = *shards_;
  read_sharded_field(r, "v_in", s.v_in);
  read_sharded_field(r, "rho", s.rho);
  const int n = s.comm.n_ranks();
  for (std::size_t i = 0; i < depth; ++i) {
    ShardedFieldR v(global_grid_, n, s.comm.local_rank()),
        res(global_grid_, n, s.comm.local_rank());
    read_sharded_field(r, "mixer/v" + std::to_string(i), v);
    read_sharded_field(r, "mixer/r" + std::to_string(i), res);
    rs->mix_v.push_back(std::move(v));
    rs->mix_r.push_back(std::move(res));
  }

  // The precision-policy latches travel with the trajectory: the policy
  // is a pure function of (conv_history, fp64_promoted_, options), so
  // restoring them re-derives identical per-iteration decisions.
  use_fp32_iter_ = meta[2] != 0;
  fp64_promoted_ = meta[3] != 0;
  resume_ = std::move(rs);
}

Ls3dfResult Ls3dfSolver::resume(const std::string& snapshot_path) {
  ObsContextScope obs_scope(obs_ctx());
  std::unique_ptr<SnapshotReader> reader =
      open_snapshot_with_fallback(snapshot_path);
  load_resume(*reader);
  reader.reset();

  if (resume_->converged) {
    // The interrupted run had already converged; rebuild its result
    // without iterating further.
    Ls3dfResult result;
    result.iterations = resume_->iterations;
    result.converged = true;
    result.conv_history = std::move(resume_->conv_history);
    result.charge_patch_error = resume_->charge_patch_error;
    gather_result_fields(result);
    resume_.reset();
    if (opt_.compute_energy) compute_patched_energy(result);
    finalize_observability(result);
    result.profile = profile_;
    return result;
  }

  return solve_overlap();
}

Ls3dfResult Ls3dfSolver::solve() {
  ObsContextScope obs_scope(obs_ctx());
  fp64_promoted_ = false;  // re-arm the kMixed promotion latch
  resume_.reset();         // a plain solve never consumes stale resume state
  return solve_overlap();
}

// The observability context this solver installs around every entry
// point: its own trace recorder (user-supplied), metrics registry and
// FFT plan cache, plus the rank every span/metric should attribute to.
// Per-instance routing is what makes concurrent solvers in one process
// (the SolverService direction) observable without cross-talk.
ObsContext Ls3dfSolver::obs_ctx() const {
  ObsContext ctx;
  ctx.trace = opt_.trace;
  ctx.metrics = &metrics_;
  ctx.plans = &plan_cache_;
  ctx.rank = shards_ ? std::max(shards_->comm.local_rank(), 0) : 0;
  return ctx;
}

// Per-outer-iteration bookkeeping of the solve loop: metric
// series, iteration counters, and the user progress callback. The band
// energy is the RANK-LOCAL signed partial sum over owned fragments
// (sum_f sign_F * sum_b occ_b * eps_b) — deliberately communication-
// free, so per-rank observability can never desynchronize the SPMD
// collective sequence (see Ls3dfProgress in ls3df.h).
void Ls3dfSolver::record_iteration(const Ls3dfResult& result, double l1,
                                   double wall_s, bool fp32,
                                   const std::map<std::string, double>& prof0) {
  double band_e = 0;
  for (int f = own_begin_; f < own_end_; ++f) {
    const FragmentContext& ctx = *contexts_[f];
    const std::size_t nb =
        std::min(ctx.occ.size(), ctx.eigenvalues.size());
    double acc = 0;
    for (std::size_t b = 0; b < nb; ++b)
      acc += ctx.occ[b] * ctx.eigenvalues[b];
    band_e += static_cast<double>(ctx.frag.sign) * acc;
  }
  metrics_.push("iter.residual", l1);
  metrics_.push("iter.band_energy", band_e);
  metrics_.push("iter.wall_s", wall_s);
  metrics_.add("solver.iterations");
  if (fp32) metrics_.add("solver.fp32_iterations");
  if (!opt_.progress) return;

  const std::map<std::string, double>& now = profile_.totals();
  const auto delta = [&](const char* key) {
    const auto a = now.find(key);
    if (a == now.end()) return 0.0;
    const auto b = prof0.find(key);
    return a->second - (b == prof0.end() ? 0.0 : b->second);
  };
  Ls3dfProgress prog;
  prog.iteration = result.iterations;
  prog.residual = l1;
  prog.band_energy = band_e;
  prog.fp32 = fp32;
  prog.wall_s = wall_s;
  prog.gen_vf_s = delta("Gen_VF");
  prog.petot_s = delta("PEtot_F");
  prog.gen_dens_s = delta("Gen_dens");
  prog.genpot_s = delta("GENPOT");
  prog.mix_s = delta("Mix");
  prog.checkpoint_s = delta("Checkpoint");
  // The callback is user code running at the end-of-iteration sequence
  // point — after the iteration's TaskGraph / engine work has fully
  // drained. Latch anything it throws as a solver-attributed error so
  // callers see one clean failure (and the pool, transport, and solver
  // instance stay reusable) instead of an arbitrary user exception
  // escaping the solve loop.
  try {
    opt_.progress(prog);
  } catch (const std::exception& e) {
    throw std::runtime_error(
        std::string("Ls3dfSolver: progress callback threw: ") + e.what());
  } catch (...) {
    throw std::runtime_error("Ls3dfSolver: progress callback threw");
  }
}

// End-of-solve gauges + the result's metrics snapshot. Called by the
// solve loop (and the resume short-circuit) just before the result
// returns.
void Ls3dfSolver::finalize_observability(Ls3dfResult& result) {
  metrics_.set("solver.donated_lane_events",
               static_cast<double>(donated_lane_events()));
  metrics_.set("solver.overlap_fraction", result.overlap_fraction);
  metrics_.set("solver.fp64_promoted", fp64_promoted_ ? 1.0 : 0.0);
  metrics_.set("fft.thread_plan_count",
               static_cast<double>(plan_cache_.thread_plan_count()));
  Transport& t = shards_->comm.transport();
  metrics_.set("transport.respawn_events",
               static_cast<double>(t.respawn_events()));
  metrics_.set("transport.allocations", static_cast<double>(t.allocations()));
  result.metrics = metrics_.snapshot();
}

// Dense result boundary: V_in (the converged, or last mixed, potential)
// and the latest patched density, gathered once after the loop.
void Ls3dfSolver::gather_result_fields(Ls3dfResult& result) const {
  ShardState& s = *shards_;
  result.v_eff = spmd_ ? gather_dense(s.v_in, s.comm) : s.v_in.to_dense();
  if (result.iterations > 0)
    result.rho = spmd_ ? gather_dense(s.rho, s.comm) : s.rho.to_dense();
}

// The solve loop (see the architecture block in ls3df.h): each outer
// iteration is one TaskGraph of per-batch restrict -> solve ->
// ordered-patch-commit chains, followed by the normalization, GENPOT and
// mixing nodes, with every global field on shard slabs. Determinism: per
// destination slab, patch commits form a dependency chain in ascending
// fragment order, so every grid point accumulates its signed
// contributions in exactly fragment order regardless of solve completion
// order — which is what makes the result bit-identical for any batch
// width, worker count, shard count and transport. The
// charge-normalization scalar is the one surviving global sequence
// point: it needs every slab's plane partials, so the GENPOT transpose
// pipeline starts only after the last patch commits (the per-rank
// partial-sum nodes, armed per slab, are what overlaps the solve tail
// across the GENPOT seam).
Ls3dfResult Ls3dfSolver::solve_overlap() {
  ShardState& sh = *shards_;
  const Lattice& lat = structure_.lattice();
  const double point_vol =
      lat.volume() / static_cast<double>(vion_.size());
  const double n_electrons = structure_.num_electrons();
  const int p = opt_.points_per_cell;
  const int n_frag = static_cast<int>(contexts_.size());
  const int n_batches = static_cast<int>(batches_.size());

  Ls3dfResult result;
  result.chain_times.assign(n_batches, {});

  // Initial state: the slab-local guess (G-space pencils through the
  // distributed inverse FFT, pseudo/pseudopotential.h) and its GENPOT, or
  // a snapshot — V_in and rho were restored straight into the slabs by
  // load_resume; the DIIS stack and scalars travel in resume_.
  ShardedPotentialMixer mixer(opt_.mixer, opt_.mix_alpha, lat, sh.fft);
  int iter0 = 0;
  if (resume_) {
    iter0 = resume_->iterations;
    result.iterations = iter0;
    result.conv_history = std::move(resume_->conv_history);
    result.charge_patch_error = resume_->charge_patch_error;
    mixer.restore_history(std::move(resume_->mix_v),
                          std::move(resume_->mix_r));
    resume_.reset();
  } else {
    build_initial_density_sharded(structure_, sh.fft, sh.comm, sh.rho);
    genpot_sharded(sh.rho, sh.v_in);
  }

  prepare_batch_workspaces();
  executed_group_of_.assign(n_frag, -1);
  const std::vector<double> analytic = analytic_costs();

  std::vector<int> batch_of(n_frag, -1);
  for (int b = 0; b < n_batches; ++b)
    for (int f : batches_[b].members) batch_of[f] = b;

  // Per-plane charge partials: rank r's sum node fills planes
  // [x0(r), x1(r)) the moment its slab is fully patched; the normalize
  // node combines them in plane order — the plane_sum arithmetic, split
  // at the slab boundary so the partials overlap the solve tail.
  std::vector<double> plane_partials(global_grid_.x, 0.0);

  enum Phase { kGenVf = 0, kPetot, kGenDens, kGenpot, kMix, kNumPhases };
  static const char* const kPhaseName[kNumPhases] = {
      "Gen_VF", "PEtot_F", "Gen_dens", "GENPOT", "Mix"};
  double overlap_sum = 0;
  double l1 = 0;
  bool converged = false;

  // The chain DAG is iteration-invariant (geometry and batch composition
  // are fixed at construction), so it is built once and re-run every
  // outer iteration: node bodies read the per-iteration state through
  // the references they capture, and TaskGraph::run resets only the
  // scheduling state.
  TaskGraph g;
  std::vector<Phase> node_phase;
  std::vector<int> node_chain;  // chain (batch) id; -1 for global nodes
  const auto tag = [&](int id, Phase ph, int chain) {
    assert(id == static_cast<int>(node_phase.size()));
    (void)id;
    node_phase.push_back(ph);
    node_chain.push_back(chain);
    return id;
  };

  // SPMD: one halo node heads every chain — it runs the Gen_VF plane
  // alltoallv and sizes (and caches) the window send lanes for this
  // iteration, so the per-batch nodes below never touch the transport's
  // lane table concurrently. Every collective in the graph sits on the
  // single spine halo -> exch -> apply -> norm -> hartree -> mix, so all
  // ranks execute the identical collective sequence.
  int halo_node = -1;
  if (spmd_) {
    halo_node = tag(g.add([this, &sh]() {
                      spmd_fill_halo(sh.v_in);
                      spmd_size_window_lanes();
                    }),
                    kGenVf, -1);
  }

  // restrict -> solve chain heads. Fragment boxes straddle slab
  // boundaries, so the restriction gathers rows from every slab it
  // overlaps (reads only); under SPMD from the own slab + halo.
  std::vector<int> solve_node(n_batches, -1);
  for (int b = 0; b < n_batches; ++b) {
    std::vector<int> rdeps;
    if (halo_node >= 0) rdeps.push_back(halo_node);
    const int rb = tag(g.add(
                           [this, b, &sh]() {
                             for (int f : batches_[b].members) {
                               FragmentContext& ctx = *contexts_[f];
                               if (spmd_)
                                 spmd_extract(sh.v_in, ctx.global_offset,
                                              ctx.vf);
                               else
                                 sh.v_in.extract_into(ctx.global_offset,
                                                      ctx.vf);
                               ctx.vf += ctx.wall;
                               ctx.h->set_local_potential(ctx.vf);
                             }
                           },
                           rdeps),
                       kGenVf, b);
    solve_node[b] =
        tag(g.add([this, b, &analytic]() {
              solve_batch(b, b, analytic);
              // Chain b's solve retired: donate its inner lanes to the
              // still-running chains (holders are batches here, not LPT
              // groups — the patch tail is cheap and lane-free).
              lane_budget_.retire(b);
            },
                  {rb}),
            kPetot, b);
  }

  int norm = -1;
  if (spmd_) {
    // Rank-local Gen_dens: per batch, one pack node writes its members'
    // raw windows at geometry-fixed lane offsets as the solves retire
    // (concurrently safe — disjoint ranges of lanes sized by the halo
    // node); one exchange ships them; the apply node folds this rank's
    // slab in ascending global fragment order. Commit order is enforced
    // by the fold, not by node chaining, so the graph shape stays
    // batch-parallel.
    std::vector<int> packs;
    for (int b = 0; b < n_batches; ++b)
      packs.push_back(tag(g.add(
                              [this, b]() {
                                for (int f : batches_[b].members)
                                  spmd_pack_fragment(f);
                              },
                              {solve_node[b]}),
                          kGenDens, b));
    std::vector<int> edeps = packs;
    edeps.push_back(halo_node);  // lanes sized there (zero-owned ranks)
    const int exch =
        tag(g.add([&sh]() { sh.comm.transport().alltoallv(); }, edeps),
            kGenDens, -1);
    const int apply =
        tag(g.add([this]() { spmd_apply_windows(); }, {exch}), kGenDens,
            -1);
    norm = tag(g.add(
                   [&sh, point_vol, n_electrons, &result]() {
                     const double total =
                         plane_sum(sh.rho, sh.comm) * point_vol;
                     result.charge_patch_error =
                         std::abs(total - n_electrons);
                     if (total > 0) {
                       const double scale = n_electrons / total;
                       sh.comm.each_rank(
                           [&](int r) { sh.rho.slab(r) *= scale; });
                     }
                   },
                   {apply}),
               kGenDens, -1);
  } else {
    // Ordered patch commits: per shard slab, one node per touching
    // fragment, chained in ascending fragment order (the determinism
    // rule); the first commit zeroes the slab. The solve edge is per
    // fragment, so a slab whose owed batches finished early commits
    // while other chains still solve. A per-rank plane-partials node
    // follows each slab's last commit.
    std::vector<int> norm_deps;
    for (int r = 0; r < sh.comm.n_ranks(); ++r) {
      const int x0 = sh.rho.x0(r), x1 = sh.rho.x1(r);
      int prev = -1;
      for (int f = 0; f < n_frag; ++f) {
        if (!fragment_touches_planes(f, x0, x1)) continue;
        std::vector<int> deps{solve_node[batch_of[f]]};
        if (prev >= 0) deps.push_back(prev);
        const bool zero_first = prev < 0;
        prev = tag(g.add(
                       [this, &sh, r, f, p, zero_first]() {
                         FragmentContext& ctx = *contexts_[f];
                         const Vec3i corner{ctx.frag.corner.x * p,
                                            ctx.frag.corner.y * p,
                                            ctx.frag.corner.z * p};
                         const Vec3i region{ctx.frag.size.x * p,
                                            ctx.frag.size.y * p,
                                            ctx.frag.size.z * p};
                         if (zero_first) sh.rho.slab(r).fill(0.0);
                         sh.rho.accumulate_window_shard(
                             r, corner, ctx.rho, ctx.buffer, region,
                             static_cast<double>(ctx.frag.sign));
                       },
                       deps),
                   kGenDens, batch_of[f]);
      }
      if (prev < 0) {
        // No fragment window touches this slab (cannot happen for a
        // covering decomposition, but keep the zero): clear it anyway.
        prev = tag(g.add([&sh, r]() { sh.rho.slab(r).fill(0.0); }),
                   kGenDens, -1);
      }
      norm_deps.push_back(
          tag(g.add([this, &sh, r, x0, x1, &plane_partials]() {
                const FieldR& slab = sh.rho.slab(r);
                const std::size_t plane =
                    static_cast<std::size_t>(global_grid_.y) *
                    global_grid_.z;
                for (int lx = 0; lx < x1 - x0; ++lx) {
                  const double* base =
                      slab.data() + static_cast<std::size_t>(lx) * plane;
                  double acc = 0;
                  for (std::size_t i = 0; i < plane; ++i) acc += base[i];
                  plane_partials[x0 + lx] = acc;
                }
              },
                    {prev}),
              kGenDens, -1));
    }

    // Normalize: the global sequence point (needs every slab's planes).
    norm = tag(g.add(
                   [this, &sh, point_vol, n_electrons, &plane_partials,
                    &result]() {
                     double acc = 0;
                     for (int ix = 0; ix < global_grid_.x; ++ix)
                       acc += plane_partials[ix];
                     const double total = acc * point_vol;
                     result.charge_patch_error =
                         std::abs(total - n_electrons);
                     if (total > 0) {
                       const double scale = n_electrons / total;
                       sh.comm.each_rank(
                           [&](int r) { sh.rho.slab(r) *= scale; });
                     }
                   },
                   norm_deps),
               kGenDens, -1);
  }

  // GENPOT over ShardComm's phased collectives: forward transform +
  // Coulomb kernel + inverse, then the slab-local xc assembly.
  const int hart = tag(g.add(
                           [&sh, &lat]() {
                             // Drop transpose time accumulated by the
                             // mixer since the last genpot so the sample
                             // below is exactly this call's all-to-all
                             // cost.
                             sh.fft.take_transpose_seconds();
                             sharded_hartree(sh.fft, sh.rho, lat, sh.vh);
                           },
                           {norm}),
                       kGenpot, -1);
  const int genpot_done = tag(g.add(
                                  [this, &sh]() {
                                    sharded_assemble_potential(
                                        sh.vion, sh.rho, sh.vh, sh.vxc,
                                        sh.v_out, sh.comm);
                                    profile_.add(
                                        "GENPOT.transpose",
                                        sh.fft.take_transpose_seconds());
                                  },
                                  {hart}),
                              kGenpot, -1);

  // Convergence metric + mixer update: the graph's final node.
  tag(g.add(
          [this, &sh, point_vol, &l1, &converged, &mixer, &result]() {
            l1 = plane_l1(sh.v_out, sh.v_in, sh.comm) * point_vol;
            result.conv_history.push_back(l1);
            // Never latch convergence from an fp32 iteration: the
            // residual must be confirmed by the fp64 solver (the policy
            // switches to fp64 next iteration once l1 is this small).
            if (l1 < opt_.l1_tol && !use_fp32_iter_)
              converged = true;
            else
              sh.v_in = mixer.mix(sh.v_in, sh.v_out);
          },
          {genpot_done}),
      kMix, -1);

  // Per-node completion timestamps for attribution, reset before each
  // run (the vector is preallocated once; iterations allocate nothing
  // graph-side).
  std::vector<std::pair<double, double>> times(
      g.size(), std::make_pair(0.0, -1.0));
  // graph_epoch_us anchors the graph-relative node timestamps the
  // observer receives onto the recorder's clock; set just before each
  // g.run(). Node spans carry the chain id (+1; 0 = chainless) in arg.
  std::uint64_t graph_epoch_us = 0;
  g.set_task_observer([&](int id, double t0, double t1) {
    times[id] = std::make_pair(t0, t1);
    if (TraceRecorder* rec = obs_context().trace)
      rec->emit(kPhaseName[node_phase[id]], TraceCat::kNode,
                graph_epoch_us + static_cast<std::uint64_t>(t0 * 1e6),
                graph_epoch_us + static_cast<std::uint64_t>(t1 * 1e6),
                static_cast<std::uint64_t>(node_chain[id] + 1));
  });

  for (int iter = iter0; iter < opt_.max_iterations && !converged; ++iter) {
    result.iterations = iter + 1;
    update_precision_policy(result.conv_history);
    // Arm the lane budget for this round from the LIVE width: every
    // solve chain is a holder, opening at allowance == live / n_batches,
    // widening as chains retire — and, across jobs, as other service
    // jobs finish and this one's allowance grows.
    const int live = refresh_live_lanes();
    lane_budget_.reset(live, std::max(1, n_batches));
    Timer iter_timer;
    const std::map<std::string, double> prof0 = profile_.totals();
    std::fill(times.begin(), times.end(), std::make_pair(0.0, -1.0));
    if (opt_.trace) graph_epoch_us = opt_.trace->now_us();
    g.run(shared_pool(), live);

    if (converged) result.converged = true;
    // The end-of-iteration sequence point: the mix node has already
    // updated V_in (or convergence latched with it unmixed).
    maybe_write_checkpoint(result, mixer);
    if (opt_.trace)
      opt_.trace->emit("iter", TraceCat::kSolver, graph_epoch_us,
                       opt_.trace->now_us(),
                       static_cast<std::uint64_t>(iter + 1));

    // Attribution: per-phase busy sums (one profile sample per phase per
    // iteration), per-chain times, and the measured window overlap.
    double busy[kNumPhases] = {};
    double lo[kNumPhases], hi[kNumPhases];
    bool seen[kNumPhases] = {};
    for (int id = 0; id < g.size(); ++id) {
      if (times[id].second < 0) continue;  // not executed (cannot happen)
      const Phase ph = node_phase[id];
      const double t0 = times[id].first, t1 = times[id].second;
      busy[ph] += t1 - t0;
      if (!seen[ph]) {
        lo[ph] = t0;
        hi[ph] = t1;
        seen[ph] = true;
      } else {
        lo[ph] = std::min(lo[ph], t0);
        hi[ph] = std::max(hi[ph], t1);
      }
      const int chain = node_chain[id];
      if (chain >= 0) {
        Ls3dfResult::ChainTimes& ct = result.chain_times[chain];
        if (ph == kGenVf) ct.restrict_s += t1 - t0;
        if (ph == kPetot) ct.solve_s += t1 - t0;
        if (ph == kGenDens) ct.patch_s += t1 - t0;
      }
    }
    for (int ph = 0; ph < kNumPhases; ++ph)
      profile_.add(kPhaseName[ph], busy[ph]);
    profile_.add("PEtot_F.workers", busy[kPetot]);
    const double wall = iter_timer.seconds();
    profile_.add("Iter.wall", wall);
    record_iteration(result, l1, wall, use_fp32_iter_, prof0);

    // Overlap fraction: how much of the phase windows' combined length
    // exceeds their union, relative to the iteration wall. Back-to-back
    // phases would score 0; interleaved chains score > 0 even on one
    // core.
    std::vector<std::pair<double, double>> windows;
    double span_sum = 0;
    for (int ph = 0; ph < kNumPhases; ++ph)
      if (seen[ph]) {
        windows.emplace_back(lo[ph], hi[ph]);
        span_sum += hi[ph] - lo[ph];
      }
    std::sort(windows.begin(), windows.end());
    double union_len = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& w : windows) {
      if (cur_hi < cur_lo || w.first > cur_hi) {
        if (cur_hi >= cur_lo) union_len += cur_hi - cur_lo;
        cur_lo = w.first;
        cur_hi = w.second;
      } else {
        cur_hi = std::max(cur_hi, w.second);
      }
    }
    if (cur_hi >= cur_lo) union_len += cur_hi - cur_lo;
    if (wall > 0) overlap_sum += std::max(0.0, span_sum - union_len) / wall;
  }

  if (result.iterations > 0)
    result.overlap_fraction = overlap_sum / result.iterations;
  gather_result_fields(result);

  if (opt_.compute_energy) compute_patched_energy(result);
  finalize_observability(result);
  result.profile = profile_;
  return result;
}

void Ls3dfSolver::compute_patched_energy(Ls3dfResult& result) const {
  const Lattice& lat = structure_.lattice();
  const double point_vol =
      lat.volume() / static_cast<double>(vion_.size());
  EnergyBreakdown e;
  e.kinetic = patched_kinetic_energy();
  e.nonlocal = patched_nonlocal_energy();
  double eloc = 0;
  for (std::size_t i = 0; i < result.rho.size(); ++i)
    eloc += vion_[i] * result.rho[i];
  e.local = eloc * point_vol;
  e.hartree = solve_poisson(result.rho, lat).energy;
  e.xc = lda_xc_field(result.rho, point_vol).energy;
  e.ewald = ewald_energy(structure_);
  e.total = e.kinetic + e.nonlocal + e.local + e.hartree + e.xc + e.ewald;
  result.energy = e;
}

}  // namespace ls3df
