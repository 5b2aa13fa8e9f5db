// Golden references, in two tiers, for seven full solves: the 3- and
// 4-cell H2 chains of the equivalence suites and a three-iteration
// Fig. 6 ZnTeO alloy (LS3DF, Precision::kDouble), the 3-cell chain and
// the alloy again under Precision::kMixed, and the direct-DFT side that
// the LS3DF solves never run: a whole-cell SCF (dft/scf) to convergence
// and a folded-spectrum solve (dft/fsm) on a fixed potential, both on H2
// in a box. Cross-path equivalence cannot catch a defect every path
// shares; these absolute values can.
//
// Physics tier: tolerances on what the physics depends on. Per LS3DF
// case the iteration count, each conv_history entry, the charge-patch
// error, the patched total energy and the moments int rho, int rho^2
// and the dipole of rho; per direct case the iteration count, the
// energy or eigenvalues, the folded values (FSM) and the same moments.
// kDouble cases hold the energy and eigenvalues to 1e-8 Ha, conv_history
// and the charge-patch error to 1e-6 relative and the moments to 1e-8
// relative. The kMixed bounds come from the fp32 path's own distance to
// fp64: twice the gap between each kMixed case and its kDouble twin at
// the commit that recorded them (an equally accurate fp32 run may sit on
// the other side of the fp64 answer). A converge-to-tolerance case also
// keeps its iteration count. These values are recorded once, from the
// code before a deliberate numerics change, and that change must pass
// them unmodified; nothing re-records them.
//
// Bit tier: the exact bits of the same runs. Per case the iteration
// count and every recorded double as a hexfloat, plus FNV-1a hashes over
// the raw bytes of the result's rho and v_eff (LS3DF, direct SCF) or
// wavefunction block (FSM). Every execution shape must land on them:
// test_equivalence, test_service and tests/mpi_equivalence.cpp compare
// against these bits too. They hold for IEEE-754 binary64 arithmetic
// without FMA contraction (the build's -std=c++17 default) and a glibc
// libm on x86-64; a toolchain that rounds exp/log/pow differently must
// re-record them. A change that moves bits on purpose re-records them,
// in a commit of its own and only once the physics tier passes, with
//
//   ./build/tools/record_golden tests/golden_refs.h
//
// which reruns every case in its reference configuration (one worker,
// default execution shape), prints each changed value old -> new and
// rewrites the block between the "recorded bits" markers below.
//
// Header-only and gtest-free, so the MPI harness (own main) and
// tools/record_golden share it.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "atoms/builders.h"
#include "dft/fsm.h"
#include "dft/scf.h"
#include "fragment/ls3df.h"
#include "pseudo/pseudopotential.h"

namespace ls3df {
namespace golden {

// --- the recorded problems ---------------------------------------------

// ncells H2 molecules along x, one per a-Bohr cubic cell.
inline Structure h2_chain(int ncells, double a = 6.0) {
  Structure s(Lattice({a * ncells, a, a}));
  for (int c = 0; c < ncells; ++c) {
    s.add_atom(Species::kH, {a * c + 0.5 * a - 0.7, 0.5 * a, 0.5 * a});
    s.add_atom(Species::kH, {a * c + 0.5 * a + 0.7, 0.5 * a, 0.5 * a});
  }
  return s;
}

// Cheap-but-real settings of the equivalence suites on an ncells chain:
// division {ncells, 1, 1}, two fixed outer iterations (l1_tol = 0 so the
// full trajectory is compared). Execution knobs are left at defaults.
inline Ls3dfOptions h2_options(int ncells) {
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

// The Fig. 6 alloy of bench_fig6_scf_convergence (seed 42, division
// 3x1x1, the bench's solver options), cut to three fixed iterations.
inline Structure fig6_alloy() { return build_model_znteo({3, 1, 1}, 1, 42); }

inline Ls3dfOptions fig6_options() {
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
  lo.max_iterations = 3;
  lo.l1_tol = 0.0;
  return lo;
}

// Precision::kMixed on the 3-cell chain, run to convergence: 5 fp32
// iterations, then the promotion latch, then 4 fp64 iterations.
inline Ls3dfOptions h2_mixed_options() {
  Ls3dfOptions lo = h2_options(3);
  lo.max_iterations = 30;
  lo.l1_tol = 1e-3;
  lo.eig.max_iterations = 8;
  lo.batch_width = 2;
  lo.precision = Precision::kMixed;
  return lo;
}

// Precision::kMixed on the alloy: all three iterations stay in fp32, so
// the fp32 nonlocal projector path runs on every apply.
inline Ls3dfOptions fig6_mixed_options() {
  Ls3dfOptions lo = fig6_options();
  lo.precision = Precision::kMixed;
  return lo;
}

// H2 in an 8-Bohr box (test_scf's gapped workhorse) for the direct-DFT
// cases.
inline Structure h2_cell() {
  Structure s(Lattice::cubic(8.0));
  s.add_atom(Species::kH, {3.3, 4.0, 4.0});
  s.add_atom(Species::kH, {4.7, 4.0, 4.0});
  return s;
}

// Direct SCF on h2_cell with test_scf's cheap options, run to l1_tol.
inline ScfOptions direct_scf_options() {
  ScfOptions opt;
  opt.ecut = 1.2;
  opt.max_iterations = 60;
  opt.l1_tol = 1e-4;
  opt.eig.max_iterations = 10;
  opt.eig.residual_tol = 1e-7;
  return opt;
}

// The fixed potential of the FSM case: h2_cell's starting effective
// potential (bare ions plus the Hartree and xc terms of the superposed
// atomic density) on direct_scf_options()' grid.
inline FieldR fsm_potential(const Hamiltonian& h) {
  const Structure& s = h.structure();
  return effective_potential(
      h.local_potential(),
      build_initial_density(s, h.basis().grid_shape()), s.lattice());
}

// The band-edge pair of that potential: two states folded around 0 Ha,
// between its lowest level (-0.070 Ha) and the next (0.173 Ha).
// Converges in 52 of the 60 allowed iterations.
inline FsmOptions fsm_options() {
  FsmOptions fopt;
  fopt.eps_ref = 0.0;
  fopt.n_states = 2;
  fopt.max_iterations = 60;
  return fopt;
}

// --- the reference runs ---------------------------------------------------

// Each case in its reference configuration: one worker and the default
// execution shape. test_golden checks both tiers against these runs, and
// tools/record_golden re-records the bit tier from them.
inline Ls3dfResult run_ls3df(const Structure& s, Ls3dfOptions lo) {
  lo.n_workers = 1;
  return Ls3dfSolver(s, lo).solve();
}

inline ScfResult run_direct_scf() {
  return run_scf(h2_cell(), direct_scf_options());
}

inline FsmResult run_fsm() {
  const Structure s = h2_cell();
  const double ecut = direct_scf_options().ecut;
  Hamiltonian h(s, GVectors(s.lattice(), default_fft_grid(s.lattice(), ecut),
                            ecut));
  h.set_local_potential(fsm_potential(h));
  return folded_spectrum(h, fsm_options());
}

// Scalar moments of a density on the orthorhombic cell `lat`: the charge
// int rho, the square int rho^2 and the dipole int rho r, with r measured
// from the cell origin (grid point i at i L / N along each axis).
struct RhoMoments {
  double charge;
  double square;
  double dipole[3];
};

inline RhoMoments rho_moments(const FieldR& rho, const Lattice& lat) {
  const Vec3i n = rho.shape();
  const Vec3d len = lat.lengths();
  const double h[3] = {len.x / n.x, len.y / n.y, len.z / n.z};
  RhoMoments m{0, 0, {0, 0, 0}};
  for (int ix = 0; ix < n.x; ++ix)
    for (int iy = 0; iy < n.y; ++iy)
      for (int iz = 0; iz < n.z; ++iz) {
        const double r = rho(ix, iy, iz);
        m.charge += r;
        m.square += r * r;
        m.dipole[0] += r * (ix * h[0]);
        m.dipole[1] += r * (iy * h[1]);
        m.dipole[2] += r * (iz * h[2]);
      }
  const double dv = lat.volume() / (static_cast<double>(n.x) * n.y * n.z);
  m.charge *= dv;
  m.square *= dv;
  for (double& d : m.dipole) d *= dv;
  return m;
}

// --- physics tier ---------------------------------------------------------

// Bounds of one case: absolute (Ha) for energies and eigenvalues,
// relative to the recorded value for the rest. A dipole component is
// held relative to the recorded dipole's length.
struct Tolerance {
  double energy;
  double conv_history;
  double charge_patch_error;
  double rho;
};

inline constexpr Tolerance kDoubleTolerance{1e-8, 1e-6, 1e-6, 1e-8};

struct PhysicsReference {
  const char* name;
  int iterations;
  std::vector<double> conv_history;
  double charge_patch_error;
  double energy_total;
  RhoMoments rho;
  Tolerance tol;
};

struct DirectPhysicsReference {
  const char* name;
  int iterations;
  std::vector<double> conv_history;
  double energy_total;
  std::vector<double> eigenvalues;
  RhoMoments rho;
};

struct FsmPhysicsReference {
  const char* name;
  int iterations;
  std::vector<double> eigenvalues;
  std::vector<double> folded_values;
};

inline const PhysicsReference& h2_chain3_physics() {
  static const PhysicsReference r{
      "h2_chain3",
      2,
      {106.11634281403222, 35.334395498344442},
      0.023902808452088031,
      -2.2204497583773621,
      {6.0000000000000036, 0.098535680685298707,
       {53.316399443390083, 17.109337627476176, 16.999889056435677}},
      kDoubleTolerance};
  return r;
}

inline const PhysicsReference& h2_chain4_physics() {
  static const PhysicsReference r{
      "h2_chain4",
      2,
      {141.53339404249849, 46.44186484122266},
      0.033670361927329751,
      -2.9631686667436936,
      {7.9999999999999982, 0.13179715576336409,
       {95.043736809214806, 22.810317884497398, 22.648344814764421}},
      kDoubleTolerance};
  return r;
}

inline const PhysicsReference& h2_physics(int ncells) {
  return ncells == 4 ? h2_chain4_physics() : h2_chain3_physics();
}

inline const PhysicsReference& fig6_physics() {
  static const PhysicsReference r{
      "fig6_alloy",
      3,
      {2187.5037893046933, 6466.6046080040569, 2965.7945323687181},
      0.31013795076879092,
      -13.194166592745196,
      {23.999999999999982, 1.1191607484428492,
       {176.0382531474387, 98.481808743245992, 98.440580527455751}},
      kDoubleTolerance};
  return r;
}

// Converges to l1_tol in 9 iterations. Its kDouble twin (the same
// options at Precision::kDouble) also takes 9 and lands 6.1e-8 Ha away;
// conv_history's largest relative gap is 3.2 (the last entry, 5.5e-4
// against 1.3e-4), the charge-patch error's 7.8e-6 and the moments'
// 1.8e-7 (int rho^2).
inline const PhysicsReference& h2_chain3_mixed_physics() {
  static const PhysicsReference r{
      "h2_chain3_mixed",
      9,
      {105.50106626648535, 34.709544684975633, 3.9699014950488998,
       1.5874498320861707, 0.22716292342123906, 0.035094041223062165,
       0.012883016545149169, 0.0042705361062768191,
       0.00054892734222243209},
      0.023601139272138028,
      -2.2406867547249174,
      {6.0000000000000018, 0.11355162968893992,
       {53.377459247239933, 17.196843063083026, 17.196839513416787}},
      {1.3e-7, 6.5, 1.6e-5, 3.6e-7}};
  return r;
}

// Its kDouble twin is fig6_alloy: 1.4e-3 Ha away; relative gaps 7.3e-5
// (conv_history), 1.0e-2 (charge-patch error) and 6.5e-5 (int rho^2).
inline const PhysicsReference& fig6_mixed_physics() {
  static const PhysicsReference r{
      "fig6_mixed",
      3,
      {2187.443299083594, 6466.3611093764057, 2966.0122780359934},
      0.3133104460664704,
      -13.192758719724209,
      {24.000000000000021, 1.119234004805423,
       {176.0315014038195, 98.483166144245487, 98.44216408908963}},
      {2.9e-3, 1.5e-4, 2.1e-2, 1.4e-4}};
  return r;
}

// Converges to l1_tol in 8 iterations; held to kDoubleTolerance, the
// eigenvalues like the energy.
inline const DirectPhysicsReference& h2_direct_scf_physics() {
  static const DirectPhysicsReference r{
      "h2_direct_scf",
      8,
      {70.328401271243337, 14.505098498265991, 3.1646313911524553,
       0.81203622292271693, 0.026003407158128381, 0.010254857198586806,
       0.00013605410224826463, 3.4224719947069105e-06},
      -0.72147068816367443,
      {-0.31487068202836765, 0.034507368469857337, 0.11230666398700564,
       0.1478960220716723, 0.14789602207167296},
      {2.0000000000000031, 0.041799213428039293,
       {7.9324467394204197, 7.956882584882913, 7.9568825848821501}}};
  return r;
}

// Converges in 52 iterations; eigenvalues and folded values held to
// kDoubleTolerance.energy.
inline const FsmPhysicsReference& h2_fsm_physics() {
  static const FsmPhysicsReference r{
      "h2_fsm",
      52,
      {-0.070056069881901301, 0.17273104386207083},
      {0.0049078529272978382, 0.029836013513680638}};
  return r;
}

// --- bit tier -------------------------------------------------------------

struct Reference {
  const char* name;
  int iterations;
  std::vector<double> conv_history;
  double charge_patch_error;
  double energy_total;
  std::uint64_t rho_fnv1a;
  std::uint64_t v_eff_fnv1a;
};

struct DirectReference {
  const char* name;
  int iterations;
  std::vector<double> conv_history;
  double energy_total;
  std::vector<double> eigenvalues;
  std::uint64_t rho_fnv1a;
  std::uint64_t v_eff_fnv1a;
};

struct FsmReference {
  const char* name;
  int iterations;
  std::vector<double> eigenvalues;
  std::vector<double> folded_values;
  std::uint64_t psi_fnv1a;
};

// 64-bit FNV-1a over raw bytes.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  std::uint64_t h = 1469598103934665603ull;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
// Over a field's raw bytes (z-fastest double storage).
inline std::uint64_t fnv1a(const FieldR& f) {
  return fnv1a(f.data(), f.size() * sizeof(double));
}
// Over a wavefunction block's raw bytes (column-major complex doubles).
inline std::uint64_t fnv1a(const MatC& m) {
  return fnv1a(m.data(), m.size() * sizeof(std::complex<double>));
}

// --- recorded bits: begin (tools/record_golden rewrites this block) ---

inline const Reference& h2_chain3_reference() {
  static const Reference r{
      "h2_chain3",
      2,
      {0x1.a877229215944p+6, 0x1.1aacd78c0a93bp+5},
      0x1.879fa5255f8p-6,
      -0x1.1c37b29b5228cp+1,
      0xbbcf8da1d3f21f98ull,
      0x87031b4a7a6397adull};
  return r;
}

inline const Reference& h2_chain4_reference() {
  static const Reference r{
      "h2_chain4",
      2,
      {0x1.1b11190620d49p+7, 0x1.7388f06f12832p+5},
      0x1.13d3ddea4e7p-5,
      -0x1.7b491c6219198p+1,
      0xce6b5ffb987d601cull,
      0xe59cc6ad15ded3e1ull};
  return r;
}

inline const Reference& fig6_reference() {
  static const Reference r{
      "fig6_alloy",
      3,
      {0x1.11701f0abf78ep+11, 0x1.9429ac79714bcp+12, 0x1.72b96ccf25421p+11},
      0x1.3d94cd8f388p-2,
      -0x1.a6369cdbbabe2p+3,
      0x3e08b1de17e1ecdfull,
      0xd3aec80507e1d6cbull};
  return r;
}

inline const Reference& h2_chain3_mixed_reference() {
  static const Reference r{
      "h2_chain3_mixed",
      9,
      {0x1.a601176d08599p+6, 0x1.15ad1b7455cf7p+5, 0x1.fc1fd2cb0597ap+1,
       0x1.965e6c43f40c8p+0, 0x1.d12a132c628c6p-3, 0x1.1eb0e3116a90ep-5,
       0x1.a097e0ba68691p-7, 0x1.139c40101b57fp-8, 0x1.20848ce8bc981p-11},
      0x1.82ae58ba299p-6,
      -0x1.1eced2d5762cap+1,
      0xa5f30f531cb6fee9ull,
      0xbb767ecfacb2b459ull};
  return r;
}

inline const Reference& fig6_mixed_reference() {
  static const Reference r{
      "fig6_mixed",
      3,
      {0x1.116e2dfd4e3e3p+11, 0x1.9425bcf054b95p+12, 0x1.72c02f834248p+11},
      0x1.40d6e7444fa4p-2,
      -0x1.a62bd9af7049cp+3,
      0x3d1d01790faa1af1ull,
      0x9fad95f9787153d5ull};
  return r;
}

inline const DirectReference& h2_direct_scf_reference() {
  static const DirectReference r{
      "h2_direct_scf",
      8,
      {0x1.1950486c3fd0bp+6, 0x1.d029c45369effp+3, 0x1.9512a43472804p+1,
       0x1.9fc336393d1ap-1, 0x1.aa0a31d51b9bdp-6, 0x1.5007fa25d45e3p-7,
       0x1.1d537d6d935c3p-13, 0x1.cb5b3dbf47ae1p-19},
      -0x1.71649b255f065p-1,
      {-0x1.426d75c71fcc9p-2, 0x1.1aaf326191e2ep-5, 0x1.cc02128f271dcp-4,
       0x1.2ee41c100cf54p-3, 0x1.2ee41c100cf61p-3},
      0xa5d1685a77031cc9ull,
      0x89e06c63edc99c9ull};
  return r;
}

inline const FsmReference& h2_fsm_reference() {
  static const FsmReference r{
      "h2_fsm",
      52,
      {-0x1.1ef31d1076fedp-4, 0x1.61c0d04321da7p-3},
      {0x1.41a41bd0fa7p-8, 0x1.e8d54f92317c6p-6},
      0xca821240f0dacad5ull};
  return r;
}

// --- recorded bits: end ---

// The reference of h2_chain(ncells) under h2_options(ncells).
inline const Reference& h2_reference(int ncells) {
  return ncells == 4 ? h2_chain4_reference() : h2_chain3_reference();
}

// --- bit-tier comparison ------------------------------------------------

// Each helper returns "" on an exact match, else the mismatch (doubles as
// hexfloats).
inline std::string count_mismatch(const char* name, const char* what,
                                  long got, long want) {
  if (got == want) return "";
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s: %s %ld, want %ld", name, what, got,
                want);
  return buf;
}

inline std::string value_mismatch(const char* name, const std::string& what,
                                  double got, double want) {
  if (std::memcmp(&got, &want, sizeof(double)) == 0) return "";
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s: %s = %a, want %a", name, what.c_str(),
                got, want);
  return buf;
}

inline std::string series_mismatch(const char* name, const char* what,
                                   const std::vector<double>& got,
                                   const std::vector<double>& want) {
  if (got.size() != want.size()) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s: %s has %zu entries, want %zu", name,
                  what, got.size(), want.size());
    return buf;
  }
  for (std::size_t k = 0; k < want.size(); ++k) {
    std::string m = value_mismatch(
        name, std::string(what) + "[" + std::to_string(k) + "]", got[k],
        want[k]);
    if (!m.empty()) return m;
  }
  return "";
}

inline std::string hash_mismatch(const char* name, const char* what,
                                 std::uint64_t got, std::uint64_t want) {
  if (got == want) return "";
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s: fnv1a(%s) = 0x%llxull, want 0x%llxull",
                name, what, static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(want));
  return buf;
}

// Empty when `r` carries exactly the reference bits; otherwise the first
// mismatch, with both values as hexfloats (paste-ready when re-recording).
inline std::string first_mismatch(std::initializer_list<std::string> checks) {
  for (const std::string& m : checks)
    if (!m.empty()) return m;
  return "";
}

inline std::string mismatch(const Ls3dfResult& r, const Reference& ref) {
  return first_mismatch(
      {count_mismatch(ref.name, "iterations", r.iterations, ref.iterations),
       series_mismatch(ref.name, "conv_history", r.conv_history,
                       ref.conv_history),
       value_mismatch(ref.name, "charge_patch_error", r.charge_patch_error,
                      ref.charge_patch_error),
       value_mismatch(ref.name, "energy.total", r.energy.total,
                      ref.energy_total),
       hash_mismatch(ref.name, "rho", fnv1a(r.rho), ref.rho_fnv1a),
       hash_mismatch(ref.name, "v_eff", fnv1a(r.v_eff), ref.v_eff_fnv1a)});
}

inline std::string mismatch(const ScfResult& r, const DirectReference& ref) {
  return first_mismatch(
      {count_mismatch(ref.name, "iterations", r.iterations, ref.iterations),
       count_mismatch(ref.name, "converged", r.converged, 1),
       series_mismatch(ref.name, "conv_history", r.conv_history,
                       ref.conv_history),
       value_mismatch(ref.name, "energy.total", r.energy.total,
                      ref.energy_total),
       series_mismatch(ref.name, "eigenvalues", r.eigenvalues,
                       ref.eigenvalues),
       hash_mismatch(ref.name, "rho", fnv1a(r.rho), ref.rho_fnv1a),
       hash_mismatch(ref.name, "v_eff", fnv1a(r.v_eff), ref.v_eff_fnv1a)});
}

inline std::string mismatch(const FsmResult& r, const FsmReference& ref) {
  return first_mismatch(
      {count_mismatch(ref.name, "iterations", r.iterations, ref.iterations),
       count_mismatch(ref.name, "converged", r.converged, 1),
       series_mismatch(ref.name, "eigenvalues", r.eigenvalues,
                       ref.eigenvalues),
       series_mismatch(ref.name, "folded_values", r.folded_values,
                       ref.folded_values),
       hash_mismatch(ref.name, "psi", fnv1a(r.psi), ref.psi_fnv1a)});
}

// --- physics-tier comparison -------------------------------------------

// "" when |got - want| <= bound, else the mismatch with both values and
// the bound.
inline std::string bound_mismatch(const char* name, const std::string& what,
                                  double got, double want, double bound) {
  if (std::abs(got - want) <= bound) return "";
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s: %s = %.17g, want %.17g +- %.2g", name,
                what.c_str(), got, want, bound);
  return buf;
}

// Entry k within abs_tol + rel_tol |want[k]|.
inline std::string series_bound_mismatch(const char* name, const char* what,
                                         const std::vector<double>& got,
                                         const std::vector<double>& want,
                                         double abs_tol, double rel_tol) {
  std::string m = count_mismatch(name, (std::string(what) + " entries").c_str(),
                                 static_cast<long>(got.size()),
                                 static_cast<long>(want.size()));
  for (std::size_t k = 0; m.empty() && k < want.size(); ++k)
    m = bound_mismatch(name, std::string(what) + "[" + std::to_string(k) + "]",
                       got[k], want[k],
                       abs_tol + rel_tol * std::abs(want[k]));
  return m;
}

inline std::string moments_mismatch(const char* name, const RhoMoments& got,
                                    const RhoMoments& want, double rel) {
  const double d = std::sqrt(want.dipole[0] * want.dipole[0] +
                             want.dipole[1] * want.dipole[1] +
                             want.dipole[2] * want.dipole[2]);
  return first_mismatch(
      {bound_mismatch(name, "int rho", got.charge, want.charge,
                      rel * std::abs(want.charge)),
       bound_mismatch(name, "int rho^2", got.square, want.square,
                      rel * std::abs(want.square)),
       bound_mismatch(name, "dipole.x", got.dipole[0], want.dipole[0], rel * d),
       bound_mismatch(name, "dipole.y", got.dipole[1], want.dipole[1], rel * d),
       bound_mismatch(name, "dipole.z", got.dipole[2], want.dipole[2],
                      rel * d)});
}

// Empty when `r`, a solve on the cell `lat`, is within the reference's
// bounds; otherwise the first value outside them.
inline std::string physics_mismatch(const Ls3dfResult& r, const Lattice& lat,
                                    const PhysicsReference& ref) {
  const Tolerance& tol = ref.tol;
  return first_mismatch(
      {count_mismatch(ref.name, "iterations", r.iterations, ref.iterations),
       series_bound_mismatch(ref.name, "conv_history", r.conv_history,
                             ref.conv_history, 0.0, tol.conv_history),
       bound_mismatch(ref.name, "charge_patch_error", r.charge_patch_error,
                      ref.charge_patch_error,
                      tol.charge_patch_error *
                          std::abs(ref.charge_patch_error)),
       bound_mismatch(ref.name, "energy.total", r.energy.total,
                      ref.energy_total, tol.energy),
       moments_mismatch(ref.name, rho_moments(r.rho, lat), ref.rho,
                        tol.rho)});
}

inline std::string physics_mismatch(const ScfResult& r, const Lattice& lat,
                                    const DirectPhysicsReference& ref) {
  const Tolerance& tol = kDoubleTolerance;
  return first_mismatch(
      {count_mismatch(ref.name, "iterations", r.iterations, ref.iterations),
       count_mismatch(ref.name, "converged", r.converged, 1),
       series_bound_mismatch(ref.name, "conv_history", r.conv_history,
                             ref.conv_history, 0.0, tol.conv_history),
       bound_mismatch(ref.name, "energy.total", r.energy.total,
                      ref.energy_total, tol.energy),
       series_bound_mismatch(ref.name, "eigenvalues", r.eigenvalues,
                             ref.eigenvalues, tol.energy, 0.0),
       moments_mismatch(ref.name, rho_moments(r.rho, lat), ref.rho,
                        tol.rho)});
}

inline std::string physics_mismatch(const FsmResult& r,
                                    const FsmPhysicsReference& ref) {
  const double tol = kDoubleTolerance.energy;
  return first_mismatch(
      {count_mismatch(ref.name, "iterations", r.iterations, ref.iterations),
       count_mismatch(ref.name, "converged", r.converged, 1),
       series_bound_mismatch(ref.name, "eigenvalues", r.eigenvalues,
                             ref.eigenvalues, tol, 0.0),
       series_bound_mismatch(ref.name, "folded_values", r.folded_values,
                             ref.folded_values, tol, 0.0)});
}

}  // namespace golden
}  // namespace ls3df
