// Golden references: the exact bits of three full LS3DF solves, recorded
// from the dense phased single-worker driver — the reference every
// execution path (overlapped chains, shards, transports, batch widths,
// worker counts, lane donation) was proved bit-identical to before that
// driver was retired. Cross-path equivalence cannot catch a defect every
// path shares; these absolute values can. Two more cases pin
// Precision::kMixed, whose fp32 Davidson path the other tests only check
// against tolerances; they were recorded from the separate fp32 lockstep
// driver before it became the float instantiation of the shared one.
//
// Per case the reference pins the iteration count, every L1 residual of
// conv_history, the charge-patch error and the patched total energy as
// exact doubles (hexfloats), plus an FNV-1a hash over the raw bytes of
// the result's rho and v_eff. The values hold for IEEE-754 binary64
// arithmetic without FMA contraction (the build's -std=c++17 default)
// and a glibc libm on x86-64; a toolchain that rounds exp/log/pow
// differently must re-record them.
//
// Two more cases pin the direct-DFT side (dft/scf, dft/fsm), which the
// LS3DF solves never run: a whole-cell SCF to convergence and a folded-
// spectrum solve on a fixed potential. They pin the same kinds of bits
// (iterations, residual history, energy, eigenvalues, FNV-1a of the
// result's fields or wavefunction block).
//
// Header-only and gtest-free, so the MPI harness (own main) shares it.
#pragma once

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

// --- the recorded values -----------------------------------------------

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

inline const Reference& h2_chain3_reference() {
  static const Reference r{"h2_chain3",
                           2,
                           {0x1.a877229215927p+6, 0x1.1aacd78c0a8d5p+5},
                           0x1.879fa52564bp-6,
                           -0x1.1c37b29b5228ep+1,
                           0x6aa94fb4625b2042ull,
                           0x193235bba61dc85eull};
  return r;
}

inline const Reference& h2_chain4_reference() {
  static const Reference r{"h2_chain4",
                           2,
                           {0x1.1b11190620d31p+7, 0x1.7388f06f126dbp+5},
                           0x1.13d3ddea50dp-5,
                           -0x1.7b491c6219196p+1,
                           0x518fb7e4d0a1fa8dull,
                           0x4abe25d719263284ull};
  return r;
}

// The reference of h2_chain(ncells) under h2_options(ncells).
inline const Reference& h2_reference(int ncells) {
  return ncells == 4 ? h2_chain4_reference() : h2_chain3_reference();
}

inline const Reference& fig6_reference() {
  static const Reference r{"fig6_alloy",
                           3,
                           {0x1.11701f0abf777p+11, 0x1.9429ac7971453p+12,
                            0x1.72b96ccf25684p+11},
                           0x1.3d94cd8f33ap-2,
                           -0x1.a6369cdbba1fbp+3,
                           0x199c583145d02067ull,
                           0x968f3047068f2425ull};
  return r;
}

inline const Reference& h2_chain3_mixed_reference() {
  static const Reference r{
      "h2_chain3_mixed",
      9,
      {0x1.a6011783eebbdp+6, 0x1.15ad25c3882afp+5, 0x1.fc25bb70c9cbcp+1,
       0x1.96631cb8d9cdbp+0, 0x1.d13acb77a9ee6p-3, 0x1.1f7d89eacd073p-5,
       0x1.a626935e1c6dep-7, 0x1.17dfb4e9b0488p-8, 0x1.1fcbc7dc9f36p-11},
      0x1.82ae5a549e8p-6,
      -0x1.1eced2d60fdbcp+1,
      0x4ac8133ec27ad625ull,
      0xdb4e0267990ab703ull};
  return r;
}

inline const Reference& fig6_mixed_reference() {
  static const Reference r{"fig6_mixed",
                           3,
                           {0x1.116e2f818f4c4p+11, 0x1.9425c71aa01f1p+12,
                            0x1.72c06494e861ap+11},
                           0x1.40d4741d6714p-2,
                           -0x1.a62b1455a77f7p+3,
                           0x7c8ddf0a5d808e5dull,
                           0x88d8af8255affc97ull};
  return r;
}

inline const DirectReference& h2_direct_scf_reference() {
  static const DirectReference r{
      "h2_direct_scf",
      8,
      {0x1.1950486c3fd1ep+6, 0x1.d029c45369f4ep+3, 0x1.9512a43472882p+1,
       0x1.9fc336393da9ap-1, 0x1.aa0a31d509f91p-6, 0x1.5007fa2583a98p-7,
       0x1.1d537d6db7062p-13, 0x1.cb5b3e080624ep-19},
      -0x1.71649b255f067p-1,
      {-0x1.426d75c71fccap-2, 0x1.1aaf326191e3dp-5, 0x1.cc02128f271e2p-4,
       0x1.2ee41c100cf5p-3, 0x1.2ee41c100cf68p-3},
      0x660d1008408c9ee0ull,
      0xccee952b55da1ba9ull};
  return r;
}

inline const FsmReference& h2_fsm_reference() {
  static const FsmReference r{"h2_fsm",
                              52,
                              {-0x1.1ef31d1077042p-4, 0x1.61c0d04321dd8p-3},
                              {0x1.41a41bd0fa7bep-8, 0x1.e8d54f923184dp-6},
                              0x81d85fd7f184646aull};
  return r;
}

// --- comparison ----------------------------------------------------------

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

}  // namespace golden
}  // namespace ls3df
