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
// Header-only and gtest-free, so the MPI harness (own main) shares it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "atoms/builders.h"
#include "fragment/ls3df.h"

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

// 64-bit FNV-1a over the field's raw bytes (z-fastest double storage).
inline std::uint64_t fnv1a(const FieldR& f) {
  std::uint64_t h = 1469598103934665603ull;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(f.data());
  for (std::size_t i = 0; i < f.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
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

// --- comparison ----------------------------------------------------------

// Empty when `r` carries exactly the reference bits; otherwise the first
// mismatch, with both values as hexfloats (paste-ready when re-recording).
inline std::string mismatch(const Ls3dfResult& r, const Reference& ref) {
  char buf[256];
  if (r.iterations != ref.iterations) {
    std::snprintf(buf, sizeof buf, "%s: iterations %d, want %d", ref.name,
                  r.iterations, ref.iterations);
    return buf;
  }
  if (r.conv_history.size() != ref.conv_history.size()) {
    std::snprintf(buf, sizeof buf,
                  "%s: conv_history has %zu entries, want %zu", ref.name,
                  r.conv_history.size(), ref.conv_history.size());
    return buf;
  }
  for (std::size_t k = 0; k < ref.conv_history.size(); ++k)
    if (std::memcmp(&r.conv_history[k], &ref.conv_history[k],
                    sizeof(double)) != 0) {
      std::snprintf(buf, sizeof buf, "%s: conv_history[%zu] = %a, want %a",
                    ref.name, k, r.conv_history[k], ref.conv_history[k]);
      return buf;
    }
  const struct {
    const char* what;
    double got, want;
  } scalars[] = {
      {"charge_patch_error", r.charge_patch_error, ref.charge_patch_error},
      {"energy.total", r.energy.total, ref.energy_total},
  };
  for (const auto& s : scalars)
    if (std::memcmp(&s.got, &s.want, sizeof(double)) != 0) {
      std::snprintf(buf, sizeof buf, "%s: %s = %a, want %a", ref.name, s.what,
                    s.got, s.want);
      return buf;
    }
  const struct {
    const char* what;
    std::uint64_t got, want;
  } hashes[] = {
      {"rho", fnv1a(r.rho), ref.rho_fnv1a},
      {"v_eff", fnv1a(r.v_eff), ref.v_eff_fnv1a},
  };
  for (const auto& h : hashes)
    if (h.got != h.want) {
      std::snprintf(buf, sizeof buf,
                    "%s: fnv1a(%s) = 0x%llxull, want 0x%llxull", ref.name,
                    h.what,
                    static_cast<unsigned long long>(h.got),
                    static_cast<unsigned long long>(h.want));
      return buf;
    }
  return "";
}

}  // namespace golden
}  // namespace ls3df
