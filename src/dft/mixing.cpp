#include "dft/mixing.h"

#include <cassert>
#include <stdexcept>

#include "linalg/eigen.h"

namespace ls3df {

namespace {

// Solve the (m+1) x (m+1) DIIS system (Lagrange-multiplier form) from
// the residual Gram matrix (row-major, m x m). An empty result means the
// history is degenerate; both mixers then fall back to linear mixing and
// drop their history — identical inputs take the identical branch, which
// keeps the dense and sharded drivers in bit-level lockstep.
std::vector<double> diis_coefficients(const std::vector<double>& gram,
                                      int m) {
  MatR A(m + 1, m + 1);
  std::vector<double> b(m + 1, 0.0);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) A(i, j) = gram[static_cast<std::size_t>(i) * m + j];
    A(i, m) = 1.0;
    A(m, i) = 1.0;
  }
  A(m, m) = 0.0;
  b[m] = 1.0;
  try {
    return solve_linear(A, b);
  } catch (const std::runtime_error&) {
    return {};
  }
}

// Append the newest (V_in, residual) pair, dropping the oldest beyond
// kDiisHistory; returns the resulting depth m.
template <typename Field>
int push_history(std::vector<Field>& v_history,
                 std::vector<Field>& r_history, const Field& v_in,
                 const Field& residual) {
  v_history.push_back(v_in);
  r_history.push_back(residual);
  if (static_cast<int>(v_history.size()) > kDiisHistory) {
    v_history.erase(v_history.begin());
    r_history.erase(r_history.begin());
  }
  return static_cast<int>(v_history.size());
}

}  // namespace

FieldR PotentialMixer::mix(const FieldR& v_in, const FieldR& v_out) {
  assert(v_in.shape() == v_out.shape());
  FieldR residual = v_out;
  residual -= v_in;

  // next = v_in + alpha * residual (the first step and the fallback).
  const auto linear_step = [&] {
    FieldR next = v_in;
    for (std::size_t i = 0; i < next.size(); ++i)
      next[i] += alpha_ * residual[i];
    return next;
  };

  // Pulay/Anderson: keep history of (v_in, residual); minimize the norm of
  // the extrapolated residual subject to coefficients summing to one.
  const int m = push_history(v_history_, r_history_, v_in, residual);
  if (m == 1) return linear_step();

  // Residual Gram matrix via the plane-blocked reduction — the canonical
  // deterministic dot shared with the sharded mixer.
  const std::vector<double> c =
      diis_coefficients(plane_gram(r_history_), m);
  if (c.empty()) {
    // Degenerate history: fall back to linear mixing and drop history.
    v_history_.clear();
    r_history_.clear();
    return linear_step();
  }

  FieldR next(v_in.shape());
  for (int i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < next.size(); ++k)
      next[k] += c[i] * (v_history_[i][k] + alpha_ * r_history_[i][k]);
  }
  return next;
}

// ---------------------------------------------------------------------------
// ShardedPotentialMixer: the same arithmetic on x-slabs.

void ShardedPotentialMixer::restore_history(std::vector<ShardedFieldR> v,
                                            std::vector<ShardedFieldR> r) {
  if (v.size() != r.size() ||
      static_cast<int>(v.size()) > kDiisHistory)
    throw std::invalid_argument(
        "ShardedPotentialMixer::restore_history: inconsistent DIIS stack");
  v_history_ = std::move(v);
  r_history_ = std::move(r);
}

ShardedFieldR ShardedPotentialMixer::mix(const ShardedFieldR& v_in,
                                         const ShardedFieldR& v_out) {
  const int n = comm_.n_ranks();
  const Vec3i shape = v_in.global_shape();
  assert(v_in.n_shards() == n);
  assert(v_out.global_shape() == shape && v_out.n_shards() == n);
  ShardedFieldR residual = v_out;
  comm_.each_rank([&](int r) { residual.slab(r) -= v_in.slab(r); });

  // next = v_in + alpha * residual, slab-local (the first step and the
  // fallback below).
  const auto linear_step = [&] {
    ShardedFieldR next = v_in;
    comm_.each_rank([&](int r) {
      FieldR& nf = next.slab(r);
      const FieldR& rf = residual.slab(r);
      for (std::size_t i = 0; i < nf.size(); ++i) nf[i] += alpha_ * rf[i];
    });
    return next;
  };

  const int m = push_history(v_history_, r_history_, v_in, residual);
  if (m == 1) return linear_step();

  // One all_gather for the whole Gram matrix.
  const std::vector<double> c =
      diis_coefficients(plane_gram(r_history_, comm_), m);
  if (c.empty()) {
    v_history_.clear();
    r_history_.clear();
    return linear_step();
  }

  ShardedFieldR next(shape, n, comm_.local_rank());
  for (int i = 0; i < m; ++i) {
    const ShardedFieldR& vh = v_history_[i];
    const ShardedFieldR& rh = r_history_[i];
    comm_.each_rank([&](int r) {
      FieldR& nf = next.slab(r);
      const FieldR& vf = vh.slab(r);
      const FieldR& rf = rh.slab(r);
      for (std::size_t k = 0; k < nf.size(); ++k)
        nf[k] += c[i] * (vf[k] + alpha_ * rf[k]);
    });
  }
  return next;
}

}  // namespace ls3df
