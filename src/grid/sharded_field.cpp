#include "grid/sharded_field.h"

namespace ls3df {

namespace {

// Partial for one x plane of `n` contiguous values, flat order.
inline double plane_partial_sum(const double* p, std::size_t n) {
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += p[i];
  return acc;
}
inline double plane_partial_dot(const double* a, const double* b,
                                std::size_t n) {
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}
inline double plane_partial_l1(const double* a, const double* b,
                               std::size_t n) {
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += std::abs(a[i] - b[i]);
  return acc;
}

// Sum the per-plane partials in plane order — the shard-count-invariant
// second stage shared by the dense and sharded overloads.
inline double combine(const double* partials, std::size_t n) {
  double acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += partials[i];
  return acc;
}

// Pairs (i, j) with i <= j of an m-field Gram matrix, in row order.
inline std::size_t gram_pairs(int m) {
  return static_cast<std::size_t>(m) * (m + 1) / 2;
}

// One plane's pair partials: out[p] = dot of fields i and j over the
// plane, for every pair p = (i <= j). plane_of(i) points at field i's
// copy of the plane.
template <typename PlaneOf>
void plane_pair_partials(int m, const PlaneOf& plane_of, std::size_t n,
                         double* out) {
  std::size_t p = 0;
  for (int i = 0; i < m; ++i)
    for (int j = i; j < m; ++j)
      out[p++] = plane_partial_dot(plane_of(i), plane_of(j), n);
}

// The m x m Gram matrix (row-major) from a plane-major partial table:
// table[gx * gram_pairs(m) + p] is pair p's partial for global plane gx.
// Each entry folds its partials in plane order, as combine() does, and
// is mirrored across the diagonal: exact, since a*b == b*a in IEEE
// arithmetic.
std::vector<double> gram_from_partials(const double* table, int nx, int m) {
  const std::size_t pairs = gram_pairs(m);
  std::vector<double> gram(static_cast<std::size_t>(m) * m);
  std::size_t p = 0;
  for (int i = 0; i < m; ++i)
    for (int j = i; j < m; ++j, ++p) {
      double acc = 0;
      for (int gx = 0; gx < nx; ++gx)
        acc += table[static_cast<std::size_t>(gx) * pairs + p];
      gram[static_cast<std::size_t>(i) * m + j] =
          gram[static_cast<std::size_t>(j) * m + i] = acc;
    }
  return gram;
}

template <typename PlaneFn>
double dense_planes(Vec3i shape, const PlaneFn& partial) {
  const std::size_t plane = static_cast<std::size_t>(shape.y) * shape.z;
  std::vector<double> partials(shape.x);
  for (int ix = 0; ix < shape.x; ++ix)
    partials[ix] = partial(static_cast<std::size_t>(ix) * plane, plane);
  return combine(partials.data(), partials.size());
}

template <typename PlaneFn>
double sharded_planes(const ShardedFieldR& f, ShardComm& comm,
                      const PlaneFn& partial) {
  const Vec3i shape = f.global_shape();
  const std::size_t plane = static_cast<std::size_t>(shape.y) * shape.z;
  std::vector<int> counts(comm.n_ranks());
  for (int r = 0; r < comm.n_ranks(); ++r) counts[r] = f.x1(r) - f.x0(r);
  const ShardComm::GatherView table =
      comm.all_gather(counts, [&](int r, double* block) {
        for (int lx = 0; lx < counts[r]; ++lx)
          block[lx] =
              partial(r, static_cast<std::size_t>(lx) * plane, plane);
      });
  return combine(table.data(), static_cast<std::size_t>(shape.x));
}

}  // namespace

double plane_sum(const FieldR& f) {
  return dense_planes(f.shape(), [&](std::size_t off, std::size_t n) {
    return plane_partial_sum(f.data() + off, n);
  });
}

std::vector<double> plane_gram(const std::vector<FieldR>& fields) {
  const int m = static_cast<int>(fields.size());
  assert(m >= 1);
  const Vec3i shape = fields[0].shape();
  const std::size_t plane = static_cast<std::size_t>(shape.y) * shape.z;
  const std::size_t pairs = gram_pairs(m);
  std::vector<double> table(static_cast<std::size_t>(shape.x) * pairs);
  for (int gx = 0; gx < shape.x; ++gx) {
    const std::size_t off = static_cast<std::size_t>(gx) * plane;
    plane_pair_partials(
        m, [&](int i) { return fields[i].data() + off; }, plane,
        table.data() + static_cast<std::size_t>(gx) * pairs);
  }
  return gram_from_partials(table.data(), shape.x, m);
}

double plane_l1(const FieldR& a, const FieldR& b) {
  assert(a.shape() == b.shape());
  return dense_planes(a.shape(), [&](std::size_t off, std::size_t n) {
    return plane_partial_l1(a.data() + off, b.data() + off, n);
  });
}

double plane_sum(const ShardedFieldR& f, ShardComm& comm) {
  return sharded_planes(f, comm, [&](int r, std::size_t off, std::size_t n) {
    return plane_partial_sum(f.slab(r).data() + off, n);
  });
}

std::vector<double> plane_gram(const std::vector<ShardedFieldR>& fields,
                               ShardComm& comm) {
  const int m = static_cast<int>(fields.size());
  assert(m >= 1);
  const ShardedFieldR& f0 = fields[0];
  const Vec3i shape = f0.global_shape();
  const std::size_t plane = static_cast<std::size_t>(shape.y) * shape.z;
  const std::size_t pairs = gram_pairs(m);
  // Rank r posts its planes' pair partials plane-major, so the
  // rank-ordered table is plane-major over the whole grid.
  std::vector<int> counts(comm.n_ranks());
  for (int r = 0; r < comm.n_ranks(); ++r)
    counts[r] = static_cast<int>((f0.x1(r) - f0.x0(r)) * pairs);
  const ShardComm::GatherView table =
      comm.all_gather(counts, [&](int r, double* block) {
        for (int lx = 0; lx < f0.x1(r) - f0.x0(r); ++lx) {
          const std::size_t off = static_cast<std::size_t>(lx) * plane;
          plane_pair_partials(
              m, [&](int i) { return fields[i].slab(r).data() + off; },
              plane, block + static_cast<std::size_t>(lx) * pairs);
        }
      });
  return gram_from_partials(table.data(), shape.x, m);
}

double plane_l1(const ShardedFieldR& a, const ShardedFieldR& b,
                ShardComm& comm) {
  assert(a.global_shape() == b.global_shape());
  return sharded_planes(a, comm, [&](int r, std::size_t off, std::size_t n) {
    return plane_partial_l1(a.slab(r).data() + off, b.slab(r).data() + off,
                            n);
  });
}

FieldR gather_dense(const ShardedFieldR& f, ShardComm& comm) {
  FieldR dense(f.global_shape());
  const std::size_t plane =
      static_cast<std::size_t>(f.global_shape().y) * f.global_shape().z;
  for (int r = 0; r < comm.n_ranks(); ++r) {
    const std::size_t n = f.slab_elements(r);
    // The fill runs only on the owning rank (each rank sees its own
    // slab); every rank then reads the assembled one-slab table.
    const ShardComm::GatherView view =
        comm.gather_one(r, n, [&](double* block) {
          const double* src = f.slab(r).data();
          std::copy(src, src + n, block);
        });
    std::copy(view.data(), view.data() + n,
              dense.data() + static_cast<std::size_t>(f.x0(r)) * plane);
  }
  return dense;
}

}  // namespace ls3df
