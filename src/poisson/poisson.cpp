#include "poisson/poisson.h"

#include <cmath>

#include "common/constants.h"
#include "fft/fft3d.h"
#include "grid/gvectors.h"

namespace ls3df {

HartreeResult solve_poisson(const FieldR& rho, const Lattice& lat) {
  const Vec3i shape = rho.shape();
  const Vec3d b = lat.reciprocal();
  const Fft3D fft(shape);

  FieldC work(shape);
  for (std::size_t i = 0; i < rho.size(); ++i)
    work[i] = std::complex<double>(rho[i], 0.0);
  fft.forward(work.raw());

  // Multiply by the Coulomb kernel 4 pi / G^2; zero the G = 0 component
  // (jellium convention for neutral cells).
  for (int i1 = 0; i1 < shape.x; ++i1) {
    const double gx = GVectors::freq(i1, shape.x) * b.x;
    for (int i2 = 0; i2 < shape.y; ++i2) {
      const double gy = GVectors::freq(i2, shape.y) * b.y;
      for (int i3 = 0; i3 < shape.z; ++i3) {
        const double gz = GVectors::freq(i3, shape.z) * b.z;
        const double g2 = gx * gx + gy * gy + gz * gz;
        if (g2 < 1e-12) {
          work(i1, i2, i3) = 0.0;
        } else {
          work(i1, i2, i3) *= units::kFourPi / g2;
        }
      }
    }
  }
  fft.inverse(work.raw());

  HartreeResult out{FieldR(shape), 0.0};
  for (std::size_t i = 0; i < rho.size(); ++i)
    out.potential[i] = work[i].real();
  const double point_vol =
      lat.volume() / static_cast<double>(rho.size());
  double e = 0;
  for (std::size_t i = 0; i < rho.size(); ++i)
    e += rho[i] * out.potential[i];
  out.energy = 0.5 * e * point_vol;
  return out;
}

}  // namespace ls3df
