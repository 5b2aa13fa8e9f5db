#include "common/flops.h"

#include <cmath>

namespace ls3df {

std::uint64_t FlopCounter::fft(std::uint64_t n) {
  if (n <= 1) return 0;
  const double l = std::log2(static_cast<double>(n));
  return static_cast<std::uint64_t>(5.0 * static_cast<double>(n) * l);
}

std::uint64_t FlopCounter::fft3d(std::uint64_t n1, std::uint64_t n2,
                                 std::uint64_t n3) {
  // n2*n3 transforms of length n1, etc.
  return n2 * n3 * fft(n1) + n1 * n3 * fft(n2) + n1 * n2 * fft(n3);
}

}  // namespace ls3df
