// Floating-point operation accounting. The paper measured operation counts
// with CrayPat and extrapolated large problems from small-problem counts
// (Sec. VI); we mirror that: kernels report their analytic flop counts to a
// FlopCounter, and the performance model extrapolates per-fragment counts.
#pragma once

#include <cstdint>

namespace ls3df {

class FlopCounter {
 public:
  void add(std::uint64_t flops) { flops_ += flops; }
  std::uint64_t total() const { return flops_; }
  void clear() { flops_ = 0; }

  // Analytic kernel counts (complex arithmetic expanded to real flops).
  // Complex multiply = 6 flops, complex add = 2 flops.
  static std::uint64_t zgemm(std::uint64_t m, std::uint64_t n,
                             std::uint64_t k) {
    return 8ull * m * n * k;
  }
  static std::uint64_t dgemm(std::uint64_t m, std::uint64_t n,
                             std::uint64_t k) {
    return 2ull * m * n * k;
  }
  // Radix-agnostic complex FFT estimate: 5 n log2(n).
  static std::uint64_t fft(std::uint64_t n);
  static std::uint64_t fft3d(std::uint64_t n1, std::uint64_t n2,
                             std::uint64_t n3);
  // A G-sphere-pruned 3D FFT (fft/fft3d.h) that runs x-lines on n_yz
  // columns and y-lines on n_z planes of every x, plus every z-line.
  static std::uint64_t fft3d_lines(std::uint64_t n1, std::uint64_t n2,
                                   std::uint64_t n3, std::uint64_t n_yz,
                                   std::uint64_t n_z);

 private:
  std::uint64_t flops_ = 0;
};

}  // namespace ls3df
