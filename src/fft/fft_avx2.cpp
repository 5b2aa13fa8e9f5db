// The AVX2 copy of the FFT tile kernel (fft.h, "ISA dispatch").
// CMakeLists.txt compiles this file alone with -mavx2 -ffp-contract=off
// -fno-tree-slp-vectorize on x86-64, so keep it to these two entry
// points: anything else defined here could carry AVX2 code to a CPU
// without it. BasicFft1D calls them only where avx2_kernel_available().
#include "fft/fft_kernel.h"

// Without the flags this would be a second portable copy that every
// "avx2" plan, test and bench silently ran.
#if defined(__x86_64__) && !defined(__AVX2__)
#error "fft_avx2.cpp must be compiled with -mavx2 (see CMakeLists.txt)"
#endif

namespace ls3df {
namespace fft_detail {

void tile_kernel_avx2(const TileJob<double>& job) { tile_kernel(job); }
void tile_kernel_avx2(const TileJob<float>& job) { tile_kernel(job); }

}  // namespace fft_detail
}  // namespace ls3df
