#!/bin/sh
# Checks the FFT objects of a build for the rules of src/fft/fft.h's
# "ISA dispatch" section:
#   - no FMA instruction (vfmadd/vfmsub/vfmaddsub/vfnmadd/...) in any
#     src/fft object: a fused multiply-add rounds once and moves bits;
#   - no ymm register in the portable fft.cpp object;
#   - the AVX2 object fft_avx2.cpp.o uses ymm registers (its flags took
#     effect; this needs an optimized build, as -O0 vectorizes nothing)
#     and defines no weak symbol and no global symbol other than the two
#     tile_kernel_avx2 entry points, so no AVX2 code can be linked in for
#     a portable caller.
#
# Usage: tools/check_fft_objects.sh [BUILD_DIR]   (default: build)
set -eu

dir="${1:-build}/CMakeFiles/ls3df.dir/src/fft"
fail=0

for obj in "$dir/fft.cpp.o" "$dir/fft_avx2.cpp.o"; do
  if [ ! -f "$obj" ]; then
    echo "missing $obj (build the ls3df target first)"
    exit 1
  fi
done

fma=$(objdump -d "$dir"/*.o | grep -cE 'vfn?m(add|sub)' || true)
echo "FMA instructions in src/fft objects: $fma"
[ "$fma" -eq 0 ] || fail=1

ymm=$(objdump -d "$dir/fft.cpp.o" | grep -c ymm || true)
echo "ymm uses in the portable fft.cpp.o: $ymm"
[ "$ymm" -eq 0 ] || fail=1

ymm=$(objdump -d "$dir/fft_avx2.cpp.o" | grep -c ymm || true)
echo "ymm uses in fft_avx2.cpp.o: $ymm"
if [ "$(uname -m)" = x86_64 ] && [ "$ymm" -eq 0 ]; then fail=1; fi

weak=$(nm "$dir/fft_avx2.cpp.o" | grep -E ' [VvWw] ' || true)
if [ -n "$weak" ]; then
  echo "weak symbols in fft_avx2.cpp.o:"
  echo "$weak"
  fail=1
fi

entry='^_ZN5ls3df10fft_detail16tile_kernel_avx2ERKNS0_7TileJobI[df]EE$'
globals=$(nm -g --defined-only "$dir/fft_avx2.cpp.o" | awk '{print $3}')
echo "global symbols of fft_avx2.cpp.o:"
echo "$globals"
if [ "$(echo "$globals" | grep -cE "$entry")" -ne 2 ] ||
   echo "$globals" | grep -vqE "$entry"; then
  echo "fft_avx2.cpp.o must define exactly the two tile_kernel_avx2 entry points"
  fail=1
fi

[ "$fail" -eq 0 ] && echo "FFT objects OK"
exit "$fail"
