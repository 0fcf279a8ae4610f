#pragma once

namespace tetris::sim::kernels {

/// Instruction-set variant the 1q and diagonal sweeps execute with. The
/// mode never changes a byte: the AVX2 kernels perform the scalar kernels'
/// products, roundings and summation order, only two complex amplitudes per
/// register, so every result is bit-identical in both modes and the mode
/// stays out of every cache key.
enum class SimdMode {
  kScalar,  ///< reference kernels, plain std::complex arithmetic
  kAvx2,    ///< AVX2 kernels (x86-64, runtime-detected)
};

/// The active kernel mode: resolved once, lazily, to kAvx2 when
/// avx2_available() and to kScalar otherwise. `set_simd_mode` overrides it
/// for the current process.
SimdMode simd_mode();

/// Overrides the active mode (tests and the differential benches). Throws
/// InvalidArgument when `mode` is kAvx2 but AVX2 is unavailable.
void set_simd_mode(SimdMode mode);

/// "scalar" / "avx2".
const char* simd_mode_name(SimdMode mode);

/// True when the AVX2 kernels are compiled in (CMake `TETRIS_SIMD_AVX2`)
/// AND the CPU reports AVX2.
bool avx2_available();

}  // namespace tetris::sim::kernels
