#include "sim/kernels/simd.h"

#include <atomic>

#include "common/error.h"

namespace tetris::sim::kernels {

namespace {

/// -1 = not yet resolved; otherwise a SimdMode value.
std::atomic<int> g_mode{-1};

}  // namespace

SimdMode simd_mode() {
  int mode = g_mode.load(std::memory_order_acquire);
  if (mode < 0) {
    mode = static_cast<int>(avx2_available() ? SimdMode::kAvx2
                                             : SimdMode::kScalar);
    g_mode.store(mode, std::memory_order_release);
  }
  return static_cast<SimdMode>(mode);
}

void set_simd_mode(SimdMode mode) {
  if (mode == SimdMode::kAvx2) {
    TETRIS_REQUIRE(avx2_available(),
                   "set_simd_mode: AVX2 kernels unavailable on this build/CPU");
  }
  g_mode.store(static_cast<int>(mode), std::memory_order_release);
}

const char* simd_mode_name(SimdMode mode) {
  return mode == SimdMode::kAvx2 ? "avx2" : "scalar";
}

bool avx2_available() {
#ifdef TETRIS_HAVE_AVX2
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace tetris::sim::kernels
