// Runtime-dispatched SIMD tiers for the batched (SoA) evalcore kernels.
//
// The batched VM's data layout (strided BatchSrc/BatchDst lane planes,
// contiguous Value cells within a lane) is SIMD-shaped by construction; this
// header names the instruction tiers the vector kernels in evalcore.cc /
// builtins.cc can target and resolves which tier a given execution may use.
//
// Tiers:
//   kScalar — portable fallback: the plain scalar SoA kernels run. Always
//             available; the only tier on non-x86-64 builds.
//   kSse2   — x86-64 baseline (SSE2 is architectural): 128-bit ops over the
//             contiguous component cells of each live lane.
//   kAvx2   — detected via cpuid at startup: additionally unlocks the
//             SSE4.1/AVX round instructions (floor/ceil/fract vectorize).
//
// Bit-identity contract: SIMD kernels run only when the executing
// AluModel's round mode is a closed form (alu.h): kIdentity, where Add/Sub/
// Mul are plain IEEE fp32 ops, or kFlushDenormals (the VideoCore IV
// profile), where each result additionally passes through FlushDenormal.
// The kernels apply the same rounding per op (Round4 below, the 4-wide
// flush), in the scalar kernels' op order, so reordering lanes/components
// cannot change results, and op counting batches into
// AluModel::CountAlu(n). A kModel ALU (reduced mantissas, e.g. Mali-400)
// keeps its virtual Round() and the scalar SoA kernels: the VM samples the
// effective level per RunBatch (vm.cc) and the entries fall back on their
// own too. SFU-routed ops (Recip/RecipSqrt/Exp2/Log2, division) and
// texture builtins never take a SIMD path regardless of tier.
//
// Resolution order for the effective tier: per-context knob
// (ContextConfig::simd / DeviceOptions::simd) > MGPU_SIMD env (0/1/2) >
// detected hardware level; every source is clamped to the detected level.
#ifndef MGPU_GLSL_SIMD_H_
#define MGPU_GLSL_SIMD_H_

#if defined(__x86_64__) || defined(_M_X64)
#define MGPU_SIMD_X86 1
#include <emmintrin.h>
#else
#define MGPU_SIMD_X86 0
#endif

namespace mgpu::glsl::simd {

enum class Level : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

// Highest tier the running CPU supports (cpuid-derived, cached after the
// first call). kScalar on non-x86-64 architectures.
[[nodiscard]] Level DetectedLevel();

// Effective tier for a context knob value: -1 = auto (MGPU_SIMD env if set,
// else the detected level); 0/1/2 = explicit tier request. The result is
// always clamped to DetectedLevel() — requesting AVX2 on an SSE2-only CPU
// yields kSse2, and MGPU_SIMD=0 forces kScalar everywhere.
[[nodiscard]] Level Resolve(int knob);

// Human-readable tier name ("scalar" / "sse2" / "avx2") for logs and the
// fuzzer's failing-seed repro line.
[[nodiscard]] const char* LevelName(Level level);

#if MGPU_SIMD_X86
// Four-wide glsl::FlushDenormal: elements whose exponent field is zero keep
// only their sign bit (compare the field against zero, then mask).
inline __m128 FlushDenormal4(__m128 x) {
  const __m128i bits = _mm_castps_si128(x);
  const __m128i zero_exp = _mm_cmpeq_epi32(
      _mm_and_si128(bits, _mm_set1_epi32(0x7f800000)), _mm_setzero_si128());
  return _mm_castsi128_ps(_mm_andnot_si128(
      _mm_and_si128(zero_exp, _mm_set1_epi32(0x7fffffff)), bits));
}

// Result rounding of a kernel templated on the model's round mode: the
// denormal flush under RoundMode::kFlushDenormals, nothing under kIdentity.
template <bool kFlush>
inline __m128 Round4(__m128 x) {
  if constexpr (kFlush) {
    return FlushDenormal4(x);
  } else {
    return x;
  }
}
#endif

}  // namespace mgpu::glsl::simd

#endif  // MGPU_GLSL_SIMD_H_
