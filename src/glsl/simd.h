// Runtime-dispatched SIMD tiers for the batched VM's plane kernels.
//
// The batched VM stores every register and lane-varying global as a
// lane-major plane (cell k of lane l at plane[k * kVmLanes + l], see
// evalcore.h), so one cell of an operand is a row of contiguous lanes and
// every kernel is a loop per cell over lane groups. This header names the
// tiers those loops run at and resolves which tier an execution may use;
// the tier code itself is glsl/lanes.inc.
//
// Tiers:
//   kScalar — one lane per step. Always available; the only tier on
//             non-x86-64 builds, and the one MGPU_SIMD=0 selects.
//   kSse2   — x86-64 baseline (SSE2 is architectural): 4 lanes per step.
//   kAvx2   — detected via cpuid at startup: 8 lanes per step.
//
// Bit-identity contract: the vector tiers run only when the executing
// AluModel's round mode is a closed form (alu.h): kIdentity, where Add/Sub/
// Mul are plain IEEE fp32 ops, or kFlushDenormals (the VideoCore IV
// profile), where each result additionally passes through FlushDenormal;
// either way every NaN result becomes the canonical NaN. The vector round
// applies exactly that per op, in the scalar engines' op order, so which
// lanes share a step cannot change a result, and op counting batches into
// AluModel::CountAlu(n). A kModel ALU (reduced mantissas, e.g. Mali-400)
// keeps its virtual Round() per op on the scalar tier: the VM samples the
// effective level per RunBatch (vm.cc) and the kernels check the mode too.
// SFU-routed ops (Recip/RecipSqrt/Exp2/Log2, division) and texture builtins
// run one lane at a time at every tier.
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

}  // namespace mgpu::glsl::simd

#endif  // MGPU_GLSL_SIMD_H_
