// Tier instantiation of the batched VM's plane kernels (glsl/lanes.inc), for
// the .cc files that implement the Eval*Batch entries (evalcore.cc,
// builtins.cc). Each including translation unit gets its own copy in an
// anonymous namespace:
//   lanes::Lane1       scalar tier, one lane per step (any architecture);
//   lanes::Vec<F>      SSE2 tier, 4 lanes per step (x86-64);
//   lanes_avx2::Vec<F> AVX2 tier, 8 lanes per step (x86-64 GCC builds; the
//                      code is compiled inside a target("avx2") region and
//                      runs only when cpuid reports AVX2);
// where F selects the denormal flush of RoundMode::kFlushDenormals.
// WithTier picks the tier for one kernel call and hands fn the tier object;
// a kernel called unqualified on it resolves, by argument-dependent lookup,
// to the copy compiled for that tier.
#ifndef MGPU_GLSL_LANES_H_
#define MGPU_GLSL_LANES_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

#include "glsl/alu.h"
#include "glsl/builtins.h"
#include "glsl/evalcore.h"
#include "glsl/simd.h"

#if MGPU_SIMD_X86
#include <immintrin.h>
#endif

#if MGPU_SIMD_X86 && defined(__GNUC__) && !defined(__clang__)
#define MGPU_LANES_HAVE_AVX2 1
#else
#define MGPU_LANES_HAVE_AVX2 0
#endif

namespace mgpu::glsl {
namespace {

// Scalar min/max with pinned-down bit behaviour, modeled on glibc's
// x86-64 fminf/fmaxf (ucomiss + MINSS/MAXSS + quiet-bit probe):
//   * both operands ordered  -> MINSS/MAXSS semantics: strict compare,
//     SECOND operand on equality — which is what yields
//     fmin(+0,-0) == -0 and fmin(-0,+0) == +0;
//   * exactly one *quiet* NaN -> the other operand;
//   * a signaling NaN or two NaNs -> the ADDSS result, i.e. the first NaN
//     operand with the quiet bit set (computed bitwise here: spelling it
//     `x + y` would let the compiler commute the operands and change which
//     payload survives between compilations).
// The builtins route min/max/clamp through these helpers instead of libm,
// and the vector tiers emulate them bit for bit (Vec::MinMax in lanes.inc),
// so the semantics are defined HERE, not by whatever fminf the host links.
inline bool NanBits(std::uint32_t u) { return (u & 0x7fffffffu) > 0x7f800000u; }
inline float QuietFirstNan(std::uint32_t ux, std::uint32_t uy) {
  return std::bit_cast<float>((NanBits(ux) ? ux : uy) | 0x00400000u);
}
inline float FminScalar(float x, float y) {
  const std::uint32_t ux = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t uy = std::bit_cast<std::uint32_t>(y);
  if (!NanBits(ux) && !NanBits(uy)) return x < y ? x : y;
  if (!NanBits(uy) && (ux & 0x00400000u) != 0) return y;
  if (!NanBits(ux) && (uy & 0x00400000u) != 0) return x;
  return QuietFirstNan(ux, uy);
}
inline float FmaxScalar(float x, float y) {
  const std::uint32_t ux = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t uy = std::bit_cast<std::uint32_t>(y);
  if (!NanBits(ux) && !NanBits(uy)) return x > y ? x : y;
  if (!NanBits(uy) && (ux & 0x00400000u) != 0) return y;
  if (!NanBits(ux) && (uy & 0x00400000u) != 0) return x;
  return QuietFirstNan(ux, uy);
}

namespace lanes {
#define MGPU_LANES_AVX2 0
#include "glsl/lanes.inc"
#undef MGPU_LANES_AVX2
}  // namespace lanes

#if MGPU_LANES_HAVE_AVX2
#pragma GCC push_options
#pragma GCC target("avx2")
namespace lanes_avx2 {
#define MGPU_LANES_AVX2 1
#include "glsl/lanes.inc"
#undef MGPU_LANES_AVX2
}  // namespace lanes_avx2
#pragma GCC pop_options
#endif

// Runs fn(tier) with the tier one kernel call executes at: the scalar tier
// for `level` kScalar, a kModel round mode (whose Round() is virtual) or a
// single-lane destination (lane stride 0); otherwise SSE2 or AVX2 as
// `level` says, with the denormal flush when the round mode asks for it.
// `alu` may be null only for kernels that never round (cell moves).
template <class Fn>
void WithTierFor(AluModel* alu, RoundMode mode, simd::Level level,
                 const BatchDst& out, Fn&& fn) {
  if (level == simd::Level::kScalar || mode == RoundMode::kModel ||
      out.lane_stride == 0) {
    fn(lanes::Lane1{alu});
    return;
  }
#if MGPU_SIMD_X86
  const bool flush = mode == RoundMode::kFlushDenormals;
#if MGPU_LANES_HAVE_AVX2
  if (level == simd::Level::kAvx2) {
    if (flush) {
      fn(lanes_avx2::Vec<true>{});
    } else {
      fn(lanes_avx2::Vec<false>{});
    }
    return;
  }
#endif
  if (flush) {
    fn(lanes::Vec<true>{});
  } else {
    fn(lanes::Vec<false>{});
  }
#else
  fn(lanes::Lane1{alu});
#endif
}

template <class Fn>
void WithTier(AluModel& alu, simd::Level level, const BatchDst& out,
              Fn&& fn) {
  WithTierFor(&alu, alu.round_mode(), level, out, std::forward<Fn>(fn));
}

// Cell moves never round, so they take the vector tiers under any model.
template <class Fn>
void WithMoveTier(simd::Level level, const BatchDst& out, Fn&& fn) {
  WithTierFor(nullptr, RoundMode::kIdentity, level, out,
              std::forward<Fn>(fn));
}

// Live lanes of a mask, for the bulk op counts.
inline std::uint64_t LaneCount(std::uint32_t mask) {
  return static_cast<std::uint64_t>(std::popcount(mask));
}

}  // namespace
}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_LANES_H_
