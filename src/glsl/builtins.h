// The GLSL ES 1.00 built-in function library (spec chapter 8): resolution of
// overloads during semantic analysis and evaluation during interpretation.
#ifndef MGPU_GLSL_BUILTINS_H_
#define MGPU_GLSL_BUILTINS_H_

#include <array>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "glsl/alu.h"
#include "glsl/evalcore.h"
#include "glsl/type.h"
#include "glsl/value.h"

namespace mgpu::glsl {

enum class Builtin : int {
  kRadians, kDegrees, kSin, kCos, kTan, kAsin, kAcos, kAtan, kAtan2,
  kPow, kExp, kLog, kExp2, kLog2, kSqrt, kInverseSqrt,
  kAbs, kSign, kFloor, kCeil, kFract, kMod, kMin, kMax, kClamp, kMix,
  kStep, kSmoothstep,
  kLength, kDistance, kDot, kCross, kNormalize, kFaceforward, kReflect,
  kRefract,
  kMatrixCompMult,
  kLessThan, kLessThanEqual, kGreaterThan, kGreaterThanEqual, kEqual,
  kNotEqual, kAny, kAll, kNot,
  kTexture2D, kTexture2DBias, kTexture2DProj3, kTexture2DProj4,
  kTexture2DProj3Bias, kTexture2DProj4Bias, kTexture2DLod,
  kTexture2DProjLod3, kTexture2DProjLod4,
};

// Largest argument count across the builtin table (texture2D with bias /
// clamp / smoothstep take 3; callers size fixed pointer buffers with this).
inline constexpr int kMaxBuiltinArgs = 4;

// True if `name` is a built-in function name (used to reject user
// redefinitions, as GLSL ES 1.00 reserves them).
[[nodiscard]] bool IsBuiltinName(const std::string& name);

struct BuiltinResolution {
  bool ok = false;
  Builtin builtin{};
  Type result_type;
  std::string error;  // set when ok == false and the name matched but the
                      // argument types did not
};

// Resolves `name(arg_types...)` against the builtin library for `stage`
// (texture bias is fragment-only, texture*Lod is vertex-only).
[[nodiscard]] BuiltinResolution ResolveBuiltin(
    const std::string& name, const std::vector<Type>& arg_types, Stage stage);

// Texture fetch callback: (unit, s, t, lod) -> RGBA in [0,1]. Installed by
// the gles2 draw pipeline.
using TextureFn =
    std::function<std::array<float, 4>(int unit, float s, float t, float lod)>;

// Evaluates a resolved builtin. `args` are pointers to already-evaluated
// argument values (pointers so the bytecode VM can pass its registers
// without copying). The Into form writes the result into `dst`, which must
// be pre-typed with `result_type` (every case overwrites all result cells);
// the value-returning form wraps it for tree-walking callers.
void EvalBuiltinInto(Builtin b, Type result_type,
                     std::span<const Value* const> args, AluModel& alu,
                     const TextureFn& texture, Value& dst);
[[nodiscard]] Value EvalBuiltin(Builtin b, Type result_type,
                                std::span<const Value* const> args,
                                AluModel& alu, const TextureFn& texture);

// Lane-batched evaluation over lane-major planes (evalcore.h): builtin and
// shape dispatch run once per instruction, then one loop per cell over the
// live lanes. This is the ONLY implementation of builtin semantics —
// EvalBuiltinInto is a single-lane wrapper over it — so the tree-walking
// oracle, the scalar VM, and the batched VM share one code path and cannot
// drift in results or AluModel counts. The ALU-only builtins (abs, sign,
// floor, ceil, fract, min, max, clamp, mix, step, radians, degrees,
// matrixCompMult, cross, float vector compares, and the dot products inside
// dot, length, distance, normalize and reflect) run at `level`'s tier
// (simd.h) with every rounded op in the scalar order; min/max/clamp follow
// one pinned NaN/signed-zero rule (FminScalar in lanes.h) on every tier.
// SFU-routed and transcendental ops, and texture fetches, run one lane at a
// time at every tier.
void EvalBuiltinBatch(Builtin b, Type result_type,
                      std::span<const BatchSrc> args, AluModel& alu,
                      const TextureFn& texture, const BatchDst& dst,
                      std::uint32_t mask, simd::Level level);

// True when the batched VM may evaluate `b` through EvalBuiltinBatch for a
// whole batch at once. Texture builtins are excluded: the gles2 TMU-cache
// model counts misses in fragment-sequential order, so the batched VM
// calls them one lane at a time instead (vm.cc), keeping cache-access
// order — and therefore tmu_miss counts — identical to the scalar engines.
[[nodiscard]] inline bool IsSoaBuiltin(Builtin b) {
  return b < Builtin::kTexture2D;
}

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_BUILTINS_H_
