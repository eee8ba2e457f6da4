#include "glsl/builtins.h"

#include <bit>
#include <cmath>
#include <set>

#include "common/strings.h"
#include "glsl/lanes.h"

namespace mgpu::glsl {
namespace {

bool IsGen(const Type& t) {
  if (t.IsArray()) return false;
  return t.base == BaseType::kFloat || t.base == BaseType::kVec2 ||
         t.base == BaseType::kVec3 || t.base == BaseType::kVec4;
}
bool IsFloatVec(const Type& t) {
  return !t.IsArray() && IsVector(t.base) &&
         ScalarOf(t.base) == BaseType::kFloat;
}
bool IsIntVec(const Type& t) {
  return !t.IsArray() && IsVector(t.base) && ScalarOf(t.base) == BaseType::kInt;
}
bool IsBoolVec(const Type& t) {
  return !t.IsArray() && IsVector(t.base) &&
         ScalarOf(t.base) == BaseType::kBool;
}
bool IsMat(const Type& t) { return !t.IsArray() && IsMatrix(t.base); }
bool IsFloatScalar(const Type& t) {
  return !t.IsArray() && t.base == BaseType::kFloat;
}

const std::set<std::string>& BuiltinNames() {
  static const std::set<std::string> kNames = {
      "radians", "degrees", "sin", "cos", "tan", "asin", "acos", "atan",
      "pow", "exp", "log", "exp2", "log2", "sqrt", "inversesqrt",
      "abs", "sign", "floor", "ceil", "fract", "mod", "min", "max", "clamp",
      "mix", "step", "smoothstep",
      "length", "distance", "dot", "cross", "normalize", "faceforward",
      "reflect", "refract", "matrixCompMult",
      "lessThan", "lessThanEqual", "greaterThan", "greaterThanEqual", "equal",
      "notEqual", "any", "all", "not",
      "texture2D", "texture2DProj", "texture2DLod", "texture2DProjLod",
      "textureCube", "textureCubeLod",
  };
  return kNames;
}

BuiltinResolution Ok(Builtin b, Type result) {
  BuiltinResolution r;
  r.ok = true;
  r.builtin = b;
  r.result_type = result;
  return r;
}

BuiltinResolution Mismatch(const std::string& name,
                           const std::vector<Type>& args) {
  BuiltinResolution r;
  r.ok = false;
  std::string sig = name + "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) sig += ", ";
    sig += args[i].ToString();
  }
  sig += ")";
  r.error = StrFormat("no matching overload for %s", sig.c_str());
  return r;
}

}  // namespace

bool IsBuiltinName(const std::string& name) {
  return BuiltinNames().count(name) != 0;
}

BuiltinResolution ResolveBuiltin(const std::string& name,
                                 const std::vector<Type>& args, Stage stage) {
  const auto n = args.size();
  auto mismatch = [&] { return Mismatch(name, args); };

  // Component-wise genType -> genType (single argument).
  struct Gen1 {
    const char* name;
    Builtin b;
  };
  static constexpr Gen1 kGen1[] = {
      {"radians", Builtin::kRadians}, {"degrees", Builtin::kDegrees},
      {"sin", Builtin::kSin},         {"cos", Builtin::kCos},
      {"tan", Builtin::kTan},         {"asin", Builtin::kAsin},
      {"acos", Builtin::kAcos},       {"exp", Builtin::kExp},
      {"log", Builtin::kLog},         {"exp2", Builtin::kExp2},
      {"log2", Builtin::kLog2},       {"sqrt", Builtin::kSqrt},
      {"inversesqrt", Builtin::kInverseSqrt},
      {"abs", Builtin::kAbs},         {"sign", Builtin::kSign},
      {"floor", Builtin::kFloor},     {"ceil", Builtin::kCeil},
      {"fract", Builtin::kFract},
  };
  for (const auto& g : kGen1) {
    if (name == g.name) {
      if (n == 1 && IsGen(args[0])) return Ok(g.b, args[0]);
      return mismatch();
    }
  }

  if (name == "atan") {
    if (n == 1 && IsGen(args[0])) return Ok(Builtin::kAtan, args[0]);
    if (n == 2 && IsGen(args[0]) && args[1] == args[0]) {
      return Ok(Builtin::kAtan2, args[0]);
    }
    return mismatch();
  }
  if (name == "pow") {
    if (n == 2 && IsGen(args[0]) && args[1] == args[0]) {
      return Ok(Builtin::kPow, args[0]);
    }
    return mismatch();
  }
  if (name == "mod") {
    if (n == 2 && IsGen(args[0]) &&
        (args[1] == args[0] || IsFloatScalar(args[1]))) {
      return Ok(Builtin::kMod, args[0]);
    }
    return mismatch();
  }
  if (name == "min" || name == "max") {
    const Builtin b = name == "min" ? Builtin::kMin : Builtin::kMax;
    if (n == 2 && IsGen(args[0]) &&
        (args[1] == args[0] || IsFloatScalar(args[1]))) {
      return Ok(b, args[0]);
    }
    return mismatch();
  }
  if (name == "clamp") {
    if (n == 3 && IsGen(args[0]) &&
        ((args[1] == args[0] && args[2] == args[0]) ||
         (IsFloatScalar(args[1]) && IsFloatScalar(args[2])))) {
      return Ok(Builtin::kClamp, args[0]);
    }
    return mismatch();
  }
  if (name == "mix") {
    if (n == 3 && IsGen(args[0]) && args[1] == args[0] &&
        (args[2] == args[0] || IsFloatScalar(args[2]))) {
      return Ok(Builtin::kMix, args[0]);
    }
    return mismatch();
  }
  if (name == "step") {
    if (n == 2 && IsGen(args[1]) &&
        (args[0] == args[1] || IsFloatScalar(args[0]))) {
      return Ok(Builtin::kStep, args[1]);
    }
    return mismatch();
  }
  if (name == "smoothstep") {
    if (n == 3 && IsGen(args[2]) &&
        ((args[0] == args[2] && args[1] == args[2]) ||
         (IsFloatScalar(args[0]) && IsFloatScalar(args[1])))) {
      return Ok(Builtin::kSmoothstep, args[2]);
    }
    return mismatch();
  }

  if (name == "length") {
    if (n == 1 && IsGen(args[0])) {
      return Ok(Builtin::kLength, MakeType(BaseType::kFloat));
    }
    return mismatch();
  }
  if (name == "distance") {
    if (n == 2 && IsGen(args[0]) && args[1] == args[0]) {
      return Ok(Builtin::kDistance, MakeType(BaseType::kFloat));
    }
    return mismatch();
  }
  if (name == "dot") {
    if (n == 2 && IsGen(args[0]) && args[1] == args[0]) {
      return Ok(Builtin::kDot, MakeType(BaseType::kFloat));
    }
    return mismatch();
  }
  if (name == "cross") {
    if (n == 2 && args[0] == MakeType(BaseType::kVec3) && args[1] == args[0]) {
      return Ok(Builtin::kCross, MakeType(BaseType::kVec3));
    }
    return mismatch();
  }
  if (name == "normalize") {
    if (n == 1 && IsGen(args[0])) return Ok(Builtin::kNormalize, args[0]);
    return mismatch();
  }
  if (name == "faceforward") {
    if (n == 3 && IsGen(args[0]) && args[1] == args[0] && args[2] == args[0]) {
      return Ok(Builtin::kFaceforward, args[0]);
    }
    return mismatch();
  }
  if (name == "reflect") {
    if (n == 2 && IsGen(args[0]) && args[1] == args[0]) {
      return Ok(Builtin::kReflect, args[0]);
    }
    return mismatch();
  }
  if (name == "refract") {
    if (n == 3 && IsGen(args[0]) && args[1] == args[0] &&
        IsFloatScalar(args[2])) {
      return Ok(Builtin::kRefract, args[0]);
    }
    return mismatch();
  }
  if (name == "matrixCompMult") {
    if (n == 2 && IsMat(args[0]) && args[1] == args[0]) {
      return Ok(Builtin::kMatrixCompMult, args[0]);
    }
    return mismatch();
  }

  // Vector relational functions.
  if (name == "lessThan" || name == "lessThanEqual" || name == "greaterThan" ||
      name == "greaterThanEqual") {
    const Builtin b = name == "lessThan" ? Builtin::kLessThan
                      : name == "lessThanEqual" ? Builtin::kLessThanEqual
                      : name == "greaterThan" ? Builtin::kGreaterThan
                                              : Builtin::kGreaterThanEqual;
    if (n == 2 && (IsFloatVec(args[0]) || IsIntVec(args[0])) &&
        args[1] == args[0]) {
      return Ok(b, MakeType(VectorOf(BaseType::kBool,
                                     ComponentCount(args[0].base))));
    }
    return mismatch();
  }
  if (name == "equal" || name == "notEqual") {
    const Builtin b = name == "equal" ? Builtin::kEqual : Builtin::kNotEqual;
    if (n == 2 &&
        (IsFloatVec(args[0]) || IsIntVec(args[0]) || IsBoolVec(args[0])) &&
        args[1] == args[0]) {
      return Ok(b, MakeType(VectorOf(BaseType::kBool,
                                     ComponentCount(args[0].base))));
    }
    return mismatch();
  }
  if (name == "any" || name == "all") {
    const Builtin b = name == "any" ? Builtin::kAny : Builtin::kAll;
    if (n == 1 && IsBoolVec(args[0])) {
      return Ok(b, MakeType(BaseType::kBool));
    }
    return mismatch();
  }
  if (name == "not") {
    if (n == 1 && IsBoolVec(args[0])) return Ok(Builtin::kNot, args[0]);
    return mismatch();
  }

  // Texture lookups.
  const Type vec4 = MakeType(BaseType::kVec4);
  if (name == "texture2D") {
    if (n >= 1 && args[0].base == BaseType::kSampler2D && !args[0].IsArray()) {
      if (n == 2 && args[1] == MakeType(BaseType::kVec2)) {
        return Ok(Builtin::kTexture2D, vec4);
      }
      if (n == 3 && args[1] == MakeType(BaseType::kVec2) &&
          IsFloatScalar(args[2])) {
        if (stage != Stage::kFragment) {
          BuiltinResolution r;
          r.error = "texture2D with bias is only available in fragment "
                    "shaders";
          return r;
        }
        return Ok(Builtin::kTexture2DBias, vec4);
      }
    }
    return mismatch();
  }
  if (name == "texture2DProj") {
    if (n >= 2 && args[0].base == BaseType::kSampler2D) {
      const bool v3 = args[1] == MakeType(BaseType::kVec3);
      const bool v4 = args[1] == vec4;
      if ((v3 || v4) && n == 2) {
        return Ok(v3 ? Builtin::kTexture2DProj3 : Builtin::kTexture2DProj4,
                  vec4);
      }
      if ((v3 || v4) && n == 3 && IsFloatScalar(args[2])) {
        if (stage != Stage::kFragment) {
          BuiltinResolution r;
          r.error = "texture2DProj with bias is only available in fragment "
                    "shaders";
          return r;
        }
        return Ok(v3 ? Builtin::kTexture2DProj3Bias
                     : Builtin::kTexture2DProj4Bias,
                  vec4);
      }
    }
    return mismatch();
  }
  if (name == "texture2DLod" || name == "texture2DProjLod") {
    if (stage != Stage::kVertex) {
      BuiltinResolution r;
      r.error = StrFormat("%s is only available in vertex shaders",
                          name.c_str());
      return r;
    }
    if (name == "texture2DLod" && n == 3 &&
        args[0].base == BaseType::kSampler2D &&
        args[1] == MakeType(BaseType::kVec2) && IsFloatScalar(args[2])) {
      return Ok(Builtin::kTexture2DLod, vec4);
    }
    if (name == "texture2DProjLod" && n == 3 &&
        args[0].base == BaseType::kSampler2D && IsFloatScalar(args[2])) {
      if (args[1] == MakeType(BaseType::kVec3)) {
        return Ok(Builtin::kTexture2DProjLod3, vec4);
      }
      if (args[1] == vec4) return Ok(Builtin::kTexture2DProjLod4, vec4);
    }
    return mismatch();
  }
  if (name == "textureCube" || name == "textureCubeLod") {
    BuiltinResolution r;
    r.error = StrFormat("%s: cube maps are not supported by this "
                        "implementation (documented subset)",
                        name.c_str());
    return r;
  }

  BuiltinResolution r;
  r.error = StrFormat("unknown function '%s'", name.c_str());
  return r;
}

namespace {

// Maps fn over cells k < n one lane at a time: the SFU-routed and
// transcendental builtins, whose per-op precision model and sfu counts stay
// per lane at every tier.
template <typename F>
void MapLanes1(const BatchDst& d, const BatchSrc& a, int n, std::uint32_t mask,
               F&& fn) {
  for (int k = 0; k < n; ++k) {
    ForEachLane(mask, [&](int l) { d.at(k, l).f = fn(a.at(k, l).f); });
  }
}

// Binary form; `b` broadcasts its cell 0 when it is a scalar against a
// wider result.
template <typename F>
void MapLanes2(const BatchDst& d, const BatchSrc& a, const BatchSrc& b, int n,
               std::uint32_t mask, F&& fn) {
  const int bs = b.count() == 1 && n > 1 ? 0 : 1;
  for (int k = 0; k < n; ++k) {
    ForEachLane(mask, [&](int l) {
      d.at(k, l).f = fn(a.at(k, l).f, b.at(k * bs, l).f);
    });
  }
}

// One lane's dot product, op for op like the vector tiers' DotRows.
float DotLane(const BatchSrc& a, const BatchSrc& b, int l, AluModel& alu) {
  float acc = alu.Mul(a.at(0, l).f, b.at(0, l).f);
  for (int i = 1; i < a.count(); ++i) {
    acc = alu.Add(acc, alu.Mul(a.at(i, l).f, b.at(i, l).f));
  }
  return acc;
}

void TextureFetchInto(const BatchDst& dst, int l, const TextureFn& texture,
                      AluModel& alu, int unit, float s, float t, float lod) {
  alu.CountTmu(1);
  std::array<float, 4> rgba{0.0f, 0.0f, 0.0f, 1.0f};
  if (texture) rgba = texture(unit, s, t, lod);
  for (int i = 0; i < 4; ++i) {
    dst.at(i, l).f = rgba[static_cast<std::size_t>(i)];
  }
}

// ALU ops per lane of the BuiltinRows builtins over an n-cell result.
std::uint64_t RowsOps(Builtin b, int n) {
  const auto un = static_cast<std::uint64_t>(n);
  switch (b) {
    case Builtin::kFract:
    case Builtin::kClamp:
      return 2 * un;
    case Builtin::kMix:
      return 4 * un;
    case Builtin::kCross:
      return 9;
    default:
      return un;
  }
}

}  // namespace

void EvalBuiltinBatch(Builtin b, Type result_type,
                      std::span<const BatchSrc> argp, AluModel& alu,
                      const TextureFn& texture, const BatchDst& dst,
                      std::uint32_t mask, simd::Level level) {
  (void)result_type;  // dst carries it; kept for signature symmetry
  const auto args = [&](std::size_t i) -> const BatchSrc& { return argp[i]; };
  const int n = dst.count();
  const std::uint64_t lanes = LaneCount(mask);
  // Per-lane scratch rows (lane stride 1) for dot products and differences;
  // the cases that use them clear them first, so every lane a vector step
  // reads is defined.
  std::array<Cell, 4 * kVmLanes> tmp;
  const BatchDst tmp_row{tmp.data(), MakeType(BaseType::kFloat), kVmLanes, 1};
  const auto rows = [&] {
    alu.CountAlu(RowsOps(b, n) * lanes);
    WithTier(alu, level, dst,
             [&](const auto& t) { BuiltinRows(t, b, argp, dst, n, mask); });
  };
  // dot(a, b) of every live lane into tmp_row.
  const auto dots = [&](const BatchSrc& a, const BatchSrc& c) {
    alu.CountAlu((2 * static_cast<std::uint64_t>(a.count()) - 1) * lanes);
    WithTier(alu, level, tmp_row, [&](const auto& t) {
      DotRows(t, a, c, a.count(), tmp.data(), 1, mask);
    });
  };
  switch (b) {
    case Builtin::kRadians:
    case Builtin::kDegrees:
    case Builtin::kAbs:
    case Builtin::kSign:
    case Builtin::kFloor:
    case Builtin::kCeil:
    case Builtin::kFract:
    case Builtin::kMin:
    case Builtin::kMax:
    case Builtin::kClamp:
    case Builtin::kMix:
    case Builtin::kStep:
    case Builtin::kMatrixCompMult:
    case Builtin::kCross:
      rows();
      return;

    case Builtin::kSin:
      return MapLanes1(dst, args(0), n, mask,
                       [&](float x) { return alu.Sin(x); });
    case Builtin::kCos:
      return MapLanes1(dst, args(0), n, mask,
                       [&](float x) { return alu.Cos(x); });
    case Builtin::kTan:
      return MapLanes1(dst, args(0), n, mask,
                       [&](float x) { return alu.Tan(x); });
    case Builtin::kAsin:
      return MapLanes1(dst, args(0), n, mask,
                       [&](float x) { return alu.Asin(x); });
    case Builtin::kAcos:
      return MapLanes1(dst, args(0), n, mask,
                       [&](float x) { return alu.Acos(x); });
    case Builtin::kAtan:
      return MapLanes1(dst, args(0), n, mask,
                       [&](float x) { return alu.Atan(x); });
    case Builtin::kAtan2:
      return MapLanes2(dst, args(0), args(1), n, mask,
                       [&](float y, float x) { return alu.Atan2(y, x); });
    case Builtin::kPow:
      return MapLanes2(dst, args(0), args(1), n, mask,
                       [&](float x, float y) { return alu.Pow(x, y); });
    case Builtin::kExp:
      return MapLanes1(dst, args(0), n, mask,
                       [&](float x) { return alu.Exp(x); });
    case Builtin::kLog:
      return MapLanes1(dst, args(0), n, mask,
                       [&](float x) { return alu.Log(x); });
    case Builtin::kExp2:
      return MapLanes1(dst, args(0), n, mask,
                       [&](float x) { return alu.Exp2(x); });
    case Builtin::kLog2:
      return MapLanes1(dst, args(0), n, mask,
                       [&](float x) { return alu.Log2(x); });
    case Builtin::kSqrt:
      return MapLanes1(dst, args(0), n, mask,
                       [&](float x) { return alu.Sqrt(x); });
    case Builtin::kInverseSqrt:
      return MapLanes1(dst, args(0), n, mask,
                       [&](float x) { return alu.RecipSqrt(x); });
    case Builtin::kMod:
      // mod(x, y) = x - y * floor(x / y), per spec.
      return MapLanes2(dst, args(0), args(1), n, mask, [&](float x, float y) {
        const float q = alu.Div(x, y);
        alu.Count(1);
        return alu.Sub(x, alu.Mul(y, std::floor(q)));
      });
    case Builtin::kSmoothstep: {
      // t = clamp((x-e0)/(e1-e0), 0, 1); t*t*(3-2t).
      const BatchSrc& e0 = args(0);
      const BatchSrc& e1 = args(1);
      const BatchSrc& x = args(2);
      const int es = e0.count() == 1 && n > 1 ? 0 : 1;
      for (int i = 0; i < n; ++i) {
        ForEachLane(mask, [&](int l) {
          const float a = e0.at(i * es, l).f;
          const float bb = e1.at(i * es, l).f;
          float t = alu.Div(alu.Sub(x.at(i, l).f, a), alu.Sub(bb, a));
          alu.Count(2);
          t = FminScalar(FmaxScalar(t, 0.0f), 1.0f);
          dst.at(i, l).f =
              alu.Mul(alu.Mul(t, t), alu.Sub(3.0f, alu.Mul(2.0f, t)));
        });
      }
      return;
    }

    case Builtin::kLength:
      tmp.fill(Cell{});
      dots(args(0), args(0));
      ForEachLane(mask, [&](int l) { dst.at(0, l).f = alu.Sqrt(tmp[l].f); });
      return;
    case Builtin::kDistance: {
      tmp.fill(Cell{});
      const int m = args(0).count();
      const BatchDst diff{tmp.data(), args(0).type, kVmLanes, 1};
      alu.CountAlu(static_cast<std::uint64_t>(m) * lanes);
      WithTier(alu, level, diff, [&](const auto& t) {
        ArithRows(t, BinOp::kSub, args(0), 1, args(1), 1, diff, m, mask);
      });
      dots(diff, diff);
      ForEachLane(mask, [&](int l) { dst.at(0, l).f = alu.Sqrt(tmp[l].f); });
      return;
    }
    case Builtin::kDot: {
      const BatchSrc& a = args(0);
      alu.CountAlu((2 * static_cast<std::uint64_t>(a.count()) - 1) * lanes);
      WithTier(alu, level, dst, [&](const auto& t) {
        DotRows(t, a, args(1), a.count(), dst.row(0), dst.lane_stride, mask);
      });
      return;
    }
    case Builtin::kNormalize:
      tmp.fill(Cell{});
      dots(args(0), args(0));
      ForEachLane(mask, [&](int l) { tmp[l].f = alu.RecipSqrt(tmp[l].f); });
      alu.CountAlu(static_cast<std::uint64_t>(n) * lanes);
      WithTier(alu, level, dst, [&](const auto& t) {
        ArithRows(t, BinOp::kMul, args(0), 1, tmp_row, 0, dst, n, mask);
      });
      return;
    case Builtin::kFaceforward:
      ForEachLane(mask, [&](int l) {
        const float d = DotLane(args(2), args(1), l, alu);
        alu.Count(1);
        for (int i = 0; i < n; ++i) {
          const float x = args(0).at(i, l).f;
          dst.at(i, l).f = d < 0.0f ? x : alu.Sub(0.0f, x);
        }
      });
      return;
    case Builtin::kReflect:
      tmp.fill(Cell{});
      dots(args(1), args(0));
      alu.CountAlu((1 + 2 * static_cast<std::uint64_t>(n)) * lanes);
      WithTier(alu, level, dst, [&](const auto& t) {
        ReflectRows(t, args(0), args(1), tmp_row, dst, n, mask);
      });
      return;
    case Builtin::kRefract:
      ForEachLane(mask, [&](int l) {
        const float eta = args(2).at(0, l).f;
        const float d = DotLane(args(1), args(0), l, alu);
        const float k = alu.Sub(
            1.0f,
            alu.Mul(alu.Mul(eta, eta), alu.Sub(1.0f, alu.Mul(d, d))));
        alu.Count(1);
        if (k < 0.0f) {
          // Zero vector; written explicitly because the VM's destination
          // register may hold a stale value.
          for (int i = 0; i < n; ++i) dst.at(i, l).f = 0.0f;
          return;
        }
        const float coeff = alu.Add(alu.Mul(eta, d), alu.Sqrt(k));
        for (int i = 0; i < n; ++i) {
          dst.at(i, l).f = alu.Sub(alu.Mul(eta, args(0).at(i, l).f),
                                   alu.Mul(coeff, args(1).at(i, l).f));
        }
      });
      return;

    case Builtin::kLessThan:
    case Builtin::kLessThanEqual:
    case Builtin::kGreaterThan:
    case Builtin::kGreaterThanEqual:
    case Builtin::kEqual:
    case Builtin::kNotEqual: {
      if (args(0).scalar() == BaseType::kFloat) {
        rows();
        return;
      }
      alu.CountAlu(static_cast<std::uint64_t>(n) * lanes);
      for (int i = 0; i < n; ++i) {
        ForEachLane(mask, [&](int l) {
          const std::int32_t x = args(0).at(i, l).i;
          const std::int32_t y = args(1).at(i, l).i;
          bool r = false;
          switch (b) {
            case Builtin::kLessThan: r = x < y; break;
            case Builtin::kLessThanEqual: r = x <= y; break;
            case Builtin::kGreaterThan: r = x > y; break;
            case Builtin::kGreaterThanEqual: r = x >= y; break;
            case Builtin::kEqual: r = x == y; break;
            default: r = x != y; break;
          }
          dst.at(i, l).i = r ? 1 : 0;
        });
      }
      return;
    }
    case Builtin::kAny:
    case Builtin::kAll: {
      const int m = args(0).count();
      const bool any = b == Builtin::kAny;
      alu.CountAlu(static_cast<std::uint64_t>(m) * lanes);
      ForEachLane(mask, [&](int l) {
        bool r = !any;
        for (int i = 0; i < m; ++i) {
          const bool v = args(0).at(i, l).i != 0;
          r = any ? (r || v) : (r && v);
        }
        dst.at(0, l).i = r ? 1 : 0;
      });
      return;
    }
    case Builtin::kNot:
      alu.CountAlu(static_cast<std::uint64_t>(n) * lanes);
      for (int i = 0; i < n; ++i) {
        ForEachLane(mask, [&](int l) {
          dst.at(i, l).i = args(0).at(i, l).i != 0 ? 0 : 1;
        });
      }
      return;

    // Texture builtins: the batched VM calls this one lane at a time (see
    // IsSoaBuiltin), so each fetch is attributed to its fragment.
    case Builtin::kTexture2D:
      ForEachLane(mask, [&](int l) {
        TextureFetchInto(dst, l, texture, alu, args(0).at(0, l).i,
                         args(1).at(0, l).f, args(1).at(1, l).f, 0.0f);
      });
      return;
    case Builtin::kTexture2DBias:
    case Builtin::kTexture2DLod:
      ForEachLane(mask, [&](int l) {
        TextureFetchInto(dst, l, texture, alu, args(0).at(0, l).i,
                         args(1).at(0, l).f, args(1).at(1, l).f,
                         args(2).at(0, l).f);
      });
      return;
    case Builtin::kTexture2DProj3:
    case Builtin::kTexture2DProj3Bias:
    case Builtin::kTexture2DProjLod3:
    case Builtin::kTexture2DProj4:
    case Builtin::kTexture2DProj4Bias:
    case Builtin::kTexture2DProjLod4: {
      const bool proj3 = b == Builtin::kTexture2DProj3 ||
                         b == Builtin::kTexture2DProj3Bias ||
                         b == Builtin::kTexture2DProjLod3;
      ForEachLane(mask, [&](int l) {
        const BatchSrc& uv = args(1);
        const float q = uv.at(proj3 ? 2 : 3, l).f;
        const float lod = argp.size() > 2 ? args(2).at(0, l).f : 0.0f;
        TextureFetchInto(dst, l, texture, alu, args(0).at(0, l).i,
                         alu.Div(uv.at(0, l).f, q), alu.Div(uv.at(1, l).f, q),
                         lod);
      });
      return;
    }
  }
}

void EvalBuiltinInto(Builtin b, Type result_type,
                     std::span<const Value* const> argp, AluModel& alu,
                     const TextureFn& texture, Value& dst) {
  // Single-lane view over the batch kernel: one implementation of builtin
  // semantics serves the tree-walking oracle, the scalar VM, and the
  // batched VM alike.
  std::array<BatchSrc, kMaxBuiltinArgs> av;
  for (std::size_t i = 0; i < argp.size(); ++i) av[i] = BatchSrc::Of(*argp[i]);
  EvalBuiltinBatch(b, result_type,
                   std::span<const BatchSrc>(av.data(), argp.size()), alu,
                   texture, BatchDst::Of(dst), 0x1u, simd::Level::kScalar);
}

Value EvalBuiltin(Builtin b, Type result_type,
                  std::span<const Value* const> args, AluModel& alu,
                  const TextureFn& texture) {
  Value out(result_type);
  EvalBuiltinInto(b, result_type, args, alu, texture, out);
  return out;
}

}  // namespace mgpu::glsl
