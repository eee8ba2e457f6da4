// Bit-identity and op-count lockdown for the batched VM's plane kernels
// (src/glsl/lanes.inc, evalcore.cc, builtins.cc) at every SIMD tier
// (src/glsl/simd.h).
//
// Four layers of assertion:
//   1. AluModel::CountAlu(n) is exactly n individual Count(1) calls — the
//      contract that lets the kernels charge a whole instruction at once.
//   2. Every plane kernel, at every tier the host supports, is
//      bit-identical (cells AND counts) to the scalar engines' per-lane
//      Eval*Into on adversarial inputs: NaN (quiet, negative and signaling
//      payloads — every NaN an op produces is the canonical one), +/-0,
//      +/-inf, denormals; batch tails 1, 7, 31 and 32 and sparse divergent
//      masks, whose dead lanes must keep their cells; stride-0 shared
//      operands; registers wider than 16 cells. The differentials run under
//      ExactAlu (identity rounding), Vc4Alu(VideoCoreIV()) (denormal flush,
//      on operands whose results land in the denormal range) and
//      Vc4Alu(Mali400()) (reduced mantissa: the per-op virtual Round()).
//   3. Per-lane references into planes read and write exactly what
//      references into per-lane Values do.
//   4. A fixed vector-heavy fragment shader run through the real VM: the
//      batched executor at every tier must reproduce the per-lane scalar
//      VM's gl_FragColor bits and the summed per-lane op counts, under
//      ExactAlu and the Vc4Alu profiles, and VmExec::simd_batches() shows
//      which tier actually ran (VideoCore IV vectorizes, Mali-400
//      declines).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "glsl/alu.h"
#include "glsl/builtins.h"
#include "glsl/compile.h"
#include "glsl/evalcore.h"
#include "glsl/ir.h"
#include "glsl/simd.h"
#include "glsl/value.h"
#include "glsl/vm.h"
#include "vc4/alu.h"
#include "vc4/profiles.h"

namespace mgpu::glsl {
namespace {

std::uint32_t Bits(float f) { return std::bit_cast<std::uint32_t>(f); }
float FromBits(std::uint32_t u) { return std::bit_cast<float>(u); }

// Adversarial float pools, each with specials first so every lane sees
// several, then a spread of ordinary magnitudes. Indexed modularly by
// (lane, component).
//
// kPoolArith has no NaN inputs, so chains of ordinary values and infinities
// dominate; kPoolNaN adds distinct NaN payloads (quiet, negative,
// signaling). Since every rounded op returns the one canonical NaN, two
// NaNs meeting in a commutative op yield the same bits whichever payload
// the hardware would propagate, so kPoolNaN feeds every op.
const float kPoolArith[] = {
    FromBits(0x7f800000u),        // +inf
    FromBits(0xff800000u),        // -inf
    0.0f,
    FromBits(0x80000000u),        // -0.0
    FromBits(0x00000001u),        // smallest denormal
    FromBits(0x807fffffu),        // largest negative denormal
    1.0f,    -1.0f,   0.5f,   -0.5f,  1.5f,    -2.75f,  3.25f,
    1e-20f,  -1e20f,  123.456f, -0.0625f, 7.0f, -7.5f,  0.999f, 1.001f,
};
const float kPoolNaN[] = {
    FromBits(0x7fc00000u),        // quiet NaN
    FromBits(0xffc00001u),        // negative quiet NaN, nonzero payload
    FromBits(0x7f800001u),        // signaling NaN payload
    FromBits(0x7f800000u),        // +inf
    FromBits(0xff800000u),        // -inf
    0.0f,
    FromBits(0x80000000u),        // -0.0
    FromBits(0x00000001u),        // smallest denormal
    FromBits(0x807fffffu),        // largest negative denormal
    1.0f,    -1.0f,   0.5f,   -0.5f,  1.5f,    -2.75f,  3.25f,
    1e-20f,  -1e20f,  123.456f, -0.0625f, 7.0f, -7.5f,  0.999f, 1.001f,
};

// kPoolTiny drives results into the denormal range, where the VideoCore IV
// model flushes: tiny x tiny products (1e-20 * 1e-20 = 1e-40), FLT_MIN
// minus its neighbour, negated denormals, +/-0, inf and NaN (the pattern SSE
// generates for invalid operations, 0xffc00000).
const float kPoolTiny[] = {
    std::numeric_limits<float>::min(),  // FLT_MIN
    FromBits(0x00800001u),              // FLT_MIN's upper neighbour
    -std::numeric_limits<float>::min(),
    FromBits(0x007fffffu),              // largest denormal
    FromBits(0x80000001u),              // smallest negative denormal
    1e-20f,  -3e-20f, 1e-19f, 0.0f,
    FromBits(0x80000000u),              // -0.0
    FromBits(0x7f800000u),              // +inf
    FromBits(0xffc00000u),              // the invalid-operation NaN
    1.0f,    -0.5f,
};

float PoolAt(std::span<const float> pool, int lane, int comp, int salt) {
  return pool[static_cast<std::size_t>(lane * 5 + comp * 3 + salt) %
              pool.size()];
}

// A lane-major plane of `t`-typed values: cell k of lane l at
// cells[k * kVmLanes + l], as the batched VM stores registers.
struct Plane {
  Type type;
  std::vector<Cell> cells;

  explicit Plane(Type t)
      : type(t),
        cells(static_cast<std::size_t>(t.CellCount()) * kVmLanes) {}
  [[nodiscard]] BatchSrc Src() const {
    return {cells.data(), type, kVmLanes, 1};
  }
  [[nodiscard]] BatchDst Dst() { return {cells.data(), type, kVmLanes, 1}; }
  [[nodiscard]] Cell& At(int k, int l) {
    return cells[static_cast<std::size_t>(k * kVmLanes + l)];
  }
  [[nodiscard]] const Cell& At(int k, int l) const {
    return cells[static_cast<std::size_t>(k * kVmLanes + l)];
  }
  // Lane l as a Value, the scalar engines' storage.
  [[nodiscard]] Value Lane(int l) const {
    Value v(type);
    for (int k = 0; k < v.count(); ++k) v.data()[k] = At(k, l);
    return v;
  }
};

// A plane filled from `pool` (float cells) or with small ints (int/bool
// cells); `salt` decorrelates planes so binary ops see mixed special pairs.
Plane MakePlane(Type t, int salt, std::span<const float> pool) {
  Plane p(t);
  const bool is_float = ScalarOf(t.base) == BaseType::kFloat;
  for (int l = 0; l < kVmLanes; ++l) {
    for (int k = 0; k < t.CellCount(); ++k) {
      if (is_float) {
        p.At(k, l).f = PoolAt(pool, l, k, salt);
      } else {
        const int v = (l * 7 + k * 3 + salt) % 11 - 5;
        p.At(k, l).i = ScalarOf(t.base) == BaseType::kBool ? (v > 0) : v;
      }
    }
  }
  return p;
}
Plane MakePlane(BaseType t, int salt, std::span<const float> pool) {
  return MakePlane(MakeType(t), salt, pool);
}

// Plane `which` (0, 1, 2) of a cross product over `pool`: cell c of the
// flattened plane holds pool[(c / P^which) % P], so planes 0 and 1 together
// pair every pool value with every other one once the plane has P^2 cells.
Plane MakeCrossPlane(BaseType t, int which, std::span<const float> pool) {
  const std::size_t p = pool.size();
  std::size_t div = 1;
  for (int i = 0; i < which; ++i) div *= p;
  Plane plane{MakeType(t)};
  const int count = plane.type.CellCount();
  for (int l = 0; l < kVmLanes; ++l) {
    for (int k = 0; k < count; ++k) {
      const std::size_t c = static_cast<std::size_t>(l * count + k);
      plane.At(k, l).f = pool[(c / div) % p];
    }
  }
  return plane;
}

// Destination planes start as a sentinel pattern, so a kernel that writes a
// dead lane shows up.
constexpr std::uint32_t kSentinel = 0xdeadbeefu;
Plane SentinelPlane(Type t) {
  Plane p(t);
  for (Cell& c : p.cells) c.i = static_cast<std::int32_t>(kSentinel);
  return p;
}

void ExpectCountsEq(const OpCounts& a, const OpCounts& b, const char* what) {
  EXPECT_EQ(a.alu, b.alu) << what << " (alu)";
  EXPECT_EQ(a.sfu, b.sfu) << what << " (sfu)";
  EXPECT_EQ(a.sfu_trans, b.sfu_trans) << what << " (sfu_trans)";
  EXPECT_EQ(a.tmu, b.tmu) << what << " (tmu)";
  EXPECT_EQ(a.tmu_miss, b.tmu_miss) << what << " (tmu_miss)";
}

// `got` must hold want[l]'s cells in every live lane of `mask` and the
// sentinel in every other lane.
void ExpectLanes(const Plane& got, const std::vector<Value>& want,
                 std::uint32_t mask) {
  for (int l = 0; l < kVmLanes; ++l) {
    const bool live = ((mask >> l) & 1u) != 0;
    for (int k = 0; k < got.type.CellCount(); ++k) {
      const std::uint32_t bits =
          static_cast<std::uint32_t>(got.At(k, l).i);
      if (live) {
        ASSERT_EQ(bits, static_cast<std::uint32_t>(
                            want[static_cast<std::size_t>(l)].data()[k].i))
            << "lane " << l << " cell " << k;
      } else {
        ASSERT_EQ(bits, kSentinel) << "dead lane " << l << " cell " << k;
      }
    }
  }
}

// SIMD levels worth exercising on this host (kScalar always; each hardware
// tier when available — Resolve clamps to the detected level).
std::vector<simd::Level> HostLevels() {
  std::vector<simd::Level> ls{simd::Level::kScalar};
  const simd::Level det = simd::DetectedLevel();
  if (det >= simd::Level::kSse2) ls.push_back(simd::Level::kSse2);
  if (det >= simd::Level::kAvx2) ls.push_back(simd::Level::kAvx2);
  return ls;
}

// Live-lane masks: batch tails 32, 1, 7 and 31, then sparse divergent
// groups (both ends only, alternating, a middle run, one high lane).
const std::uint32_t kMasks[] = {0xffffffffu, 0x00000001u, 0x0000007fu,
                                0x7fffffffu, 0x80000001u, 0x55555555u,
                                0x0000fff0u, 0x00010000u};

// The ALU a kernel differential runs under: one rounding mode each.
enum class Model { kExact, kVideoCore, kMali };

std::unique_ptr<AluModel> MakeAlu(Model m) {
  switch (m) {
    case Model::kVideoCore:
      return std::make_unique<vc4::Vc4Alu>(vc4::VideoCoreIV());
    case Model::kMali:
      return std::make_unique<vc4::Vc4Alu>(vc4::Mali400());
    default:
      return std::make_unique<ExactAlu>();
  }
}

const char* ModelName(Model m) {
  switch (m) {
    case Model::kVideoCore:
      return "VideoCoreIV";
    case Model::kMali:
      return "Mali400";
    default:
      return "exact";
  }
}

// Operand planes for one differential: drawn from `pool` with
// decorrelating salts, or, with `cross`, as cross product planes that pair
// every pool value with every other (plane index = operand position).
struct PlaneSource {
  std::span<const float> pool;
  bool cross = false;

  Plane Make(BaseType t, int operand, int salt) const {
    return cross && ScalarOf(t) == BaseType::kFloat
               ? MakeCrossPlane(t, operand, pool)
               : MakePlane(t, salt, pool);
  }
};

// Runs `kernel(alu, dst, mask, level)` on a sentinel plane at every tier and
// mask, and `oracle(alu, lane, out)` per live lane on Values; cells and op
// counts must match.
template <typename Kernel, typename Oracle>
void Differential(Model model, Type out_t, Kernel kernel, Oracle oracle) {
  for (simd::Level level : HostLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    for (std::uint32_t mask : kMasks) {
      SCOPED_TRACE(mask);
      const auto alu_want = MakeAlu(model);
      const auto alu_got = MakeAlu(model);
      std::vector<Value> want(kVmLanes, Value(out_t));
      for (int l = 0; l < kVmLanes; ++l) {
        if (((mask >> l) & 1u) != 0) {
          oracle(*alu_want, l, want[static_cast<std::size_t>(l)]);
        }
      }
      Plane got = SentinelPlane(out_t);
      kernel(*alu_got, got.Dst(), mask, level);
      ExpectLanes(got, want, mask);
      ExpectCountsEq(alu_want->counts(), alu_got->counts(), "kernel");
    }
  }
}

// ---------------------------------------------------------------------------

TEST(SimdCounts, CountAluEqualsRepeatedCount1) {
  ExactAlu a, b;
  for (int i = 0; i < 137; ++i) a.Count(1);
  b.CountAlu(137);
  ExpectCountsEq(a.counts(), b.counts(), "CountAlu(137) vs 137x Count(1)");
  // And it composes with the other counters untouched.
  EXPECT_EQ(b.counts().sfu, 0u);
  EXPECT_EQ(b.counts().tmu, 0u);
}

TEST(SimdLevel, ResolveClampsAndNames) {
  const simd::Level det = simd::DetectedLevel();
  EXPECT_EQ(simd::Resolve(0), simd::Level::kScalar);
  EXPECT_LE(simd::Resolve(2), det);
  EXPECT_LE(simd::Resolve(-1), det);
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kSse2), "sse2");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
}

// The NaN rule: every rounded op yields the one canonical NaN, whatever
// NaNs went in and in which order.
TEST(NanRule, RoundingCanonicalizesEveryNan) {
  const float nans[] = {FromBits(0x7fc00000u), FromBits(0xffc00000u),
                        FromBits(0xffc00001u), FromBits(0x7f800001u)};
  for (Model model : {Model::kExact, Model::kVideoCore, Model::kMali}) {
    SCOPED_TRACE(ModelName(model));
    const auto alu = MakeAlu(model);
    for (float a : nans) {
      for (float b : nans) {
        EXPECT_EQ(Bits(alu->Add(a, b)), kCanonicalNanBits);
        EXPECT_EQ(Bits(alu->Mul(b, a)), kCanonicalNanBits);
        EXPECT_EQ(Bits(alu->Sub(a, 1.0f)), kCanonicalNanBits);
      }
      EXPECT_EQ(Bits(alu->RoundResult(-a)), kCanonicalNanBits);
    }
    EXPECT_EQ(Bits(alu->RecipSqrt(-4.0f)), kCanonicalNanBits);
    EXPECT_EQ(Bits(alu->Log2(-1.0f)), kCanonicalNanBits);
    EXPECT_EQ(Bits(alu->Sqrt(-2.0f)), kCanonicalNanBits);
  }
}

// int() of NaN and out-of-range floats is defined: saturate, NaN -> 0.
TEST(NanRule, FloatToIntSaturates) {
  EXPECT_EQ(FloatToIntSat(FromBits(0x7fc00000u)), 0);
  EXPECT_EQ(FloatToIntSat(FromBits(0xffc00001u)), 0);
  EXPECT_EQ(FloatToIntSat(1e10f), 2147483647);
  EXPECT_EQ(FloatToIntSat(-1e10f), -2147483647 - 1);
  EXPECT_EQ(FloatToIntSat(FromBits(0x7f800000u)), 2147483647);
  EXPECT_EQ(FloatToIntSat(2147483648.0f), 2147483647);
  EXPECT_EQ(FloatToIntSat(-2147483648.0f), -2147483647 - 1);
  EXPECT_EQ(FloatToIntSat(-7.9f), -7);
  EXPECT_EQ(FloatToIntSat(123456.5f), 123456);
  // The plane ctor kernel converts the same way at every tier.
  Plane f = MakePlane(BaseType::kFloat, 0, kPoolNaN);
  f.At(0, 0).f = 1e10f;
  f.At(0, 1).f = -3e9f;
  Differential(
      Model::kExact, MakeType(BaseType::kIVec2),
      [&](AluModel& alu, BatchDst d, std::uint32_t mask, simd::Level level) {
        const BatchSrc args[] = {f.Src(), f.Src()};
        EvalCtorBatch(alu, args, d, mask, level);
      },
      [&](AluModel& alu, int l, Value& out) {
        const Value a = f.Lane(l);
        const Value* args[] = {&a, &a};
        EvalCtorInto(alu, args, out);
      });
}

void ArithDifferential(Model model, PlaneSource src) {
  SCOPED_TRACE(ModelName(model));
  const BinOp ops[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kDiv,
                       BinOp::kLt,  BinOp::kGe,  BinOp::kEq,  BinOp::kNe};
  const BaseType shapes[] = {BaseType::kFloat, BaseType::kVec2,
                             BaseType::kVec3,  BaseType::kVec4,
                             BaseType::kMat3,  BaseType::kIVec3,
                             BaseType::kInt};
  for (BaseType shape : shapes) {
    for (BinOp op : ops) {
      SCOPED_TRACE(static_cast<int>(op));
      const bool rel = op == BinOp::kLt || op == BinOp::kGe;
      const bool eq = op == BinOp::kEq || op == BinOp::kNe;
      if (rel && MakeType(shape).CellCount() > 1) continue;  // scalar-only
      const Plane l = src.Make(shape, 0, 0);
      const Plane r = src.Make(shape, 1, 7);
      // Scalar broadcast variants too (vec OP float), from a plane and
      // from a shared (stride-0) constant.
      const BaseType scalar = ScalarOf(shape);
      const Plane rs = src.Make(scalar, 1, 11);
      const Value shared = rs.Lane(3);
      const Type out_t = rel || eq ? MakeType(BaseType::kBool)
                                   : MakeType(shape);
      const int variants = rel || eq || shape == scalar ? 1 : 3;
      for (int broadcast = 0; broadcast < variants; ++broadcast) {
        SCOPED_TRACE(broadcast);
        const BatchSrc rb = broadcast == 0   ? r.Src()
                            : broadcast == 1 ? rs.Src()
                                             : BatchSrc::Of(shared);
        Differential(
            model, out_t,
            [&](AluModel& alu, BatchDst d, std::uint32_t mask,
                simd::Level level) {
              EvalArithBatch(alu, op, l.Src(), rb, d, mask, level);
            },
            [&](AluModel& alu, int lane, Value& out) {
              const Value b = broadcast == 0   ? r.Lane(lane)
                              : broadcast == 1 ? rs.Lane(lane)
                                               : shared;
              EvalArithInto(alu, op, l.Lane(lane), b, out);
            });
      }
    }
  }
}

TEST(SimdKernels, ArithBitIdentical) {
  // NaN inputs included: with every rounded NaN canonical, which operand's
  // payload an op would propagate no longer matters.
  ArithDifferential(Model::kExact, {kPoolNaN});
  ArithDifferential(Model::kExact, {kPoolArith});
}

// mat * mat, mat * vec and vec * mat replay the scalar accumulation per
// lane through the lane-slice gather/scatter.
TEST(SimdKernels, LinearAlgebraReplaysPerLane) {
  const struct {
    BaseType l, r, out;
  } cases[] = {{BaseType::kMat4, BaseType::kMat4, BaseType::kMat4},
               {BaseType::kMat3, BaseType::kVec3, BaseType::kVec3},
               {BaseType::kVec2, BaseType::kMat2, BaseType::kVec2}};
  for (const auto& c : cases) {
    const Plane l = MakePlane(c.l, 1, kPoolArith);
    const Plane r = MakePlane(c.r, 5, kPoolArith);
    Differential(
        Model::kVideoCore, MakeType(c.out),
        [&](AluModel& alu, BatchDst d, std::uint32_t mask, simd::Level level) {
          EvalArithBatch(alu, BinOp::kMul, l.Src(), r.Src(), d, mask, level);
        },
        [&](AluModel& alu, int lane, Value& out) {
          EvalArithInto(alu, BinOp::kMul, l.Lane(lane), r.Lane(lane), out);
        });
  }
}

void NegDifferential(Model model, PlaneSource src) {
  SCOPED_TRACE(ModelName(model));
  for (BaseType shape : {BaseType::kFloat, BaseType::kVec4, BaseType::kMat4,
                         BaseType::kIVec3}) {
    const Plane v = src.Make(shape, 0, 3);
    Differential(
        model, MakeType(shape),
        [&](AluModel& alu, BatchDst d, std::uint32_t mask, simd::Level level) {
          EvalNegBatch(alu, v.Src(), d, mask, level);
        },
        [&](AluModel& alu, int l, Value& out) {
          EvalNegInto(alu, v.Lane(l), out);
        });
  }
}

TEST(SimdKernels, NegBitIdentical) {
  NegDifferential(Model::kExact, {kPoolNaN});
}

void CtorDifferential(Model model, PlaneSource src) {
  SCOPED_TRACE(ModelName(model));
  const Plane f0 = src.Make(BaseType::kFloat, 0, 1);
  const Plane f1 = src.Make(BaseType::kFloat, 1, 9);
  const Plane v2 = src.Make(BaseType::kVec2, 2, 4);
  const Plane v3 = src.Make(BaseType::kVec3, 1, 6);
  const Plane i1 = src.Make(BaseType::kInt, 2, 2);
  const Plane b2 = src.Make(BaseType::kBVec2, 2, 5);
  const Value shared = f1.Lane(5);
  struct Case {
    BaseType out;
    std::vector<BatchSrc> args;
  };
  const Case cases[] = {
      {BaseType::kVec4, {f0.Src()}},                      // splat
      {BaseType::kIVec3, {f0.Src()}},                     // converting splat
      {BaseType::kVec4, {v2.Src(), f0.Src(), f1.Src()}},  // gather
      {BaseType::kVec3, {f0.Src(), v2.Src()}},
      {BaseType::kVec2, {BatchSrc::Of(shared), f1.Src()}},  // shared arg
      {BaseType::kVec4, {v3.Src(), f0.Src()}},
      {BaseType::kVec3, {i1.Src(), f0.Src(), f1.Src()}},  // mixed
      {BaseType::kBVec4, {v2.Src(), i1.Src(), b2.Src()}},
      {BaseType::kIVec2, {b2.Src()}},
      {BaseType::kFloat, {v3.Src()}},  // truncate
      {BaseType::kInt, {f1.Src()}},
      {BaseType::kMat2, {v2.Src(), f0.Src(), f1.Src()}},  // per-lane replay
      {BaseType::kMat3, {f0.Src()}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.out));
    Differential(
        model, MakeType(c.out),
        [&](AluModel& alu, BatchDst d, std::uint32_t mask, simd::Level level) {
          EvalCtorBatch(alu, c.args, d, mask, level);
        },
        [&](AluModel& alu, int l, Value& out) {
          std::vector<Value> vals;
          for (const BatchSrc& a : c.args) {
            Value v(a.type);
            GatherLane(a, l, v);
            vals.push_back(v);
          }
          std::vector<const Value*> ptrs;
          for (const Value& v : vals) ptrs.push_back(&v);
          EvalCtorInto(alu, ptrs, out);
        });
  }
}

TEST(SimdKernels, CtorBitIdentical) {
  CtorDifferential(Model::kExact, {kPoolNaN});
}

// `nan_pool` feeds the ops that only compare/blend/round/copy NaNs, `pool`
// the arithmetic chains.
void BuiltinsDifferential(Model model, PlaneSource nan_pool,
                          PlaneSource pool) {
  SCOPED_TRACE(ModelName(model));
  const TextureFn no_tex;
  struct Case {
    Builtin b;
    BaseType result;
    std::vector<BaseType> args;
    bool nan_inputs = true;
  };
  const Case cases[] = {
      {Builtin::kAbs, BaseType::kVec4, {BaseType::kVec4}},
      {Builtin::kAbs, BaseType::kFloat, {BaseType::kFloat}},
      {Builtin::kSign, BaseType::kVec3, {BaseType::kVec3}},
      {Builtin::kFloor, BaseType::kVec4, {BaseType::kVec4}},
      {Builtin::kFloor, BaseType::kFloat, {BaseType::kFloat}},
      {Builtin::kCeil, BaseType::kVec3, {BaseType::kVec3}},
      {Builtin::kFract, BaseType::kVec4, {BaseType::kVec4}},
      {Builtin::kFract, BaseType::kFloat, {BaseType::kFloat}},
      {Builtin::kRadians, BaseType::kVec2, {BaseType::kVec2}},
      {Builtin::kDegrees, BaseType::kFloat, {BaseType::kFloat}},
      {Builtin::kMin, BaseType::kVec4, {BaseType::kVec4, BaseType::kVec4}},
      {Builtin::kMin, BaseType::kVec4, {BaseType::kVec4, BaseType::kFloat}},
      {Builtin::kMax, BaseType::kVec4, {BaseType::kVec4, BaseType::kVec4}},
      {Builtin::kMax, BaseType::kFloat, {BaseType::kFloat, BaseType::kFloat}},
      {Builtin::kMax, BaseType::kVec3, {BaseType::kVec3, BaseType::kFloat}},
      {Builtin::kClamp, BaseType::kVec4,
       {BaseType::kVec4, BaseType::kVec4, BaseType::kVec4}},
      {Builtin::kClamp, BaseType::kFloat,
       {BaseType::kFloat, BaseType::kFloat, BaseType::kFloat}},
      {Builtin::kClamp, BaseType::kVec4,
       {BaseType::kVec4, BaseType::kFloat, BaseType::kFloat}},
      {Builtin::kMix, BaseType::kVec4,
       {BaseType::kVec4, BaseType::kVec4, BaseType::kVec4}},
      {Builtin::kMix, BaseType::kVec3,
       {BaseType::kVec3, BaseType::kVec3, BaseType::kFloat}},
      {Builtin::kMix, BaseType::kFloat,
       {BaseType::kFloat, BaseType::kFloat, BaseType::kFloat}},
      {Builtin::kStep, BaseType::kVec4, {BaseType::kVec4, BaseType::kVec4}},
      {Builtin::kStep, BaseType::kVec4, {BaseType::kFloat, BaseType::kVec4}},
      {Builtin::kStep, BaseType::kFloat, {BaseType::kFloat, BaseType::kFloat}},
      {Builtin::kDot, BaseType::kFloat, {BaseType::kVec4, BaseType::kVec4}},
      {Builtin::kDot, BaseType::kFloat, {BaseType::kFloat, BaseType::kFloat}},
      {Builtin::kLength, BaseType::kFloat, {BaseType::kVec3}},
      {Builtin::kDistance, BaseType::kFloat,
       {BaseType::kVec2, BaseType::kVec2}},
      {Builtin::kNormalize, BaseType::kVec3, {BaseType::kVec3}},
      {Builtin::kNormalize, BaseType::kFloat, {BaseType::kFloat}},
      {Builtin::kCross, BaseType::kVec3, {BaseType::kVec3, BaseType::kVec3}},
      {Builtin::kReflect, BaseType::kVec3, {BaseType::kVec3, BaseType::kVec3}},
      {Builtin::kFaceforward, BaseType::kVec2,
       {BaseType::kVec2, BaseType::kVec2, BaseType::kVec2}},
      {Builtin::kRefract, BaseType::kVec3,
       {BaseType::kVec3, BaseType::kVec3, BaseType::kFloat}},
      {Builtin::kSmoothstep, BaseType::kVec2,
       {BaseType::kFloat, BaseType::kFloat, BaseType::kVec2}},
      {Builtin::kMod, BaseType::kVec3, {BaseType::kVec3, BaseType::kFloat}},
      {Builtin::kPow, BaseType::kFloat, {BaseType::kFloat, BaseType::kFloat}},
      {Builtin::kInverseSqrt, BaseType::kVec2, {BaseType::kVec2}},
      {Builtin::kMatrixCompMult, BaseType::kMat3,
       {BaseType::kMat3, BaseType::kMat3}},
      {Builtin::kLessThan, BaseType::kBVec4, {BaseType::kVec4, BaseType::kVec4}},
      {Builtin::kGreaterThanEqual, BaseType::kBVec3,
       {BaseType::kIVec3, BaseType::kIVec3}},
      {Builtin::kEqual, BaseType::kBVec2, {BaseType::kVec2, BaseType::kVec2}},
      {Builtin::kNotEqual, BaseType::kBVec2,
       {BaseType::kBVec2, BaseType::kBVec2}},
      {Builtin::kAny, BaseType::kBool, {BaseType::kBVec3}},
      {Builtin::kNot, BaseType::kBVec4, {BaseType::kBVec4}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.b));
    std::vector<Plane> planes;
    int salt = 0;
    for (BaseType at : c.args) {
      const int operand = static_cast<int>(planes.size());
      planes.push_back((c.nan_inputs ? nan_pool : pool).Make(at, operand, salt));
      salt += 13;
    }
    std::vector<BatchSrc> args;
    for (const Plane& p : planes) args.push_back(p.Src());
    Differential(
        model, MakeType(c.result),
        [&](AluModel& alu, BatchDst d, std::uint32_t mask, simd::Level level) {
          EvalBuiltinBatch(c.b, MakeType(c.result), args, alu, no_tex, d,
                           mask, level);
        },
        [&](AluModel& alu, int l, Value& out) {
          std::vector<Value> vals;
          for (const Plane& p : planes) vals.push_back(p.Lane(l));
          std::vector<const Value*> ptrs;
          for (const Value& v : vals) ptrs.push_back(&v);
          EvalBuiltinInto(c.b, MakeType(c.result), ptrs, alu, no_tex, out);
        });
  }
}

TEST(SimdKernels, BuiltinsBitIdentical) {
  BuiltinsDifferential(Model::kExact, {kPoolNaN}, {kPoolNaN});
  BuiltinsDifferential(Model::kExact, {kPoolNaN}, {kPoolArith});
}

// Registers wider than 16 cells (arrays, mat4 arrays) move, zero and index
// as whole planes at every tier.
TEST(SimdKernels, WideRegistersMoveAndIndex) {
  const Type wide[] = {Type{BaseType::kFloat, 20}, Type{BaseType::kVec4, 5},
                       Type{BaseType::kMat4, 2}};
  for (const Type& t : wide) {
    SCOPED_TRACE(t.ToString());
    const Plane src = MakePlane(t, 3, kPoolNaN);
    const Value shared = src.Lane(9);
    for (const BatchSrc s : {src.Src(), BatchSrc::Of(shared)}) {
      Differential(
          Model::kExact, t,
          [&](AluModel&, BatchDst d, std::uint32_t mask, simd::Level level) {
            EvalMoveBatch(s, d, nullptr, t.CellCount(), mask, level);
          },
          [&](AluModel&, int l, Value& out) { GatherLane(s, l, out); });
    }
    Differential(
        Model::kExact, t,
        [&](AluModel&, BatchDst d, std::uint32_t mask, simd::Level level) {
          EvalZeroBatch(d, mask, level);
        },
        [&](AluModel&, int, Value&) {});
    // Dynamic indexing: each lane picks its own (clamped) element.
    const IndexStep step = IndexStepOf(t);
    const Plane index = MakePlane(BaseType::kInt, 1, kPoolArith);
    Differential(
        Model::kExact, step.elem_type,
        [&](AluModel&, BatchDst d, std::uint32_t mask, simd::Level) {
          EvalExtractBatch(src.Src(), step, index.Src(), d, mask);
        },
        [&](AluModel&, int l, Value& out) {
          EvalExtractInto(src.Lane(l), step, index.At(0, l).i, out);
        });
  }
}

// A shuffle whose source is its own destination reads each lane's cells
// in the scalar VM's order.
TEST(SimdKernels, InPlaceShuffleMatchesScalarOrder) {
  const std::uint8_t comps[] = {3, 0, 0, 1};
  for (simd::Level level : HostLevels()) {
    Plane p = MakePlane(BaseType::kVec4, 2, kPoolArith);
    std::vector<Value> want;
    for (int l = 0; l < kVmLanes; ++l) {
      Value v = p.Lane(l);
      for (int k = 0; k < 4; ++k) v.data()[k] = v.data()[comps[k]];
      want.push_back(v);
    }
    EvalMoveBatch(p.Src(), p.Dst(), comps, 4, ~0u, level);
    ExpectLanes(p, want, ~0u);
  }
}

// References into one lane of a plane read and write the same cells a
// reference into that lane's Value would.
TEST(SimdKernels, PerLaneRefsIntoPlanes) {
  const Type t{BaseType::kVec4, 5};
  const IndexStep step = IndexStepOf(t);
  const std::uint8_t swz[] = {2, 0};
  const Type v2 = MakeType(BaseType::kVec2);
  Plane plane = MakePlane(t, 4, kPoolNaN);
  const Plane src = MakePlane(BaseType::kVec2, 8, kPoolNaN);
  for (int l = 0; l < kVmLanes; ++l) {
    Value whole = plane.Lane(l);
    const LRef pv = RefSwizzle(
        RefIndex(RefWhole(plane.Dst().lane(l), t), step, l % 7 - 1), v2, swz,
        2);
    const LRef vv =
        RefSwizzle(RefIndex(RefWhole(whole, t), step, l % 7 - 1), v2, swz, 2);
    Value read_p(v2);
    ReadRefInto(pv, LaneSlice::Of(read_p));
    const Value read_v = ReadRef(vv);
    for (int k = 0; k < 2; ++k) {
      EXPECT_EQ(read_p.data()[k].i, read_v.data()[k].i) << "lane " << l;
    }
    Plane s = src;
    WriteRef(pv, s.Dst().lane(l));
    WriteRef(vv, src.Lane(l));
    ExactAlu alu_p, alu_v;
    Value out_p(v2), out_v(v2);
    EvalIncDecInto(alu_p, pv, true, l % 2 == 0, LaneSlice::Of(out_p));
    EvalIncDecInto(alu_v, vv, true, l % 2 == 0, LaneSlice::Of(out_v));
    ExpectCountsEq(alu_p.counts(), alu_v.counts(), "inc/dec");
    for (int k = 0; k < 2; ++k) {
      EXPECT_EQ(out_p.data()[k].i, out_v.data()[k].i) << "lane " << l;
    }
    const Value after = plane.Lane(l);
    for (int k = 0; k < t.CellCount(); ++k) {
      EXPECT_EQ(after.data()[k].i, whole.data()[k].i)
          << "lane " << l << " cell " << k;
    }
  }
}

// The same differentials under the shipped VideoCore IV model, whose round
// mode is the denormal flush: the vector tiers flush after every rounded op
// in the scalar order (fract/mix/dot/normalize/matrixCompMult included), so
// cells and counts match on operands whose results are denormal. The cross
// planes pair each tiny value with every other.
TEST(SimdKernelsVc4, ArithBitIdentical) {
  ArithDifferential(Model::kVideoCore, {kPoolNaN});
  ArithDifferential(Model::kVideoCore, {kPoolTiny, true});
}

TEST(SimdKernelsVc4, NegBitIdentical) {
  NegDifferential(Model::kVideoCore, {kPoolNaN});
  NegDifferential(Model::kVideoCore, {kPoolTiny, true});
}

TEST(SimdKernelsVc4, CtorBitIdentical) {
  CtorDifferential(Model::kVideoCore, {kPoolTiny, true});
}

TEST(SimdKernelsVc4, BuiltinsBitIdentical) {
  BuiltinsDifferential(Model::kVideoCore, {kPoolNaN}, {kPoolArith});
  BuiltinsDifferential(Model::kVideoCore, {kPoolTiny, true},
                       {kPoolTiny, true});
}

// Mali-400's reduced mantissa needs the virtual Round(): at every tier the
// kernels take the per-op Round() path and still match.
TEST(SimdKernelsVc4, MaliTakesPerOpRoundAndMatches) {
  ArithDifferential(Model::kMali, {kPoolTiny, true});
  NegDifferential(Model::kMali, {kPoolTiny, true});
  BuiltinsDifferential(Model::kMali, {kPoolTiny, true}, {kPoolTiny, true});
}

// A kModel ALU whose Round() counts its calls: a batch add at the AVX2 tier
// must still round every component of every live lane through it.
class CountingRoundAlu final : public AluModel {
 public:
  float Round(float x) override {
    ++rounds;
    return CanonicalizeNan(x);
  }
  std::uint64_t rounds = 0;
};

TEST(SimdKernelsVc4, ModelRoundModeCallsRoundPerOp) {
  CountingRoundAlu alu;
  ASSERT_EQ(alu.round_mode(), RoundMode::kModel);
  const Plane a = MakePlane(BaseType::kVec3, 0, kPoolArith);
  Plane d = SentinelPlane(MakeType(BaseType::kVec3));
  EvalArithBatch(alu, BinOp::kAdd, a.Src(), a.Src(), d.Dst(), 0x0000007fu,
                 simd::Level::kAvx2);
  EXPECT_EQ(alu.rounds, 3u * 7u);
  EXPECT_EQ(alu.counts().alu, 3u * 7u);
}

// The flush is real, not merely the same in both paths: results that are
// denormal under ExactAlu come out as the zero of their sign under
// VideoCore IV, at every tier.
TEST(SimdKernelsVc4, DenormalResultsFlushToSignedZero) {
  const float tiny = 1e-20f;  // tiny * tiny = 1e-40, a denormal
  Plane a{MakeType(BaseType::kVec4)};
  Plane b{MakeType(BaseType::kVec4)};
  for (int l = 0; l < kVmLanes; ++l) {
    for (int k = 0; k < 4; ++k) {
      a.At(k, l).f = k % 2 == 0 ? tiny : -tiny;
      b.At(k, l).f = k < 2 ? tiny : 0.0f;
    }
  }
  const TextureFn no_tex;
  for (simd::Level level : HostLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    for (Model model : {Model::kExact, Model::kVideoCore}) {
      SCOPED_TRACE(ModelName(model));
      const bool flush = model == Model::kVideoCore;
      const auto alu = MakeAlu(model);
      Plane mul{MakeType(BaseType::kVec4)};
      EvalArithBatch(*alu, BinOp::kMul, a.Src(), b.Src(), mul.Dst(), ~0u,
                     level);
      Plane dot{MakeType(BaseType::kFloat)};
      const BatchSrc dot_args[] = {a.Src(), a.Src()};
      EvalBuiltinBatch(Builtin::kDot, MakeType(BaseType::kFloat), dot_args,
                       *alu, no_tex, dot.Dst(), ~0u, level);
      for (int l = 0; l < kVmLanes; ++l) {
        EXPECT_EQ(Bits(mul.At(0, l).f), flush ? 0u : Bits(tiny * tiny));
        EXPECT_EQ(Bits(mul.At(1, l).f),
                  flush ? 0x80000000u : Bits(-tiny * tiny));
        // dot(a, a): four denormal products, each flushed before the add.
        const float d = tiny * tiny;
        EXPECT_EQ(Bits(dot.At(0, l).f), flush ? 0u : Bits(d + d + d + d));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-VM lockdown: a fixed vector-heavy shader, batched-with-SIMD vs the
// per-lane scalar sum, under all three ALU models.
// ---------------------------------------------------------------------------

const char* kVectorHeavySrc = R"(
precision highp float;
varying vec4 v_in;
uniform vec4 u_v0;
uniform float u_s0;
void main() {
  vec4 a = v_in * u_v0 + vec4(0.25);
  vec3 n = normalize(a.xyz + vec3(0.5, u_s0, 1.5));
  float d = dot(n, vec3(a.y, a.z, a.w));
  vec4 m = mix(a, vec4(d), clamp(a, 0.0, 1.0));
  vec4 f = floor(m * 7.5) - fract(m) + ceil(m * 0.5);
  vec4 mn = min(max(f, -a), abs(m));
  gl_FragColor = mn + vec4(step(0.5, d)) * 0.125 - a * 0.5;
}
)";

struct LaneRef {
  std::array<std::uint32_t, 4> color{};
  OpCounts delta;
  bool kept = false;
};

OpCounts Minus(const OpCounts& a, const OpCounts& b) {
  OpCounts d;
  d.alu = a.alu - b.alu;
  d.sfu = a.sfu - b.sfu;
  d.sfu_trans = a.sfu_trans - b.sfu_trans;
  d.tmu = a.tmu - b.tmu;
  d.tmu_miss = a.tmu_miss - b.tmu_miss;
  return d;
}

// Runs the shader per lane on `alu_s` and batched at `batch_level` on
// `alu_b`; returns through `simd_batches` how many of the batches ran with
// a SIMD tier in effect.
void RunShaderAB(AluModel& alu_s, AluModel& alu_b, simd::Level batch_level,
                 std::uint64_t* simd_batches) {
  CompileResult cr = CompileGlsl(kVectorHeavySrc, Stage::kFragment);
  ASSERT_TRUE(cr.ok) << cr.info_log;
  std::shared_ptr<const VmProgram> prog = LowerToBytecode(*cr.shader);

  VmExec scalar(prog, alu_s);
  VmExec batch(prog, alu_b);
  batch.SetSimdLevel(batch_level);

  for (VmExec* e : {&scalar, &batch}) {
    Value& uv = e->GlobalAt(e->GlobalSlot("u_v0"));
    uv.SetF(0, 1.25f);
    uv.SetF(1, -0.5f);
    uv.SetF(2, 3.0f);
    uv.SetF(3, 0.125f);
    e->GlobalAt(e->GlobalSlot("u_s0")).SetF(0, 0.75f);
  }
  const int in_slot = scalar.GlobalSlot("v_in");
  const int color_slot = scalar.GlobalSlot("gl_FragColor");
  ASSERT_GE(in_slot, 0);
  ASSERT_GE(color_slot, 0);

  std::array<std::array<float, 4>, kVmLanes> lane_in{};
  for (int l = 0; l < kVmLanes; ++l) {
    for (int k = 0; k < 4; ++k) {
      lane_in[static_cast<std::size_t>(l)][static_cast<std::size_t>(k)] =
          PoolAt(kPoolArith, l, k, 17);
    }
  }

  std::array<LaneRef, kVmLanes> ref;
  alu_s.ResetCounts();
  for (int l = 0; l < kVmLanes; ++l) {
    const OpCounts before = alu_s.counts();
    Value& v = scalar.GlobalAt(in_slot);
    for (int k = 0; k < 4; ++k) {
      v.SetF(k, lane_in[static_cast<std::size_t>(l)]
                       [static_cast<std::size_t>(k)]);
    }
    LaneRef& r = ref[static_cast<std::size_t>(l)];
    r.kept = scalar.Run();
    r.delta = Minus(alu_s.counts(), before);
    const Value& c = scalar.GlobalAt(color_slot);
    for (int k = 0; k < 4; ++k) {
      r.color[static_cast<std::size_t>(k)] = Bits(c.F(k));
    }
  }

  for (int n = 1; n <= kVmLanes; ++n) {
    SCOPED_TRACE(n);
    alu_b.ResetCounts();
    for (int l = 0; l < n; ++l) {
      LaneSlice v = batch.LaneGlobalAt(in_slot, l);
      for (int k = 0; k < 4; ++k) {
        v.SetF(k, lane_in[static_cast<std::size_t>(l)]
                         [static_cast<std::size_t>(k)]);
      }
    }
    const std::uint32_t kept = batch.RunBatch(n);
    OpCounts want;
    for (int l = 0; l < n; ++l) {
      const LaneRef& r = ref[static_cast<std::size_t>(l)];
      want += r.delta;
      EXPECT_EQ((kept >> l) & 1u, r.kept ? 1u : 0u) << "lane " << l;
      const LaneSlice c = batch.LaneGlobalAt(color_slot, l);
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(Bits(c.F(k)), r.color[static_cast<std::size_t>(k)])
            << "lane " << l << " comp " << k;
      }
    }
    ExpectCountsEq(want, alu_b.counts(), "batch vs scalar sum");
  }
  *simd_batches = batch.simd_batches();
}

TEST(SimdVm, ExactAluBatchMatchesScalarSum) {
  for (simd::Level level : HostLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    ExactAlu alu_s, alu_b;
    std::uint64_t simd_batches = 0;
    RunShaderAB(alu_s, alu_b, level, &simd_batches);
  }
}

TEST(SimdVm, Vc4IeeeExactProfileBatchMatchesScalarSum) {
  for (simd::Level level : HostLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    vc4::Vc4Alu alu_s(vc4::IeeeExact()), alu_b(vc4::IeeeExact());
    std::uint64_t simd_batches = 0;
    RunShaderAB(alu_s, alu_b, level, &simd_batches);
  }
}

// The shipped VideoCore IV profile flushes denormals, a closed-form round
// mode: the executor runs its SIMD kernels at the requested tier (every
// batch counts in simd_batches), and results and counts still match the
// scalar engine exactly.
TEST(SimdVm, Vc4VideoCoreProfileBatchMatchesScalarSum) {
  for (simd::Level level : HostLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    vc4::Vc4Alu alu_s(vc4::VideoCoreIV()), alu_b(vc4::VideoCoreIV());
    std::uint64_t simd_batches = 0;
    RunShaderAB(alu_s, alu_b, level, &simd_batches);
    EXPECT_EQ(simd_batches,
              level == simd::Level::kScalar ? 0u : std::uint64_t{kVmLanes});
  }
}

// Mali-400's mediump mantissa needs the virtual Round(): the executor must
// decline SIMD on its own at every requested tier and still match.
TEST(SimdVm, Vc4Mali400ProfileDeclinesSimdAndMatchesScalarSum) {
  for (simd::Level level : HostLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    vc4::Vc4Alu alu_s(vc4::Mali400()), alu_b(vc4::Mali400());
    std::uint64_t simd_batches = 0;
    RunShaderAB(alu_s, alu_b, level, &simd_batches);
    EXPECT_EQ(simd_batches, 0u);
  }
}

}  // namespace
}  // namespace mgpu::glsl
