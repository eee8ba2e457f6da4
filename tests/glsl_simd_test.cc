// Bit-identity and op-count lockdown for the runtime-dispatched SIMD tier
// of the batched VM (src/glsl/simd.h, evalcore.cc, builtins.cc).
//
// Three layers of assertion:
//   1. AluModel::CountAlu(n) is exactly n individual Count(1) calls — the
//      contract that lets SIMD kernels charge a whole instruction at once.
//   2. Every Eval*BatchSimd kernel is bit-identical (cells AND counts) to
//      its scalar SoA counterpart on adversarial inputs: NaN (quiet and
//      signaling payloads), +/-0, +/-inf, denormals, sparse lane masks,
//      stride-0 broadcast operands — at every SIMD level the host supports.
//      The layer-2 differentials run under ExactAlu (identity rounding),
//      under Vc4Alu(VideoCoreIV()) (denormal flush, on operands whose
//      results land in the denormal range) and under Vc4Alu(Mali400())
//      (reduced mantissa: the entries must fall back to the scalar kernel).
//   3. A fixed vector-heavy fragment shader run through the real VM: the
//      batched executor with SIMD forced on must reproduce the per-lane
//      scalar VM's gl_FragColor bits and the summed per-lane op counts,
//      under ExactAlu and the Vc4Alu profiles, and VmExec::simd_batches()
//      shows which tier actually ran (VideoCore IV vectorizes, Mali-400
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

// Two adversarial float pools, both with specials first so every lane sees
// several, then a spread of ordinary magnitudes. Indexed modularly by
// (lane, component).
//
// kPoolArith has NO NaN inputs: when BOTH operands of a commutative op are
// NaNs with different bit patterns, which payload propagates depends on the
// operand order the compiler picked for the scalar instruction (GCC freely
// swaps addss/mulss operands), so bit-identity between the scalar and SIMD
// compilations of the same kernel is not achievable — and not part of the
// contract. NaNs *generated* inside a chain are safe: every SSE invalid
// operation produces the same indefinite pattern (0xffc00000), so any two
// NaNs that meet carry identical bits and either choice yields the same
// result. Infinities and zeros in this pool exercise exactly that.
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
// kPoolNaN adds distinct NaN payloads (quiet, negative, signaling) for the
// ops whose NaN handling is order-insensitive: bitwise sign ops, compare/
// blend min/max/step, the rounding family, and plain component gathers.
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
// minus its neighbour, negated denormals, +/-0, inf and NaN. Its one NaN is
// the pattern SSE generates for invalid operations (0xffc00000), so every
// NaN that meets another in a chain carries identical bits (see kPoolArith).
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

// Builds a per-lane plane (stride 1) of `t`-typed values filled from the
// pool. `salt` decorrelates planes so binary ops see mixed special pairs.
std::vector<Value> MakePlane(BaseType t, int salt,
                             std::span<const float> pool) {
  std::vector<Value> plane;
  plane.reserve(kVmLanes);
  for (int l = 0; l < kVmLanes; ++l) {
    Value v{MakeType(t)};
    for (int k = 0; k < v.count(); ++k) v.SetF(k, PoolAt(pool, l, k, salt));
    plane.push_back(v);
  }
  return plane;
}

// Plane `which` (0, 1, 2) of a cross product over `pool`: cell c of the
// flattened plane (lane-major) holds pool[(c / P^which) % P], so planes 0
// and 1 together pair every pool value with every other one once the plane
// has P^2 cells (vec4 x 32 lanes covers a 11-value pool, mat3 a 16-value
// one).
std::vector<Value> MakeCrossPlane(BaseType t, int which,
                                  std::span<const float> pool) {
  const std::size_t p = pool.size();
  std::size_t div = 1;
  for (int i = 0; i < which; ++i) div *= p;
  std::vector<Value> plane;
  plane.reserve(kVmLanes);
  for (int l = 0; l < kVmLanes; ++l) {
    Value v{MakeType(t)};
    for (int k = 0; k < v.count(); ++k) {
      const std::size_t c = static_cast<std::size_t>(l * v.count() + k);
      v.SetF(k, pool[(c / div) % p]);
    }
    plane.push_back(v);
  }
  return plane;
}

std::vector<Value> MakeDstPlane(Type t) {
  return std::vector<Value>(static_cast<std::size_t>(kVmLanes), Value{t});
}

void ExpectCountsEq(const OpCounts& a, const OpCounts& b, const char* what) {
  EXPECT_EQ(a.alu, b.alu) << what << " (alu)";
  EXPECT_EQ(a.sfu, b.sfu) << what << " (sfu)";
  EXPECT_EQ(a.sfu_trans, b.sfu_trans) << what << " (sfu_trans)";
  EXPECT_EQ(a.tmu, b.tmu) << what << " (tmu)";
  EXPECT_EQ(a.tmu_miss, b.tmu_miss) << what << " (tmu_miss)";
}

void ExpectPlanesBitEq(const std::vector<Value>& a,
                       const std::vector<Value>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t l = 0; l < a.size(); ++l) {
    ASSERT_EQ(a[l].count(), b[l].count()) << "lane " << l;
    for (int k = 0; k < a[l].count(); ++k) {
      EXPECT_EQ(Bits(a[l].F(k)), Bits(b[l].F(k)))
          << "lane " << l << " comp " << k;
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

const std::uint32_t kMasks[] = {0xffffffffu, 0x00000001u, 0x80000001u,
                                0x55555555u, 0x0000fff0u};

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

// Operand planes for one differential: drawn from `pool` with the
// decorrelating salts the ExactAlu tests use, or, with `cross`, as cross
// product planes that pair every pool value with every other (plane index
// = operand position).
struct PlaneSource {
  std::span<const float> pool;
  bool cross = false;

  std::vector<Value> Make(BaseType t, int operand, int salt) const {
    return cross ? MakeCrossPlane(t, operand, pool) : MakePlane(t, salt, pool);
  }
};

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

void ArithDifferential(Model model, PlaneSource src) {
  SCOPED_TRACE(ModelName(model));
  const BinOp ops[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kDiv,
                       BinOp::kLt, BinOp::kGe};
  const BaseType shapes[] = {BaseType::kVec2, BaseType::kVec3, BaseType::kVec4,
                             BaseType::kMat3};
  for (simd::Level level : HostLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    for (BaseType shape : shapes) {
      for (BinOp op : ops) {
        SCOPED_TRACE(static_cast<int>(op));
        const bool cmp = op == BinOp::kLt || op == BinOp::kGe;
        if (cmp && MakeType(shape).CellCount() > 1) continue;  // scalar-only op
        const std::vector<Value> l = src.Make(shape, 0, 0);
        const std::vector<Value> r = src.Make(shape, 1, 7);
        // Scalar rhs broadcast variant too (vec OP float).
        const std::vector<Value> rs = src.Make(BaseType::kFloat, 1, 11);
        const Type out_t = cmp ? MakeType(BaseType::kBool) : MakeType(shape);
        for (std::uint32_t mask : kMasks) {
          for (int broadcast = 0; broadcast < (cmp ? 1 : 3); ++broadcast) {
            // broadcast: 0 = vec OP vec, 1 = vec OP scalar(plane),
            //            2 = vec OP scalar(stride-0 shared constant).
            const BatchSrc lb{l.data(), 1};
            const BatchSrc rb = broadcast == 0 ? BatchSrc{r.data(), 1}
                                : broadcast == 1
                                    ? BatchSrc{rs.data(), 1}
                                    : BatchSrc{rs.data(), 0};
            std::vector<Value> want = MakeDstPlane(out_t);
            std::vector<Value> got = MakeDstPlane(out_t);
            const auto alu_want = MakeAlu(model);
            const auto alu_got = MakeAlu(model);
            EvalArithBatch(*alu_want, op, lb, rb, BatchDst{want.data(), 1},
                           mask);
            EvalArithBatchSimd(*alu_got, op, lb, rb, BatchDst{got.data(), 1},
                               mask, level);
            ExpectPlanesBitEq(want, got);
            ExpectCountsEq(alu_want->counts(), alu_got->counts(), "arith");
          }
        }
      }
    }
  }
}

TEST(SimdKernels, ArithBitIdentical) {
  ArithDifferential(Model::kExact, {kPoolArith});
}

void NegDifferential(Model model, PlaneSource src) {
  SCOPED_TRACE(ModelName(model));
  for (simd::Level level : HostLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    for (BaseType shape : {BaseType::kFloat, BaseType::kVec4, BaseType::kMat4,
                           BaseType::kIVec3}) {
      const std::vector<Value> v = src.Make(shape, 0, 3);
      for (std::uint32_t mask : kMasks) {
        std::vector<Value> want = MakeDstPlane(MakeType(shape));
        std::vector<Value> got = MakeDstPlane(MakeType(shape));
        const auto alu_want = MakeAlu(model);
        const auto alu_got = MakeAlu(model);
        EvalNegBatch(*alu_want, BatchSrc{v.data(), 1},
                     BatchDst{want.data(), 1}, mask);
        EvalNegBatchSimd(*alu_got, BatchSrc{v.data(), 1},
                         BatchDst{got.data(), 1}, mask, level);
        ExpectPlanesBitEq(want, got);
        ExpectCountsEq(alu_want->counts(), alu_got->counts(), "neg");
      }
    }
  }
}

TEST(SimdKernels, NegBitIdentical) {
  NegDifferential(Model::kExact, {kPoolNaN});
}

void CtorDifferential(Model model, PlaneSource src) {
  SCOPED_TRACE(ModelName(model));
  for (simd::Level level : HostLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    const std::vector<Value> f0 = src.Make(BaseType::kFloat, 0, 1);
    const std::vector<Value> f1 = src.Make(BaseType::kFloat, 1, 9);
    const std::vector<Value> v2 = src.Make(BaseType::kVec2, 2, 4);
    const std::vector<Value> v3 = src.Make(BaseType::kVec3, 1, 6);
    const std::vector<Value> i1 = src.Make(BaseType::kInt, 2, 2);

    struct Case {
      BaseType out;
      std::vector<BatchSrc> args;
    };
    const Case cases[] = {
        {BaseType::kVec4, {{f0.data(), 1}}},                    // splat
        {BaseType::kVec4, {{v2.data(), 1}, {f0.data(), 1}, {f1.data(), 1}}},
        {BaseType::kVec3, {{f0.data(), 1}, {v2.data(), 1}}},
        {BaseType::kVec2, {{f0.data(), 0}, {f1.data(), 1}}},    // shared arg
        {BaseType::kVec4, {{v3.data(), 1}, {f0.data(), 1}}},
        {BaseType::kVec3, {{i1.data(), 1}, {f0.data(), 1}, {f1.data(), 1}}},
        {BaseType::kFloat, {{v3.data(), 1}}},                   // truncate
    };
    for (const Case& c : cases) {
      for (std::uint32_t mask : kMasks) {
        std::vector<Value> want = MakeDstPlane(MakeType(c.out));
        std::vector<Value> got = MakeDstPlane(MakeType(c.out));
        const auto alu_want = MakeAlu(model);
        const auto alu_got = MakeAlu(model);
        EvalCtorBatch(*alu_want, c.args, BatchDst{want.data(), 1}, mask);
        EvalCtorBatchSimd(*alu_got, c.args, BatchDst{got.data(), 1}, mask,
                          level);
        ExpectPlanesBitEq(want, got);
        ExpectCountsEq(alu_want->counts(), alu_got->counts(), "ctor");
      }
    }
  }
}

TEST(SimdKernels, CtorBitIdentical) {
  CtorDifferential(Model::kExact, {kPoolNaN});
}

// `nan_pool` feeds the ops that only compare/blend/round/copy NaNs, `pool`
// the arithmetic chains (see the pool comments above).
void BuiltinsDifferential(Model model, PlaneSource nan_pool,
                          PlaneSource pool) {
  SCOPED_TRACE(ModelName(model));
  const TextureFn no_tex;
  struct Case {
    Builtin b;
    BaseType result;
    std::vector<BaseType> args;
    // Ops that only compare/blend/round/copy NaNs (never feed two distinct
    // input NaNs through a commutative arith instruction) get the
    // NaN-payload pool; arithmetic chains get the NaN-free pool (see the
    // pool comments above).
    bool nan_inputs = true;
  };
  const Case cases[] = {
      {Builtin::kAbs, BaseType::kVec4, {BaseType::kVec4}},
      {Builtin::kFloor, BaseType::kVec4, {BaseType::kVec4}},
      {Builtin::kCeil, BaseType::kVec3, {BaseType::kVec3}},
      {Builtin::kFract, BaseType::kVec4, {BaseType::kVec4}},
      {Builtin::kMin, BaseType::kVec4, {BaseType::kVec4, BaseType::kVec4}},
      {Builtin::kMin, BaseType::kVec4, {BaseType::kVec4, BaseType::kFloat}},
      {Builtin::kMax, BaseType::kVec4, {BaseType::kVec4, BaseType::kVec4}},
      {Builtin::kMax, BaseType::kVec3, {BaseType::kVec3, BaseType::kFloat}},
      {Builtin::kClamp, BaseType::kVec4,
       {BaseType::kVec4, BaseType::kVec4, BaseType::kVec4}},
      {Builtin::kClamp, BaseType::kVec4,
       {BaseType::kVec4, BaseType::kFloat, BaseType::kFloat}},
      {Builtin::kMix, BaseType::kVec4,
       {BaseType::kVec4, BaseType::kVec4, BaseType::kVec4}, false},
      {Builtin::kMix, BaseType::kVec3,
       {BaseType::kVec3, BaseType::kVec3, BaseType::kFloat}, false},
      {Builtin::kStep, BaseType::kVec4, {BaseType::kVec4, BaseType::kVec4}},
      {Builtin::kStep, BaseType::kVec4, {BaseType::kFloat, BaseType::kVec4}},
      {Builtin::kDot, BaseType::kFloat,
       {BaseType::kVec4, BaseType::kVec4}, false},
      {Builtin::kDot, BaseType::kFloat,
       {BaseType::kVec3, BaseType::kVec3}, false},
      {Builtin::kNormalize, BaseType::kVec3, {BaseType::kVec3}, false},
      {Builtin::kNormalize, BaseType::kVec4, {BaseType::kVec4}, false},
      {Builtin::kMatrixCompMult, BaseType::kMat3,
       {BaseType::kMat3, BaseType::kMat3}, false},
  };
  for (simd::Level level : HostLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    for (const Case& c : cases) {
      SCOPED_TRACE(static_cast<int>(c.b));
      EXPECT_TRUE(IsSimdBuiltin(c.b));
      std::vector<std::vector<Value>> arg_planes;
      std::vector<BatchSrc> args;
      int salt = 0;
      for (BaseType at : c.args) {
        const int operand = static_cast<int>(arg_planes.size());
        arg_planes.push_back(
            (c.nan_inputs ? nan_pool : pool).Make(at, operand, salt));
        salt += 13;
      }
      for (const auto& p : arg_planes) args.push_back(BatchSrc{p.data(), 1});
      for (std::uint32_t mask : kMasks) {
        std::vector<Value> want = MakeDstPlane(MakeType(c.result));
        std::vector<Value> got = MakeDstPlane(MakeType(c.result));
        const auto alu_want = MakeAlu(model);
        const auto alu_got = MakeAlu(model);
        EvalBuiltinBatch(c.b, MakeType(c.result), args, *alu_want, no_tex,
                         BatchDst{want.data(), 1}, mask);
        EvalBuiltinBatchSimd(c.b, MakeType(c.result), args, *alu_got, no_tex,
                             BatchDst{got.data(), 1}, mask, level);
        ExpectPlanesBitEq(want, got);
        ExpectCountsEq(alu_want->counts(), alu_got->counts(), "builtin");
      }
    }
  }
}

TEST(SimdKernels, BuiltinsBitIdentical) {
  BuiltinsDifferential(Model::kExact, {kPoolNaN}, {kPoolArith});
}

// The same differentials under the shipped VideoCore IV model, whose round
// mode is the denormal flush: the SIMD kernels flush after every rounded op
// in the scalar kernels' order (fract/mix/dot/normalize/matrixCompMult
// included), so cells and counts match on operands whose results are
// denormal. kPoolTiny is NaN-safe for every op (one NaN pattern), so it
// feeds both argument classes; the cross planes pair each tiny value with
// every other.
TEST(SimdKernelsVc4, ArithBitIdentical) {
  ArithDifferential(Model::kVideoCore, {kPoolArith});
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

// Mali-400's reduced mantissa needs the virtual Round(): every entry must
// fall back to its scalar kernel at any tier and still match.
TEST(SimdKernelsVc4, MaliFallsBackAndMatches) {
  ArithDifferential(Model::kMali, {kPoolTiny, true});
  NegDifferential(Model::kMali, {kPoolTiny, true});
  BuiltinsDifferential(Model::kMali, {kPoolTiny, true}, {kPoolTiny, true});
}

// The flush is real, not merely the same in both kernels: results that are
// denormal under ExactAlu come out as the zero of their sign under
// VideoCore IV, at every tier.
TEST(SimdKernelsVc4, DenormalResultsFlushToSignedZero) {
  const float tiny = 1e-20f;  // tiny * tiny = 1e-40, a denormal
  std::vector<Value> a(kVmLanes, Value{MakeType(BaseType::kVec4)});
  std::vector<Value> b(kVmLanes, Value{MakeType(BaseType::kVec4)});
  for (int l = 0; l < kVmLanes; ++l) {
    for (int k = 0; k < 4; ++k) {
      a[static_cast<std::size_t>(l)].SetF(k, k % 2 == 0 ? tiny : -tiny);
      b[static_cast<std::size_t>(l)].SetF(k, k < 2 ? tiny : 0.0f);
    }
  }
  const BatchSrc as{a.data(), 1};
  const BatchSrc bs{b.data(), 1};
  const TextureFn no_tex;
  for (simd::Level level : HostLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    for (Model model : {Model::kExact, Model::kVideoCore}) {
      SCOPED_TRACE(ModelName(model));
      const bool flush = model == Model::kVideoCore;
      const auto alu = MakeAlu(model);
      std::vector<Value> mul = MakeDstPlane(MakeType(BaseType::kVec4));
      EvalArithBatchSimd(*alu, BinOp::kMul, as, bs, BatchDst{mul.data(), 1},
                         ~0u, level);
      std::vector<Value> dot = MakeDstPlane(MakeType(BaseType::kFloat));
      const BatchSrc dot_args[] = {as, as};
      EvalBuiltinBatchSimd(Builtin::kDot, MakeType(BaseType::kFloat),
                           dot_args, *alu, no_tex, BatchDst{dot.data(), 1},
                           ~0u, level);
      for (int l = 0; l < kVmLanes; ++l) {
        const Value& m = mul[static_cast<std::size_t>(l)];
        EXPECT_EQ(Bits(m.F(0)), flush ? 0u : Bits(tiny * tiny));
        EXPECT_EQ(Bits(m.F(1)), flush ? 0x80000000u : Bits(-tiny * tiny));
        // dot(a, a): four denormal products, each flushed before the add.
        const float d = tiny * tiny;
        EXPECT_EQ(Bits(dot[static_cast<std::size_t>(l)].F(0)),
                  flush ? 0u : Bits(d + d + d + d));
      }
    }
  }
}

// SFU-routed builtins must never be claimed by the SIMD tier.
TEST(SimdKernels, SfuAndTextureStayScalar) {
  for (Builtin b : {Builtin::kInverseSqrt, Builtin::kSqrt, Builtin::kExp2,
                    Builtin::kLog2, Builtin::kPow, Builtin::kSin,
                    Builtin::kMod, Builtin::kSign, Builtin::kSmoothstep,
                    Builtin::kTexture2D, Builtin::kLength,
                    Builtin::kDistance}) {
    EXPECT_FALSE(IsSimdBuiltin(b)) << static_cast<int>(b);
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
      Value& v = batch.LaneGlobalAt(in_slot, l);
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
      const Value& c = batch.LaneGlobalAt(color_slot, l);
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
