// Evaluation core shared by the two shader execution engines: the
// tree-walking ShaderExec (reference oracle) and the bytecode VmExec (the
// default fast path). Every operation that touches the AluModel — arithmetic,
// constructors, unary ops, increment/decrement — lives here exactly once, so
// the engines are byte-identical in results AND in ALU/SFU/TMU op counts by
// construction.
#ifndef MGPU_GLSL_EVALCORE_H_
#define MGPU_GLSL_EVALCORE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "glsl/alu.h"
#include "glsl/ast.h"
#include "glsl/simd.h"
#include "glsl/value.h"

namespace mgpu::glsl {

// Default loop-iteration budget of every engine (ShaderExec, VmExec and its
// batched executors): the point at which a runaway shader is declared hung.
// Engines expose SetLoopBudget so tests can trip the trap path cheaply.
inline constexpr std::uint64_t kDefaultLoopBudget = 100'000'000;

// Thrown on conditions a real GPU would turn into hangs or undefined
// behaviour (runaway loops, call-depth overflow); the gles2 context converts
// it into a deterministic draw abort (see the README "Robustness model").
struct ShaderRuntimeError : std::runtime_error {
  explicit ShaderRuntimeError(const std::string& what, int trap_lane = -1)
      : std::runtime_error(what), lane(trap_lane) {}
  explicit ShaderRuntimeError(const char* what, int trap_lane = -1)
      : std::runtime_error(what), lane(trap_lane) {}
  // Batch lane the trap is attributed to: for the batched executors this is
  // the smallest lane index that traps — i.e. the first fragment of the
  // batch a scalar engine would have trapped on — and -1 for the scalar
  // engines (the caller knows which invocation it was running).
  int lane = -1;
};

// L-value reference: maps result components onto cells of a variable's
// storage, cell k at storage[k * stride] — stride 1 for a Value, kVmLanes for
// one lane of a batched-VM plane. A negative n (-cell_count) marks a whole
// array too large for the index map; reads/writes then cover the head cells
// directly.
struct LRef {
  Cell* storage = nullptr;
  int stride = 1;
  Type type;
  std::array<std::uint16_t, 16> idx{};
  int n = 0;
};

// Whole-variable reference.
[[nodiscard]] LRef RefWhole(LaneSlice storage, const Type& t);
[[nodiscard]] inline LRef RefWhole(Value& storage, const Type& t) {
  return RefWhole(LaneSlice::Of(storage), t);
}

// Static metadata of an indexing step over a value of type `bt`:
// element count limit, cells per element, and the element type.
struct IndexStep {
  int limit = 0;
  int elem_cells = 0;
  Type elem_type;
};
[[nodiscard]] IndexStep IndexStepOf(const Type& bt);

// Indexes `base` by i with the spec's runtime clamp, using precomputed step
// metadata (the bytecode VM bakes the step into the instruction).
[[nodiscard]] LRef RefIndex(const LRef& base, const IndexStep& step, int i);

// Component-selection on `base` (comps/count from the analyzed swizzle).
[[nodiscard]] LRef RefSwizzle(const LRef& base, const Type& result_type,
                              const std::uint8_t* comps, int count);

[[nodiscard]] Value ReadRef(const LRef& r);
void WriteRef(const LRef& r, const Value& v);
// ReadRef without the zero-initialized temporary: gathers straight into
// `out` (pre-typed by the caller: a VM register or one lane of a plane).
void ReadRefInto(const LRef& r, LaneSlice out);
// WriteRef from a strided source (one lane of a plane).
void WriteRef(const LRef& r, LaneSlice src);

// Deep equality across all components (GLSL == on vectors yields a single
// bool that is true only when all components match).
[[nodiscard]] bool EqualAll(const Value& l, const Value& r);

// Binary arithmetic / comparison. `out` must be pre-typed with the result
// type; every cell is overwritten.
void EvalArithInto(AluModel& alu, BinOp op, const Value& l, const Value& r,
                   Value& out);

// Type constructor semantics (scalar/vector/matrix conversions, diagonal
// matrices, matrix resizing). `out` is pre-typed with the constructed type.
void EvalCtorInto(AluModel& alu, std::span<const Value* const> args,
                  Value& out);

// Component-wise negation (float rounds through the ALU model).
void EvalNegInto(AluModel& alu, const Value& v, Value& out);

// Scalar logical not.
void EvalNotInto(AluModel& alu, const Value& v, Value& out);

// ++/-- on an l-value; `out` receives the expression's value (old for
// postfix, updated for prefix).
void EvalIncDecInto(AluModel& alu, const LRef& ref, bool increment, bool post,
                    LaneSlice out);

// Whole-variable ++/-- (the VM's fast path for plain loop counters):
// identical arithmetic and counts as EvalIncDecInto, minus the LRef and
// Value round trips.
void EvalIncDecVar(AluModel& alu, Value& var, bool increment, bool post,
                   Value& out);

// R-value dynamic indexing with the runtime clamp: out = base[i].
void EvalExtractInto(const Value& base, const IndexStep& step, int i,
                     Value& out);

// ---------------------------------------------------------------------------
// Lane-batched kernels over lane-major planes
// ---------------------------------------------------------------------------
//
// The batched VM executes a whole fragment batch through one instruction
// stream. Its registers and lane-varying globals are planes: cell k of lane
// l sits at plane[k * kVmLanes + l], so each cell of a register is a row of
// kVmLanes contiguous floats or ints. Each kernel below dispatches once per
// instruction on (op, operand shapes), then runs one loop per cell over the
// live lanes of the mask — 4 lanes per step at the SSE2 tier, 8 at AVX2,
// one at a time at the scalar tier (simd.h), for scalars and vectors alike.
// Per lane, a kernel performs exactly the AluModel operations the scalar
// Eval*Into above would, and rounds every result the way
// AluModel::RoundResult does, so results and ALU/SFU op counts are
// byte-identical to per-lane execution by construction (locked down by
// tests/glsl_simd_test.cc and the seeded differential fuzz harness,
// tests/glsl_vm_fuzz_test.cc). Ops are charged in bulk through
// AluModel::CountAlu with the total the scalar ops would accumulate.
//
// The live lane mask gates every store: a kernel may compute on dead lanes
// of a group (their cells are defined, just unobservable) but never writes
// one, which is what makes masked divergent execution exact. The vector
// tiers need a closed-form round mode (kIdentity or kFlushDenormals); under
// a kModel ALU (reduced mantissas, e.g. Mali-400), for `level` kScalar, or
// for a single-lane destination, the kernels run the scalar tier and round
// through the virtual Round() per op.

// Lane-major operand view: cell k of lane l at
// base[k * cell_stride + l * lane_stride]. A plane has cell_stride kVmLanes
// and lane_stride 1; storage every lane shares (uniforms, constants) and the
// single lane the scalar engines pass are a plain Value: cell_stride 1,
// lane_stride 0. The type is the operand's static type, so shape decisions
// are made once per instruction.
struct BatchSrc {
  const Cell* base = nullptr;
  Type type;
  int cell_stride = 1;
  int lane_stride = 0;

  [[nodiscard]] static BatchSrc Of(const Value& v) {
    return {v.data(), v.type(), 1, 0};
  }
  [[nodiscard]] int count() const { return type.CellCount(); }
  [[nodiscard]] BaseType scalar() const { return ScalarOf(type.base); }
  [[nodiscard]] const Cell* row(int k) const { return base + k * cell_stride; }
  [[nodiscard]] const Cell& at(int k, int lane) const {
    return row(k)[lane * lane_stride];
  }
};
struct BatchDst {
  Cell* base = nullptr;
  Type type;
  int cell_stride = 1;
  int lane_stride = 0;

  [[nodiscard]] static BatchDst Of(Value& v) {
    return {v.data(), v.type(), 1, 0};
  }
  [[nodiscard]] int count() const { return type.CellCount(); }
  [[nodiscard]] BaseType scalar() const { return ScalarOf(type.base); }
  [[nodiscard]] Cell* row(int k) const { return base + k * cell_stride; }
  [[nodiscard]] Cell& at(int k, int lane) const {
    return row(k)[lane * lane_stride];
  }
  // One lane's cells, for per-lane paths (refs, gles2 lane plumbing).
  [[nodiscard]] LaneSlice lane(int l) const {
    return {base + l * lane_stride, cell_stride};
  }
  operator BatchSrc() const {  // NOLINT: a destination reads as a source
    return {base, type, cell_stride, lane_stride};
  }
};

// Calls f(lane) for each set bit of `mask`, ascending — the lane order of
// every per-lane path, so count accumulation order matches a
// fragment-sequential scalar run.
template <typename F>
void ForEachLane(std::uint32_t mask, F&& f) {
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    f(std::countr_zero(m));
  }
}

// The lanes of `mask` whose cell 0 of `cond` is true (nonzero): the branch
// decision of a whole batch in one pass over the condition's row.
[[nodiscard]] std::uint32_t TrueLanes(const BatchSrc& cond,
                                      std::uint32_t mask);

// The lane-slice gather/scatter every per-lane replay goes through: copies
// lane `lane` of `s` into `out` (pre-typed with s.type), and `v` into lane
// `lane` of `d`. Linear-algebra multiplies and matrix constructors replay
// the scalar Eval*Into on these scratch Values.
void GatherLane(const BatchSrc& s, int lane, Value& out);
void ScatterLane(const Value& v, const BatchDst& d, int lane);

// Binary arithmetic / comparison: component-wise float and int arithmetic
// with scalar broadcast, comparisons, vector/matrix ==/!=. The
// linear-algebra multiplies (mat*mat, mat*vec, vec*mat) replay
// EvalArithInto per lane through GatherLane/ScatterLane.
void EvalArithBatch(AluModel& alu, BinOp op, const BatchSrc& l,
                    const BatchSrc& r, const BatchDst& out,
                    std::uint32_t mask, simd::Level level);

// Component-wise negation (float: sign flip, then the round mode) / scalar
// logical not.
void EvalNegBatch(AluModel& alu, const BatchSrc& v, const BatchDst& out,
                  std::uint32_t mask, simd::Level level);
void EvalNotBatch(AluModel& alu, const BatchSrc& v, const BatchDst& out,
                  std::uint32_t mask);

// Type constructor: scalar and vector targets run as cell-row copies and
// conversions (the all-float gather is a row copy); matrix targets replay
// EvalCtorInto per lane. Every lane's destination is fully written,
// matching the VM's fresh-value kCtor semantics.
void EvalCtorBatch(AluModel& alu, std::span<const BatchSrc> args,
                   const BatchDst& out, std::uint32_t mask, simd::Level level);

// Cell moves: out cell k = s cell (comps ? comps[k] : k) for k < n (kCopy,
// kShuffle), and all-zero (kZero). Cells move in ascending k, which keeps an
// in-place shuffle identical to the scalar VM's.
void EvalMoveBatch(const BatchSrc& s, const BatchDst& out,
                   const std::uint8_t* comps, int n, std::uint32_t mask,
                   simd::Level level);
void EvalZeroBatch(const BatchDst& out, std::uint32_t mask, simd::Level level);

// R-value dynamic indexing per lane with the runtime clamp:
// out = base[index] (index cell 0 of each lane).
void EvalExtractBatch(const BatchSrc& base, const IndexStep& step,
                      const BatchSrc& index, const BatchDst& out,
                      std::uint32_t mask);

// Whole-variable ++/-- over a batch (EvalIncDecVar per lane).
void EvalIncDecVarBatch(AluModel& alu, const BatchDst& var, bool increment,
                        bool post, const BatchDst& out, std::uint32_t mask);

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_EVALCORE_H_
