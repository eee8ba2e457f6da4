#include "glsl/vm.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>
#include <utility>

#include "common/fault.h"

namespace mgpu::glsl {
namespace {

// Same budget (and messages) as the tree-walking interpreter. The loop
// budget itself is a member (loop_budget_, default kDefaultLoopBudget) so
// tests can trip the trap path without 100M iterations.
constexpr int kMaxCallDepth = 64;

constexpr char kLoopBudgetMsg[] =
    "shader exceeded the loop iteration budget (a real GPU would hang or be "
    "reset here)";
constexpr char kCallDepthMsg[] = "shader call depth exceeded";
// Message of the kVmInstruction fault site (fires at a guarded step).
constexpr char kInjectedTrapMsg[] = "injected fault: shader trap";

inline std::uint32_t LowLanes(int n) {
  return n >= 32 ? ~0u : (1u << static_cast<unsigned>(n)) - 1u;
}

}  // namespace

// The one place operands resolve to batch views — value ops and branch
// conditions in both executors go through the same space dispatch, so the
// encodings cannot drift apart. Registers and lane-varying globals resolve
// to their planes (cell stride kVmLanes, lane stride 1); constants,
// uniforms and other lane-invariant globals to the shared Value (cell
// stride 1, lane stride 0). Built per executor entry from the engine's
// storage base pointers (none of the vectors resize during execution).
struct LaneViews {
  const VmProgram* prog;
  Cell* lane_regs;
  const std::size_t* reg_plane;
  Cell* lane_globals;
  const std::size_t* global_plane;
  Value* globals;

  [[nodiscard]] BatchDst Dst(std::uint32_t operand) const {
    const std::uint32_t idx = operand & kOperandIndexMask;
    if ((operand & ~kOperandIndexMask) == kSpaceReg) {
      return {lane_regs + reg_plane[idx], prog->reg_types[idx], kVmLanes, 1};
    }
    const std::int32_t lg = prog->lane_global_index[idx];
    if (lg >= 0) {
      return {lane_globals + global_plane[lg], prog->globals[idx].type,
              kVmLanes, 1};
    }
    return BatchDst::Of(globals[idx]);
  }
  [[nodiscard]] BatchSrc Read(std::uint32_t operand) const {
    if ((operand & ~kOperandIndexMask) == kSpaceConst) {
      return BatchSrc::Of(prog->consts[operand & kOperandIndexMask]);
    }
    return Dst(operand);
  }
};

LaneViews VmExec::Views() {
  return {prog_.get(), lane_regs_.data(), reg_plane_.data(),
          lane_globals_.data(), global_plane_.data(), globals_.data()};
}

VmExec::VmExec(std::shared_ptr<const VmProgram> program, AluModel& alu)
    : prog_(std::move(program)), alu_(alu) {
  globals_.reserve(prog_->globals.size());
  for (const VmGlobal& g : prog_->globals) globals_.emplace_back(g.type);
  regs_.reserve(prog_->reg_types.size());
  for (const Type& t : prog_->reg_types) regs_.emplace_back(t);
  refs_.resize(prog_->ref_slot_count);

  // One-time global initialization (consts and initial values of plain
  // globals). The oracle counts this work at its own construction, so the
  // counter snapshot keeps link-time totals unchanged when both engines are
  // instantiated side by side.
  const OpCounts saved = alu_.counts();
  loop_steps_ = 0;
  (void)Execute(prog_->const_init_entry);
  alu_.SetCounts(saved);
}

VmExec::VmExec(const VmExec& base, AluModel& alu)
    : prog_(base.prog_), alu_(alu), globals_(base.globals_),
      regs_(base.regs_), loop_budget_(base.loop_budget_),
      simd_level_(base.simd_level_) {
  // Refs are rebuilt before use by every invocation; fresh ones avoid
  // aliasing the base engine's storage.
  refs_.resize(prog_->ref_slot_count);
}

void VmExec::SyncGlobalsFrom(const VmExec& base) {
  if (prog_.get() != base.prog_.get() ||
      globals_.size() != base.globals_.size()) {
    // Layout mismatch: fall back to a full re-clone of the global store
    // (never hit through the shade-state cache, which is invalidated on
    // relink; kept so direct callers cannot corrupt the register file).
    prog_ = base.prog_;
    globals_ = base.globals_;
    regs_ = base.regs_;
    refs_.resize(prog_->ref_slot_count);
    // The per-lane planes were sized and typed for the old program.
    batch_ready_ = false;
    lane_regs_.clear();
    reg_plane_.clear();
    lane_globals_.clear();
    global_plane_.clear();
    lane_refs_.clear();
    batch_ops_.clear();
    batch_args_.clear();
    return;
  }
  // Element-wise copy-assign: Value reuses its existing cell storage when
  // the layout matches, so this is a flat copy with no allocation — the
  // cheap per-draw path the shade-state cache relies on.
  for (std::size_t i = 0; i < globals_.size(); ++i) {
    globals_[i] = base.globals_[i];
  }
}

bool VmExec::Run() {
  loop_steps_ = 0;
  return Execute(prog_->run_entry);
}

bool VmExec::Execute(std::uint32_t pc) {
  const VmInst* const code = prog_->code.data();
  const std::uint32_t* const arg_ops = prog_->arg_ops.data();
  // Local copies of the storage base pointers: none of these vectors are
  // resized during execution, and keeping them in locals lets the compiler
  // hold them in registers across the opaque Eval* calls (the member-based
  // At()/Read() would be reloaded after every call).
  Value* const regs = regs_.data();
  Value* const globals = globals_.data();
  const Value* const consts = prog_->consts.data();
  const auto At = [regs, globals](std::uint32_t operand) -> Value& {
    const std::uint32_t idx = operand & kOperandIndexMask;
    return (operand & ~kOperandIndexMask) == kSpaceReg ? regs[idx]
                                                       : globals[idx];
  };
  const auto Read = [regs, globals,
                     consts](std::uint32_t operand) -> const Value& {
    const std::uint32_t idx = operand & kOperandIndexMask;
    switch (operand & ~kOperandIndexMask) {
      case kSpaceReg: return regs[idx];
      case kSpaceGlobal: return globals[idx];
      default: return consts[idx];
    }
  };
  // One extra slot: the run chunk's call into main occupies the stack but
  // does not count against the interpreter's user-call depth limit.
  std::array<std::uint32_t, kMaxCallDepth + 1> ret_stack;
  int sp = 0;

  while (true) {
    const VmInst& in = code[pc];
    switch (in.op) {
      case VmOp::kCopy: {
        Value& d = At(in.dst);
        const Value& s = Read(in.a);
        const int n = d.count();
        if (n <= 4) {
          for (int k = 0; k < n; ++k) d.data()[k] = s.data()[k];
        } else {
          std::memmove(d.data(), s.data(),
                       static_cast<std::size_t>(n) * sizeof(Cell));
        }
        break;
      }
      case VmOp::kZero: {
        Value& d = At(in.dst);
        const int n = d.count();
        if (n <= 4) {
          for (int k = 0; k < n; ++k) d.data()[k].i = 0;
        } else {
          std::memset(d.data(), 0,
                      static_cast<std::size_t>(n) * sizeof(Cell));
        }
        break;
      }
      case VmOp::kShuffle: {
        Value& d = At(in.dst);
        const Value& s = Read(in.a);
        for (int k = 0; k < in.n; ++k) {
          d.data()[k] = s.data()[(in.aux >> (8 * k)) & 0xffu];
        }
        break;
      }
      case VmOp::kExtract: {
        IndexStep step;
        step.limit = static_cast<int>(in.aux);
        step.elem_cells = in.n;
        EvalExtractInto(Read(in.a), step, Read(in.b).I(0), At(in.dst));
        break;
      }
      case VmOp::kArith:
        EvalArithInto(alu_, static_cast<BinOp>(in.u8), Read(in.a), Read(in.b),
                      At(in.dst));
        break;
      case VmOp::kNeg:
        EvalNegInto(alu_, Read(in.a), At(in.dst));
        break;
      case VmOp::kNot:
        EvalNotInto(alu_, Read(in.a), At(in.dst));
        break;
      case VmOp::kXor:
        At(in.dst).SetB(0, Read(in.a).B(0) != Read(in.b).B(0));
        break;
      case VmOp::kBoolNorm:
        At(in.dst).SetB(0, Read(in.a).B(0));
        break;
      case VmOp::kCtor: {
        std::array<const Value*, 16> ptrs;
        for (int i = 0; i < in.n; ++i) ptrs[i] = &Read(arg_ops[in.aux + i]);
        Value& d = At(in.dst);
        // Fresh-value semantics: the interpreter constructs into a zeroed
        // Value; clear so partially-covering (malformed) ctors still match.
        std::memset(d.data(), 0,
                    static_cast<std::size_t>(d.count()) * sizeof(Cell));
        EvalCtorInto(alu_,
                     std::span<const Value* const>(ptrs.data(), in.n), d);
        break;
      }
      case VmOp::kBuiltin: {
        std::array<const Value*, kMaxBuiltinArgs> ptrs;
        for (int i = 0; i < in.n; ++i) ptrs[i] = &Read(arg_ops[in.aux + i]);
        EvalBuiltinInto(static_cast<Builtin>(in.u8), in.type,
                        std::span<const Value* const>(ptrs.data(), in.n),
                        alu_, texture_, At(in.dst));
        break;
      }
      case VmOp::kJump:
        pc = in.aux;
        continue;
      case VmOp::kJumpIfFalse:
        if (!Read(in.a).B(0)) {
          pc = in.aux;
          continue;
        }
        break;
      case VmOp::kJumpIfTrue:
        if (Read(in.a).B(0)) {
          pc = in.aux;
          continue;
        }
        break;
      case VmOp::kLoopGuard:
        if (fault::ShouldFail(fault::Site::kVmInstruction)) {
          throw ShaderRuntimeError(kInjectedTrapMsg);
        }
        if (++loop_steps_ > loop_budget_) {
          throw ShaderRuntimeError(kLoopBudgetMsg);
        }
        break;
      case VmOp::kCall:
        if (sp > kMaxCallDepth) {
          throw ShaderRuntimeError(kCallDepthMsg);
        }
        ret_stack[static_cast<std::size_t>(sp++)] = pc + 1;
        pc = prog_->functions[in.aux].entry;
        continue;
      case VmOp::kRet:
        if (sp == 0) return true;  // main returned
        pc = ret_stack[static_cast<std::size_t>(--sp)];
        continue;
      case VmOp::kDiscard:
        return false;
      case VmOp::kHalt:
        return true;
      case VmOp::kTrap:
        throw ShaderRuntimeError(prog_->messages[in.aux]);
      case VmOp::kRefVar:
        refs_[in.dst] = RefWhole(At(in.a), in.type);
        break;
      case VmOp::kRefIndex: {
        IndexStep step;
        step.limit = static_cast<int>(in.aux);
        step.elem_cells = in.n;
        step.elem_type = in.type;
        refs_[in.dst] = RefIndex(refs_[in.a], step, Read(in.b).I(0));
        break;
      }
      case VmOp::kRefSwizzle: {
        std::array<std::uint8_t, 4> comps{};
        for (int k = 0; k < in.n; ++k) {
          comps[static_cast<std::size_t>(k)] =
              static_cast<std::uint8_t>((in.aux >> (8 * k)) & 0xffu);
        }
        refs_[in.dst] = RefSwizzle(refs_[in.a], in.type, comps.data(), in.n);
        break;
      }
      case VmOp::kReadRef:
        ReadRefInto(refs_[in.a], LaneSlice::Of(At(in.dst)));
        break;
      case VmOp::kWriteRef:
        WriteRef(refs_[in.dst], Read(in.a));
        break;
      case VmOp::kIncDec:
        EvalIncDecInto(alu_, refs_[in.a], (in.u8 & 1) != 0, (in.u8 & 2) != 0,
                       LaneSlice::Of(At(in.dst)));
        break;
      case VmOp::kIncDecVar:
        EvalIncDecVar(alu_, At(in.a), (in.u8 & 1) != 0, (in.u8 & 2) != 0,
                      At(in.dst));
        break;
    }
    ++pc;
  }
}

// ---------------------------------------------------------------------------
// Lane-batched execution over lane-major planes
// ---------------------------------------------------------------------------

void VmExec::EnsureBatchState() {
  if (batch_ready_) return;
  reg_plane_.clear();
  std::size_t cells = 0;
  for (const Type& t : prog_->reg_types) {
    reg_plane_.push_back(cells);
    cells += static_cast<std::size_t>(t.CellCount()) * kVmLanes;
  }
  lane_regs_.assign(cells, Cell{});
  // Per-lane globals start as copies of the shared store, which at this
  // point holds the const-init results and current uniforms. Globals the
  // run chunk re-initializes are overwritten per batch anyway; const tables
  // that user code may write keep their correct initial value per lane.
  global_plane_.clear();
  cells = 0;
  for (std::size_t g = 0; g < prog_->globals.size(); ++g) {
    if (prog_->lane_global_index[g] < 0) continue;
    global_plane_.push_back(cells);
    cells += static_cast<std::size_t>(globals_[g].count()) * kVmLanes;
  }
  lane_globals_.assign(cells, Cell{});
  for (std::size_t g = 0; g < prog_->globals.size(); ++g) {
    const std::int32_t lg = prog_->lane_global_index[g];
    if (lg < 0) continue;
    Cell* plane = lane_globals_.data() + global_plane_[lg];
    const Value& init = globals_[g];
    for (int k = 0; k < init.count(); ++k) {
      for (int l = 0; l < kVmLanes; ++l) plane[k * kVmLanes + l] = init.data()[k];
    }
  }
  lane_refs_.assign(
      static_cast<std::size_t>(prog_->ref_slot_count) * kVmLanes, LRef{});
  const LaneViews views = Views();
  const auto resolve = [&views](std::uint32_t operand) {
    return operand == kOperandNone ? BatchSrc{} : views.Read(operand);
  };
  batch_ops_.clear();
  batch_ops_.reserve(prog_->code.size());
  for (const VmInst& in : prog_->code) {
    // Ref slots and jump targets are not operands; a kRefVar / kIncDecVar
    // variable in `a` is a register or global like any other.
    const bool dst_is_operand = in.op != VmOp::kRefVar &&
                                in.op != VmOp::kRefIndex &&
                                in.op != VmOp::kRefSwizzle &&
                                in.op != VmOp::kWriteRef &&
                                in.dst != kOperandNone;
    const bool a_is_operand = in.op != VmOp::kRefIndex &&
                              in.op != VmOp::kRefSwizzle &&
                              in.op != VmOp::kReadRef &&
                              in.op != VmOp::kIncDec;
    BatchOperands ops;
    if (dst_is_operand) ops.dst = views.Dst(in.dst);
    if (a_is_operand) ops.a = resolve(in.a);
    ops.b = resolve(in.b);
    batch_ops_.push_back(ops);
  }
  batch_args_.clear();
  batch_args_.reserve(prog_->arg_ops.size());
  for (const std::uint32_t operand : prog_->arg_ops) {
    batch_args_.push_back(views.Read(operand));
  }
  lane_ret_stack_.assign(
      static_cast<std::size_t>(kVmLanes) * (kMaxCallDepth + 1), 0);
  batch_ready_ = true;
}

BatchDst VmExec::LanePlane(int slot) {
  EnsureBatchState();
  return Views().Dst(kSpaceGlobal | static_cast<std::uint32_t>(slot));
}

std::uint32_t VmExec::RunBatch(int n) {
  if (n <= 0) return 0;
  EnsureBatchState();
  // Effective SIMD tier for this batch: the vector tiers reproduce
  // AluModel rounding only for its closed-form modes (identity and denormal
  // flush, see simd.h); a kModel ALU runs the scalar tier regardless of the
  // configured one.
  batch_simd_ = alu_.round_mode() != RoundMode::kModel ? simd_level_
                                                       : simd::Level::kScalar;
  if (batch_simd_ != simd::Level::kScalar) ++simd_batches_;
  return prog_->uniform_control_flow ? ExecuteBatchUniform(n)
                                     : ExecuteBatchDivergent(n);
}

void VmExec::ExecBatchOp(const VmInst& in, std::uint32_t mask) {
  const BatchOperands& ops =
      batch_ops_[static_cast<std::size_t>(&in - prog_->code.data())];
  const simd::Level level = batch_simd_;
  const auto ref_at = [this](std::uint32_t slot, int lane) -> LRef& {
    return lane_refs_[static_cast<std::size_t>(slot) * kVmLanes +
                      static_cast<std::size_t>(lane)];
  };
  // A variable operand `a` that the op writes (kRefVar, kIncDecVar).
  const BatchDst var{const_cast<Cell*>(ops.a.base), ops.a.type,
                     ops.a.cell_stride, ops.a.lane_stride};
  // Argument list of a kCtor / kBuiltin.
  const auto args = [&] {
    return std::span<const BatchSrc>(batch_args_.data() + in.aux, in.n);
  };

  switch (in.op) {
    case VmOp::kCopy:
      EvalMoveBatch(ops.a, ops.dst, nullptr, ops.dst.count(), mask, level);
      break;
    case VmOp::kZero:
      EvalZeroBatch(ops.dst, mask, level);
      break;
    case VmOp::kShuffle: {
      std::array<std::uint8_t, 4> comps{};
      for (int k = 0; k < in.n; ++k) {
        comps[static_cast<std::size_t>(k)] =
            static_cast<std::uint8_t>((in.aux >> (8 * k)) & 0xffu);
      }
      EvalMoveBatch(ops.a, ops.dst, comps.data(), in.n, mask, level);
      break;
    }
    case VmOp::kExtract: {
      IndexStep step;
      step.limit = static_cast<int>(in.aux);
      step.elem_cells = in.n;
      EvalExtractBatch(ops.a, step, ops.b, ops.dst, mask);
      break;
    }
    case VmOp::kArith:
      EvalArithBatch(alu_, static_cast<BinOp>(in.u8), ops.a, ops.b, ops.dst,
                     mask, level);
      break;
    case VmOp::kNeg:
      EvalNegBatch(alu_, ops.a, ops.dst, mask, level);
      break;
    case VmOp::kNot:
      EvalNotBatch(alu_, ops.a, ops.dst, mask);
      break;
    case VmOp::kXor: {
      const BatchDst d = ops.dst;
      const BatchSrc a = ops.a;
      const BatchSrc b = ops.b;
      ForEachLane(mask, [&](int l) {
        d.at(0, l).i = (a.at(0, l).i != 0) != (b.at(0, l).i != 0) ? 1 : 0;
      });
      break;
    }
    case VmOp::kBoolNorm: {
      const BatchDst d = ops.dst;
      const BatchSrc a = ops.a;
      ForEachLane(mask, [&](int l) { d.at(0, l).i = a.at(0, l).i != 0; });
      break;
    }
    case VmOp::kCtor:
      EvalCtorBatch(alu_, args(), ops.dst, mask, level);
      break;
    case VmOp::kBuiltin: {
      const Builtin b = static_cast<Builtin>(in.u8);
      const BatchDst d = ops.dst;
      if (IsSoaBuiltin(b)) {
        EvalBuiltinBatch(b, in.type, args(), alu_, texture_, d, mask, level);
        break;
      }
      // Texture builtins run one lane at a time so batch_lane_ tracks the
      // lane each TMU access belongs to — the gles2 context replays
      // accesses in lane order, reproducing the scalar engine's
      // fragment-sequential cache order (and tmu_miss counts) exactly.
      ForEachLane(mask, [&](int l) {
        batch_lane_ = l;  // lane-aware texture callbacks read this
        EvalBuiltinBatch(b, in.type, args(), alu_, texture_, d, 1u << l,
                         simd::Level::kScalar);
      });
      break;
    }
    case VmOp::kRefVar: {
      ForEachLane(mask, [&](int l) {
        ref_at(in.dst, l) = RefWhole(var.lane(l), in.type);
      });
      break;
    }
    case VmOp::kRefIndex: {
      IndexStep step;
      step.limit = static_cast<int>(in.aux);
      step.elem_cells = in.n;
      step.elem_type = in.type;
      const BatchSrc b = ops.b;
      ForEachLane(mask, [&](int l) {
        ref_at(in.dst, l) = RefIndex(ref_at(in.a, l), step, b.at(0, l).i);
      });
      break;
    }
    case VmOp::kRefSwizzle: {
      std::array<std::uint8_t, 4> comps{};
      for (int k = 0; k < in.n; ++k) {
        comps[static_cast<std::size_t>(k)] =
            static_cast<std::uint8_t>((in.aux >> (8 * k)) & 0xffu);
      }
      ForEachLane(mask, [&](int l) {
        ref_at(in.dst, l) =
            RefSwizzle(ref_at(in.a, l), in.type, comps.data(), in.n);
      });
      break;
    }
    case VmOp::kReadRef: {
      const BatchDst d = ops.dst;
      ForEachLane(mask,
                  [&](int l) { ReadRefInto(ref_at(in.a, l), d.lane(l)); });
      break;
    }
    case VmOp::kWriteRef: {
      // Read-only source: the slice only carries it into WriteRef.
      const BatchSrc a = ops.a;
      ForEachLane(mask, [&](int l) {
        WriteRef(ref_at(in.dst, l),
                 LaneSlice{const_cast<Cell*>(&a.at(0, l)), a.cell_stride});
      });
      break;
    }
    case VmOp::kIncDec: {
      const BatchDst d = ops.dst;
      ForEachLane(mask, [&](int l) {
        EvalIncDecInto(alu_, ref_at(in.a, l), (in.u8 & 1) != 0,
                       (in.u8 & 2) != 0, d.lane(l));
      });
      break;
    }
    case VmOp::kIncDecVar:
      EvalIncDecVarBatch(alu_, var, (in.u8 & 1) != 0, (in.u8 & 2) != 0,
                         ops.dst, mask);
      break;
    default:
      break;  // control-flow ops are handled by the executor loops
  }
}

std::uint32_t VmExec::ExecuteBatchUniform(int n) {
  const VmInst* const code = prog_->code.data();
  const BatchOperands* const ops = batch_ops_.data();
  const std::uint32_t full = LowLanes(n);
  std::array<std::uint32_t, kMaxCallDepth + 1> ret_stack;
  int sp = 0;
  // One budget counter stands in for every lane's: with uniform control
  // flow all lanes take identical trip counts, so the per-fragment budget
  // trips at exactly the same guard as in a scalar run.
  loop_steps_ = 0;
  std::uint32_t pc = prog_->run_entry;

  while (true) {
    const VmInst& in = code[pc];
    switch (in.op) {
      case VmOp::kJump:
        pc = in.aux;
        continue;
      case VmOp::kJumpIfFalse:
      case VmOp::kJumpIfTrue: {
        // Uniform-control-flow programs: the analysis guarantees every
        // active lane holds the same condition value, so lane 0 decides
        // for the batch.
        if ((ops[pc].a.at(0, 0).i != 0) == (in.op == VmOp::kJumpIfTrue)) {
          pc = in.aux;
          continue;
        }
        break;
      }
      case VmOp::kLoopGuard:
        // Traps under uniform control flow hit every lane on the same step,
        // so the minimum trapping lane is always lane 0.
        if (fault::ShouldFail(fault::Site::kVmInstruction)) {
          throw ShaderRuntimeError(kInjectedTrapMsg, /*trap_lane=*/0);
        }
        if (++loop_steps_ > loop_budget_) {
          throw ShaderRuntimeError(kLoopBudgetMsg, /*trap_lane=*/0);
        }
        break;
      case VmOp::kCall:
        if (sp > kMaxCallDepth) {
          throw ShaderRuntimeError(kCallDepthMsg, /*trap_lane=*/0);
        }
        ret_stack[static_cast<std::size_t>(sp++)] = pc + 1;
        pc = prog_->functions[in.aux].entry;
        continue;
      case VmOp::kRet:
        if (sp == 0) return full;  // main returned for every lane
        pc = ret_stack[static_cast<std::size_t>(--sp)];
        continue;
      case VmOp::kDiscard:
        return 0;  // all lanes reached it together
      case VmOp::kHalt:
        return full;
      case VmOp::kTrap:
        throw ShaderRuntimeError(prog_->messages[in.aux], /*trap_lane=*/0);
      default:
        ExecBatchOp(in, full);
        break;
    }
    ++pc;
  }
}

std::uint32_t VmExec::ExecuteBatchDivergent(int n) {
  const VmInst* const code = prog_->code.data();
  const std::uint32_t full = LowLanes(n);
  constexpr std::size_t kStackStride = kMaxCallDepth + 1;
  for (int l = 0; l < n; ++l) {
    lane_pc_[static_cast<std::size_t>(l)] = prog_->run_entry;
    lane_sp_[static_cast<std::size_t>(l)] = 0;
    lane_steps_[static_cast<std::size_t>(l)] = 0;
  }
  std::uint32_t running = full;
  std::uint32_t kept = full;

  // Pending-trap state. A trapping lane does not unwind the batch on the
  // spot: min-pc scheduling executes lanes out of lane order, so the lane
  // that traps *first in scheduling order* need not be the lane a scalar
  // fragment sequence would have trapped on first. Instead the trapping
  // lanes are parked (removed from `running`), the surviving lanes run to
  // completion, and the batch then throws the minimum trapping lane's trap —
  // exactly the fragment the scalar engines would have aborted the draw on.
  int trap_lane = -1;
  std::string trap_msg;
  const auto record_trap = [&](std::uint32_t lanes_bits,
                               const std::string& msg) {
    const int l = std::countr_zero(lanes_bits);
    if (trap_lane < 0 || l < trap_lane) {
      trap_lane = l;
      trap_msg = msg;
    }
  };

  // Hybrid scheduling. Converged phase (the common case, entered at start):
  // every running lane sits at the same pc, so instructions execute in
  // lockstep with a single shared pc and none of the per-lane bookkeeping —
  // branch conditions are still read per lane, and only a branch (or ret)
  // whose outcome actually differs between lanes ends the phase by spilling
  // per-lane pcs. Diverged phase: minimum-pc scheduling — each step
  // executes the one instruction at the smallest pc any running lane waits
  // on, with exactly the lanes parked there. Structured lowering places a
  // branch's taken-earlier block before its taken-later block and loop
  // bodies before their exits, so split lanes re-join at the join point's
  // pc, where the group covers every running lane again and the converged
  // phase resumes. Both sides of a divergent branch thus execute, each
  // under its own lane mask, and every lane performs exactly its scalar
  // instruction sequence — per-lane op counts and TMU access order stay
  // exact.
  //
  // The diverged phase keeps the min-pc group in registers: `group` (its
  // lanes), `pc` (their pc) and `next_other` (the lowest pc of any other
  // running lane; every other lane waits at or above it). While the group
  // stays strictly below next_other it is still exactly the min-pc group,
  // so lane_pc_ is rescanned only when a jump leaves [.., next_other), the
  // group reaches next_other, or a call, ret, discard or trap changes it;
  // the group's own lane_pc_ entries are written back (park) just before.
  const BatchOperands* const ops = batch_ops_.data();
  bool converged = true;
  std::uint32_t pc = prog_->run_entry;
  std::uint32_t group = running;
  std::uint32_t next_other = ~0u;
  const auto park = [&](std::uint32_t lanes_bits, std::uint32_t at) {
    ForEachLane(lanes_bits,
                [&](int l) { lane_pc_[static_cast<std::size_t>(l)] = at; });
  };
  // Re-derives group / pc / next_other from lane_pc_ over `running`; a
  // group of every running lane ends the diverged phase.
  const auto rescan = [&] {
    pc = ~0u;
    ForEachLane(running, [&](int l) {
      pc = std::min(pc, lane_pc_[static_cast<std::size_t>(l)]);
    });
    group = 0;
    next_other = ~0u;
    ForEachLane(running, [&](int l) {
      const std::uint32_t lp = lane_pc_[static_cast<std::size_t>(l)];
      if (lp == pc) {
        group |= 1u << static_cast<unsigned>(l);
      } else {
        next_other = std::min(next_other, lp);
      }
    });
    converged = group == running;
  };
  // Moves the whole group to `target`.
  const auto move_group = [&](std::uint32_t target) {
    if (target < next_other) {
      pc = target;
    } else {
      park(group, target);
      rescan();
    }
  };

  while (running != 0) {
    const VmInst& in = code[pc];
    if (!converged) {
      switch (in.op) {
        case VmOp::kJump:
          move_group(in.aux);
          continue;
        case VmOp::kJumpIfFalse:
        case VmOp::kJumpIfTrue: {
          const std::uint32_t true_lanes = TrueLanes(ops[pc].a, group);
          const std::uint32_t taken = in.op == VmOp::kJumpIfTrue
                                          ? true_lanes
                                          : group & ~true_lanes;
          if (taken == 0) {
            move_group(pc + 1);
          } else if (taken == group) {
            move_group(in.aux);
          } else {
            park(taken, in.aux);
            park(group & ~taken, pc + 1);
            rescan();
          }
          continue;
        }
        case VmOp::kLoopGuard: {
          if (fault::ShouldFail(fault::Site::kVmInstruction)) {
            record_trap(group, kInjectedTrapMsg);
            running &= ~group;
            kept &= ~group;
            rescan();
            continue;
          }
          std::uint32_t over = 0;
          ForEachLane(group, [&](int l) {
            if (++lane_steps_[static_cast<std::size_t>(l)] > loop_budget_) {
              over |= 1u << static_cast<unsigned>(l);
            }
          });
          if (over != 0) {
            record_trap(over, kLoopBudgetMsg);
            running &= ~over;
            kept &= ~over;
            group &= ~over;
            if (group == 0) {
              rescan();
              continue;
            }
          }
          move_group(pc + 1);
          continue;
        }
        case VmOp::kCall: {
          std::uint32_t deep = 0;
          ForEachLane(group, [&](int l) {
            const std::size_t li = static_cast<std::size_t>(l);
            if (lane_sp_[li] > kMaxCallDepth) {
              deep |= 1u << static_cast<unsigned>(l);
              return;
            }
            lane_ret_stack_[li * kStackStride +
                            static_cast<std::size_t>(lane_sp_[li]++)] =
                pc + 1;
          });
          if (deep != 0) {
            record_trap(deep, kCallDepthMsg);
            running &= ~deep;
            kept &= ~deep;
            group &= ~deep;
          }
          park(group, prog_->functions[in.aux].entry);
          rescan();
          continue;
        }
        case VmOp::kRet:
          ForEachLane(group, [&](int l) {
            const std::size_t li = static_cast<std::size_t>(l);
            if (lane_sp_[li] == 0) {
              // main returned: the lane is done (and not discarded).
              running &= ~(1u << static_cast<unsigned>(l));
            } else {
              lane_pc_[li] =
                  lane_ret_stack_[li * kStackStride +
                                  static_cast<std::size_t>(--lane_sp_[li])];
            }
          });
          rescan();
          continue;
        case VmOp::kDiscard:
          kept &= ~group;
          running &= ~group;
          rescan();
          continue;
        case VmOp::kHalt:
          running &= ~group;
          rescan();
          continue;
        case VmOp::kTrap:
          record_trap(group, prog_->messages[in.aux]);
          running &= ~group;
          kept &= ~group;
          rescan();
          continue;
        default:
          ExecBatchOp(in, group);
          move_group(pc + 1);
          continue;
      }
    }

    // Converged: lockstep over `running` with a single shared pc. Per-lane
    // call stacks stay live (lanes reconverged from different call paths
    // may hold different return chains), but no per-step scanning happens.
    switch (in.op) {
      case VmOp::kJump:
        pc = in.aux;
        continue;
      case VmOp::kJumpIfFalse:
      case VmOp::kJumpIfTrue: {
        const std::uint32_t true_lanes = TrueLanes(ops[pc].a, running);
        const std::uint32_t taken = in.op == VmOp::kJumpIfTrue
                                        ? true_lanes
                                        : running & ~true_lanes;
        if (taken == 0) {
          ++pc;
        } else if (taken == running) {
          pc = in.aux;
        } else {
          // The batch splits here: spill per-lane pcs and go grouped.
          park(taken, in.aux);
          park(running & ~taken, pc + 1);
          rescan();
        }
        continue;
      }
      case VmOp::kLoopGuard: {
        if (fault::ShouldFail(fault::Site::kVmInstruction)) {
          record_trap(running, kInjectedTrapMsg);
          kept &= ~running;
          running = 0;
          continue;
        }
        // Lanes may carry different step counts into a converged guard
        // (reconverged from unequal trip counts), so the budget is checked
        // per lane; survivors stay converged at the next pc.
        std::uint32_t over = 0;
        ForEachLane(running, [&](int l) {
          if (++lane_steps_[static_cast<std::size_t>(l)] > loop_budget_) {
            over |= 1u << static_cast<unsigned>(l);
          }
        });
        if (over != 0) {
          record_trap(over, kLoopBudgetMsg);
          kept &= ~over;
          running &= ~over;
        }
        break;
      }
      case VmOp::kCall: {
        std::uint32_t deep = 0;
        ForEachLane(running, [&](int l) {
          const std::size_t li = static_cast<std::size_t>(l);
          if (lane_sp_[li] > kMaxCallDepth) {
            deep |= 1u << static_cast<unsigned>(l);
            return;
          }
          lane_ret_stack_[li * kStackStride +
                          static_cast<std::size_t>(lane_sp_[li]++)] = pc + 1;
        });
        if (deep != 0) {
          record_trap(deep, kCallDepthMsg);
          kept &= ~deep;
          running &= ~deep;
          if (running == 0) continue;
        }
        pc = prog_->functions[in.aux].entry;
        continue;
      }
      case VmOp::kRet: {
        // Pop per lane; lanes whose stacks agree keep lockstep, otherwise
        // (reconvergence joined different call chains) spill and group.
        std::uint32_t done = 0;
        std::uint32_t next = ~0u;
        bool same = true;
        ForEachLane(running, [&](int l) {
          const std::size_t li = static_cast<std::size_t>(l);
          if (lane_sp_[li] == 0) {
            done |= 1u << static_cast<unsigned>(l);
            return;
          }
          const std::uint32_t ret =
              lane_ret_stack_[li * kStackStride +
                              static_cast<std::size_t>(--lane_sp_[li])];
          lane_pc_[li] = ret;
          if (next == ~0u) {
            next = ret;
          } else if (ret != next) {
            same = false;
          }
        });
        running &= ~done;  // main returned for those lanes (not discarded)
        if (running == 0) continue;  // outer loop exits
        if (same) {
          pc = next;
        } else {
          rescan();
        }
        continue;
      }
      case VmOp::kDiscard:
        kept &= ~running;
        running = 0;
        continue;
      case VmOp::kHalt:
        running = 0;
        continue;
      case VmOp::kTrap:
        record_trap(running, prog_->messages[in.aux]);
        kept &= ~running;
        running = 0;
        continue;
      default:
        ExecBatchOp(in, running);
        break;
    }
    ++pc;
  }
  if (trap_lane >= 0) throw ShaderRuntimeError(trap_msg, trap_lane);
  return kept;
}

}  // namespace mgpu::glsl
