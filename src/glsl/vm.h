// Bytecode VM executor: the default execution engine for shader
// invocations. A VmExec instantiates the register file / globals / ref
// slots of a lowered VmProgram once, then Run() executes the flat
// instruction stream with a tight dispatch loop — no recursion, no
// per-invocation allocation. All float math routes through the AluModel via
// the evaluation core shared with the tree-walking oracle (evalcore.h), so
// results and op counts are identical to ShaderExec by construction.
#ifndef MGPU_GLSL_VM_H_
#define MGPU_GLSL_VM_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "glsl/alu.h"
#include "glsl/builtins.h"
#include "glsl/engine.h"
#include "glsl/evalcore.h"
#include "glsl/ir.h"

namespace mgpu::glsl {

struct LaneViews;  // vm.cc: operand -> batch view resolution

class VmExec final : public ShaderEngine {
 public:
  // Evaluates the program's constant-initializer chunk once; the ops it
  // spends are excluded from `alu`'s counters (the oracle charged the same
  // work at its own construction, so per-Run counts stay comparable).
  VmExec(std::shared_ptr<const VmProgram> program, AluModel& alu);

  // Worker clone for the tiled fragment pipeline: shares the immutable
  // program, copies the primed globals (constant initializers + uniforms
  // already mirrored into `base`) and routes math through `alu` — typically
  // a per-worker Fork() of the context's model, so op counts shard cleanly.
  // The constant-initializer chunk is NOT re-run (its results arrive via the
  // copied globals), so no ops are charged here.
  VmExec(const VmExec& base, AluModel& alu);

  // Cheap per-draw refresh for a cached worker clone: re-copies `base`'s
  // globals (fresh uniforms plus whatever shader code mutated since the
  // clone was made) without reallocating — each Value's storage is reused,
  // so a draw loop that recycles clones performs no allocation here. After
  // the call the clone's observable state is exactly that of a clone
  // constructed from `base` now. `base` must share this clone's program.
  void SyncGlobalsFrom(const VmExec& base);

  bool Run() override;

  // --- lane-batched execution ---
  // Executes the run chunk once for lanes [0, n), n <= kVmLanes, looping
  // lanes *inside* each instruction instead of instructions inside each
  // invocation: each instruction is one plane kernel call per batch
  // (evalcore.h) over lane-major register planes, with its operands
  // resolved once per program. Uniform-control-
  // flow programs (see VmProgram::uniform_control_flow) run in lockstep
  // under one shared pc; divergent programs run under the per-lane-pc
  // masked executor, which executes both sides of a divergent branch with
  // the lanes that took each side (reconverging at the minimum pc). Every
  // lane performs exactly the evalcore operations a scalar Run() would, so
  // results and AluModel op counts are byte-identical to n scalar runs by
  // construction — with one caveat: a global that carries state *between*
  // invocations without being re-initialized per run (a read GLSL leaves
  // undefined, e.g. an initializer-less accumulator or an unwritten
  // gl_FragColor) carries per-lane-slot history here versus per-engine
  // history in a scalar sequence, so such shaders read different garbage.
  // Returns the bitmask of lanes NOT killed by `discard`. Throws
  // ShaderRuntimeError iff a scalar run of any lane would, attributing the
  // trap (ShaderRuntimeError::lane, and its message) to the smallest
  // trapping lane — the fragment a scalar engine sequence would have
  // aborted the draw on first. In the divergent executor trapping lanes
  // park while surviving lanes run to completion before the throw.
  //
  // Per-fragment inputs/outputs live in lane-major global planes (cell k
  // of lane l at plane[k * kVmLanes + l]) reached through LanePlane /
  // LaneGlobalAt; uniforms and other lane-invariant globals stay in the
  // scalar store shared by all lanes (so per-draw uniform sync cost is
  // independent of the lane width).
  std::uint32_t RunBatch(int n);

  // Batch view of global `slot`: its plane when the global is lane-varying
  // (cell stride kVmLanes, lane stride 1), the shared scalar storage
  // otherwise (cell stride 1, lane stride 0 — lane-invariant globals are
  // never written per lane). Allocates the planes on first use; the view
  // stays valid until the program changes (SyncGlobalsFrom on a new
  // layout).
  [[nodiscard]] BatchDst LanePlane(int slot);
  // One lane of LanePlane(slot).
  [[nodiscard]] LaneSlice LaneGlobalAt(int slot, int lane) {
    return LanePlane(slot).lane(lane);
  }

  // Address of the lane index the batched executor is currently running.
  // Lane-aware texture callbacks capture it so deferred TMU-cache
  // accounting can attribute fetches to lanes; the gles2 context replays
  // them in lane order after the batch, reproducing the scalar engine's
  // fragment-sequential cache access order exactly.
  [[nodiscard]] const int* CurrentLanePtr() const { return &batch_lane_; }

  [[nodiscard]] int GlobalSlot(const std::string& name) const override {
    return prog_->GlobalSlot(name);
  }
  [[nodiscard]] Value& GlobalAt(int slot) override {
    return globals_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] const Value& GlobalAt(int slot) const {
    return globals_[static_cast<std::size_t>(slot)];
  }
  void SetTextureFn(TextureFn fn) override { texture_ = std::move(fn); }

  [[nodiscard]] const VmProgram& program() const { return *prog_; }
  [[nodiscard]] AluModel& alu() { return alu_; }

  // Loop-iteration budget (the "a real GPU would hang or be reset" ceiling,
  // shared semantics with the tree-walk oracle's ShaderExec::SetLoopBudget).
  // Default kDefaultLoopBudget; tests lower it so runaway shaders trap
  // quickly. Worker clones inherit the base engine's budget.
  void SetLoopBudget(std::uint64_t steps) { loop_budget_ = steps; }
  [[nodiscard]] std::uint64_t loop_budget() const { return loop_budget_; }

  // SIMD tier this executor's batch kernels may use (a resolved
  // ContextConfig/DeviceOptions knob; defaults to auto resolution — the
  // MGPU_SIMD env override or the detected hardware level). The effective
  // tier is re-sampled at every RunBatch: it drops to scalar whenever the
  // AluModel's round mode is kModel, so reduced-mantissa vc4 profiles
  // (Mali-400) keep their per-op Round() path no matter what the knob
  // says; identity and denormal-flush models (VideoCore IV) vectorize.
  void SetSimdLevel(simd::Level level) { simd_level_ = level; }
  [[nodiscard]] simd::Level simd_level() const { return simd_level_; }
  // RunBatch calls that ran with a SIMD tier in effect (not inherited by
  // worker clones), so callers can tell which path actually ran.
  [[nodiscard]] std::uint64_t simd_batches() const { return simd_batches_; }

 private:
  bool Execute(std::uint32_t pc);

  void EnsureBatchState();
  // Batch views over the current planes and shared store.
  [[nodiscard]] LaneViews Views();
  std::uint32_t ExecuteBatchUniform(int n);
  std::uint32_t ExecuteBatchDivergent(int n);
  // Executes one non-control-flow instruction for the lanes of `mask`
  // (every lane below the batch size for the lockstep executor, a lane
  // group for the divergent one) as one plane kernel call.
  void ExecBatchOp(const VmInst& in, std::uint32_t mask);

  [[nodiscard]] Value& At(std::uint32_t operand) {
    const std::uint32_t idx = operand & kOperandIndexMask;
    return (operand & ~kOperandIndexMask) == kSpaceReg ? regs_[idx]
                                                       : globals_[idx];
  }
  [[nodiscard]] const Value& Read(std::uint32_t operand) const {
    const std::uint32_t idx = operand & kOperandIndexMask;
    switch (operand & ~kOperandIndexMask) {
      case kSpaceReg: return regs_[idx];
      case kSpaceGlobal: return globals_[idx];
      default: return prog_->consts[idx];
    }
  }

  std::shared_ptr<const VmProgram> prog_;
  AluModel& alu_;
  TextureFn texture_;
  std::vector<Value> globals_;
  std::vector<Value> regs_;
  std::vector<LRef> refs_;
  std::uint64_t loop_steps_ = 0;
  std::uint64_t loop_budget_ = kDefaultLoopBudget;

  // --- per-lane batch state, allocated lazily on the first RunBatch ---
  // Lane-major planes: register r is reg_types[r].CellCount() rows of
  // kVmLanes cells starting at lane_regs_[reg_plane_[r]], cell k of lane l
  // at reg_plane_[r] + k * kVmLanes + l; dense lane-varying global g
  // likewise at lane_globals_[global_plane_[g]]. Ref slot s of lane l is
  // lane_refs_[s * kVmLanes + l].
  bool batch_ready_ = false;
  simd::Level simd_level_ = simd::Resolve(-1);
  // Effective tier for the batch in flight (simd_level_ gated on
  // alu_.round_mode(); sampled by RunBatch, read by ExecBatchOp).
  simd::Level batch_simd_ = simd::Level::kScalar;
  std::uint64_t simd_batches_ = 0;
  std::vector<Cell> lane_regs_;
  std::vector<std::size_t> reg_plane_;
  std::vector<Cell> lane_globals_;
  std::vector<std::size_t> global_plane_;
  std::vector<LRef> lane_refs_;
  // Every instruction's operands resolved once to batch views (the planes,
  // the shared store and the literal pool never move while batch state
  // lives), indexed by pc; batch_args_ likewise parallels arg_ops.
  struct BatchOperands {
    BatchDst dst;
    BatchSrc a;
    BatchSrc b;
  };
  std::vector<BatchOperands> batch_ops_;
  std::vector<BatchSrc> batch_args_;
  int batch_lane_ = 0;
  // Divergent-executor control state (members so batches allocate nothing):
  // per-lane pc / call stack / loop budget.
  std::array<std::uint32_t, kVmLanes> lane_pc_{};
  std::array<int, kVmLanes> lane_sp_{};
  std::array<std::uint64_t, kVmLanes> lane_steps_{};
  std::vector<std::uint32_t> lane_ret_stack_;
};

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_VM_H_
