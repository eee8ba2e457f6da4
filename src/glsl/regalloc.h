// Post-lowering register allocation for the bytecode IR (ir.h).
//
// Lowering gives every VarDecl and every expression temporary its own
// register and never reuses one, so an inlined kernel built from the
// pack/unpack library carries hundreds of registers of which a few dozen
// are live at any point. The batched VM materializes kVmLanes copies of
// every register per shading worker, so that register count is memory and
// cold-start time. This pass shrinks it without touching any engine:
//  - liveness over the bytecode CFG (kCall enters the callee, kRet returns
//    to every call's return site);
//  - a kCopy's source and destination merge when they do not interfere and
//    share a Type (copy coalescing);
//  - the remaining registers are coloured greedily within each Type.
// Pinned registers keep a register of their own: kRefVar targets (written
// and read through refs, which liveness cannot see), VmFunction::ret_reg,
// and any register live-in at run_entry or const_init_entry (its value
// carries over from an earlier run). An instruction's destination never
// shares a register with one of its operands, except a coalesced copy, so
// no executor sees an in-place operand it did not see before.
//
// Only instructions that neither count nor order anything are deleted:
// self-copies, kCopy/kZero/kShuffle whose register destination is dead,
// and kJump to the next instruction. Every counted instruction stays, in
// order, so each lane runs exactly its former scalar sequence: framebuffer
// bytes, AluModel counts, traps and divergence metadata do not change.
#ifndef MGPU_GLSL_REGALLOC_H_
#define MGPU_GLSL_REGALLOC_H_

#include <cstdint>
#include <vector>

#include "glsl/ir.h"

namespace mgpu::glsl {

// Rewrites `prog` in place: registers, reg_types, code, arg_ops,
// functions[].entry/ret_reg, run_entry, const_init_entry and
// divergent_branch. Returns the old-to-new pc map, with one extra entry for
// the end of the code; a deleted pc maps to the next surviving one.
// static_cost is left to the caller, which recomputes it on the new code.
[[nodiscard]] std::vector<std::uint32_t> AllocateRegisters(VmProgram& prog);

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_REGALLOC_H_
