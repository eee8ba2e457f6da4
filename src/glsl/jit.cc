// VmProgram -> C++ transpiler and shared-object loader (see jit.h for the
// equivalence architecture). The generated translation unit mirrors
// ExecuteBatchUniform instruction for instruction: control flow becomes
// labels and gotos, inline-able value ops become unrolled per-lane cell
// loops that reproduce the evalcore batch kernels literally (same loads,
// same stores, same order, same ALU counts), and everything else calls back
// into VmExec::ExecBatchOp through JitEnv::exec_op.
#include "glsl/jit.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "glsl/alu.h"
#include "glsl/ast.h"
#include "glsl/type.h"
#include "glsl/value.h"

// Sanitized builds decline the JIT wholesale: the modules are compiled by
// the plain host toolchain, and dlopen'ing uninstrumented code into a
// TSan/ASan process is unsound (TSan misses its synchronization, ASan its
// poisoning). Available() returning false makes every caller fall back to
// the batched interpreter, which the sanitizer jobs cover in full.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define MGPU_JIT_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define MGPU_JIT_SANITIZED 1
#else
#define MGPU_JIT_SANITIZED 0
#endif
#else
#define MGPU_JIT_SANITIZED 0
#endif

#if (defined(__unix__) || defined(__APPLE__)) && !MGPU_JIT_SANITIZED
#define MGPU_JIT_POSIX 1
#include <dlfcn.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#else
#define MGPU_JIT_POSIX 0
#endif

namespace mgpu::glsl::jit {
namespace {

// The whole transpiler is POSIX-only (it shells out to the host compiler
// and dlopens the result); keeping it behind the same guard as the cache
// machinery avoids defined-but-unused warnings on the fallback path.
#if MGPU_JIT_POSIX

// Must track vm.cc's kMaxCallDepth: the generated return stack holds
// kMaxCallDepth + 1 entries and the depth check fires at the same sp.
constexpr int kMaxCallDepth = 64;

struct OpInfo {
  Type type;
  bool per_lane = false;
};

// Static operand typing and stride class, the codegen-time mirror of
// vm.cc's LaneViews space dispatch: registers are per-lane planes,
// globals are per-lane iff lane_global_index maps them, constants are
// shared. A per-lane operand's cell k of lane l is base[k * kVmLanes + l]
// (the generated pointer already carries the + l); a shared one's is
// base[k].
[[nodiscard]] OpInfo InfoOf(const VmProgram& p, std::uint32_t operand) {
  const std::uint32_t idx = operand & kOperandIndexMask;
  switch (operand & ~kOperandIndexMask) {
    case kSpaceReg:
      return {p.reg_types[idx], true};
    case kSpaceGlobal:
      return {p.globals[idx].type, p.lane_global_index[idx] >= 0};
    default:
      return {p.consts[idx].type(), false};
  }
}

class Codegen {
 public:
  explicit Codegen(const VmProgram& p) : p_(p) {}

  [[nodiscard]] std::string Run();
  [[nodiscard]] std::vector<std::uint32_t> TakeTableOps() {
    return std::move(table_ops_);
  }

 private:
  [[nodiscard]] int Slot(std::uint32_t operand) {
    const auto it = slots_.find(operand);
    if (it != slots_.end()) return it->second;
    const int k = static_cast<int>(table_ops_.size());
    table_ops_.push_back(operand);
    slots_.emplace(operand, k);
    return k;
  }

  // Cell pointer expression for an operand, e.g. "(float*)T[3]+l" (its
  // lane in a per-lane plane) or "(const int*)T[7]" (shared storage).
  [[nodiscard]] std::string Ptr(std::uint32_t operand, const char* cast) {
    std::string s = "(";
    s += cast;
    s += "*)T[";
    s += std::to_string(Slot(operand));
    s += "]";
    if (InfoOf(p_, operand).per_lane) s += "+l";
    return s;
  }

  // Index of cell k from an operand's Ptr: one plane row per cell, or the
  // shared value's k-th cell.
  [[nodiscard]] std::string Ix(std::uint32_t operand, int k) const {
    return std::to_string(InfoOf(p_, operand).per_lane ? k * kVmLanes : k);
  }

  void LaneLoopOpen(std::string& b) { b += "  for(int l=0;l<N;++l){\n"; }

  // Emits one Value::SetConverted(w, src, i) with the categories resolved
  // statically. `df`/`di` name the destination float/int pointers already
  // declared in the enclosing lane loop and `dx` the destination cell
  // index; `sf`/`si`/`sx` likewise for the source. Float to int goes
  // through the generated FI, FloatToIntSat's twin.
  void EmitConverted(std::string& b, BaseType dst_cat, BaseType src_cat,
                     const std::string& df, const std::string& di,
                     const std::string& dx, const std::string& sf,
                     const std::string& si, const std::string& sx) {
    if (src_cat == BaseType::kFloat) {
      if (dst_cat == BaseType::kFloat) {
        b += "    " + df + "[" + dx + "]=" + sf + "[" + sx + "];\n";
      } else if (dst_cat == BaseType::kBool) {
        b += "    " + di + "[" + dx + "]=(" + sf + "[" + sx +
             "]!=0.0f)?1:0;\n";
      } else {
        b += "    " + di + "[" + dx + "]=FI(" + sf + "[" + sx + "]);\n";
      }
    } else {
      if (dst_cat == BaseType::kFloat) {
        b += "    " + df + "[" + dx + "]=(float)" + si + "[" + sx + "];\n";
      } else if (dst_cat == BaseType::kBool) {
        b += "    " + di + "[" + dx + "]=(" + si + "[" + sx + "]!=0)?1:0;\n";
      } else {
        b += "    " + di + "[" + dx + "]=" + si + "[" + sx + "];\n";
      }
    }
  }

  bool EmitMove(const VmInst& in, std::string& b);
  bool EmitArith(std::uint32_t pc, const VmInst& in, std::string& b);
  bool EmitNeg(std::uint32_t pc, const VmInst& in, std::string& b);
  bool EmitCtor(const VmInst& in, std::string& b);
  // Dispatch: true when the op was inlined, false to punt to exec_op.
  bool EmitValueOp(std::uint32_t pc, const VmInst& in, std::string& b);

  const VmProgram& p_;
  std::map<std::uint32_t, int> slots_;
  std::vector<std::uint32_t> table_ops_;
};

// kCopy / kZero / kShuffle / kXor / kBoolNorm / kNot: pure cell moves (plus
// kNot's one counted op per lane). Copies go through int cells — bitwise
// exact for every category, exactly what the kernels' Cell copies do.
bool Codegen::EmitMove(const VmInst& in, std::string& b) {
  const auto cell = [this](const char* name, std::uint32_t operand, int k) {
    return std::string(name) + "[" + Ix(operand, k) + "]";
  };
  switch (in.op) {
    case VmOp::kCopy: {
      const int cc = InfoOf(p_, in.dst).type.CellCount();
      LaneLoopOpen(b);
      b += "    int* d=" + Ptr(in.dst, "int") + ";const int* s=" +
           Ptr(in.a, "const int") + ";\n";
      for (int k = 0; k < cc; ++k) {
        b += "    " + cell("d", in.dst, k) + "=" + cell("s", in.a, k) + ";\n";
      }
      b += "  }\n";
      return true;
    }
    case VmOp::kZero: {
      const int cc = InfoOf(p_, in.dst).type.CellCount();
      LaneLoopOpen(b);
      b += "    int* d=" + Ptr(in.dst, "int") + ";\n";
      for (int k = 0; k < cc; ++k) b += "    " + cell("d", in.dst, k) + "=0;\n";
      b += "  }\n";
      return true;
    }
    case VmOp::kShuffle: {
      LaneLoopOpen(b);
      b += "    int* d=" + Ptr(in.dst, "int") + ";const int* s=" +
           Ptr(in.a, "const int") + ";\n";
      for (int k = 0; k < in.n; ++k) {
        b += "    " + cell("d", in.dst, k) + "=" +
             cell("s", in.a, static_cast<int>((in.aux >> (8 * k)) & 0xffu)) +
             ";\n";
      }
      b += "  }\n";
      return true;
    }
    case VmOp::kXor: {
      LaneLoopOpen(b);
      b += "    int* d=" + Ptr(in.dst, "int") + ";const int* a=" +
           Ptr(in.a, "const int") + ";const int* c=" +
           Ptr(in.b, "const int") + ";\n";
      b += "    d[0]=((a[0]!=0)!=(c[0]!=0))?1:0;\n  }\n";
      return true;
    }
    case VmOp::kBoolNorm: {
      LaneLoopOpen(b);
      b += "    int* d=" + Ptr(in.dst, "int") + ";const int* a=" +
           Ptr(in.a, "const int") + ";\n";
      b += "    d[0]=(a[0]!=0)?1:0;\n  }\n";
      return true;
    }
    case VmOp::kNot: {
      LaneLoopOpen(b);
      b += "    int* d=" + Ptr(in.dst, "int") + ";const int* a=" +
           Ptr(in.a, "const int") + ";\n";
      b += "    d[0]=(a[0]!=0)?0:1;\n  }\n";
      b += "  ops+=(unsigned long long)N;\n";  // EvalNotBatch: one op/lane
      return true;
    }
    default:
      return false;
  }
}

// kArith: comparisons and component-wise arithmetic, mirroring
// EvalArithBatch case for case. Float +,-,* inline only under RI (where the
// AluModel fast path is plain IEEE plus the canonical-NaN rule and a
// counter); float division is SFU-routed and always punts; linear-algebra
// multiplies always punt (the VM replays them per lane).
bool Codegen::EmitArith(std::uint32_t pc, const VmInst& in, std::string& b) {
  const auto op = static_cast<BinOp>(in.u8);
  const Type lt = InfoOf(p_, in.a).type;
  const Type rt = InfoOf(p_, in.b).type;
  const BaseType lb = lt.base;
  const BaseType rb = rt.base;
  if (op == BinOp::kMul && ((IsMatrix(lb) && (IsMatrix(rb) || IsVector(rb))) ||
                            (IsVector(lb) && IsMatrix(rb)))) {
    return false;  // accumulation shapes: per-lane replay, not a flat loop
  }
  const bool is_float = ScalarOf(lb) == BaseType::kFloat;
  const auto ax = [&](int k) { return "a[" + Ix(in.a, k) + "]"; };
  const auto cx = [&](int k) { return "c[" + Ix(in.b, k) + "]"; };
  const auto dx = [&](int k) { return "d[" + Ix(in.dst, k) + "]"; };

  if (op >= BinOp::kLt && op <= BinOp::kNe) {
    // Scalar-bool result, one counted op per lane, no rounding involved —
    // inline-able under every ALU profile.
    LaneLoopOpen(b);
    b += "    int* d=" + Ptr(in.dst, "int") + ";\n";
    if (op == BinOp::kEq || op == BinOp::kNe) {
      const int lc = lt.CellCount();
      if (lc != rt.CellCount()) {
        b += std::string("    d[0]=") + (op == BinOp::kNe ? "1" : "0") +
             ";\n";
      } else {
        const char* ct = is_float ? "const float" : "const int";
        b += std::string("    ") + ct + "* a=" + Ptr(in.a, ct) + ";" + ct +
             "* c=" + Ptr(in.b, ct) + ";\n";
        std::string eq;
        for (int i = 0; i < lc; ++i) {
          if (i > 0) eq += "&&";
          eq += ax(i) + "==" + cx(i);
        }
        b += "    d[0]=(" + eq + ")?" +
             (op == BinOp::kEq ? std::string("1:0") : std::string("0:1")) +
             ";\n";
      }
    } else {
      const char* ct = is_float ? "const float" : "const int";
      const char* sym = op == BinOp::kLt   ? "<"
                        : op == BinOp::kGt ? ">"
                        : op == BinOp::kLe ? "<="
                                           : ">=";
      b += std::string("    ") + ct + "* a=" + Ptr(in.a, ct) + ";" + ct +
           "* c=" + Ptr(in.b, ct) + ";\n";
      b += std::string("    d[0]=(a[0]") + sym + "c[0])?1:0;\n";
    }
    b += "  }\n  ops+=(unsigned long long)N;\n";
    return true;
  }

  if (op > BinOp::kDiv) return false;  // logical ops never lower to kArith
  const int n = InfoOf(p_, in.dst).type.CellCount();
  const int ls = lt.CellCount() == 1 && n > 1 ? 0 : 1;
  const int rs = rt.CellCount() == 1 && n > 1 ? 0 : 1;

  if (is_float) {
    if (op == BinOp::kDiv) return false;  // a * Recip(b): SFU precision path
    const char* sym = op == BinOp::kAdd ? "+" : op == BinOp::kSub ? "-" : "*";
    b += "  if(RI){\n";
    LaneLoopOpen(b);
    b += "    float* d=" + Ptr(in.dst, "float") + ";const float* a=" +
         Ptr(in.a, "const float") + ";const float* c=" +
         Ptr(in.b, "const float") + ";\n";
    for (int i = 0; i < n; ++i) {
      b += "    " + dx(i) + "=R(" + ax(i * ls) + sym + cx(i * rs) + ");\n";
    }
    b += "  }\n  ops+=(unsigned long long)N*" + std::to_string(n) +
         "u;\n  }else{e->exec_op(h," + std::to_string(pc) + ");}\n";
    return true;
  }

  // Integer component-wise arithmetic: exact under every profile and
  // wrapping like the kernel — +,-,* through unsigned, x / 0 == 0 and
  // INT_MIN / -1 == INT_MIN (negation through unsigned).
  LaneLoopOpen(b);
  b += "    int* d=" + Ptr(in.dst, "int") + ";const int* a=" +
       Ptr(in.a, "const int") + ";const int* c=" + Ptr(in.b, "const int") +
       ";\n";
  for (int i = 0; i < n; ++i) {
    const std::string di = dx(i);
    const std::string ai = ax(i * ls);
    const std::string ci = cx(i * rs);
    switch (op) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
        b += "    " + di + "=(int)((unsigned)" + ai +
             (op == BinOp::kAdd ? "+" : op == BinOp::kSub ? "-" : "*") +
             "(unsigned)" + ci + ");\n";
        break;
      default:
        b += "    " + di + "=(" + ci + "==0)?0:(" + ci +
             "==-1)?(int)(0u-(unsigned)" + ai + "):" + ai + "/" + ci + ";\n";
        break;
    }
  }
  b += "  }\n  ops+=(unsigned long long)N*" + std::to_string(n) + "u;\n";
  return true;
}

// kNeg: float negation inlines under RI (the round is the canonical-NaN
// rule alone), int always.
bool Codegen::EmitNeg(std::uint32_t pc, const VmInst& in, std::string& b) {
  const Type st = InfoOf(p_, in.a).type;
  const int n = st.CellCount();
  const bool is_float = ScalarOf(st.base) == BaseType::kFloat;
  std::string body;
  const char* ct = is_float ? "float" : "int";
  const std::string cct = std::string("const ") + ct;
  body += "    " + std::string(ct) + "* d=" + Ptr(in.dst, ct) + ";" + cct +
          "* a=" + Ptr(in.a, cct.c_str()) + ";\n";
  for (int i = 0; i < n; ++i) {
    const std::string ai = "a[" + Ix(in.a, i) + "]";
    // Int negation wraps through unsigned, like EvalNegBatch.
    body += "    d[" + Ix(in.dst, i) + "]=" +
            (is_float ? "R(-" + ai + ")" : "(int)(0u-(unsigned)" + ai + ")") +
            ";\n";
  }
  if (is_float) {
    b += "  if(RI){\n";
    LaneLoopOpen(b);
    b += body;
    b += "  }\n  ops+=(unsigned long long)N*" + std::to_string(n) +
         "u;\n  }else{e->exec_op(h," + std::to_string(pc) + ");}\n";
  } else {
    LaneLoopOpen(b);
    b += body;
    b += "  }\n  ops+=(unsigned long long)N*" + std::to_string(n) + "u;\n";
  }
  return true;
}

// kCtor (scalar/vector targets), mirroring EvalCtorBatch's dispatch order:
// scalar -> splat -> gather, zero-filling a malformed ctor's tail. Every
// path is pure moves/conversions plus Count(n) per lane, so all inline under
// every profile; matrix/array targets punt (the VM replays them per lane).
bool Codegen::EmitCtor(const VmInst& in, std::string& b) {
  const Type dt = InfoOf(p_, in.dst).type;
  if (dt.IsArray() || (!IsScalar(dt.base) && !IsVector(dt.base))) {
    return false;
  }
  std::vector<std::uint32_t> args;
  std::vector<Type> arg_types;
  for (int i = 0; i < in.n; ++i) {
    const std::uint32_t operand = p_.arg_ops[in.aux + static_cast<
        std::uint32_t>(i)];
    args.push_back(operand);
    arg_types.push_back(InfoOf(p_, operand).type);
  }
  if (args.empty()) return false;
  const int n = dt.CellCount();
  const BaseType dc = ScalarOf(dt.base);

  // Per-arg source pointer declarations (float and int views; the unused
  // one is dead code the compiler drops).
  const auto decl_args = [&](std::string& body) {
    for (std::size_t k = 0; k < args.size(); ++k) {
      const std::string ks = std::to_string(k);
      body += "    const float* a" + ks + "f=" +
              Ptr(args[k], "const float") + ";const int* a" + ks + "i=" +
              Ptr(args[k], "const int") + ";\n";
    }
  };
  const auto decl_dst = [&](std::string& body) {
    body += "    float* d_f=" + Ptr(in.dst, "float") + ";int* d_i=" +
            Ptr(in.dst, "int") + ";\n";
  };
  const auto convert = [&](std::size_t k, int w, int i) {
    const std::string ks = std::to_string(k);
    EmitConverted(b, dc, ScalarOf(arg_types[k].base), "d_f", "d_i",
                  Ix(in.dst, w), "a" + ks + "f", "a" + ks + "i",
                  Ix(args[k], i));
  };

  LaneLoopOpen(b);
  decl_dst(b);
  decl_args(b);
  if (IsScalar(dt.base)) {
    convert(0, 0, 0);
  } else if (args.size() == 1 && arg_types[0].CellCount() == 1) {
    // Splat: replicate the converted scalar into every component.
    for (int w = 0; w < n; ++w) convert(0, w, 0);
  } else {
    // Gather; a malformed (under-covering) ctor zero-fills the tail.
    int w = 0;
    for (std::size_t k = 0; k < args.size() && w < n; ++k) {
      const int ac = arg_types[k].CellCount();
      for (int i = 0; i < ac && w < n; ++i, ++w) convert(k, w, i);
    }
    for (; w < n; ++w) b += "    d_i[" + Ix(in.dst, w) + "]=0;\n";
  }
  b += "  }\n  ops+=(unsigned long long)N*" + std::to_string(n) + "u;\n";
  return true;
}

bool Codegen::EmitValueOp(std::uint32_t pc, const VmInst& in,
                          std::string& b) {
  switch (in.op) {
    case VmOp::kCopy:
    case VmOp::kZero:
    case VmOp::kShuffle:
    case VmOp::kXor:
    case VmOp::kBoolNorm:
    case VmOp::kNot:
      return EmitMove(in, b);
    case VmOp::kArith:
      return EmitArith(pc, in, b);
    case VmOp::kNeg:
      return EmitNeg(pc, in, b);
    case VmOp::kCtor:
      return EmitCtor(in, b);
    default:
      // kExtract (runtime clamp), kBuiltin (SFU/TMU, lane-ordered texture
      // accounting), refs, inc/dec: replay through the batch interpreter.
      return false;
  }
}

std::string Codegen::Run() {
  std::string s;
  s += "// Generated by mgpu (glsl/jit.cc); the cache key is the FNV-1a\n";
  s += "// hash of this text. Layout mirrors glsl::jit::JitEnv.\n";
  s += "typedef struct MgpuJitEnv {\n";
  s += "  void* host; void* const* tbl; int n; int ri;\n";
  s += "  void (*exec_op)(void*, int);\n";
  s += "  void (*guard)(void*);\n";
  s += "  void (*depth_trap)(void*);\n";
  s += "  void (*trap)(void*, int);\n";
  s += "  void (*count_alu)(void*, unsigned long long);\n";
  s += "} MgpuJitEnv;\n";
  // R: the rounding of a round-identity AluModel (every NaN becomes the
  // canonical one); FI: FloatToIntSat.
  s += "static inline float R(float x){union{unsigned u;float f;}c;"
       "c.u=" + std::to_string(kCanonicalNanBits) + "u;return x!=x?c.f:x;}\n";
  s += "static inline int FI(float x){return x!=x?0:x>=2147483648.0f?"
       "2147483647:x<=-2147483648.0f?(-2147483647-1):(int)x;}\n";
  s += "extern \"C\" int mgpu_jit_entry(MgpuJitEnv* e) {\n";
  s += "  void* const* T = e->tbl;\n";
  s += "  const int N = e->n;\n";
  s += "  const int RI = e->ri;\n";
  s += "  void* h = e->host;\n";
  s += "  unsigned long long ops = 0;\n";
  // Function-local return stack: worker clones of one draw run this entry
  // concurrently. Stores call-site ids, dispatched through RD below.
  s += "  unsigned rs[" + std::to_string(kMaxCallDepth + 1) + "];\n";
  s += "  int sp = 0;\n";
  s += "  (void)RI;(void)ops;\n";
  s += "  goto I" + std::to_string(p_.run_entry) + ";\n";

  // Deferred-count flush: before every callback that can throw and every
  // exit, so ALU totals at a trap match the interpreter's exactly
  // (CountAlu sums are order-insensitive, alu.h).
  const std::string flush = "if(ops){e->count_alu(h,ops);ops=0;}";
  int call_sites = 0;

  for (std::uint32_t pc = 0; pc < p_.code.size(); ++pc) {
    const VmInst& in = p_.code[pc];
    s += "I" + std::to_string(pc) + ":;\n";
    switch (in.op) {
      case VmOp::kJump:
        s += "  goto I" + std::to_string(in.aux) + ";\n";
        break;
      case VmOp::kJumpIfFalse:
      case VmOp::kJumpIfTrue: {
        // Uniform control flow: lane 0 decides for the batch (lane 0 of a
        // per-lane plane is its base pointer, so no stride term).
        const char* cmp = in.op == VmOp::kJumpIfTrue ? "!=" : "==";
        s += "  if(((const int*)T[" + std::to_string(Slot(in.a)) + "])[0]" +
             cmp + "0) goto I" + std::to_string(in.aux) + ";\n";
        break;
      }
      case VmOp::kLoopGuard:
        s += "  " + flush + "e->guard(h);\n";
        break;
      case VmOp::kCall: {
        const int site = call_sites++;
        s += "  if(sp>" + std::to_string(kMaxCallDepth) + "){" + flush +
             "e->depth_trap(h);return 2;}\n";
        s += "  rs[sp++]=" + std::to_string(site) + "u;\n";
        s += "  goto I" +
             std::to_string(p_.functions[in.aux].entry) + ";\n";
        s += "C" + std::to_string(site) + ":;\n";
        break;
      }
      case VmOp::kRet:
        s += "  if(sp==0){" + flush + "return 1;}\n";
        s += "  goto RD;\n";
        break;
      case VmOp::kDiscard:
        s += "  " + flush + "return 0;\n";
        break;
      case VmOp::kHalt:
        s += "  " + flush + "return 1;\n";
        break;
      case VmOp::kTrap:
        s += "  " + flush + "e->trap(h," + std::to_string(in.aux) +
             ");return 2;\n";
        break;
      default: {
        std::string body;
        if (EmitValueOp(pc, in, body)) {
          s += body;
        } else {
          s += "  e->exec_op(h," + std::to_string(pc) + ");\n";
        }
        break;
      }
    }
  }

  // Shared return dispatcher: every kRet with a non-empty stack lands here
  // and resumes after its recorded call site.
  s += "RD:\n  switch(rs[--sp]){\n";
  for (int site = 0; site < call_sites; ++site) {
    s += "    case " + std::to_string(site) + "u: goto C" +
         std::to_string(site) + ";\n";
  }
  s += "    default: return 2;\n  }\n";
  s += "}\n";
  return s;
}

[[nodiscard]] std::uint64_t Fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Probes for a working host C++ compiler once. $CXX first (it may carry
// arguments, e.g. "ccache g++"), then the conventional names.
[[nodiscard]] const std::string& CompilerCmd() {
  static const std::string cmd = [] {
    const char* env = std::getenv("CXX");
    std::vector<std::string> candidates;
    if (env != nullptr && *env != '\0') candidates.emplace_back(env);
    candidates.emplace_back("c++");
    candidates.emplace_back("g++");
    candidates.emplace_back("clang++");
    for (const std::string& c : candidates) {
      if (std::system((c + " --version >/dev/null 2>&1").c_str()) == 0) {
        return c;
      }
    }
    return std::string();
  }();
  return cmd;
}

// Per-uid cache directory under $TMPDIR (mode 0700, ownership verified so a
// pre-created directory by another user is rejected rather than trusted).
[[nodiscard]] std::string CacheDir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  dir += "/mgpu-jit-" + std::to_string(static_cast<unsigned long>(::getuid()));
  if (::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST) return {};
  struct stat st{};
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode) ||
      st.st_uid != ::getuid() || (st.st_mode & 077) != 0) {
    return {};
  }
  return dir;
}

// Suffix for a temp file written beside its final path. The pid separates
// processes and the counter separates calls within one, so two threads
// compiling the same program never write or rename each other's temp file.
[[nodiscard]] std::string TempSuffix() {
  static std::atomic<std::uint64_t> next{0};
  return "." + std::to_string(::getpid()) + "." +
         std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

[[nodiscard]] bool WriteFileAtomic(const std::string& path,
                                   const std::string& text) {
  const std::string tmp = path + TempSuffix();
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fclose(f) == 0;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

#endif  // MGPU_JIT_POSIX

}  // namespace

Module::Module(void* handle, EntryFn entry,
               std::vector<std::uint32_t> table_ops)
    : handle_(handle), entry_(entry), table_ops_(std::move(table_ops)) {}

Module::~Module() {
#if MGPU_JIT_POSIX
  if (handle_ != nullptr) ::dlclose(handle_);
#endif
}

bool Available() {
#if MGPU_JIT_POSIX
  return !CompilerCmd().empty();
#else
  return false;
#endif
}

bool Resolve(int knob) {
  if (knob == 0) return false;
  if (knob > 0) return Available();
  const char* env = std::getenv("MGPU_JIT");
  if (env != nullptr && env[0] == '0' && env[1] == '\0') return false;
  return Available();
}

std::shared_ptr<const Module> CompileProgram(const VmProgram& prog) {
#if !MGPU_JIT_POSIX
  (void)prog;
  return nullptr;
#else
  // Divergent programs run under the masked per-lane-pc interpreter; the
  // generated lockstep control flow cannot represent them.
  if (!prog.uniform_control_flow) return nullptr;
  if (!Available()) return nullptr;

  Codegen cg(prog);
  const std::string src = cg.Run();
  std::vector<std::uint32_t> table = cg.TakeTableOps();

  const std::string dir = CacheDir();
  if (dir.empty()) return nullptr;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(Fnv1a64(src)));
  const std::string so_path = dir + "/" + hex + ".so";

  if (::access(so_path.c_str(), R_OK) != 0) {
    const std::string cc_path = dir + "/" + hex + ".cc";
    if (!WriteFileAtomic(cc_path, src)) return nullptr;
    // Compile to a unique temp and rename: concurrent compiles of the same
    // program, in this process or another, race benignly to an identical
    // file, and a half-written .so is never visible under its final name.
    // -fno-strict-aliasing: the generated code views Value cells as both
    // int and float, exactly like the Cell union the kernels use.
    const std::string tmp_so = so_path + TempSuffix();
    const std::string cmd = CompilerCmd() +
                            " -O2 -fPIC -shared -fno-strict-aliasing -w -o '" +
                            tmp_so + "' '" + cc_path + "' >/dev/null 2>&1";
    if (std::system(cmd.c_str()) != 0 ||
        std::rename(tmp_so.c_str(), so_path.c_str()) != 0) {
      std::remove(tmp_so.c_str());
      return nullptr;
    }
  }

  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) return nullptr;
  const auto entry = reinterpret_cast<EntryFn>(
      ::dlsym(handle, "mgpu_jit_entry"));
  if (entry == nullptr) {
    ::dlclose(handle);
    return nullptr;
  }
  return std::make_shared<Module>(handle, entry, std::move(table));
#endif
}

}  // namespace mgpu::glsl::jit
