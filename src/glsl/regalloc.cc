#include "glsl/regalloc.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

namespace mgpu::glsl {
namespace {

using Word = std::uint64_t;
constexpr std::uint32_t kNone = 0xffffffffu;

bool IsReg(std::uint32_t op) {
  return op != kOperandNone && (op & ~kOperandIndexMask) == kSpaceReg;
}

std::uint32_t RegOf(std::uint32_t op) { return op & kOperandIndexMask; }

void Set(Word* set, std::uint32_t i) { set[i / 64] |= Word{1} << (i % 64); }

template <typename F>
void ForEachBit(const Word* set, std::size_t words, F&& f) {
  for (std::size_t w = 0; w < words; ++w) {
    for (Word bits = set[w]; bits != 0; bits &= bits - 1) {
      f(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
}

// What one forward scan over the code learns: the register operands of
// every instruction, the block leaders, and the kRefVar targets.
//
// For pc, the registers written are regs[off[pc], off[pc] + n_defs[pc]) and
// the registers read follow up to off[pc + 1]. A use+def register (a
// partial write, or the variable ++/-- updates) is listed on both sides, so
// it stays live into the instruction.
struct Scan {
  std::vector<std::uint32_t> off;
  std::vector<std::uint8_t> n_defs;
  std::vector<std::uint32_t> regs;
  // Nonzero at the first pc of a basic block: entry points, jump targets,
  // and every pc after a control transfer. BuildCfg overwrites it with
  // block index + 1. One extra entry for the end of the code.
  std::vector<std::uint32_t> leader;
  std::vector<std::uint8_t> pinned;  // per register

  [[nodiscard]] const std::uint32_t* defs(std::uint32_t pc) const {
    return regs.data() + off[pc];
  }
  [[nodiscard]] const std::uint32_t* uses(std::uint32_t pc) const {
    return regs.data() + off[pc] + n_defs[pc];
  }
  [[nodiscard]] const std::uint32_t* uses_end(std::uint32_t pc) const {
    return regs.data() + off[pc + 1];
  }
};

Scan ScanProgram(const VmProgram& p) {
  const std::uint32_t n = static_cast<std::uint32_t>(p.code.size());
  Scan s;
  s.off.resize(n + 1);
  s.n_defs.resize(n);
  s.regs.reserve(3 * static_cast<std::size_t>(n) + p.arg_ops.size());
  s.leader.assign(n + 1, 0);
  s.pinned.assign(p.reg_types.size(), 0);
  const auto mark = [&](std::uint32_t pc) {
    if (pc <= n) s.leader[pc] = 1;
  };
  mark(0);
  mark(p.const_init_entry);
  mark(p.run_entry);
  for (const VmFunction& f : p.functions) mark(f.entry);

  // kCtor takes at most 16 arguments, the longest operand list.
  std::array<std::uint32_t, 16> uses;
  for (std::uint32_t pc = 0; pc < n; ++pc) {
    const VmInst& in = p.code[pc];
    s.off[pc] = static_cast<std::uint32_t>(s.regs.size());
    std::size_t nu = 0;
    const auto def = [&](std::uint32_t op) {
      if (IsReg(op)) s.regs.push_back(RegOf(op));
    };
    const auto use = [&](std::uint32_t op) {
      if (IsReg(op) && nu < uses.size()) uses[nu++] = RegOf(op);
    };
    switch (in.op) {
      case VmOp::kCopy:
      case VmOp::kNeg:
      case VmOp::kNot:
      case VmOp::kBoolNorm:
        def(in.dst);
        use(in.a);
        break;
      case VmOp::kZero:
        def(in.dst);
        break;
      case VmOp::kShuffle:
        def(in.dst);
        use(in.a);
        if (IsReg(in.dst) && in.n < p.reg_types[RegOf(in.dst)].CellCount()) {
          use(in.dst);  // the cells past n keep their value
        }
        break;
      case VmOp::kExtract:
        def(in.dst);
        use(in.dst);
        use(in.a);
        use(in.b);
        break;
      case VmOp::kArith:
      case VmOp::kXor:
        def(in.dst);
        use(in.a);
        use(in.b);
        break;
      case VmOp::kCtor:
      case VmOp::kBuiltin:
        def(in.dst);
        for (std::uint32_t i = 0; i < in.n; ++i) use(p.arg_ops[in.aux + i]);
        break;
      case VmOp::kJump:
        mark(in.aux);
        mark(pc + 1);
        break;
      case VmOp::kJumpIfFalse:
      case VmOp::kJumpIfTrue:
        use(in.a);
        mark(in.aux);
        mark(pc + 1);
        break;
      case VmOp::kCall:
      case VmOp::kRet:
      case VmOp::kDiscard:
      case VmOp::kHalt:
      case VmOp::kTrap:
        mark(pc + 1);
        break;
      case VmOp::kRefVar:
        // Accesses through the ref are invisible to liveness: the variable
        // keeps a register of its own.
        if (IsReg(in.a)) s.pinned[RegOf(in.a)] = 1;
        break;
      case VmOp::kRefIndex:
        use(in.b);
        break;
      case VmOp::kReadRef:
      case VmOp::kIncDec:
        def(in.dst);
        use(in.dst);
        break;
      case VmOp::kWriteRef:
        use(in.a);
        break;
      case VmOp::kIncDecVar:
        def(in.dst);
        def(in.a);
        use(in.dst);
        use(in.a);
        break;
      case VmOp::kRefSwizzle:
      case VmOp::kLoopGuard:
        break;
    }
    s.n_defs[pc] = static_cast<std::uint8_t>(s.regs.size() - s.off[pc]);
    s.regs.insert(s.regs.end(), uses.begin(), uses.begin() + nu);
  }
  s.off[n] = static_cast<std::uint32_t>(s.regs.size());
  for (const VmFunction& f : p.functions) {
    if (IsReg(f.ret_reg)) s.pinned[RegOf(f.ret_reg)] = 1;
  }
  return s;
}

// Basic blocks and their successors. kCall enters the callee; kRet goes to
// the return site of every call (kReturn), which over-approximates the
// call graph but keeps liveness sound for any number of call sites.
struct Cfg {
  static constexpr std::uint32_t kReturn = 0xfffffffeu;
  std::vector<std::uint32_t> start;  // first pc of each block, plus the end
  std::vector<std::array<std::uint32_t, 2>> succ;
  std::vector<std::uint32_t> return_sites;  // blocks after a kCall

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(succ.size());
  }
};

Cfg BuildCfg(const VmProgram& p, std::vector<std::uint32_t>& leader) {
  const std::uint32_t n = static_cast<std::uint32_t>(p.code.size());
  Cfg g;
  for (std::uint32_t pc = 0; pc < n; ++pc) {
    if (leader[pc] == 0) continue;
    g.start.push_back(pc);
    leader[pc] = static_cast<std::uint32_t>(g.start.size());
  }
  g.start.push_back(n);
  leader[n] = 0;
  // Every successor pc is a leader (or the end of the code).
  const auto block = [&](std::uint32_t pc) {
    return pc < n ? leader[pc] - 1 : kNone;
  };
  g.succ.assign(g.start.size() - 1, {kNone, kNone});
  for (std::uint32_t b = 0; b < g.size(); ++b) {
    const std::uint32_t last = g.start[b + 1] - 1;
    const VmInst& in = p.code[last];
    auto& s = g.succ[b];
    switch (in.op) {
      case VmOp::kJump:
        s[0] = block(in.aux);
        break;
      case VmOp::kJumpIfFalse:
      case VmOp::kJumpIfTrue:
        s[0] = block(last + 1);
        s[1] = block(in.aux);
        break;
      case VmOp::kCall:
        if (in.aux < p.functions.size()) {
          s[0] = block(p.functions[in.aux].entry);
        }
        if (last + 1 < n) g.return_sites.push_back(block(last + 1));
        break;
      case VmOp::kRet:
        s[0] = Cfg::kReturn;
        break;
      case VmOp::kDiscard:
      case VmOp::kHalt:
      case VmOp::kTrap:
        break;
      default:
        s[0] = block(last + 1);
        break;
    }
  }
  return g;
}

// Cross-block liveness. Only a register read in some block before any
// write there (upward-exposed) can be live across a block boundary; those
// get a dense "global" index and the dataflow runs over them alone. In
// inlined straight-line code they are a small fraction of the registers.
struct Liveness {
  std::vector<std::uint32_t> globals;  // global index -> register
  std::size_t words = 0;               // per block set, in global indices
  std::vector<Word> in;
  std::vector<Word> out;
};

Liveness ComputeLiveness(const Cfg& g, const Scan& s, std::uint32_t n_regs) {
  const std::uint32_t nb = g.size();
  Liveness lv;
  std::vector<std::uint32_t> global_of(n_regs, kNone);
  // Forward scan per block: a read with no earlier write in the block is
  // upward-exposed. Both lists hold (block, register) pairs.
  std::vector<std::uint32_t> def_block(n_regs, kNone);
  std::vector<std::uint32_t> gen_list;
  std::vector<std::uint32_t> kill_list;
  kill_list.reserve(2 * static_cast<std::size_t>(g.start.back()));
  for (std::uint32_t b = 0; b < nb; ++b) {
    for (std::uint32_t pc = g.start[b]; pc < g.start[b + 1]; ++pc) {
      for (const std::uint32_t* u = s.uses(pc); u != s.uses_end(pc); ++u) {
        if (def_block[*u] == b) continue;
        if (global_of[*u] == kNone) {
          global_of[*u] = static_cast<std::uint32_t>(lv.globals.size());
          lv.globals.push_back(*u);
        }
        gen_list.push_back(b);
        gen_list.push_back(*u);
      }
      for (const std::uint32_t* d = s.defs(pc); d != s.uses(pc); ++d) {
        if (def_block[*d] == b) continue;
        def_block[*d] = b;
        kill_list.push_back(b);
        kill_list.push_back(*d);
      }
    }
  }
  const std::size_t words =
      std::max<std::size_t>(1, (lv.globals.size() + 63) / 64);
  lv.words = words;
  std::vector<Word> gen(nb * words, 0);
  std::vector<Word> kill(nb * words, 0);
  for (std::size_t i = 0; i < gen_list.size(); i += 2) {
    Set(&gen[gen_list[i] * words], global_of[gen_list[i + 1]]);
  }
  for (std::size_t i = 0; i < kill_list.size(); i += 2) {
    const std::uint32_t gi = global_of[kill_list[i + 1]];
    if (gi != kNone) Set(&kill[kill_list[i] * words], gi);
  }
  lv.in.assign(nb * words, 0);
  lv.out.assign(nb * words, 0);
  std::vector<Word> ret(words, 0);  // union of live-in at the return sites
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t b = nb; b-- > 0;) {
      Word* out = &lv.out[b * words];
      for (const std::uint32_t succ : g.succ[b]) {
        if (succ == kNone) continue;
        const Word* src =
            succ == Cfg::kReturn ? ret.data() : &lv.in[succ * words];
        for (std::size_t w = 0; w < words; ++w) out[w] |= src[w];
      }
      Word* in = &lv.in[b * words];
      const Word* gb = &gen[b * words];
      const Word* kb = &kill[b * words];
      for (std::size_t w = 0; w < words; ++w) {
        const Word v = gb[w] | (out[w] & ~kb[w]);
        if (v != in[w]) {
          in[w] = v;
          changed = true;
        }
      }
    }
    for (const std::uint32_t rs : g.return_sites) {
      for (std::size_t w = 0; w < words; ++w) {
        const Word v = ret[w] | lv.in[rs * words + w];
        if (v != ret[w]) {
          ret[w] = v;
          changed = true;
        }
      }
    }
  }
  return lv;
}

// The live set of the backward walk: O(1) insert, erase and membership,
// and iteration over members only.
class LiveSet {
 public:
  explicit LiveSet(std::uint32_t n) : pos_(n, 0), regs_(n, 0) {}
  void Reset() { size_ = 0; }
  [[nodiscard]] bool Has(std::uint32_t r) const {
    return pos_[r] < size_ && regs_[pos_[r]] == r;
  }
  void Insert(std::uint32_t r) {
    if (Has(r)) return;
    pos_[r] = size_;
    regs_[size_++] = r;
  }
  void Erase(std::uint32_t r) {
    if (!Has(r)) return;
    const std::uint32_t last = regs_[--size_];
    regs_[pos_[r]] = last;
    pos_[last] = pos_[r];
  }
  [[nodiscard]] const std::uint32_t* begin() const { return regs_.data(); }
  [[nodiscard]] const std::uint32_t* end() const {
    return regs_.data() + size_;
  }

 private:
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> regs_;
  std::uint32_t size_ = 0;
};

// Interference edges among the unpinned registers of one Type (registers
// of different Types never share a slot, so they need none), kept as
// per-register edge lists and queried at union-find representatives: a
// coalesced set interferes with whatever any of its members interferes
// with.
class Interference {
 public:
  Interference(std::uint32_t n_regs, std::size_t edge_hint)
      : head_(n_regs, kNone), parent_(n_regs), next_(n_regs, kNone),
        tail_(n_regs), degree_(n_regs, 0) {
    std::iota(parent_.begin(), parent_.end(), 0u);
    std::iota(tail_.begin(), tail_.end(), 0u);
    to_.reserve(edge_hint);
    link_.reserve(edge_hint);
  }

  void Add(std::uint32_t x, std::uint32_t y) {
    Link(x, y);
    Link(y, x);
  }
  std::uint32_t Find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  [[nodiscard]] bool IsRep(std::uint32_t x) const { return parent_[x] == x; }
  // Whether the sets of representatives x and y interfere; scans the set
  // with fewer edges.
  bool Interferes(std::uint32_t x, std::uint32_t y) {
    if (degree_[x] > degree_[y]) std::swap(x, y);
    for (std::uint32_t m = x; m != kNone; m = next_[m]) {
      for (std::uint32_t e = head_[m]; e != kNone; e = link_[e]) {
        if (Find(to_[e]) == y) return true;
      }
    }
    return false;
  }
  void Merge(std::uint32_t keep, std::uint32_t gone) {
    parent_[gone] = keep;
    next_[tail_[keep]] = gone;
    tail_[keep] = tail_[gone];
    degree_[keep] += degree_[gone];
  }
  // Calls f(representative) for every edge leaving the set of rep x.
  template <typename F>
  void ForEachNeighbour(std::uint32_t x, F&& f) {
    for (std::uint32_t m = x; m != kNone; m = next_[m]) {
      for (std::uint32_t e = head_[m]; e != kNone; e = link_[e]) {
        f(Find(to_[e]));
      }
    }
  }

 private:
  void Link(std::uint32_t from, std::uint32_t to) {
    to_.push_back(to);
    link_.push_back(head_[from]);
    head_[from] = static_cast<std::uint32_t>(to_.size() - 1);
    ++degree_[from];
  }

  std::vector<std::uint32_t> head_;    // first edge of each register
  std::vector<std::uint32_t> to_;      // per edge
  std::vector<std::uint32_t> link_;    // per edge: next edge, same register
  std::vector<std::uint32_t> parent_;  // union-find
  std::vector<std::uint32_t> next_;    // member list of each set
  std::vector<std::uint32_t> tail_;
  std::vector<std::uint32_t> degree_;  // edges of each set
};

// Dense class index per register by Type, -1 for pinned registers.
std::vector<std::int32_t> ClassesByType(const std::vector<Type>& reg_types,
                                        const std::vector<std::uint8_t>& pinned,
                                        std::vector<std::uint32_t>& class_size) {
  std::vector<std::int32_t> cls(reg_types.size(), -1);
  std::vector<Type> types;
  std::size_t k = 0;
  for (std::size_t r = 0; r < reg_types.size(); ++r) {
    if (pinned[r] != 0) continue;
    // Lowering emits runs of one Type: try the previous class first.
    if (k >= types.size() || !(types[k] == reg_types[r])) {
      k = 0;
      while (k < types.size() && !(types[k] == reg_types[r])) ++k;
      if (k == types.size()) {
        types.push_back(reg_types[r]);
        class_size.push_back(0);
      }
    }
    cls[r] = static_cast<std::int32_t>(k);
    ++class_size[k];
  }
  return cls;
}

// Renames the register operands of `in` through `map`. Ref-slot fields
// (kRef* destinations and sources, kReadRef/kIncDec sources, the kWriteRef
// destination) are not operands and stay.
void RenameRegs(VmInst& in, const std::vector<std::uint32_t>& map) {
  const auto fix = [&map](std::uint32_t& op) {
    if (IsReg(op)) op = kSpaceReg | map[RegOf(op)];
  };
  switch (in.op) {
    case VmOp::kRefVar:
    case VmOp::kWriteRef:
    case VmOp::kJumpIfFalse:
    case VmOp::kJumpIfTrue:
      fix(in.a);
      break;
    case VmOp::kRefIndex:
      fix(in.b);
      break;
    case VmOp::kReadRef:
    case VmOp::kIncDec:
      fix(in.dst);
      break;
    case VmOp::kRefSwizzle:
    case VmOp::kJump:
    case VmOp::kLoopGuard:
    case VmOp::kCall:
    case VmOp::kRet:
    case VmOp::kDiscard:
    case VmOp::kHalt:
    case VmOp::kTrap:
      break;
    default:  // value ops: dst, a, b are operands (or kOperandNone)
      fix(in.dst);
      fix(in.a);
      fix(in.b);
      break;
  }
}

}  // namespace

std::vector<std::uint32_t> AllocateRegisters(VmProgram& prog) {
  const std::uint32_t n_code = static_cast<std::uint32_t>(prog.code.size());
  const std::uint32_t n_regs = static_cast<std::uint32_t>(prog.reg_types.size());

  // --- liveness ---
  Scan scan = ScanProgram(prog);
  const Cfg cfg = BuildCfg(prog, scan.leader);
  const Liveness lv = ComputeLiveness(cfg, scan, n_regs);

  // --- pinned registers: refs and return values (marked by the scan),
  // and whatever an entry point reads before writing ---
  std::vector<std::uint8_t>& pinned = scan.pinned;
  for (const std::uint32_t entry : {prog.run_entry, prog.const_init_entry}) {
    if (entry >= n_code) continue;
    ForEachBit(&lv.in[(scan.leader[entry] - 1) * lv.words], lv.words,
               [&](std::uint32_t g) { pinned[lv.globals[g]] = 1; });
  }
  std::vector<std::uint32_t> class_size;
  const std::vector<std::int32_t> cls =
      ClassesByType(prog.reg_types, pinned, class_size);

  // --- interference, and the dead writes found on the way ---
  Interference graph(n_regs, 4 * static_cast<std::size_t>(n_code));
  std::vector<std::uint8_t> keep(n_code, 1);
  LiveSet live(n_regs);
  for (std::uint32_t b = 0; b < cfg.size(); ++b) {
    live.Reset();
    ForEachBit(&lv.out[b * lv.words], lv.words, [&](std::uint32_t g) {
      if (cls[lv.globals[g]] >= 0) live.Insert(lv.globals[g]);
    });
    for (std::uint32_t pc = cfg.start[b + 1]; pc-- > cfg.start[b];) {
      const VmInst& in = prog.code[pc];
      const std::uint32_t* const defs = scan.defs(pc);
      const std::uint32_t* const uses = scan.uses(pc);
      const std::uint32_t* const uses_end = scan.uses_end(pc);
      if ((in.op == VmOp::kCopy || in.op == VmOp::kZero ||
           in.op == VmOp::kShuffle) &&
          defs != uses && cls[defs[0]] >= 0 && !live.Has(defs[0])) {
        keep[pc] = 0;
      }
      // A copy's destination may share its source's register: at the copy
      // both hold the same value.
      const std::uint32_t copy_src =
          in.op == VmOp::kCopy && IsReg(in.a) ? RegOf(in.a) : kNone;
      for (const std::uint32_t* d = defs; d != uses; ++d) {
        const std::int32_t k = cls[*d];
        if (k < 0) continue;
        const auto edge = [&](std::uint32_t o) {
          if (o != *d && o != copy_src && cls[o] == k) graph.Add(*d, o);
        };
        for (const std::uint32_t l : live) edge(l);
        // Destination vs operands: kCtor clears its destination before
        // reading its arguments, kShuffle and the linear-algebra multiplies
        // read after partial writes.
        for (const std::uint32_t* u = uses; u != uses_end; ++u) edge(*u);
      }
      for (const std::uint32_t* d = defs; d != uses; ++d) live.Erase(*d);
      for (const std::uint32_t* u = uses; u != uses_end; ++u) {
        if (cls[*u] >= 0) live.Insert(*u);
      }
    }
  }

  // --- copy coalescing ---
  for (std::uint32_t pc = 0; pc < n_code; ++pc) {
    const VmInst& in = prog.code[pc];
    if (in.op != VmOp::kCopy || keep[pc] == 0 || !IsReg(in.dst) ||
        !IsReg(in.a)) {
      continue;
    }
    const std::uint32_t x = RegOf(in.dst);
    const std::uint32_t y = RegOf(in.a);
    if (cls[x] < 0 || cls[x] != cls[y]) continue;
    const std::uint32_t rx = graph.Find(x);
    const std::uint32_t ry = graph.Find(y);
    if (rx == ry || graph.Interferes(rx, ry)) continue;
    graph.Merge(std::min(rx, ry), std::max(rx, ry));
  }

  // --- greedy colouring within each Type, in register order ---
  std::vector<std::int32_t> color(n_regs, -1);
  std::vector<std::uint32_t> taken(n_regs + 1, kNone);  // colour -> marker
  for (std::uint32_t r = 0; r < n_regs; ++r) {
    if (cls[r] < 0 || !graph.IsRep(r)) continue;
    graph.ForEachNeighbour(r, [&](std::uint32_t s) {
      if (color[s] >= 0) taken[static_cast<std::size_t>(color[s])] = r;
    });
    std::int32_t c = 0;
    while (taken[static_cast<std::size_t>(c)] == r) ++c;
    color[r] = c;
  }

  // --- the new register file: slots numbered in order of first use ---
  std::vector<std::uint32_t> slot_base(class_size.size() + 1, 0);
  for (std::size_t k = 0; k < class_size.size(); ++k) {
    slot_base[k + 1] = slot_base[k] + class_size[k];
  }
  std::vector<std::uint32_t> slot(slot_base.back(), kNone);
  std::vector<std::uint32_t> rename(n_regs);
  std::vector<Type> types;
  for (std::uint32_t r = 0; r < n_regs; ++r) {
    std::uint32_t* s = nullptr;
    if (cls[r] >= 0) {
      s = &slot[slot_base[static_cast<std::size_t>(cls[r])] +
                static_cast<std::uint32_t>(color[graph.Find(r)])];
      if (*s != kNone) {
        rename[r] = *s;
        continue;
      }
    }
    rename[r] = static_cast<std::uint32_t>(types.size());
    if (s != nullptr) *s = rename[r];
    types.push_back(prog.reg_types[r]);
  }
  prog.reg_types = std::move(types);
  for (std::uint32_t& op : prog.arg_ops) {
    if (IsReg(op)) op = kSpaceReg | rename[RegOf(op)];
  }
  for (VmFunction& f : prog.functions) {
    if (IsReg(f.ret_reg)) f.ret_reg = kSpaceReg | rename[RegOf(f.ret_reg)];
  }

  // --- deletions: self-copies, dead writes, jumps to the next pc ---
  // next[pc]: the first kept pc at or after pc (n_code past the end). Built
  // backwards, so a forward jump sees its target's final state.
  std::vector<std::uint32_t> next(n_code + 1, n_code);
  for (std::uint32_t pc = n_code; pc-- > 0;) {
    VmInst& in = prog.code[pc];
    RenameRegs(in, rename);
    if (in.op == VmOp::kCopy && in.dst == in.a) keep[pc] = 0;
    if (in.op == VmOp::kJump && in.aux > pc && in.aux <= n_code &&
        next[pc + 1] == next[in.aux]) {
      keep[pc] = 0;
    }
    next[pc] = keep[pc] != 0 ? pc : next[pc + 1];
  }
  std::vector<std::uint32_t> pc_map(n_code + 1);
  std::uint32_t count = 0;
  for (std::uint32_t pc = 0; pc < n_code; ++pc) {
    pc_map[pc] = count;  // the new pc of pc itself, when kept
    count += keep[pc];
  }
  pc_map[n_code] = count;
  for (std::uint32_t pc = 0; pc < n_code; ++pc) pc_map[pc] = pc_map[next[pc]];

  const bool branch_bits = prog.divergent_branch.size() == n_code;
  std::uint32_t out = 0;
  for (std::uint32_t pc = 0; pc < n_code; ++pc) {
    if (keep[pc] == 0) continue;
    VmInst& in = prog.code[pc];
    if (in.op == VmOp::kJump || in.op == VmOp::kJumpIfFalse ||
        in.op == VmOp::kJumpIfTrue) {
      in.aux = pc_map[std::min(in.aux, n_code)];
    }
    if (branch_bits) prog.divergent_branch[out] = prog.divergent_branch[pc];
    prog.code[out++] = in;
  }
  prog.code.resize(count);
  if (branch_bits) prog.divergent_branch.resize(count);
  for (VmFunction& f : prog.functions) {
    f.entry = pc_map[std::min(f.entry, n_code)];
  }
  prog.run_entry = pc_map[std::min(prog.run_entry, n_code)];
  prog.const_init_entry = pc_map[std::min(prog.const_init_entry, n_code)];
  return pc_map;
}

}  // namespace mgpu::glsl
