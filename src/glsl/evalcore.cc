#include "glsl/evalcore.h"

#include <bit>
#include <cmath>

#if MGPU_SIMD_X86
#include <immintrin.h>
#endif

namespace mgpu::glsl {

namespace {

// Integer arithmetic that wraps modulo 2^32 instead of overflowing: the
// operands can come from tenant-set uniforms, so every result must be
// defined. -INT_MIN == INT_MIN, and INT_MIN / -1 == INT_MIN (the wrapped
// quotient) rather than a SIGFPE; division by zero yields 0.
inline std::int32_t WrapNeg(std::int32_t x) {
  return static_cast<std::int32_t>(0u - static_cast<std::uint32_t>(x));
}
inline std::int32_t WrapArith(BinOp op, std::int32_t a, std::int32_t b) {
  const auto ua = static_cast<std::uint32_t>(a);
  const auto ub = static_cast<std::uint32_t>(b);
  switch (op) {
    case BinOp::kAdd: return static_cast<std::int32_t>(ua + ub);
    case BinOp::kSub: return static_cast<std::int32_t>(ua - ub);
    case BinOp::kMul: return static_cast<std::int32_t>(ua * ub);
    default:
      if (b == 0) return 0;
      if (b == -1) return WrapNeg(a);
      return a / b;
  }
}

}  // namespace

LRef RefWhole(Value& storage, const Type& t) {
  LRef r;
  r.storage = &storage;
  r.type = t;
  r.n = t.CellCount() > 16 ? 16 : t.CellCount();
  // Arrays larger than 16 cells are referenced whole only via index steps;
  // identity maps cover the head.
  for (int i = 0; i < r.n; ++i) {
    r.idx[static_cast<std::size_t>(i)] = static_cast<std::uint16_t>(i);
  }
  if (t.CellCount() > 16) r.n = -t.CellCount();  // whole-array marker
  return r;
}

IndexStep IndexStepOf(const Type& bt) {
  IndexStep s;
  if (bt.IsArray()) {
    s.limit = bt.array_size;
    s.elem_type = bt.ElementType();
    s.elem_cells = ComponentCount(bt.base);
  } else if (IsMatrix(bt.base)) {
    s.limit = ColumnCount(bt.base);
    s.elem_type = MakeType(ColumnTypeOf(bt.base));
    s.elem_cells = RowCount(bt.base);
  } else {
    s.limit = ComponentCount(bt.base);
    s.elem_type = MakeType(ScalarOf(bt.base));
    s.elem_cells = 1;
  }
  return s;
}

LRef RefIndex(const LRef& base, const IndexStep& step, int i) {
  if (i < 0) i = 0;
  if (i >= step.limit) i = step.limit - 1;  // runtime clamp (UB in the spec)
  LRef r;
  r.storage = base.storage;
  r.type = step.elem_type;
  r.n = step.elem_cells;
  for (int k = 0; k < step.elem_cells; ++k) {
    const int flat = i * step.elem_cells + k;
    r.idx[static_cast<std::size_t>(k)] =
        base.n < 0 ? static_cast<std::uint16_t>(flat)
                   : base.idx[static_cast<std::size_t>(flat)];
  }
  return r;
}

LRef RefSwizzle(const LRef& base, const Type& result_type,
                const std::uint8_t* comps, int count) {
  LRef r;
  r.storage = base.storage;
  r.type = result_type;
  r.n = count;
  for (int k = 0; k < count; ++k) {
    r.idx[static_cast<std::size_t>(k)] = base.idx[comps[k]];
  }
  return r;
}

Value ReadRef(const LRef& r) {
  Value v(r.type);
  if (r.n < 0) {
    // Whole large array.
    for (int i = 0; i < -r.n; ++i) v.data()[i] = r.storage->data()[i];
    return v;
  }
  for (int i = 0; i < r.n; ++i) {
    v.data()[i] = r.storage->data()[r.idx[static_cast<std::size_t>(i)]];
  }
  return v;
}

void ReadRefInto(const LRef& r, Value& out) {
  if (r.n < 0) {
    for (int i = 0; i < -r.n; ++i) out.data()[i] = r.storage->data()[i];
    return;
  }
  Cell* dst = out.data();
  const Cell* src = r.storage->data();
  for (int i = 0; i < r.n; ++i) {
    dst[i] = src[r.idx[static_cast<std::size_t>(i)]];
  }
}

void WriteRef(const LRef& r, const Value& v) {
  if (r.n < 0) {
    for (int i = 0; i < -r.n; ++i) r.storage->data()[i] = v.data()[i];
    return;
  }
  for (int i = 0; i < r.n; ++i) {
    r.storage->data()[r.idx[static_cast<std::size_t>(i)]] = v.data()[i];
  }
}

bool EqualAll(const Value& l, const Value& r) {
  if (l.count() != r.count()) return false;
  const bool is_float = l.scalar() == BaseType::kFloat;
  for (int i = 0; i < l.count(); ++i) {
    if (is_float) {
      if (l.F(i) != r.F(i)) return false;
    } else {
      if (l.I(i) != r.I(i)) return false;
    }
  }
  return true;
}

void EvalArithInto(AluModel& alu, BinOp op, const Value& l, const Value& r,
                   Value& out) {
  const BaseType lb = l.type().base;
  const BaseType rb = r.type().base;
  const bool is_float = ScalarOf(lb) == BaseType::kFloat;

  // Fast path: scalar float +-*/ — the bulk of lowered GPGPU kernel code.
  // Identical to the component-wise loop below at n == 1 (same AluModel
  // routing, same counts).
  if (is_float && out.count() == 1 && op <= BinOp::kDiv) {
    const float a = l.F(0);
    const float b = r.F(0);
    switch (op) {
      case BinOp::kAdd: out.SetF(0, alu.Add(a, b)); return;
      case BinOp::kSub: out.SetF(0, alu.Sub(a, b)); return;
      case BinOp::kMul: out.SetF(0, alu.Mul(a, b)); return;
      default: out.SetF(0, alu.Div(a, b)); return;
    }
  }

  // Linear-algebra multiplication cases first.
  if (op == BinOp::kMul && IsMatrix(lb) && IsMatrix(rb)) {
    const int n = RowCount(lb);
    for (int c = 0; c < n; ++c) {
      for (int row = 0; row < n; ++row) {
        float acc = alu.Mul(l.F(row), r.F(c * n));
        for (int k = 1; k < n; ++k) {
          acc = alu.Add(acc, alu.Mul(l.F(k * n + row), r.F(c * n + k)));
        }
        out.SetF(c * n + row, acc);
      }
    }
    return;
  }
  if (op == BinOp::kMul && IsMatrix(lb) && IsVector(rb)) {
    const int n = RowCount(lb);
    for (int row = 0; row < n; ++row) {
      float acc = alu.Mul(l.F(row), r.F(0));
      for (int k = 1; k < n; ++k) {
        acc = alu.Add(acc, alu.Mul(l.F(k * n + row), r.F(k)));
      }
      out.SetF(row, acc);
    }
    return;
  }
  if (op == BinOp::kMul && IsVector(lb) && IsMatrix(rb)) {
    const int n = RowCount(rb);
    for (int c = 0; c < n; ++c) {
      float acc = alu.Mul(l.F(0), r.F(c * n));
      for (int k = 1; k < n; ++k) {
        acc = alu.Add(acc, alu.Mul(l.F(k), r.F(c * n + k)));
      }
      out.SetF(c, acc);
    }
    return;
  }

  // Component-wise with scalar broadcast.
  const int n = out.count();
  const bool lbc = l.count() == 1 && n > 1;
  const bool rbc = r.count() == 1 && n > 1;
  for (int i = 0; i < n; ++i) {
    const int li = lbc ? 0 : i;
    const int ri = rbc ? 0 : i;
    if (is_float) {
      const float a = l.F(li);
      const float b = r.F(ri);
      float v = 0.0f;
      switch (op) {
        case BinOp::kAdd: v = alu.Add(a, b); break;
        case BinOp::kSub: v = alu.Sub(a, b); break;
        case BinOp::kMul: v = alu.Mul(a, b); break;
        case BinOp::kDiv: v = alu.Div(a, b); break;
        case BinOp::kLt: alu.Count(1); out.SetB(i, a < b); continue;
        case BinOp::kGt: alu.Count(1); out.SetB(i, a > b); continue;
        case BinOp::kLe: alu.Count(1); out.SetB(i, a <= b); continue;
        case BinOp::kGe: alu.Count(1); out.SetB(i, a >= b); continue;
        case BinOp::kEq: alu.Count(1); out.SetB(i, EqualAll(l, r)); continue;
        case BinOp::kNe: alu.Count(1); out.SetB(i, !EqualAll(l, r)); continue;
        default: break;
      }
      out.SetF(i, v);
    } else {
      const std::int32_t a = l.I(li);
      const std::int32_t b = r.I(ri);
      alu.Count(1);
      switch (op) {
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv: out.SetI(i, WrapArith(op, a, b)); break;
        case BinOp::kLt: out.SetB(i, a < b); break;
        case BinOp::kGt: out.SetB(i, a > b); break;
        case BinOp::kLe: out.SetB(i, a <= b); break;
        case BinOp::kGe: out.SetB(i, a >= b); break;
        case BinOp::kEq: out.SetB(i, EqualAll(l, r)); break;
        case BinOp::kNe: out.SetB(i, !EqualAll(l, r)); break;
        default: break;
      }
    }
  }
}

void EvalCtorInto(AluModel& alu, std::span<const Value* const> args,
                  Value& out) {
  const BaseType target = out.type().base;
  alu.Count(out.count());  // conversion/mov cost

  if (IsScalar(target)) {
    out.SetConverted(0, *args[0], 0);
    return;
  }
  if (IsVector(target)) {
    const int n = out.count();
    if (args.size() == 1 && args[0]->count() == 1) {
      for (int i = 0; i < n; ++i) out.SetConverted(i, *args[0], 0);
      return;
    }
    // Fast path: all-float gather (vecN(f, f, ...), the common shader
    // ctor) — SetConverted degenerates to a plain float copy there.
    bool all_float = ScalarOf(target) == BaseType::kFloat;
    for (std::size_t a = 0; all_float && a < args.size(); ++a) {
      all_float = args[a]->scalar() == BaseType::kFloat;
    }
    int w = 0;
    if (all_float) {
      for (const Value* a : args) {
        for (int i = 0; i < a->count() && w < n; ++i, ++w) {
          out.SetF(w, a->F(i));
        }
      }
      return;
    }
    for (const Value* a : args) {
      for (int i = 0; i < a->count() && w < n; ++i, ++w) {
        out.SetConverted(w, *a, i);
      }
    }
    return;
  }
  // Matrices.
  const int n = RowCount(target);
  if (args.size() == 1 && args[0]->count() == 1) {
    for (int col = 0; col < n; ++col) {
      for (int row = 0; row < n; ++row) {
        out.SetF(col * n + row, col == row ? args[0]->AsFloat(0) : 0.0f);
      }
    }
    return;
  }
  if (args.size() == 1 && IsMatrix(args[0]->type().base)) {
    const int m = RowCount(args[0]->type().base);
    for (int col = 0; col < n; ++col) {
      for (int row = 0; row < n; ++row) {
        float v = col == row ? 1.0f : 0.0f;
        if (col < m && row < m) v = args[0]->F(col * m + row);
        out.SetF(col * n + row, v);
      }
    }
    return;
  }
  int w = 0;
  for (const Value* a : args) {
    for (int i = 0; i < a->count() && w < out.count(); ++i, ++w) {
      out.SetConverted(w, *a, i);
    }
  }
}

void EvalNegInto(AluModel& alu, const Value& v, Value& out) {
  const bool is_float = v.scalar() == BaseType::kFloat;
  for (int i = 0; i < v.count(); ++i) {
    alu.Count(1);
    if (is_float) {
      out.SetF(i, alu.RoundResult(-v.F(i)));
    } else {
      out.SetI(i, WrapNeg(v.I(i)));
    }
  }
}

void EvalNotInto(AluModel& alu, const Value& v, Value& out) {
  alu.Count(1);
  out.SetB(0, !v.B(0));
}

void EvalIncDecInto(AluModel& alu, const LRef& ref, bool increment, bool post,
                    Value& out) {
  const Value old = ReadRef(ref);
  Value updated(old.type());
  const float delta = increment ? 1.0f : -1.0f;
  const bool is_float = old.scalar() == BaseType::kFloat;
  for (int i = 0; i < old.count(); ++i) {
    if (is_float) {
      updated.SetF(i, alu.Add(old.F(i), delta));
    } else {
      alu.Count(1);
      updated.SetI(i, WrapArith(BinOp::kAdd, old.I(i), increment ? 1 : -1));
    }
  }
  WriteRef(ref, updated);
  out = post ? old : updated;
}

void EvalIncDecVar(AluModel& alu, Value& var, bool increment, bool post,
                   Value& out) {
  const float delta = increment ? 1.0f : -1.0f;
  const bool is_float = var.scalar() == BaseType::kFloat;
  const int n = var.count();
  for (int i = 0; i < n; ++i) {
    if (is_float) {
      const float old = var.F(i);
      const float updated = alu.Add(old, delta);
      var.SetF(i, updated);
      out.SetF(i, post ? old : updated);
    } else {
      alu.Count(1);
      const std::int32_t old = var.I(i);
      const std::int32_t updated =
          WrapArith(BinOp::kAdd, old, increment ? 1 : -1);
      var.SetI(i, updated);
      out.SetI(i, post ? old : updated);
    }
  }
}

void EvalExtractInto(const Value& base, const IndexStep& step, int i,
                     Value& out) {
  if (i < 0) i = 0;
  if (i >= step.limit) i = step.limit - 1;
  for (int k = 0; k < step.elem_cells; ++k) {
    out.data()[k] = base.data()[i * step.elem_cells + k];
  }
}

// ---------------------------------------------------------------------------
// Lane-batched (SoA) kernels
// ---------------------------------------------------------------------------

void EvalArithBatch(AluModel& alu, BinOp op, const BatchSrc& l,
                    const BatchSrc& r, const BatchDst& out,
                    std::uint32_t mask) {
  const BaseType lb = l.base->type().base;
  const BaseType rb = r.base->type().base;
  const bool is_float = ScalarOf(lb) == BaseType::kFloat;

  // Linear-algebra multiplies: the accumulation pattern is the one place
  // EvalArithInto is not a flat component loop, so replay it per lane — the
  // dispatch to get here still ran once for the whole batch. The VM's SoA
  // tag (TagSoaEligibility) routes these shapes to its own per-lane path,
  // so this branch is normally unreachable from the batched executors; it
  // is kept so the kernel stays total — if the tag predicate ever drifts,
  // results remain correct (just unamortized) instead of silently wrong.
  if (op == BinOp::kMul &&
      ((IsMatrix(lb) && (IsMatrix(rb) || IsVector(rb))) ||
       (IsVector(lb) && IsMatrix(rb)))) {
    ForEachLane(mask, [&](int lane) {
      EvalArithInto(alu, op, l.at(lane), r.at(lane), out.at(lane));
    });
    return;
  }

  // Comparisons: result is always a scalar bool (relational ops are
  // scalar-only in GLSL ES; ==/!= on vectors and matrices reduce through
  // EqualAll). One alu op per lane, same as the scalar loop at n == 1.
  if (op >= BinOp::kLt && op <= BinOp::kNe) {
    switch (op) {
      case BinOp::kEq:
        ForEachLane(mask, [&](int lane) {
          alu.Count(1);
          out.at(lane).SetB(0, EqualAll(l.at(lane), r.at(lane)));
        });
        return;
      case BinOp::kNe:
        ForEachLane(mask, [&](int lane) {
          alu.Count(1);
          out.at(lane).SetB(0, !EqualAll(l.at(lane), r.at(lane)));
        });
        return;
      default:
        break;
    }
    if (is_float) {
      ForEachLane(mask, [&](int lane) {
        alu.Count(1);
        const float a = l.at(lane).F(0);
        const float b = r.at(lane).F(0);
        bool v = false;
        switch (op) {
          case BinOp::kLt: v = a < b; break;
          case BinOp::kGt: v = a > b; break;
          case BinOp::kLe: v = a <= b; break;
          default: v = a >= b; break;
        }
        out.at(lane).SetB(0, v);
      });
    } else {
      ForEachLane(mask, [&](int lane) {
        alu.Count(1);
        const std::int32_t a = l.at(lane).I(0);
        const std::int32_t b = r.at(lane).I(0);
        bool v = false;
        switch (op) {
          case BinOp::kLt: v = a < b; break;
          case BinOp::kGt: v = a > b; break;
          case BinOp::kLe: v = a <= b; break;
          default: v = a >= b; break;
        }
        out.at(lane).SetB(0, v);
      });
    }
    return;
  }

  // Component-wise arithmetic with scalar broadcast (covers scalars,
  // vectors, and matrix +-/ and matrix*scalar). Shape flags hoisted: `ls`/
  // `rs` are per-component index strides, 0 when the operand is a scalar
  // broadcast against a wider result.
  const int n = out.base->count();
  const int ls = l.base->count() == 1 && n > 1 ? 0 : 1;
  const int rs = r.base->count() == 1 && n > 1 ? 0 : 1;

  if (is_float) {
    // One tight lane loop per op: the switch runs once per instruction,
    // not once per lane per component.
    switch (op) {
      case BinOp::kAdd:
        ForEachLane(mask, [&](int lane) {
          const Value& a = l.at(lane);
          const Value& b = r.at(lane);
          Value& o = out.at(lane);
          for (int i = 0; i < n; ++i) {
            o.SetF(i, alu.Add(a.F(i * ls), b.F(i * rs)));
          }
        });
        return;
      case BinOp::kSub:
        ForEachLane(mask, [&](int lane) {
          const Value& a = l.at(lane);
          const Value& b = r.at(lane);
          Value& o = out.at(lane);
          for (int i = 0; i < n; ++i) {
            o.SetF(i, alu.Sub(a.F(i * ls), b.F(i * rs)));
          }
        });
        return;
      case BinOp::kMul:
        ForEachLane(mask, [&](int lane) {
          const Value& a = l.at(lane);
          const Value& b = r.at(lane);
          Value& o = out.at(lane);
          for (int i = 0; i < n; ++i) {
            o.SetF(i, alu.Mul(a.F(i * ls), b.F(i * rs)));
          }
        });
        return;
      default:
        ForEachLane(mask, [&](int lane) {
          const Value& a = l.at(lane);
          const Value& b = r.at(lane);
          Value& o = out.at(lane);
          for (int i = 0; i < n; ++i) {
            o.SetF(i, alu.Div(a.F(i * ls), b.F(i * rs)));
          }
        });
        return;
    }
  }

  // Integer component-wise arithmetic (one counted alu op per component,
  // wrapping like EvalArithInto).
  ForEachLane(mask, [&](int lane) {
    const Value& a = l.at(lane);
    const Value& b = r.at(lane);
    Value& o = out.at(lane);
    for (int i = 0; i < n; ++i) {
      const std::int32_t x = a.I(i * ls);
      const std::int32_t y = b.I(i * rs);
      alu.Count(1);
      switch (op) {
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv: o.SetI(i, WrapArith(op, x, y)); break;
        default: break;
      }
    }
  });
}

void EvalNegBatch(AluModel& alu, const BatchSrc& v, const BatchDst& out,
                  std::uint32_t mask) {
  const int n = v.base->count();
  if (v.base->scalar() == BaseType::kFloat) {
    ForEachLane(mask, [&](int lane) {
      const Value& a = v.at(lane);
      Value& o = out.at(lane);
      for (int i = 0; i < n; ++i) {
        alu.Count(1);
        o.SetF(i, alu.RoundResult(-a.F(i)));
      }
    });
    return;
  }
  ForEachLane(mask, [&](int lane) {
    const Value& a = v.at(lane);
    Value& o = out.at(lane);
    for (int i = 0; i < n; ++i) {
      alu.Count(1);
      o.SetI(i, WrapNeg(a.I(i)));
    }
  });
}

void EvalNotBatch(AluModel& alu, const BatchSrc& v, const BatchDst& out,
                  std::uint32_t mask) {
  ForEachLane(mask, [&](int lane) {
    alu.Count(1);
    out.at(lane).SetB(0, !v.at(lane).B(0));
  });
}

void EvalCtorBatch(AluModel& alu, std::span<const BatchSrc> args,
                   const BatchDst& out, std::uint32_t mask) {
  const BaseType target = out.base->type().base;
  const int n = out.base->count();
  const auto clear = [n](Value& o) {
    Cell* c = o.data();
    for (int i = 0; i < n; ++i) c[i].i = 0;
  };

  if (IsScalar(target)) {
    ForEachLane(mask, [&](int lane) {
      alu.Count(1);
      Value& o = out.at(lane);
      clear(o);
      o.SetConverted(0, args[0].at(lane), 0);
    });
    return;
  }
  if (!IsVector(target)) {
    // Matrix/array targets must never be routed here: TagSoaEligibility
    // only marks scalar/vector constructors SoA (the VM replays matrix
    // ctors per lane through EvalCtorInto). Falling through silently would
    // leave stale register bytes in every lane, so fail loudly instead —
    // always on, unlike an assert, which Release/NDEBUG would strip.
    throw ShaderRuntimeError(
        "internal error: non-scalar/vector constructor reached the SoA "
        "ctor kernel (SoA tagging drifted from kernel coverage)");
  }
  {
    if (args.size() == 1 && args[0].base->count() == 1) {
      // Splat.
      ForEachLane(mask, [&](int lane) {
        alu.Count(n);
        Value& o = out.at(lane);
        const Value& a = args[0].at(lane);
        for (int i = 0; i < n; ++i) o.SetConverted(i, a, 0);
      });
      return;
    }
    bool all_float = ScalarOf(target) == BaseType::kFloat;
    for (std::size_t a = 0; all_float && a < args.size(); ++a) {
      all_float = args[a].base->scalar() == BaseType::kFloat;
    }
    if (all_float) {
      // The common vecN(f, v, ...) gather: a flat per-lane copy loop.
      ForEachLane(mask, [&](int lane) {
        alu.Count(n);
        Value& o = out.at(lane);
        int w = 0;
        for (const BatchSrc& src : args) {
          const Value& a = src.at(lane);
          for (int i = 0; i < a.count() && w < n; ++i, ++w) {
            o.SetF(w, a.F(i));
          }
        }
        while (w < n) o.data()[w++].i = 0;  // malformed ctor tail stays zero
      });
      return;
    }
    ForEachLane(mask, [&](int lane) {
      alu.Count(n);
      Value& o = out.at(lane);
      clear(o);
      int w = 0;
      for (const BatchSrc& src : args) {
        const Value& a = src.at(lane);
        for (int i = 0; i < a.count() && w < n; ++i, ++w) {
          o.SetConverted(w, a, i);
        }
      }
    });
  }
}

// ---------------------------------------------------------------------------
// SIMD kernels (x86-64; see the contract in evalcore.h / simd.h)
// ---------------------------------------------------------------------------

#if MGPU_SIMD_X86

namespace {

// Full-width 128-bit load/store over Value cells. Cells are 4-byte unions
// with the float member active on every path that reaches these kernels;
// the intrinsics read/write raw bytes, so punning through the cast is fine.
// Callers guarantee the touched range stays inside the value's inline
// storage (count <= Value::kInline == 16 cells; over-read/over-write of
// cells at index >= count is unobservable by the Value contract).
inline __m128 LoadF4(const Cell* c) {
  return _mm_loadu_ps(reinterpret_cast<const float*>(c));
}
inline void StoreF4(Cell* c, __m128 v) {
  _mm_storeu_ps(reinterpret_cast<float*>(c), v);
}

// Component-wise binary op over every live lane, 4 components per step,
// each result rounded like AluModel::RoundResult (see simd::Round4).
// `ls`/`rs` are the scalar-broadcast strides of EvalArithBatch (0 = the
// operand is a scalar splat against a wider result).
template <bool kFlush, typename Op>
inline void ArithSimdLanes(const BatchSrc& l, const BatchSrc& r,
                           const BatchDst& out, int n, int ls, int rs,
                           std::uint32_t mask, Op op) {
  const auto apply = [op](__m128 a, __m128 b) {
    return simd::Round4<kFlush>(op(a, b));
  };
  if (ls == 0) {
    ForEachLane(mask, [&](int lane) {
      const __m128 va = _mm_set1_ps(l.at(lane).F(0));
      const Cell* bc = r.at(lane).data();
      Cell* oc = out.at(lane).data();
      for (int i = 0; i < n; i += 4) StoreF4(oc + i, apply(va, LoadF4(bc + i)));
    });
  } else if (rs == 0) {
    ForEachLane(mask, [&](int lane) {
      const Cell* ac = l.at(lane).data();
      const __m128 vb = _mm_set1_ps(r.at(lane).F(0));
      Cell* oc = out.at(lane).data();
      for (int i = 0; i < n; i += 4) StoreF4(oc + i, apply(LoadF4(ac + i), vb));
    });
  } else {
    ForEachLane(mask, [&](int lane) {
      const Cell* ac = l.at(lane).data();
      const Cell* bc = r.at(lane).data();
      Cell* oc = out.at(lane).data();
      for (int i = 0; i < n; i += 4) {
        StoreF4(oc + i, apply(LoadF4(ac + i), LoadF4(bc + i)));
      }
    });
  }
}

template <bool kFlush>
void ArithSimd(BinOp op, const BatchSrc& l, const BatchSrc& r,
               const BatchDst& out, int n, int ls, int rs,
               std::uint32_t mask) {
  switch (op) {
    case BinOp::kAdd:
      ArithSimdLanes<kFlush>(
          l, r, out, n, ls, rs, mask,
          [](__m128 a, __m128 b) { return _mm_add_ps(a, b); });
      return;
    case BinOp::kSub:
      ArithSimdLanes<kFlush>(
          l, r, out, n, ls, rs, mask,
          [](__m128 a, __m128 b) { return _mm_sub_ps(a, b); });
      return;
    default:
      ArithSimdLanes<kFlush>(
          l, r, out, n, ls, rs, mask,
          [](__m128 a, __m128 b) { return _mm_mul_ps(a, b); });
      return;
  }
}

// -x is a pure sign-bit flip (exact for every input including NaN and
// +/-0), so negation vectorizes as an XOR, then rounds like the scalar
// kernel's RoundResult(-x).
template <bool kFlush>
void NegSimd(const BatchSrc& v, const BatchDst& out, int n,
             std::uint32_t mask) {
  const __m128 sign = _mm_set1_ps(-0.0f);
  ForEachLane(mask, [&](int lane) {
    const Cell* ac = v.at(lane).data();
    Cell* oc = out.at(lane).data();
    for (int i = 0; i < n; i += 4) {
      StoreF4(oc + i, simd::Round4<kFlush>(_mm_xor_ps(LoadF4(ac + i), sign)));
    }
  });
}

}  // namespace

void EvalArithBatchSimd(AluModel& alu, BinOp op, const BatchSrc& l,
                        const BatchSrc& r, const BatchDst& out,
                        std::uint32_t mask, simd::Level level) {
  const BaseType lb = l.base->type().base;
  const BaseType rb = r.base->type().base;
  const int n = out.base->count();
  const bool linalg =
      op == BinOp::kMul && ((IsMatrix(lb) && (IsMatrix(rb) || IsVector(rb))) ||
                            (IsVector(lb) && IsMatrix(rb)));
  if (level == simd::Level::kScalar || alu.round_mode() == RoundMode::kModel ||
      op > BinOp::kMul || linalg || ScalarOf(lb) != BaseType::kFloat ||
      n < 2 || n > Value::kInline) {
    EvalArithBatch(alu, op, l, r, out, mask);
    return;
  }
  const int ls = l.base->count() == 1 && n > 1 ? 0 : 1;
  const int rs = r.base->count() == 1 && n > 1 ? 0 : 1;
  alu.CountAlu(static_cast<std::uint64_t>(n) *
               static_cast<unsigned>(std::popcount(mask)));
  if (alu.round_mode() == RoundMode::kFlushDenormals) {
    ArithSimd<true>(op, l, r, out, n, ls, rs, mask);
  } else {
    ArithSimd<false>(op, l, r, out, n, ls, rs, mask);
  }
}

void EvalNegBatchSimd(AluModel& alu, const BatchSrc& v, const BatchDst& out,
                      std::uint32_t mask, simd::Level level) {
  const int n = v.base->count();
  if (level == simd::Level::kScalar || alu.round_mode() == RoundMode::kModel ||
      v.base->scalar() != BaseType::kFloat || n > Value::kInline) {
    EvalNegBatch(alu, v, out, mask);
    return;
  }
  alu.CountAlu(static_cast<std::uint64_t>(n) *
               static_cast<unsigned>(std::popcount(mask)));
  if (alu.round_mode() == RoundMode::kFlushDenormals) {
    NegSimd<true>(v, out, n, mask);
  } else {
    NegSimd<false>(v, out, n, mask);
  }
}

void EvalCtorBatchSimd(AluModel& alu, std::span<const BatchSrc> args,
                       const BatchDst& out, std::uint32_t mask,
                       simd::Level level) {
  const BaseType target = out.base->type().base;
  const int n = out.base->count();
  bool covered = level != simd::Level::kScalar && IsVector(target) &&
                 ScalarOf(target) == BaseType::kFloat && n <= 4;
  for (std::size_t a = 0; covered && a < args.size(); ++a) {
    // Only float scalar/vector args: keeps every 4-wide copy inside the
    // destination's inline cells (write range < w + 4 <= n + 3 <= 7).
    covered = args[a].base->scalar() == BaseType::kFloat &&
              args[a].base->count() <= 4;
  }
  if (!covered) {
    EvalCtorBatch(alu, args, out, mask);
    return;
  }
  alu.CountAlu(static_cast<std::uint64_t>(n) *
               static_cast<unsigned>(std::popcount(mask)));
  if (args.size() == 1 && args[0].base->count() == 1) {
    // Splat: float -> float SetConverted is a plain copy, so broadcast.
    ForEachLane(mask, [&](int lane) {
      StoreF4(out.at(lane).data(), _mm_set1_ps(args[0].at(lane).F(0)));
    });
    return;
  }
  // All-float gather: one unaligned 4-wide copy per argument. Components
  // past an argument's count are overwritten by the next argument's copy or
  // are beyond n (unobservable), exactly reproducing the scalar gather.
  ForEachLane(mask, [&](int lane) {
    Value& o = out.at(lane);
    Cell* oc = o.data();
    int w = 0;
    for (const BatchSrc& src : args) {
      if (w >= n) break;
      const Value& a = src.at(lane);
      StoreF4(oc + w, LoadF4(a.data()));
      w += a.count();
    }
    if (w > n) w = n;
    while (w < n) oc[w++].i = 0;  // malformed ctor tail stays zero
  });
}

#else  // !MGPU_SIMD_X86 — portable builds: the entries forward verbatim.

void EvalArithBatchSimd(AluModel& alu, BinOp op, const BatchSrc& l,
                        const BatchSrc& r, const BatchDst& out,
                        std::uint32_t mask, simd::Level /*level*/) {
  EvalArithBatch(alu, op, l, r, out, mask);
}

void EvalNegBatchSimd(AluModel& alu, const BatchSrc& v, const BatchDst& out,
                      std::uint32_t mask, simd::Level /*level*/) {
  EvalNegBatch(alu, v, out, mask);
}

void EvalCtorBatchSimd(AluModel& alu, std::span<const BatchSrc> args,
                       const BatchDst& out, std::uint32_t mask,
                       simd::Level /*level*/) {
  EvalCtorBatch(alu, args, out, mask);
}

#endif  // MGPU_SIMD_X86

}  // namespace mgpu::glsl
