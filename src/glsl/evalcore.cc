#include "glsl/evalcore.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "glsl/lanes.h"

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

LRef RefWhole(LaneSlice storage, const Type& t) {
  LRef r;
  r.storage = storage.base;
  r.stride = storage.stride;
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
  r.stride = base.stride;
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
  r.stride = base.stride;
  r.type = result_type;
  r.n = count;
  for (int k = 0; k < count; ++k) {
    r.idx[static_cast<std::size_t>(k)] = base.idx[comps[k]];
  }
  return r;
}

namespace {

// Storage cell of reference component i.
inline Cell& RefCell(const LRef& r, int i) {
  const int cell = r.n < 0 ? i : r.idx[static_cast<std::size_t>(i)];
  return r.storage[cell * r.stride];
}
inline int RefCount(const LRef& r) { return r.n < 0 ? -r.n : r.n; }

}  // namespace

Value ReadRef(const LRef& r) {
  Value v(r.type);
  ReadRefInto(r, LaneSlice::Of(v));
  return v;
}

void ReadRefInto(const LRef& r, LaneSlice out) {
  for (int i = 0; i < RefCount(r); ++i) out.at(i) = RefCell(r, i);
}

void WriteRef(const LRef& r, const Value& v) {
  for (int i = 0; i < RefCount(r); ++i) RefCell(r, i) = v.data()[i];
}

void WriteRef(const LRef& r, LaneSlice src) {
  for (int i = 0; i < RefCount(r); ++i) RefCell(r, i) = src.at(i);
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
                    LaneSlice out) {
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
  const Value& result = post ? old : updated;
  for (int i = 0; i < result.count(); ++i) out.at(i) = result.data()[i];
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
// Lane-batched kernels over lane-major planes
// ---------------------------------------------------------------------------

std::uint32_t TrueLanes(const BatchSrc& cond, std::uint32_t mask) {
  if (cond.lane_stride == 0) return cond.base->i != 0 ? mask : 0;
  std::uint32_t zero = 0;
#if MGPU_SIMD_X86
  for (int g = 0; g < kVmLanes; g += 4) {
    const __m128i c = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(cond.base + g));
    zero |= static_cast<std::uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(
                _mm_cmpeq_epi32(c, _mm_setzero_si128()))))
            << g;
  }
#else
  for (int l = 0; l < kVmLanes; ++l) {
    zero |= static_cast<std::uint32_t>(cond.base[l].i == 0) << l;
  }
#endif
  return mask & ~zero;
}

void GatherLane(const BatchSrc& s, int lane, Value& out) {
  Cell* o = out.data();
  for (int k = 0; k < out.count(); ++k) o[k] = s.at(k, lane);
}

void ScatterLane(const Value& v, const BatchDst& d, int lane) {
  const Cell* c = v.data();
  for (int k = 0; k < v.count(); ++k) d.at(k, lane) = c[k];
}

void EvalArithBatch(AluModel& alu, BinOp op, const BatchSrc& l,
                    const BatchSrc& r, const BatchDst& out,
                    std::uint32_t mask, simd::Level level) {
  const BaseType lb = l.type.base;
  const BaseType rb = r.type.base;
  const bool is_float = ScalarOf(lb) == BaseType::kFloat;

  // Linear-algebra multiplies: the accumulation pattern is the one place
  // EvalArithInto is not a flat component loop, so each lane replays it on
  // scratch Values.
  if (op == BinOp::kMul &&
      ((IsMatrix(lb) && (IsMatrix(rb) || IsVector(rb))) ||
       (IsVector(lb) && IsMatrix(rb)))) {
    Value a(l.type);
    Value b(r.type);
    Value o(out.type);
    ForEachLane(mask, [&](int lane) {
      GatherLane(l, lane, a);
      GatherLane(r, lane, b);
      EvalArithInto(alu, op, a, b, o);
      ScatterLane(o, out, lane);
    });
    return;
  }

  // Comparisons: result is always a scalar bool (relational ops are
  // scalar-only in GLSL ES; ==/!= on vectors and matrices reduce through
  // EqualAll). One alu op per lane, same as the scalar loop at n == 1.
  if (op >= BinOp::kLt && op <= BinOp::kNe) {
    alu.CountAlu(LaneCount(mask));
    if (op == BinOp::kEq || op == BinOp::kNe) {
      const int n = l.count();
      if (n != r.count()) {  // EqualAll of differently sized values
        ForEachLane(mask,
                    [&](int lane) { out.at(0, lane).i = op == BinOp::kNe; });
        return;
      }
      WithTier(alu, level, out, [&](const auto& t) {
        EqualAllRows(t, is_float, op == BinOp::kNe, l, r, out, n, mask);
      });
      return;
    }
    if (is_float) {
      WithTier(alu, level, out,
               [&](const auto& t) { CompareRows(t, op, l, r, out, mask); });
      return;
    }
    const Cell* ar = l.row(0);
    const Cell* br = r.row(0);
    Cell* dr = out.row(0);
    ForEachLane(mask, [&](int lane) {
      const std::int32_t a = ar[lane * l.lane_stride].i;
      const std::int32_t b = br[lane * r.lane_stride].i;
      bool v = false;
      switch (op) {
        case BinOp::kLt: v = a < b; break;
        case BinOp::kGt: v = a > b; break;
        case BinOp::kLe: v = a <= b; break;
        default: v = a >= b; break;
      }
      dr[lane * out.lane_stride].i = v ? 1 : 0;
    });
    return;
  }

  // Component-wise arithmetic with scalar broadcast (covers scalars,
  // vectors, and matrix +-/ and matrix*scalar). `ls`/`rs` are per-cell
  // steps, 0 when the operand is a scalar broadcast against a wider result.
  const int n = out.count();
  const int ls = l.count() == 1 && n > 1 ? 0 : 1;
  const int rs = r.count() == 1 && n > 1 ? 0 : 1;

  if (is_float) {
    alu.CountAlu(static_cast<std::uint64_t>(n) * LaneCount(mask));
    if (op == BinOp::kDiv) {
      // a * Recip(b): the reciprocal is the SFU's, one call per component
      // and lane like the scalar Div; the multiply and its round run at
      // the tier. Arithmetic operands are at most a mat4 (16 cells).
      std::array<Cell, Value::kInline * kVmLanes> rcp;
      std::fill_n(rcp.begin(), n * kVmLanes, Cell{});
      for (int k = 0; k < n; ++k) {
        const Cell* br = r.row(k * rs);
        ForEachLane(mask, [&](int lane) {
          rcp[static_cast<std::size_t>(k * kVmLanes + lane)].f =
              alu.Recip(br[lane * r.lane_stride].f);
        });
      }
      const BatchSrc rcp_src{rcp.data(), out.type, kVmLanes, 1};
      WithTier(alu, level, out, [&](const auto& t) {
        ArithRows(t, BinOp::kMul, l, ls, rcp_src, 1, out, n, mask);
      });
      return;
    }
    WithTier(alu, level, out, [&](const auto& t) {
      ArithRows(t, op, l, ls, r, rs, out, n, mask);
    });
    return;
  }

  // Integer component-wise arithmetic (one counted alu op per component,
  // wrapping like EvalArithInto).
  alu.CountAlu(static_cast<std::uint64_t>(n) * LaneCount(mask));
  for (int k = 0; k < n; ++k) {
    const Cell* ar = l.row(k * ls);
    const Cell* br = r.row(k * rs);
    Cell* dr = out.row(k);
    ForEachLane(mask, [&](int lane) {
      dr[lane * out.lane_stride].i = WrapArith(
          op, ar[lane * l.lane_stride].i, br[lane * r.lane_stride].i);
    });
  }
}

void EvalNegBatch(AluModel& alu, const BatchSrc& v, const BatchDst& out,
                  std::uint32_t mask, simd::Level level) {
  const int n = v.count();
  alu.CountAlu(static_cast<std::uint64_t>(n) * LaneCount(mask));
  if (v.scalar() == BaseType::kFloat) {
    WithTier(alu, level, out,
             [&](const auto& t) { NegRows(t, v, out, n, mask); });
    return;
  }
  for (int k = 0; k < n; ++k) {
    ForEachLane(mask, [&](int lane) {
      out.at(k, lane).i = WrapNeg(v.at(k, lane).i);
    });
  }
}

void EvalNotBatch(AluModel& alu, const BatchSrc& v, const BatchDst& out,
                  std::uint32_t mask) {
  alu.CountAlu(LaneCount(mask));
  ForEachLane(mask, [&](int lane) {
    out.at(0, lane).i = v.at(0, lane).i != 0 ? 0 : 1;
  });
}

namespace {

// One converted cell row: dst cell `w` = src cell `i` converted from the
// source's category to the destination's (Value::SetConverted, lane-wise).
void ConvertRow(const BatchSrc& s, int i, const BatchDst& d, int w,
                std::uint32_t mask) {
  const BaseType from = s.scalar();
  const BaseType to = d.scalar();
  const Cell* sr = s.row(i);
  Cell* dr = d.row(w);
  const int sls = s.lane_stride;
  const int dls = d.lane_stride;
  ForEachLane(mask, [&](int lane) {
    const Cell c = sr[lane * sls];
    Cell& o = dr[lane * dls];
    if (from == BaseType::kFloat) {
      switch (to) {
        case BaseType::kFloat: o.f = c.f; break;
        case BaseType::kBool: o.i = c.f != 0.0f ? 1 : 0; break;
        default: o.i = FloatToIntSat(c.f); break;
      }
    } else {
      switch (to) {
        case BaseType::kFloat: o.f = static_cast<float>(c.i); break;
        case BaseType::kBool: o.i = c.i != 0 ? 1 : 0; break;
        default: o.i = c.i; break;
      }
    }
  });
}

}  // namespace

void EvalCtorBatch(AluModel& alu, std::span<const BatchSrc> args,
                   const BatchDst& out, std::uint32_t mask,
                   simd::Level level) {
  const BaseType target = out.type.base;
  const int n = out.count();

  if (out.type.IsArray() || (!IsScalar(target) && !IsVector(target))) {
    // Matrices: each lane replays EvalCtorInto on scratch Values, which
    // start zeroed like the VM's fresh-value kCtor.
    std::array<Value, 16> scratch;
    std::array<const Value*, 16> ptrs;
    for (std::size_t i = 0; i < args.size(); ++i) {
      scratch[i] = Value(args[i].type);
      ptrs[i] = &scratch[i];
    }
    Value o(out.type);
    const std::span<const Value* const> argv(ptrs.data(), args.size());
    ForEachLane(mask, [&](int lane) {
      for (std::size_t i = 0; i < args.size(); ++i) {
        GatherLane(args[i], lane, scratch[i]);
      }
      for (int k = 0; k < n; ++k) o.data()[k].i = 0;
      EvalCtorInto(alu, argv, o);
      ScatterLane(o, out, lane);
    });
    return;
  }

  alu.CountAlu(static_cast<std::uint64_t>(n) * LaneCount(mask));
  if (IsScalar(target)) {
    ConvertRow(args[0], 0, out, 0, mask);
    return;
  }
  const BaseType to = ScalarOf(target);
  // SetConverted between equal categories, and from bool into int, is a
  // plain bit move.
  const auto moves = [to](const BatchSrc& a) {
    return a.scalar() == to ||
           (to == BaseType::kInt && a.scalar() == BaseType::kBool);
  };
  if (args.size() == 1 && args[0].count() == 1) {
    // Splat: every cell from the argument's cell 0.
    if (moves(args[0])) {
      const std::array<std::uint8_t, 4> cell0{};
      WithMoveTier(level, out, [&](const auto& t) {
        MoveRows(t, args[0], out, cell0.data(), n, mask);
      });
    } else {
      for (int w = 0; w < n; ++w) ConvertRow(args[0], 0, out, w, mask);
    }
    return;
  }
  // Gather: argument cells fill the destination in order. A malformed
  // (under-covering) ctor leaves the tail zero.
  int w = 0;
  for (const BatchSrc& a : args) {
    if (w >= n) break;
    const int take = std::min(a.count(), n - w);
    if (moves(a)) {
      WithMoveTier(level, out, [&](const auto& t) {
        MoveRows(t, a,
                 BatchDst{out.row(w), out.type, out.cell_stride,
                          out.lane_stride},
                 nullptr, take, mask);
      });
    } else {
      for (int i = 0; i < take; ++i) ConvertRow(a, i, out, w + i, mask);
    }
    w += take;
  }
  if (w < n) {
    WithMoveTier(level, out,
                 [&](const auto& t) { ZeroRows(t, out, w, n, mask); });
  }
}

void EvalMoveBatch(const BatchSrc& s, const BatchDst& out,
                   const std::uint8_t* comps, int n, std::uint32_t mask,
                   simd::Level level) {
  WithMoveTier(level, out,
               [&](const auto& t) { MoveRows(t, s, out, comps, n, mask); });
}

void EvalZeroBatch(const BatchDst& out, std::uint32_t mask,
                   simd::Level level) {
  WithMoveTier(level, out, [&](const auto& t) {
    ZeroRows(t, out, 0, out.count(), mask);
  });
}

void EvalExtractBatch(const BatchSrc& base, const IndexStep& step,
                      const BatchSrc& index, const BatchDst& out,
                      std::uint32_t mask) {
  ForEachLane(mask, [&](int lane) {
    int i = index.at(0, lane).i;
    if (i < 0) i = 0;
    if (i >= step.limit) i = step.limit - 1;
    for (int k = 0; k < step.elem_cells; ++k) {
      out.at(k, lane) = base.at(i * step.elem_cells + k, lane);
    }
  });
}

void EvalIncDecVarBatch(AluModel& alu, const BatchDst& var, bool increment,
                        bool post, const BatchDst& out, std::uint32_t mask) {
  const float delta = increment ? 1.0f : -1.0f;
  const bool is_float = var.scalar() == BaseType::kFloat;
  const int n = var.count();
  alu.CountAlu(static_cast<std::uint64_t>(n) * LaneCount(mask));
  for (int k = 0; k < n; ++k) {
    ForEachLane(mask, [&](int lane) {
      Cell& v = var.at(k, lane);
      Cell& o = out.at(k, lane);
      if (is_float) {
        const float old = v.f;
        const float updated = alu.RoundResult(old + delta);
        v.f = updated;
        o.f = post ? old : updated;
      } else {
        const std::int32_t old = v.i;
        const std::int32_t updated =
            WrapArith(BinOp::kAdd, old, increment ? 1 : -1);
        v.i = updated;
        o.i = post ? old : updated;
      }
    });
  }
}

}  // namespace mgpu::glsl
