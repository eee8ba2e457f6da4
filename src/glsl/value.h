// Runtime values for the GLSL engines. A Value is a fixed-size bag of scalar
// cells typed by a glsl::Type; floats live in IEEE binary32 exactly as they
// would in GPU registers, ints/bools/samplers in 32-bit integers. The scalar
// engines hold every variable as a Value; the batched VM keeps only shared
// storage (uniforms, constants) in Values and its per-lane registers in
// lane-major cell planes (evalcore.h), which a LaneSlice addresses one lane
// at a time.
#ifndef MGPU_GLSL_VALUE_H_
#define MGPU_GLSL_VALUE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "glsl/type.h"

namespace mgpu::glsl {

// Maximum width of a fragment/kernel lane batch: RunBatch executes up to
// this many invocations in lockstep through one instruction stream (paper
// §II: a QPU shades 16-pixel groups through one program). Must fit a
// std::uint32_t lane mask. The raster pipeline picks its effective batch
// fill width at runtime (ContextConfig::fragment_batch_width, swept 8/16/32
// in bench_fig1_pipeline); this constant only bounds it and is the cell
// stride of the batched VM's lane-major planes.
inline constexpr int kVmLanes = 32;

union Cell {
  float f;
  std::int32_t i;
};

// GLSL int(float), defined for every input: truncates toward zero,
// saturates to the int32 range, and maps NaN to 0 (a bare static_cast is
// undefined behaviour there, and a tenant uniform can hold 1e10 or NaN).
// Every engine converts through this.
inline std::int32_t FloatToIntSat(float f) {
  if (f != f) return 0;
  if (f >= 2147483648.0f) return 2147483647;
  if (f <= -2147483648.0f) return -2147483647 - 1;
  return static_cast<std::int32_t>(f);
}

class Value {
 public:
  Value() : type_{BaseType::kVoid, kNotArray}, count_(0) {}
  explicit Value(Type t) : type_(t), count_(t.CellCount()) {
    if (count_ > kInline) heap_.resize(static_cast<std::size_t>(count_));
    for (int k = 0; k < count_; ++k) data()[k].i = 0;
  }

  [[nodiscard]] static Value MakeFloat(float f) {
    Value v(MakeType(BaseType::kFloat));
    v.data()[0].f = f;
    return v;
  }
  [[nodiscard]] static Value MakeInt(std::int32_t i) {
    Value v(MakeType(BaseType::kInt));
    v.data()[0].i = i;
    return v;
  }
  [[nodiscard]] static Value MakeBool(bool b) {
    Value v(MakeType(BaseType::kBool));
    v.data()[0].i = b ? 1 : 0;
    return v;
  }
  [[nodiscard]] static Value MakeVec4(float x, float y, float z, float w) {
    Value v(MakeType(BaseType::kVec4));
    v.data()[0].f = x;
    v.data()[1].f = y;
    v.data()[2].f = z;
    v.data()[3].f = w;
    return v;
  }
  [[nodiscard]] static Value MakeVec2(float x, float y) {
    Value v(MakeType(BaseType::kVec2));
    v.data()[0].f = x;
    v.data()[1].f = y;
    return v;
  }

  [[nodiscard]] const Type& type() const { return type_; }
  [[nodiscard]] int count() const { return count_; }

  [[nodiscard]] Cell* data() {
    return count_ > kInline ? heap_.data() : inline_.data();
  }
  [[nodiscard]] const Cell* data() const {
    return count_ > kInline ? heap_.data() : inline_.data();
  }

  [[nodiscard]] float F(int i) const { return data()[i].f; }
  [[nodiscard]] std::int32_t I(int i) const { return data()[i].i; }
  [[nodiscard]] bool B(int i) const { return data()[i].i != 0; }
  void SetF(int i, float f) { data()[i].f = f; }
  void SetI(int i, std::int32_t v) { data()[i].i = v; }
  void SetB(int i, bool b) { data()[i].i = b ? 1 : 0; }

  // Scalar category of the stored components.
  [[nodiscard]] BaseType scalar() const { return ScalarOf(type_.base); }

  // Reads component i converted to float regardless of category (bool->0/1).
  [[nodiscard]] float AsFloat(int i) const {
    return scalar() == BaseType::kFloat ? F(i) : static_cast<float>(I(i));
  }
  // Reads component i converted to int.
  [[nodiscard]] std::int32_t AsInt(int i) const {
    return scalar() == BaseType::kFloat ? FloatToIntSat(F(i)) : I(i);
  }
  // Writes component i from a float, converting to this value's category
  // (bool gets the != 0 semantics of GLSL constructors).
  void SetFromFloat(int i, float f) {
    switch (scalar()) {
      case BaseType::kFloat:
        SetF(i, f);
        break;
      case BaseType::kBool:
        SetB(i, f != 0.0f);
        break;
      default:
        SetI(i, FloatToIntSat(f));
        break;
    }
  }
  // Copies component `src_i` of `src` into component i, converting category.
  void SetConverted(int i, const Value& src, int src_i) {
    if (src.scalar() == BaseType::kFloat) {
      SetFromFloat(i, src.F(src_i));
    } else {
      switch (scalar()) {
        case BaseType::kFloat:
          SetF(i, static_cast<float>(src.I(src_i)));
          break;
        case BaseType::kBool:
          SetB(i, src.I(src_i) != 0);
          break;
        default:
          SetI(i, src.I(src_i));
          break;
      }
    }
  }

  // Inline-cell capacity (largest non-array type: mat4); larger values keep
  // their cells on the heap.
  static constexpr int kInline = 16;

 private:
  Type type_;
  int count_;
  std::array<Cell, kInline> inline_{};
  std::vector<Cell> heap_;
};

// One value's cells at a stride: cell k sits at base[k * stride]. A Value's
// own cells have stride 1; one lane of a batched-VM plane has stride
// kVmLanes (cell k of lane l at plane[k * kVmLanes + l]). References, the
// per-lane replay paths and the gles2 lane plumbing address a single lane
// of a plane through it.
struct LaneSlice {
  Cell* base = nullptr;
  int stride = 1;

  [[nodiscard]] static LaneSlice Of(Value& v) { return {v.data(), 1}; }
  [[nodiscard]] Cell& at(int k) const { return base[k * stride]; }
  [[nodiscard]] float F(int k) const { return at(k).f; }
  [[nodiscard]] std::int32_t I(int k) const { return at(k).i; }
  [[nodiscard]] bool B(int k) const { return at(k).i != 0; }
  void SetF(int k, float f) const { at(k).f = f; }
  void SetI(int k, std::int32_t v) const { at(k).i = v; }
  void SetB(int k, bool b) const { at(k).i = b ? 1 : 0; }
};

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_VALUE_H_
