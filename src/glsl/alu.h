// The ALU model abstracts the GPU's arithmetic behaviour. Every float
// operation the interpreter performs is routed through an AluModel, which
// serves two purposes central to this reproduction:
//   1. precision modeling — the VideoCore IV model (vc4::Vc4Alu) implements
//      SFU functions (exp2/log2/recip/rsqrt) with the reduced accuracy of the
//      real special function unit, which is what produces the paper's
//      "accurate within the 15 most significant bits of the mantissa" result;
//   2. operation counting — ALU/SFU/TMU counts feed the timing model that
//      regenerates the paper's speedup table without hardware.
#ifndef MGPU_GLSL_ALU_H_
#define MGPU_GLSL_ALU_H_

#include <bit>
#include <cstdint>
#include <memory>

namespace mgpu::glsl {

struct OpCounts {
  std::uint64_t alu = 0;  // simple float/int ALU operations
  std::uint64_t sfu = 0;  // reciprocal-class SFU ops (recip, rsqrt)
  std::uint64_t sfu_trans = 0;  // transcendental SFU ops (exp2, log2, trig)
  std::uint64_t tmu = 0;  // texture fetches (total)
  std::uint64_t tmu_miss = 0;  // fetches that missed the texture cache

  OpCounts& operator+=(const OpCounts& o) {
    alu += o.alu;
    sfu += o.sfu;
    sfu_trans += o.sfu_trans;
    tmu += o.tmu;
    tmu_miss += o.tmu_miss;
    return *this;
  }
};

// How a model rounds its ALU results to register precision. The first two
// modes are closed forms that run inline (and in the SIMD kernels); only
// kModel pays a virtual Round() per result.
enum class RoundMode : std::uint8_t {
  kIdentity,        // full fp32, denormals kept: results are plain IEEE ops
  kFlushDenormals,  // full fp32 mantissas, denormal results -> signed zero
  kModel,           // anything else (reduced mantissas): virtual Round()
};

// Denormal flush, bit for bit: a zero exponent field keeps only the sign
// bit, so +/-0 stay themselves and every denormal becomes the zero of its
// sign. NaN and inf (all-ones exponent) pass through untouched.
inline float FlushDenormal(float x) {
  const std::uint32_t u = std::bit_cast<std::uint32_t>(x);
  return (u & 0x7f800000u) == 0 ? std::bit_cast<float>(u & 0x80000000u) : x;
}

// The one NaN every rounded float op produces. Which NaN an IEEE op returns
// depends on operand order when two NaNs meet (x86 keeps the first), and a
// compiler may commute a scalar a + b while an intrinsic fixes the order; so
// every rounding step (RoundResult, Round, the plane kernels' vector round)
// maps any NaN to this pattern, and no engine or SIMD tier can disagree on
// a NaN's bits.
inline constexpr std::uint32_t kCanonicalNanBits = 0x7fc00000u;
inline float CanonicalizeNan(float x) {
  return x != x ? std::bit_cast<float>(kCanonicalNanBits) : x;
}

class AluModel {
 public:
  virtual ~AluModel() = default;

  // --- basic float ALU (counted as `alu`) ---
  float Add(float a, float b) {
    Count(1);
    return RoundResult(a + b);
  }
  float Sub(float a, float b) {
    Count(1);
    return RoundResult(a - b);
  }
  float Mul(float a, float b) {
    Count(1);
    return RoundResult(a * b);
  }
  // Division: GPUs implement a/b as a * recip(b); the cost and precision of
  // the reciprocal belong to the SFU.
  float Div(float a, float b) {
    Count(1);
    return RoundResult(a * Recip(b));
  }

  // Rounds an ALU result through the model's round mode: inline for
  // kIdentity and kFlushDenormals, the virtual Round() for kModel. Always
  // equal to Round(x) (subclasses keep the mode consistent with Round()),
  // and every NaN comes out canonical (CanonicalizeNan).
  float RoundResult(float x) {
    switch (round_mode_) {
      case RoundMode::kIdentity:
        return CanonicalizeNan(x);
      case RoundMode::kFlushDenormals:
        return CanonicalizeNan(FlushDenormal(x));
      default:
        return Round(x);
    }
  }

  // --- special functions (counted as `sfu`, precision model hooks) ---
  virtual float Recip(float x);
  virtual float RecipSqrt(float x);
  virtual float Exp2(float x);
  virtual float Log2(float x);
  // Derived functions, implemented on top of the primitives the way mobile
  // shader compilers lower them.
  float Sqrt(float x);
  float Pow(float x, float y);
  float Exp(float x);
  float Log(float x);
  // Trigonometry is lowered to polynomial ALU sequences by mobile compilers;
  // modeled as exact with an SFU-equivalent cost.
  float Sin(float x);
  float Cos(float x);
  float Tan(float x);
  float Asin(float x);
  float Acos(float x);
  float Atan(float x);
  float Atan2(float y, float x);

  // --- counting hooks ---
  void Count(int alu_ops) { counts_.alu += static_cast<std::uint64_t>(alu_ops); }
  // Bulk ALU accounting for batch kernels: one call charges a whole
  // instruction's worth of ops (components x live lanes). Counts are plain
  // order-insensitive sums, so CountAlu(n) is exactly equivalent to n
  // individual Count(1) calls — this is what lets the SIMD kernels skip the
  // per-op Add/Sub/Mul entry points while keeping totals bit-identical to
  // the per-lane scalar sum (asserted by glsl_simd_test).
  void CountAlu(std::uint64_t n) { counts_.alu += n; }
  void CountSfu(int n) { counts_.sfu += static_cast<std::uint64_t>(n); }
  void CountSfuTrans(int n) {
    counts_.sfu_trans += static_cast<std::uint64_t>(n);
  }
  void CountTmu(int n) { counts_.tmu += static_cast<std::uint64_t>(n); }
  void CountTmuMiss(int n) {
    counts_.tmu_miss += static_cast<std::uint64_t>(n);
  }

  [[nodiscard]] const OpCounts& counts() const { return counts_; }
  void ResetCounts() { counts_ = OpCounts{}; }
  // Folds a worker shard's counters into this model (the tiled renderer
  // gives each shading worker a Fork()ed model and sums them at join; the
  // sum over disjoint tiles is order-independent, so totals are identical
  // to a serial run).
  void AddCounts(const OpCounts& c) { counts_ += c; }
  // Restores a snapshot taken via counts(). Used by the bytecode VM to keep
  // its one-time constant-initializer evaluation out of the counters (the
  // tree-walking oracle already charged those ops at construction).
  void SetCounts(const OpCounts& c) { counts_ = c; }

  // Rounds an ALU result to the modeled register precision. The exact model
  // returns x unchanged; VideoCore-class profiles flush denormals and
  // reduced-precision ones (e.g. a mediump-only fragment pipe, paper §IV-E
  // footnote 1) also drop mantissa bits. Every override maps NaN to the
  // canonical NaN, like this identity model does. The hot paths call
  // RoundResult(), which reaches this only under RoundMode::kModel.
  virtual float Round(float x) { return CanonicalizeNan(x); }

  // Creates an independent model with the same precision behaviour and zeroed
  // counters, for use as a per-worker counter shard by the multithreaded
  // fragment pipeline. Returns nullptr when the subclass does not support
  // forking (the draw then falls back to single-threaded shading).
  //
  // Shard reuse contract: the gles2 shade-state cache keeps a Fork()ed
  // shard alive across draws and re-arms it per draw with ResetCounts()
  // instead of re-forking. A subclass that supports Fork() must therefore
  // keep all non-counter state immutable after construction (precision
  // behaviour a pure function of inputs), so that a reset shard is
  // indistinguishable from a fresh fork.
  [[nodiscard]] virtual std::unique_ptr<AluModel> Fork() const {
    return nullptr;
  }

  [[nodiscard]] RoundMode round_mode() const { return round_mode_; }
  // Round() is the identity: float results are plain IEEE fp32 ops.
  [[nodiscard]] bool round_identity() const {
    return round_mode_ == RoundMode::kIdentity;
  }

 protected:
  // Subclasses declare the closed form their Round() has, enabling the
  // inline paths above. Defaults to kModel (conservative for unknown
  // subclasses that override Round()).
  void SetRoundMode(RoundMode mode) { round_mode_ = mode; }

 private:
  OpCounts counts_;
  RoundMode round_mode_ = RoundMode::kModel;
};

// IEEE-exact ALU: reference behaviour, used for the CPU-side verification the
// paper performs ("the same transformations on the CPU are precise", §V).
class ExactAlu final : public AluModel {
 public:
  ExactAlu() { SetRoundMode(RoundMode::kIdentity); }
  [[nodiscard]] std::unique_ptr<AluModel> Fork() const override {
    return std::make_unique<ExactAlu>();
  }
};

}  // namespace mgpu::glsl

#endif  // MGPU_GLSL_ALU_H_
