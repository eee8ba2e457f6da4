// Differential harness for the bytecode VM: every shader in the corpus runs
// through BOTH engines — the tree-walking ShaderExec oracle and the bytecode
// VmExec — and must produce bit-identical outputs and identical AluModel op
// counts. The corpus covers the same ground as the conformance suite
// (expressions, control flow, functions, arrays, swizzled stores) plus
// VM-specific hazards (register clobbering across calls, side effects in
// argument lists, discard inside helpers).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/strings.h"
#include "compute/kernel.h"
#include "compute/ops.h"
#include "gles2/context.h"
#include "glsl/compile.h"
#include "glsl/interp.h"
#include "glsl/ir.h"
#include "glsl/regalloc.h"
#include "glsl/vm.h"
#include "vc4/alu.h"
#include "vc4/profiles.h"

#include "glsl_test_util.h"
#include "gtest/gtest.h"

namespace mgpu::glsl {
namespace {

struct EngineRun {
  bool ok = false;            // compiled and ran
  bool kept = false;          // not discarded
  std::array<std::uint32_t, 4> color{};  // gl_FragColor bit patterns
  OpCounts counts;
};

// Uniform assignments applied before Run(): name -> up to 16 float cells
// (or int for samplers/ints via the int flag).
struct UniformF {
  const char* name;
  std::vector<float> cells;
};
struct UniformI {
  const char* name;
  std::vector<std::int32_t> cells;
};

struct Case {
  const char* label;
  std::string source;
  std::vector<UniformF> funiforms;
  std::vector<UniformI> iuniforms;
  bool with_texture = false;
};

template <typename Engine>
EngineRun RunEngine(Engine& exec, AluModel& alu, const Case& c) {
  EngineRun r;
  for (const UniformF& u : c.funiforms) {
    const int slot = exec.GlobalSlot(u.name);
    if (slot < 0) continue;
    Value& v = exec.GlobalAt(slot);
    for (std::size_t i = 0; i < u.cells.size(); ++i) {
      v.SetF(static_cast<int>(i), u.cells[i]);
    }
  }
  for (const UniformI& u : c.iuniforms) {
    const int slot = exec.GlobalSlot(u.name);
    if (slot < 0) continue;
    Value& v = exec.GlobalAt(slot);
    for (std::size_t i = 0; i < u.cells.size(); ++i) {
      v.SetI(static_cast<int>(i), u.cells[i]);
    }
  }
  if (c.with_texture) {
    exec.SetTextureFn([](int unit, float s, float t, float lod) {
      return std::array<float, 4>{s * 0.5f + static_cast<float>(unit) * 0.125f,
                                  t * 0.25f, s + t, lod + 0.75f};
    });
  }
  alu.ResetCounts();
  r.kept = exec.Run();
  r.counts = alu.counts();
  r.ok = true;
  const int slot = exec.GlobalSlot("gl_FragColor");
  if (slot >= 0) {
    const Value& v = exec.GlobalAt(slot);
    for (int i = 0; i < 4; ++i) r.color[static_cast<std::size_t>(i)] =
        FloatToBits(v.F(i));
  }
  return r;
}

// Runs `c` through both engines on fresh ALUs of identical model and
// asserts bit-identical color and identical op counts.
void ExpectEnginesAgree(const Case& c, bool vc4_alu = false) {
  SCOPED_TRACE(c.label);
  CompileResult cr = CompileGlsl(c.source, Stage::kFragment);
  ASSERT_TRUE(cr.ok) << "compile failed [" << c.label << "]:\n"
                     << cr.info_log << "\nsource:\n" << c.source;

  const vc4::GpuProfile profile = vc4::VideoCoreIV();
  ExactAlu exact_a, exact_b;
  vc4::Vc4Alu vc4_a(profile), vc4_b(profile);
  AluModel& alu_interp = vc4_alu ? static_cast<AluModel&>(vc4_a) : exact_a;
  AluModel& alu_vm = vc4_alu ? static_cast<AluModel&>(vc4_b) : exact_b;

  ShaderExec interp(*cr.shader, alu_interp);
  VmExec vm(LowerToBytecode(*cr.shader), alu_vm);

  const EngineRun a = RunEngine(interp, alu_interp, c);
  const EngineRun b = RunEngine(vm, alu_vm, c);

  EXPECT_EQ(a.kept, b.kept) << "discard disagreement";
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.color[static_cast<std::size_t>(i)],
              b.color[static_cast<std::size_t>(i)])
        << "component " << i << " differs: interp="
        << BitsToFloat(a.color[static_cast<std::size_t>(i)])
        << " vm=" << BitsToFloat(b.color[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(a.counts.alu, b.counts.alu) << "alu op count";
  EXPECT_EQ(a.counts.sfu, b.counts.sfu) << "sfu op count";
  EXPECT_EQ(a.counts.sfu_trans, b.counts.sfu_trans) << "sfu_trans op count";
  EXPECT_EQ(a.counts.tmu, b.counts.tmu) << "tmu op count";
}

std::string Frag(const std::string& body) {
  return "precision highp float;\nvoid main() {\n" + body + "\n}\n";
}

// --- the conformance corpus (mirrors glsl_conformance_test + more) --------

std::vector<Case> ConformanceCorpus() {
  std::vector<Case> cases;
  auto add = [&](const char* label, std::string src) {
    Case c;
    c.label = label;
    c.source = std::move(src);
    cases.push_back(std::move(c));
  };

  add("deeply_nested_expressions", Frag(
      "gl_FragColor = vec4(((((1.0 + 2.0) * (3.0 - 1.0)) / ((2.0))) - "
      "((1.0 + (1.0 * (1.0))))), 0.0, 0.0, 0.0);"));
  add("chained_swizzle", Frag(R"(
vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
gl_FragColor = vec4(v.wzyx.xy.y, v.rgba.ba, 0.0);)"));
  add("matrix_algebra_chain", Frag(R"(
mat3 rot = mat3(0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0);
vec3 v = vec3(1.0, 0.0, 0.0);
vec3 once = rot * v;
vec3 four = rot * rot * rot * rot * v;
gl_FragColor = vec4(once.xy, four.xy);)"));
  add("matrix_scalar_division", Frag(R"(
mat2 m = mat2(2.0, 4.0, 6.0, 8.0);
mat2 half_m = m / 2.0;
mat2 plus = m + mat2(1.0);
gl_FragColor = vec4(half_m[1][1], plus[0][0], plus[0][1], 2.0 * half_m[0][0]);)"));
  add("arrays_of_vectors", Frag(R"(
vec2 pts[3];
pts[0] = vec2(1.0, 2.0);
pts[1] = vec2(3.0, 4.0);
pts[2] = pts[0] + pts[1];
gl_FragColor = vec4(pts[2], pts[1].y, pts[0].x);)"));
  add("dynamic_matrix_trace", Frag(R"(
mat3 m = mat3(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0);
float acc = 0.0;
for (int i = 0; i < 3; ++i) { acc += m[i][i]; }
gl_FragColor = vec4(acc);)"));
  add("function_overloads", R"(
precision highp float;
float total(vec2 v) { return v.x + v.y; }
float total(vec3 v) { return v.x + v.y + v.z; }
float total(float v) { return v; }
void main() {
  gl_FragColor = vec4(total(vec2(1.0, 2.0)), total(vec3(1.0, 2.0, 3.0)),
                      total(7.0), 0.0);
}
)");
  add("helpers_calling_helpers", R"(
precision highp float;
float sq(float x) { return x * x; }
float quart(float x) { return sq(sq(x)); }
float poly(float x) { return quart(x) + sq(x) + x; }
void main() { gl_FragColor = vec4(poly(2.0)); }
)");
  add("const_global_and_macro_array", R"(
#define N 4
precision highp float;
const float kWeights = 0.25;
void main() {
  float acc = 0.0;
  float tbl[N];
  for (int i = 0; i < N; ++i) { tbl[i] = kWeights; }
  for (int i = 0; i < N; ++i) { acc += tbl[i]; }
  gl_FragColor = vec4(acc);
}
)");
  add("integer_division", Frag(R"(
int a = 17; int b = 5;
int q = a / b;
int r = a - q * b;
gl_FragColor = vec4(float(q), float(r), float(-17 / 5), 0.0);)"));
  add("bool_vector_ctor", Frag(R"(
bvec3 b = bvec3(1.0, 0.0, 5.0);
gl_FragColor = vec4(b.x ? 1.0 : 0.0, b.y ? 1.0 : 0.0, b.z ? 1.0 : 0.0, 0.0);)"));
  add("compound_assign_swizzle", Frag(R"(
vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
v.yz *= 10.0;
v.x += v.w;
gl_FragColor = v;)"));
  add("for_comma_step", Frag(R"(
float a = 0.0; float b = 0.0;
for (int i = 0; i < 4; a += 1.0, ++i) { b += 2.0; }
gl_FragColor = vec4(a, b, 0.0, 0.0);)"));
  add("numeric_edge_infinity", Frag(R"(
float inf = 1.0 / 0.0;
float ninf = -1.0 / 0.0;
gl_FragColor = vec4(inf > 1e30 ? 1.0 : 0.0, ninf < -1e30 ? 1.0 : 0.0,
                    clamp(inf, 0.0, 2.0), 0.0);)"));

  // --- control-flow corners ----------------------------------------------
  add("while_break_continue", Frag(R"(
float acc = 0.0;
int i = 0;
while (i < 10) {
  ++i;
  if (i == 3) { continue; }
  if (i == 8) { break; }
  acc += float(i);
}
gl_FragColor = vec4(acc);)"));
  add("do_while_continue", Frag(R"(
float acc = 0.0;
int i = 0;
do {
  i += 2;
  if (i == 4) { continue; }
  acc += float(i);
} while (i < 9);
gl_FragColor = vec4(acc, float(i), 0.0, 0.0);)"));
  add("nested_loops_break", Frag(R"(
float acc = 0.0;
for (int i = 0; i < 4; ++i) {
  for (int j = 0; j < 4; ++j) {
    if (j > i) { break; }
    acc += 1.0;
  }
}
gl_FragColor = vec4(acc);)"));
  add("return_from_loop_in_main", Frag(R"(
gl_FragColor = vec4(0.0);
for (int i = 0; i < 10; ++i) {
  if (i == 3) { gl_FragColor = vec4(float(i)); return; }
}
gl_FragColor = vec4(99.0);)"));
  add("ternary_short_circuit", Frag(R"(
float x = 2.0;
float y = x > 1.0 ? (x += 10.0, x) : (x += 100.0, x);
gl_FragColor = vec4(x, y, 0.0, 0.0);)"));
  add("logical_short_circuit_effects", Frag(R"(
float a = 0.0;
bool t1 = (a += 1.0) > 0.0 || (a += 10.0) > 0.0;   // rhs skipped
bool t2 = (a += 1.0) < 0.0 && (a += 100.0) > 0.0;  // rhs skipped
bool t3 = (a += 1.0) > 0.0 ^^ (a += 1000.0) > 0.0; // both evaluated
gl_FragColor = vec4(a, t1 ? 1.0 : 0.0, t2 ? 1.0 : 0.0, t3 ? 1.0 : 0.0);)"));

  // --- functions: parameters, clobbering hazards -------------------------
  add("out_inout_params", R"(
precision highp float;
void split(in float v, out float lo, inout float acc) {
  lo = v - 1.0;
  acc += v;
}
void main() {
  float lo = 99.0;
  float acc = 0.5;
  split(4.0, lo, acc);
  gl_FragColor = vec4(lo, acc, 0.0, 0.0);
}
)");
  add("out_param_into_swizzle", R"(
precision highp float;
void pick(out vec2 dst) { dst = vec2(7.0, 8.0); }
void main() {
  vec4 v = vec4(0.0);
  pick(v.yw);
  gl_FragColor = v;
}
)");
  add("nested_call_same_function", R"(
precision highp float;
float sq(float x) { return x * x; }
void main() {
  gl_FragColor = vec4(sq(sq(2.0)), sq(1.0) + sq(3.0), 0.0, 0.0);
}
)");
  add("call_in_arg_clobbers", R"(
precision highp float;
float g_state = 1.0;
float bump(float v) { g_state += v; return g_state; }
void main() {
  // Both arguments call bump(); evaluation is left to right.
  gl_FragColor = vec4(bump(1.0) + bump(10.0), g_state, 0.0, 0.0);
}
)");
  add("function_falls_off_end", R"(
precision highp float;
float maybe(float x) { if (x > 0.0) { return x * 2.0; } }
void main() { gl_FragColor = vec4(maybe(3.0), maybe(-3.0), 0.0, 0.0); }
)");
  add("discard_inside_helper_is_early_return", R"(
precision highp float;
float risky(float x) { if (x > 0.0) { discard; } return 5.0; }
void main() {
  float r = risky(1.0);   // discard inside a helper returns zero
  gl_FragColor = vec4(r, risky(-1.0), 0.0, 1.0);
}
)");
  add("prototype_then_definition", R"(
precision highp float;
float twice(float x);
void main() { gl_FragColor = vec4(twice(21.0)); }
float twice(float x) { return x * 2.0; }
)");
  add("lvalue_index_mutates_rhs_var", R"(
precision highp float;
float x = 0.0;
float arr[2];
float bump() { x = 5.0; return 0.0; }
void main() {
  x = 1.0;
  arr[1] = 9.0;
  // The RHS (x == 1.0) must be snapshotted before the index call sets x=5.
  arr[int(bump())] = x;
  gl_FragColor = vec4(arr[0], arr[1], x, 0.0);
}
)");
  add("lvalue_index_mutates_rhs_compound", R"(
precision highp float;
float x = 0.0;
float arr[2];
float bump() { x = 100.0; return 1.0; }
void main() {
  x = 3.0;
  arr[0] = 10.0; arr[1] = 20.0;
  arr[int(bump()) - 1] += x;  // snapshot of x (3.0) added to arr[0]
  gl_FragColor = vec4(arr[0], arr[1], x, 0.0);
}
)");

  // --- state: globals with initializers, inc/dec, comma ------------------
  add("plain_global_reinit", R"(
precision highp float;
float counter = 3.0;
void main() {
  counter += 1.0;
  gl_FragColor = vec4(counter);
}
)");
  add("incdec_on_array_element", Frag(R"(
float a[3];
a[0] = 5.0; a[1] = 6.0; a[2] = 7.0;
int i = 1;
float pre = ++a[i];
float post = a[i]--;
gl_FragColor = vec4(a[1], pre, post, float(i++));)"));
  add("comma_expression_value", Frag(R"(
float a = 1.0;
float b = (a += 1.0, a * 2.0);
gl_FragColor = vec4(a, b, 0.0, 0.0);)"));
  add("index_clamp_out_of_range", Frag(R"(
vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
int big = 7;
int neg = -2;
gl_FragColor = vec4(v[big], v[neg], 0.0, 0.0);)"));
  add("matrix_from_matrix_ctor", Frag(R"(
mat2 small_m = mat2(1.0, 2.0, 3.0, 4.0);
mat4 big = mat4(small_m);
mat2 back = mat2(big);
gl_FragColor = vec4(big[2][2], big[3][1], back[0][1], back[1][1]);)"));
  add("vec_eq_compare", Frag(R"(
vec3 a = vec3(1.0, 2.0, 4.0);
vec3 b = vec3(1.0, 2.0, 4.0);
vec3 d = vec3(1.0, 2.0, 5.0);
gl_FragColor = vec4(a == b ? 1.0 : 0.0, a == d ? 1.0 : 0.0,
                    a != d ? 1.0 : 0.0, 0.0);)"));

  // --- builtins ----------------------------------------------------------
  add("builtin_sweep_math", Frag(R"(
float x = 0.7;
gl_FragColor = vec4(sin(x) + cos(x), pow(x, 2.3) + exp2(x),
                    inversesqrt(x + 1.0) + fract(x * 10.0),
                    mod(7.3, 2.0) + sign(-x));)"));
  add("builtin_sweep_geometry", Frag(R"(
vec3 a = vec3(1.0, 2.0, 2.0);
vec3 b = vec3(0.0, 1.0, 0.0);
gl_FragColor = vec4(length(a), dot(a, b), distance(a, b),
                    normalize(a).y + cross(a, b).z);)"));
  add("builtin_sweep_relational", Frag(R"(
vec3 a = vec3(1.0, 5.0, 3.0);
vec3 b = vec3(2.0, 4.0, 3.0);
bvec3 lt = lessThan(a, b);
bvec3 ge = greaterThanEqual(a, b);
gl_FragColor = vec4(any(lt) ? 1.0 : 0.0, all(ge) ? 1.0 : 0.0,
                    not(lt).y ? 1.0 : 0.0, equal(a, b).z ? 1.0 : 0.0);)"));
  add("builtin_mix_step_smoothstep", Frag(R"(
gl_FragColor = vec4(mix(1.0, 5.0, 0.25), step(2.0, vec2(1.0, 3.0)).y,
                    smoothstep(0.0, 4.0, 1.0), clamp(vec3(-1.0, 0.5, 2.0),
                    0.0, 1.0).z);)"));

  return cases;
}

TEST(VmDifferentialTest, ConformanceCorpusExactAlu) {
  for (const Case& c : ConformanceCorpus()) {
    ExpectEnginesAgree(c, /*vc4_alu=*/false);
  }
}

TEST(VmDifferentialTest, ConformanceCorpusVc4Alu) {
  // The reduced-precision VideoCore ALU model exercises Round()/SFU error
  // paths; engines must still agree bit for bit.
  for (const Case& c : ConformanceCorpus()) {
    ExpectEnginesAgree(c, /*vc4_alu=*/true);
  }
}

TEST(VmDifferentialTest, UniformsAndSamplers) {
  Case c;
  c.label = "uniforms_and_samplers";
  c.source = R"(
precision highp float;
uniform float u_scale;
uniform vec2 u_offset;
uniform float u_lut[8];
uniform sampler2D u_tex;
void main() {
  float acc = 0.0;
  for (int i = 0; i < 8; ++i) { acc += u_lut[i]; }
  vec4 t = texture2D(u_tex, u_offset);
  gl_FragColor = vec4(u_scale * acc, t.xy + u_offset, t.w);
}
)";
  c.funiforms = {{"u_scale", {0.5f}},
                 {"u_offset", {0.25f, 0.75f}},
                 {"u_lut", {1, 2, 3, 4, 5, 6, 7, 8}}};
  c.iuniforms = {{"u_tex", {3}}};
  c.with_texture = true;
  ExpectEnginesAgree(c);
  ExpectEnginesAgree(c, /*vc4_alu=*/true);
}

TEST(VmDifferentialTest, DiscardAgreement) {
  for (const float kill : {0.0f, 1.0f}) {
    Case c;
    c.label = kill > 0.5f ? "discard_taken" : "discard_not_taken";
    c.source = R"(
precision highp float;
uniform float u_kill;
void main() {
  if (u_kill > 0.5) discard;
  gl_FragColor = vec4(1.0);
}
)";
    c.funiforms = {{"u_kill", {kill}}};
    ExpectEnginesAgree(c);
  }
}

// --- targeted VM behaviour ------------------------------------------------

// Builds a helper-call chain main -> f1 -> ... -> fN returning N.
std::string DeepCallChain(int depth) {
  std::string src = "precision highp float;\n";
  src += StrFormat("float f%d() { return %d.0; }\n", depth, depth);
  for (int i = depth - 1; i >= 1; --i) {
    src += StrFormat("float f%d() { return f%d(); }\n", i, i + 1);
  }
  src += "void main() { gl_FragColor = vec4(f1()); }\n";
  return src;
}

TEST(VmDifferentialTest, CallDepthLimitMatchesInterpreter) {
  // 64 concurrently active user calls are allowed; 65 throw. Both engines
  // must sit on the same boundary.
  {
    auto shader = testutil::MustCompile(DeepCallChain(64));
    ExactAlu alu_a, alu_b;
    ShaderExec interp(*shader, alu_a);
    VmExec vm(LowerToBytecode(*shader), alu_b);
    ASSERT_TRUE(interp.Run());
    ASSERT_TRUE(vm.Run());
    EXPECT_EQ(interp.GlobalAt(interp.GlobalSlot("gl_FragColor")).F(0),
              vm.GlobalAt(vm.GlobalSlot("gl_FragColor")).F(0));
  }
  {
    auto shader = testutil::MustCompile(DeepCallChain(65));
    ExactAlu alu_a, alu_b;
    ShaderExec interp(*shader, alu_a);
    VmExec vm(LowerToBytecode(*shader), alu_b);
    EXPECT_THROW(interp.Run(), ShaderRuntimeError);
    EXPECT_THROW(vm.Run(), ShaderRuntimeError);
  }
}

// Integer negation wraps: -INT_MIN is INT_MIN on every engine (the tree
// walker, the scalar VM and the batched VM) instead of overflowing a signed
// int.
TEST(VmDifferentialTest, IntMinNegationWrapsOnEveryEngine) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  auto shader = testutil::MustCompile(R"(
precision highp float;
uniform int u_i;
uniform ivec2 u_v;
void main() {
  int n = -u_i;
  ivec2 m = -u_v;
  gl_FragColor = vec4(float(n), float(m.x), float(m.y), 0.0);
}
)");
  const std::array<float, 4> want = {-2147483648.0f, -2147483648.0f, -7.0f,
                                     0.0f};
  const auto set_uniforms = [&](auto& exec) {
    exec.GlobalAt(exec.GlobalSlot("u_i")).SetI(0, kMin);
    Value& v = exec.GlobalAt(exec.GlobalSlot("u_v"));
    v.SetI(0, kMin);
    v.SetI(1, 7);
  };
  const auto expect_color = [&](const auto& c, const char* engine) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(FloatToBits(c.F(k)),
                FloatToBits(want[static_cast<std::size_t>(k)]))
          << engine << " component " << k;
    }
  };

  ExactAlu alu_tree, alu_vm, alu_batch;
  ShaderExec tree(*shader, alu_tree);
  set_uniforms(tree);
  ASSERT_TRUE(tree.Run());
  expect_color(tree.GlobalAt(tree.GlobalSlot("gl_FragColor")), "tree");

  const std::shared_ptr<const VmProgram> prog = LowerToBytecode(*shader);
  VmExec vm(prog, alu_vm);
  set_uniforms(vm);
  ASSERT_TRUE(vm.Run());
  expect_color(vm.GlobalAt(vm.GlobalSlot("gl_FragColor")), "scalar vm");

  VmExec batch(prog, alu_batch);
  set_uniforms(batch);
  const int color = batch.GlobalSlot("gl_FragColor");
  ASSERT_EQ(batch.RunBatch(kVmLanes), ~0u);
  for (int l = 0; l < kVmLanes; ++l) {
    expect_color(batch.LaneGlobalAt(color, l), "batched vm");
  }
}

// Integer +, -, *, / and ++/-- wrap modulo 2^32 on every engine, with
// INT_MIN / -1 == INT_MIN: operands a tenant sets through uniforms must
// never overflow a signed int or raise SIGFPE. Covers scalar and vector
// arithmetic, whole-variable ++/-- (kIncDecVar) and ++/-- through a
// swizzled l-value (kIncDec). Each output component sums four checks.
TEST(VmDifferentialTest, IntArithmeticWrapsOnEveryEngine) {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  auto shader = testutil::MustCompile(R"(
precision highp float;
uniform int u_max;
uniform int u_min;
uniform int u_m1;
uniform ivec2 u_v;
float bit(bool b, float w) { return b ? w : 0.0; }
void main() {
  int add = u_max + 1;
  int sub = u_min - 1;
  int mul = u_max * 2;
  int div = u_min / u_m1;
  int inc = u_max;
  inc++;
  int dec = u_min;
  --dec;
  ivec2 v = u_v;
  v.x++;
  v.y--;
  ivec2 w = u_v + ivec2(1);
  ivec2 q = u_v / ivec2(u_m1);
  gl_FragColor = vec4(
      bit(add == u_min, 1.0) + bit(sub == u_max, 2.0) +
          bit(mul == -2, 4.0) + bit(div == u_min, 8.0),
      bit(inc == u_min, 1.0) + bit(dec == u_max, 2.0) +
          bit(v.x == u_min, 4.0) + bit(v.y == u_max, 8.0),
      bit(w.x == u_min, 1.0) + bit(w.y == u_min + 1, 2.0) +
          bit(q.x == -u_max, 4.0) + bit(q.y == u_min, 8.0),
      float(div / 65536));
}
)");
  const std::array<float, 4> want = {15.0f, 15.0f, 15.0f, -32768.0f};
  const auto set_uniforms = [&](auto& exec) {
    exec.GlobalAt(exec.GlobalSlot("u_max")).SetI(0, kMax);
    exec.GlobalAt(exec.GlobalSlot("u_min")).SetI(0, kMin);
    exec.GlobalAt(exec.GlobalSlot("u_m1")).SetI(0, -1);
    Value& v = exec.GlobalAt(exec.GlobalSlot("u_v"));
    v.SetI(0, kMax);
    v.SetI(1, kMin);
  };
  const auto expect_color = [&](const auto& c, const char* engine) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(FloatToBits(c.F(k)),
                FloatToBits(want[static_cast<std::size_t>(k)]))
          << engine << " component " << k << " = " << c.F(k);
    }
  };

  ExactAlu alu_tree, alu_vm, alu_batch;
  ShaderExec tree(*shader, alu_tree);
  set_uniforms(tree);
  ASSERT_TRUE(tree.Run());
  expect_color(tree.GlobalAt(tree.GlobalSlot("gl_FragColor")), "tree");

  const std::shared_ptr<const VmProgram> prog = LowerToBytecode(*shader);
  VmExec vm(prog, alu_vm);
  set_uniforms(vm);
  ASSERT_TRUE(vm.Run());
  expect_color(vm.GlobalAt(vm.GlobalSlot("gl_FragColor")), "scalar vm");

  VmExec batch(prog, alu_batch);
  set_uniforms(batch);
  const int color = batch.GlobalSlot("gl_FragColor");
  ASSERT_EQ(batch.RunBatch(kVmLanes), ~0u);
  for (int l = 0; l < kVmLanes; ++l) {
    expect_color(batch.LaneGlobalAt(color, l), "batched vm");
  }
}

TEST(VmExecTest, RunawayLoopRaisesRuntimeError) {
  auto shader = testutil::MustCompile(
      "precision highp float;\nvoid main() { float a = 0.0; while (true) { a "
      "+= 1.0; } gl_FragColor = vec4(a); }");
  ExactAlu alu;
  VmExec vm(LowerToBytecode(*shader), alu);
  EXPECT_THROW(vm.Run(), ShaderRuntimeError);
}

TEST(VmExecTest, UndefinedPrototypeTrapsOnlyWhenCalled) {
  auto shader = testutil::MustCompile(R"(
precision highp float;
float ghost(float x);
uniform float u_sel;
void main() {
  if (u_sel > 0.5) { gl_FragColor = vec4(ghost(1.0)); }
  else { gl_FragColor = vec4(2.0); }
}
)");
  ExactAlu alu;
  VmExec vm(LowerToBytecode(*shader), alu);
  vm.GlobalAt(vm.GlobalSlot("u_sel")).SetF(0, 0.0f);
  EXPECT_TRUE(vm.Run());
  EXPECT_FLOAT_EQ(vm.GlobalAt(vm.GlobalSlot("gl_FragColor")).F(0), 2.0f);
  vm.GlobalAt(vm.GlobalSlot("u_sel")).SetF(0, 1.0f);
  EXPECT_THROW(vm.Run(), ShaderRuntimeError);
}

// The static cost bound behind the draw loop's row-band gate: a
// constant-trip `for` loop counts its body once per iteration (literal,
// negated and macro bounds, either direction, += and != steps, a `break`
// leaving the header's count as the bound), while a loop whose header does
// not fix the count (a uniform bound) counts one iteration.
TEST(VmExecTest, StaticCostMultipliesConstantTripLoops) {
  const auto cost = [](const std::string& header, const std::string& body) {
    auto shader = testutil::MustCompile(
        "precision highp float;\n#define N 32\nuniform int u_n;\n"
        "varying vec2 v;\nvoid main() { float a = 0.0; for (" +
        header + ") { " + body + " } gl_FragColor = vec4(a); }");
    return LowerToBytecode(*shader)->static_cost;
  };
  struct Case {
    const char* header;  // the loop under test
    std::uint64_t trips;
    const char* one;  // same shape, 1 trip
    const char* two;  // same shape, 2 trips
    const char* body;
  };
  const Case cases[] = {
      {"int i = 0; i < N; ++i", 32, "int i = 0; i < 1; ++i",
       "int i = 0; i < 2; ++i", "a += v.x;"},
      {"int i = 11; i >= 0; i--", 12, "int i = 0; i >= 0; i--",
       "int i = 1; i >= 0; i--", "a += v.x;"},
      {"int i = -12; i != 0; i++", 12, "int i = -1; i != 0; i++",
       "int i = -2; i != 0; i++", "a += v.x;"},
      {"int i = 0; i <= 30; i += 3", 11, "int i = 0; i <= 0; i += 3",
       "int i = 0; i <= 3; i += 3", "a += v.x;"},
      {"int i = 0; i < N; ++i", 32, "int i = 0; i < 1; ++i",
       "int i = 0; i < 2; ++i", "a += v.x; if (a > 1.0) break;"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.header);
    const std::uint64_t once = cost(c.one, c.body);
    const std::uint64_t per_iter = cost(c.two, c.body) - once;
    ASSERT_GT(per_iter, 0u);
    EXPECT_EQ(cost(c.header, c.body), once + (c.trips - 1) * per_iter);
  }
  // A bound the header does not fix counts one iteration.
  EXPECT_EQ(cost("int i = 0; i < u_n; ++i", "a += v.x;"),
            cost("int i = 0; i < 1; ++i", "a += v.x;"));
}

TEST(VmExecTest, RunIsRepeatableAfterStateChange) {
  auto shader = testutil::MustCompile(
      "precision highp float;\nuniform float u_x;\nvoid main() { "
      "gl_FragColor = vec4(u_x * u_x); }");
  ExactAlu alu;
  VmExec vm(LowerToBytecode(*shader), alu);
  for (float x : {1.0f, 2.0f, 3.0f, 4.0f}) {
    vm.GlobalAt(vm.GlobalSlot("u_x")).SetF(0, x);
    ASSERT_TRUE(vm.Run());
    EXPECT_FLOAT_EQ(vm.GlobalAt(vm.GlobalSlot("gl_FragColor")).F(0), x * x);
  }
}

TEST(VmExecTest, VertexStageWritesPosition) {
  auto shader = testutil::MustCompile(
      "attribute vec4 a_pos;\nvoid main() { gl_Position = a_pos * 2.0; }",
      Stage::kVertex);
  ExactAlu alu;
  VmExec vm(LowerToBytecode(*shader), alu);
  Value& attr = vm.GlobalAt(vm.GlobalSlot("a_pos"));
  attr.SetF(0, 0.5f);
  attr.SetF(1, -0.5f);
  attr.SetF(2, 0.0f);
  attr.SetF(3, 1.0f);
  ASSERT_TRUE(vm.Run());
  const Value& pos = vm.GlobalAt(vm.GlobalSlot("gl_Position"));
  EXPECT_FLOAT_EQ(pos.F(0), 1.0f);
  EXPECT_FLOAT_EQ(pos.F(1), -1.0f);
}

TEST(VmExecTest, ConstructionDoesNotChargeAluCounters) {
  auto shader = testutil::MustCompile(R"(
precision highp float;
const float kA = 1.0 + 2.0;
float plain = kA * 3.0;
void main() { gl_FragColor = vec4(plain); }
)");
  ExactAlu alu;
  const OpCounts before = alu.counts();
  VmExec vm(LowerToBytecode(*shader), alu);
  EXPECT_EQ(alu.counts().alu, before.alu);
  // And the per-run re-initialization of `plain` IS charged, matching the
  // oracle's Run().
  ExactAlu oracle_alu;
  ShaderExec oracle(*shader, oracle_alu);
  oracle_alu.ResetCounts();
  ASSERT_TRUE(oracle.Run());
  alu.ResetCounts();
  ASSERT_TRUE(vm.Run());
  EXPECT_EQ(alu.counts().alu, oracle_alu.counts().alu);
}

// --- full gles2 draw path: the ExecEngine switch ---------------------------

TEST(VmGles2Test, DrawsAreByteIdenticalAcrossEngines) {
  using namespace mgpu::gles2;
  const vc4::GpuProfile profile = vc4::VideoCoreIV();
  vc4::Vc4Alu alu(profile);
  ContextConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  Context gl(cfg, &alu);

  const char* vs_src =
      "attribute vec2 a_pos;\n"
      "varying vec2 v_uv;\n"
      "void main() { v_uv = a_pos * 0.5 + 0.5; gl_Position = vec4(a_pos, "
      "0.0, 1.0); }\n";
  const char* fs_src =
      "precision highp float;\n"
      "varying vec2 v_uv;\n"
      "uniform float u_gain;\n"
      "void main() {\n"
      "  float w = fract(v_uv.x * 7.0 + sin(v_uv.y * 13.0));\n"
      "  gl_FragColor = vec4(w * u_gain, v_uv, 1.0);\n"
      "}\n";
  const GLuint vs = gl.CreateShader(GL_VERTEX_SHADER);
  gl.ShaderSource(vs, vs_src);
  gl.CompileShader(vs);
  const GLuint fs = gl.CreateShader(GL_FRAGMENT_SHADER);
  gl.ShaderSource(fs, fs_src);
  gl.CompileShader(fs);
  const GLuint prog = gl.CreateProgram();
  gl.AttachShader(prog, vs);
  gl.AttachShader(prog, fs);
  gl.LinkProgram(prog);
  GLint ok = GL_FALSE;
  gl.GetProgramiv(prog, GL_LINK_STATUS, &ok);
  ASSERT_EQ(ok, GL_TRUE) << gl.GetProgramInfoLog(prog);
  gl.UseProgram(prog);
  gl.Uniform1f(gl.GetUniformLocation(prog, "u_gain"), 0.8f);

  const float quad[12] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};
  const GLuint loc = static_cast<GLuint>(gl.GetAttribLocation(prog, "a_pos"));
  gl.EnableVertexAttribArray(loc);
  gl.VertexAttribPointer(loc, 2, GL_FLOAT, GL_FALSE, 0, quad);

  auto draw_and_read = [&](ExecEngine engine, glsl::OpCounts* counts) {
    gl.SetExecEngine(engine);
    gl.ClearColor(0, 0, 0, 0);
    gl.Clear(GL_COLOR_BUFFER_BIT);
    // The test samples the external ALU model directly, bypassing the
    // context's syncing accessors, so it must drain the async command
    // stream itself on either side of the draw.
    gl.Finish();
    alu.ResetCounts();
    gl.DrawArrays(GL_TRIANGLES, 0, 6);
    gl.Finish();
    *counts = alu.counts();
    std::vector<std::uint8_t> px(32 * 32 * 4);
    gl.ReadPixels(0, 0, 32, 32, GL_RGBA, GL_UNSIGNED_BYTE, px.data());
    EXPECT_EQ(gl.GetError(), static_cast<GLenum>(GL_NO_ERROR));
    return px;
  };

  glsl::OpCounts vm_counts, tree_counts;
  const auto vm_px = draw_and_read(ExecEngine::kBytecodeVm, &vm_counts);
  const auto tree_px = draw_and_read(ExecEngine::kTreeWalk, &tree_counts);
  EXPECT_EQ(vm_px, tree_px);
  EXPECT_EQ(vm_counts.alu, tree_counts.alu);
  EXPECT_EQ(vm_counts.sfu, tree_counts.sfu);
  EXPECT_EQ(vm_counts.sfu_trans, tree_counts.sfu_trans);
  EXPECT_EQ(vm_counts.tmu, tree_counts.tmu);
  EXPECT_EQ(vm_counts.tmu_miss, tree_counts.tmu_miss);
  EXPECT_GT(vm_counts.alu, 0u);
}

// ---------------------------------------------------------------------------
// Lane-batched execution: RunBatch vs per-lane scalar Run
// ---------------------------------------------------------------------------
//
// Every shader below reads the varying `v_in`, so lanes carry distinct data;
// the divergent cases branch/loop/discard/call on it. For each batch size n
// in [1, kVmLanes] the batched engine must reproduce the scalar engine's
// per-lane gl_FragColor bits, per-lane discard decisions, and the summed
// ALU/SFU/TMU counts exactly.

struct BatchCase {
  const char* label;
  std::string source;
  bool expect_uniform_flow = false;  // analysis sanity check
  bool with_texture = false;
};

std::vector<BatchCase> BatchCorpus() {
  std::vector<BatchCase> cases;
  cases.push_back(
      {"straight_line_math",
       R"(precision highp float;
varying vec4 v_in;
uniform vec4 u_bias;
void main() {
  vec4 a = v_in * 2.0 + u_bias;
  float s = sin(a.x) + cos(a.y) * sqrt(abs(a.z) + 1.0);
  gl_FragColor = vec4(fract(s), a.y * 0.25, pow(abs(a.w) + 0.5, 1.3), 1.0);
})",
       /*expect_uniform_flow=*/true});
  cases.push_back(
      {"uniform_branch_and_loop",
       R"(precision highp float;
varying vec4 v_in;
uniform float u_mode;
void main() {
  float acc = v_in.x;
  // Branch + trip count depend only on the uniform: still lockstep.
  if (u_mode > 0.5) { acc += 3.0; } else { acc -= 1.0; }
  for (int i = 0; i < 5; ++i) acc += v_in.y * float(i);
  gl_FragColor = vec4(acc, v_in.z, 0.0, 1.0);
})",
       /*expect_uniform_flow=*/true});
  cases.push_back(
      {"divergent_if_else",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  vec4 c;
  if (v_in.x > 0.5) {
    c = vec4(v_in.x * 2.0, sin(v_in.y), 0.25, 1.0);
  } else {
    c = vec4(cos(v_in.x), v_in.y * -3.0, 0.75, 1.0);
  }
  gl_FragColor = c;
})"});
  cases.push_back(
      {"divergent_loop_trip_counts",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  float acc = 0.0;
  // Per-lane trip count: lanes leave the loop at different iterations.
  int n = int(mod(v_in.x * 16.0, 7.0));
  for (int i = 0; i < 16; ++i) {
    if (i >= n) break;
    acc += sqrt(float(i) + v_in.y);
  }
  gl_FragColor = vec4(acc * 0.125, float(n) * 0.1, v_in.z, 1.0);
})"});
  cases.push_back(
      {"divergent_nested_with_calls",
       R"(precision highp float;
varying vec4 v_in;
float helper(float x, out float extra) {
  extra = x * 0.5;
  if (x > 0.25) return sin(x);
  return cos(x) + 1.0;
}
void main() {
  float e = 0.0;
  float r;
  if (v_in.x > 0.3) {
    if (v_in.y > 0.6) { r = helper(v_in.x, e); }
    else { r = helper(v_in.y, e) * 2.0; }
  } else {
    r = helper(v_in.x + v_in.y, e) - 0.5;
  }
  gl_FragColor = vec4(r, e, v_in.w, 1.0);
})"});
  cases.push_back(
      {"divergent_discard",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  if (fract(v_in.x * 5.0) < 0.4) discard;
  gl_FragColor = vec4(v_in.xy, fract(v_in.z * 3.0), 1.0);
})"});
  cases.push_back(
      {"lockstep_dynamic_index_stores",
       // Lane-varying *indices* are data, not control: the loop bounds are
       // uniform and there is no varying branch, so this runs fully
       // lockstep while every lane writes a different array element
       // through a per-lane ref.
       R"(precision highp float;
varying vec4 v_in;
void main() {
  float tbl[4];
  for (int i = 0; i < 4; ++i) tbl[i] = 0.125 * float(i);
  int j = int(mod(v_in.x * 11.0, 4.0));
  tbl[j] += v_in.y;           // lane-varying write index through a ref
  vec4 v = vec4(0.1, 0.2, 0.3, 0.4);
  v[int(mod(v_in.z * 7.0, 4.0))] = v_in.w;
  gl_FragColor = vec4(tbl[j], tbl[3 - j], v.x + v.w, 1.0);
})",
       /*expect_uniform_flow=*/true});
  cases.push_back(
      {"texture_in_divergent_branch",
       R"(precision highp float;
varying vec4 v_in;
uniform sampler2D u_tex;
void main() {
  vec4 t = vec4(0.5);
  if (v_in.x > 0.45) t = texture2D(u_tex, v_in.xy);
  gl_FragColor = t + texture2D(u_tex, v_in.zw) * 0.25;
})",
       /*expect_uniform_flow=*/false, /*with_texture=*/true});
  cases.push_back(
      {"divergent_early_return_and_ternary",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  float pick = v_in.x > 0.5 ? sin(v_in.y) : cos(v_in.y);
  bool both = v_in.x > 0.2 && v_in.y > 0.2;
  if (v_in.z > 0.7) {
    gl_FragColor = vec4(pick, both ? 1.0 : 0.0, 0.0, 1.0);
    return;
  }
  gl_FragColor = vec4(pick * 0.5, 0.25, both ? 0.5 : 0.125, 1.0);
})"});
  // --- vector ops inside divergent flow: the masked executor must invoke
  // the plane kernels with partial lane masks, not just full batches ------
  cases.push_back(
      {"normalize_in_varying_trip_loop",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  vec3 acc = vec3(0.0);
  int n = int(mod(v_in.x * 16.0, 6.0)) + 1;
  for (int i = 0; i < 8; ++i) {
    if (i >= n) break;
    // Whole-vector work under a lane-varying trip count: normalize/dot/
    // cross run with a different active mask each iteration.
    vec3 v = normalize(vec3(v_in.y + float(i), v_in.z, 0.25));
    acc += cross(v, vec3(0.0, 1.0, v_in.w)) * (1.0 / float(n));
  }
  gl_FragColor = vec4(acc, 1.0);
})"});
  cases.push_back(
      {"dot_after_divergent_discard",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  // Some lanes discard; survivors keep doing vector work under a reduced
  // mask, so the plane kernels see a hole-punched lane set.
  if (fract(v_in.x * 7.0) < 0.35) discard;
  vec3 a = vec3(v_in.xy, 1.5);
  vec3 b = normalize(vec3(0.5, v_in.z, v_in.w + 0.1));
  float d = dot(a, b);
  vec4 c = mix(vec4(a, 1.0), vec4(b, 1.0), clamp(d, 0.0, 1.0));
  gl_FragColor = c * c;
})"});
  cases.push_back(
      {"vector_compare_in_divergent_branch",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  vec3 probe = v_in.xyz * 3.0;
  vec4 c;
  if (v_in.w > 0.5) {
    bvec3 lt = lessThan(probe, vec3(1.5));
    c = vec4(any(lt) ? 1.0 : 0.25, all(lt) ? 1.0 : 0.5,
             probe == v_in.xyz ? 1.0 : 0.0, 1.0);
  } else {
    c = vec4(not(greaterThanEqual(probe, vec3(0.75))).y ? 0.75 : 0.125,
             length(probe), pow(abs(probe.x) + 0.5, 2.0), 1.0);
  }
  gl_FragColor = c;
})"});
  cases.push_back(
      {"matrix_algebra_in_divergent_branch",
       R"(precision highp float;
varying vec4 v_in;
void main() {
  // mat*vec / mat*mat take the per-lane replay path inside the masked
  // executor; mat+mat and mat*scalar take the component-wise plane kernel.
  mat2 m = mat2(v_in.x, 1.0, -0.5, v_in.y + 0.25);
  vec2 r;
  if (v_in.z > 0.4) {
    mat2 mm = m * m + m * 0.5;
    r = mm * v_in.xy;
  } else {
    r = (m + m) * v_in.zw;
  }
  gl_FragColor = vec4(r, v_in.w, 1.0);
})"});
  return cases;
}

float fract_helper(float x) { return x - std::floor(x); }

// Deterministic per-lane varying values in a range that exercises every
// branch side across a 16-lane batch.
std::array<float, 4> LaneInput(int lane) {
  const float f = static_cast<float>(lane);
  return {fract_helper(f * 0.37f + 0.11f), fract_helper(f * 0.53f + 0.29f),
          fract_helper(f * 0.71f + 0.05f), fract_helper(f * 0.13f + 0.61f)};
}

void ExpectBatchMatchesScalar(const BatchCase& c, int lanes, bool vc4_alu) {
  SCOPED_TRACE(std::string(c.label) + " lanes=" + std::to_string(lanes) +
               (vc4_alu ? " vc4" : " exact"));
  CompileResult cr = CompileGlsl(c.source, Stage::kFragment);
  ASSERT_TRUE(cr.ok) << cr.info_log;
  std::shared_ptr<const VmProgram> prog = LowerToBytecode(*cr.shader);
  EXPECT_EQ(prog->uniform_control_flow, c.expect_uniform_flow)
      << "uniform-control-flow analysis disagrees with the corpus label";

  const vc4::GpuProfile profile = vc4::VideoCoreIV();
  ExactAlu exact_s, exact_b;
  vc4::Vc4Alu vc4_s(profile), vc4_b(profile);
  AluModel& alu_s = vc4_alu ? static_cast<AluModel&>(vc4_s) : exact_s;
  AluModel& alu_b = vc4_alu ? static_cast<AluModel&>(vc4_b) : exact_b;
  VmExec scalar(prog, alu_s);
  VmExec batch(prog, alu_b);

  const auto texture = [](int unit, float s, float t, float lod) {
    return std::array<float, 4>{s * 0.5f + static_cast<float>(unit) * 0.125f,
                                t * 0.25f, s + t, lod + 0.75f};
  };
  if (c.with_texture) {
    scalar.SetTextureFn(texture);
    batch.SetTextureFn(texture);
  }
  const int in_slot = scalar.GlobalSlot("v_in");
  ASSERT_GE(in_slot, 0);
  const int bias_slot = scalar.GlobalSlot("u_bias");
  const int mode_slot = scalar.GlobalSlot("u_mode");
  const int color_slot = scalar.GlobalSlot("gl_FragColor");
  ASSERT_GE(color_slot, 0);

  // Uniforms land in the shared store of both engines (before the batch
  // engine builds its per-lane planes, as the gles2 sync path does too).
  for (VmExec* e : {&scalar, &batch}) {
    if (bias_slot >= 0) {
      Value& v = e->GlobalAt(bias_slot);
      v.SetF(0, 0.25f); v.SetF(1, -0.5f); v.SetF(2, 1.5f); v.SetF(3, 0.125f);
    }
    if (mode_slot >= 0) e->GlobalAt(mode_slot).SetF(0, 0.75f);
  }

  // Scalar reference: one Run per lane, fragment-sequential.
  alu_s.ResetCounts();
  std::vector<bool> ref_kept;
  std::vector<std::array<std::uint32_t, 4>> ref_color;
  for (int l = 0; l < lanes; ++l) {
    const std::array<float, 4> in = LaneInput(l);
    Value& v = scalar.GlobalAt(in_slot);
    for (int k = 0; k < 4; ++k) v.SetF(k, in[static_cast<std::size_t>(k)]);
    ref_kept.push_back(scalar.Run());
    const Value& cv = scalar.GlobalAt(color_slot);
    ref_color.push_back({FloatToBits(cv.F(0)), FloatToBits(cv.F(1)),
                         FloatToBits(cv.F(2)), FloatToBits(cv.F(3))});
  }
  const OpCounts want = alu_s.counts();

  // Batched: same lanes in one RunBatch.
  alu_b.ResetCounts();
  for (int l = 0; l < lanes; ++l) {
    const std::array<float, 4> in = LaneInput(l);
    LaneSlice v = batch.LaneGlobalAt(in_slot, l);
    for (int k = 0; k < 4; ++k) v.SetF(k, in[static_cast<std::size_t>(k)]);
  }
  const std::uint32_t kept = batch.RunBatch(lanes);
  const OpCounts got = alu_b.counts();

  for (int l = 0; l < lanes; ++l) {
    const bool lane_kept = ((kept >> static_cast<unsigned>(l)) & 1u) != 0;
    EXPECT_EQ(lane_kept, ref_kept[static_cast<std::size_t>(l)])
        << "lane " << l << " discard disagreement";
    if (!lane_kept) continue;
    const LaneSlice cv = batch.LaneGlobalAt(color_slot, l);
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(FloatToBits(cv.F(k)),
                ref_color[static_cast<std::size_t>(l)]
                         [static_cast<std::size_t>(k)])
          << "lane " << l << " component " << k;
    }
  }
  EXPECT_EQ(got.alu, want.alu) << "alu count";
  EXPECT_EQ(got.sfu, want.sfu) << "sfu count";
  EXPECT_EQ(got.sfu_trans, want.sfu_trans) << "sfu_trans count";
  EXPECT_EQ(got.tmu, want.tmu) << "tmu count";
}

TEST(VmBatchDifferentialTest, AllTailSizesMatchScalarExactAlu) {
  for (const BatchCase& c : BatchCorpus()) {
    for (int lanes = 1; lanes <= kVmLanes; ++lanes) {
      ExpectBatchMatchesScalar(c, lanes, /*vc4_alu=*/false);
    }
  }
}

TEST(VmBatchDifferentialTest, AllTailSizesMatchScalarVc4Alu) {
  for (const BatchCase& c : BatchCorpus()) {
    for (int lanes = 1; lanes <= kVmLanes; ++lanes) {
      ExpectBatchMatchesScalar(c, lanes, /*vc4_alu=*/true);
    }
  }
}

TEST(VmBatchDifferentialTest, RepeatedBatchesReuseStateCorrectly) {
  // Back-to-back batches on one engine (the steady-state draw-loop shape):
  // later batches must not see residue from earlier ones.
  const BatchCase c = BatchCorpus()[3];  // divergent loop trip counts
  for (int round = 0; round < 3; ++round) {
    ExpectBatchMatchesScalar(c, kVmLanes, /*vc4_alu=*/false);
  }
  CompileResult cr = CompileGlsl(c.source, Stage::kFragment);
  ASSERT_TRUE(cr.ok);
  std::shared_ptr<const VmProgram> prog = LowerToBytecode(*cr.shader);
  ExactAlu alu_s, alu_b;
  VmExec scalar(prog, alu_s);
  VmExec batch(prog, alu_b);
  const int in_slot = scalar.GlobalSlot("v_in");
  const int color_slot = scalar.GlobalSlot("gl_FragColor");
  for (int round = 0; round < 4; ++round) {
    const int lanes = 1 + (round * 5) % kVmLanes;  // varying tails per round
    for (int l = 0; l < lanes; ++l) {
      const float base = static_cast<float>(round) * 0.21f;
      Value& sv = scalar.GlobalAt(in_slot);
      LaneSlice bv = batch.LaneGlobalAt(in_slot, l);
      for (int k = 0; k < 4; ++k) {
        const float f =
            fract_helper(base + static_cast<float>(l * 4 + k) * 0.17f);
        bv.SetF(k, f);
      }
      (void)sv;
    }
    const std::uint32_t kept = batch.RunBatch(lanes);
    for (int l = 0; l < lanes; ++l) {
      Value& sv = scalar.GlobalAt(in_slot);
      const LaneSlice bv = batch.LaneGlobalAt(in_slot, l);
      for (int k = 0; k < 4; ++k) sv.SetF(k, bv.F(k));
      const bool ref_kept = scalar.Run();
      EXPECT_EQ(((kept >> static_cast<unsigned>(l)) & 1u) != 0, ref_kept);
      if (!ref_kept) continue;
      const Value& sc = scalar.GlobalAt(color_slot);
      const LaneSlice bc = batch.LaneGlobalAt(color_slot, l);
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(FloatToBits(bc.F(k)), FloatToBits(sc.F(k)))
            << "round " << round << " lane " << l << " comp " << k;
      }
    }
  }
}

// --- register allocation (regalloc.h) -------------------------------------

// Every compute kernel the library ships, plus the kernel of
// examples/mandelbrot.cpp (a loop with an early return).
std::vector<compute::Kernel::Options> ShippedKernels() {
  using compute::ElemType;
  namespace ops = compute::ops;
  std::vector<compute::Kernel::Options> k;
  for (const ElemType t : {ElemType::kF32, ElemType::kI32, ElemType::kU32,
                           ElemType::kU8, ElemType::kI8}) {
    k.push_back(ops::AddKernel(t));
  }
  k.push_back(ops::GemmKernel(ElemType::kF32, 48));
  k.push_back(ops::GemmKernel(ElemType::kI32, 48));
  k.push_back(ops::Conv3x3U8Kernel());
  k.push_back(ops::ReduceSumKernel());
  k.push_back(ops::SaxpyKernel());
  k.push_back({.name = "mandelbrot",
               .inputs = {},
               .output = ElemType::kI32,
               .extra_decls = "#define GP_MAX_ITER 96\n"
                              "uniform vec2 u_center;\n"
                              "uniform vec2 u_scale;",
               .body = R"(
float gp_kernel(vec2 gp_pos) {
  vec2 c = u_center + (gp_pos / gp_out_size - 0.5) * u_scale;
  vec2 z = vec2(0.0);
  for (int i = 0; i < GP_MAX_ITER; ++i) {
    z = vec2(z.x * z.x - z.y * z.y, 2.0 * z.x * z.y) + c;
    if (dot(z, z) > 4.0) { return float(i); }
  }
  return float(GP_MAX_ITER);
}
)"});
  return k;
}

std::shared_ptr<const VmProgram> LowerKernel(
    const compute::Kernel::Options& k) {
  auto shader =
      testutil::MustCompile(compute::Kernel::FragmentSource(k));
  return shader != nullptr ? LowerToBytecode(*shader) : nullptr;
}

// The batched VM keeps kVmLanes copies of every register per shading
// worker, so the register file is memory and cold-start time. The shipped
// kernels inline the pack/unpack library into hundreds of temporaries;
// allocation keeps each under 64 registers.
TEST(RegAllocTest, ShippedComputeKernelsFitIn64Registers) {
  for (const compute::Kernel::Options& k : ShippedKernels()) {
    SCOPED_TRACE(k.name);
    const auto prog = LowerKernel(k);
    ASSERT_NE(prog, nullptr);
    EXPECT_LE(prog->reg_types.size(), 64u);
  }
}

// No instruction that reads its operands after writing (part of) its
// destination may find an operand in the destination's register: kCtor
// clears the destination first, kShuffle and the linear-algebra multiplies
// write cells another cell still reads, kBuiltin and kExtract follow the
// same rule. Checked over the shipped kernels, the conformance corpus and a
// linear-algebra program whose operands die at those instructions.
TEST(RegAllocTest, DestinationNeverSharesAnOperandRegister) {
  const std::string linalg = R"(
precision highp float;
uniform mat3 u_m;
uniform vec3 u_v;
void main() {
  mat3 m = u_m * 2.0;
  vec3 a = m * u_v;
  vec3 b = a * m;
  mat3 p = m * m;
  vec2 s = b.zx;
  vec4 c = vec4(s, p[1].x, a.y);
  gl_FragColor = c + vec4(clamp(b.x, 0.0, 1.0));
}
)";
  std::vector<std::pair<std::string, std::string>> sources = {
      {"linalg", linalg}};
  for (const compute::Kernel::Options& k : ShippedKernels()) {
    sources.emplace_back(k.name, compute::Kernel::FragmentSource(k));
  }
  for (const Case& c : ConformanceCorpus()) {
    sources.emplace_back(c.label, c.source);
  }
  for (const auto& [label, src] : sources) {
    SCOPED_TRACE(label);
    auto shader = testutil::MustCompile(src);
    ASSERT_NE(shader, nullptr);
    const auto prog = LowerToBytecode(*shader);
    for (std::size_t pc = 0; pc < prog->code.size(); ++pc) {
      const VmInst& in = prog->code[pc];
      if ((in.dst & ~kOperandIndexMask) != kSpaceReg) continue;
      std::vector<std::uint32_t> operands;
      switch (in.op) {
        case VmOp::kCtor:
        case VmOp::kBuiltin:
          operands.assign(prog->arg_ops.begin() + in.aux,
                          prog->arg_ops.begin() + in.aux + in.n);
          break;
        case VmOp::kShuffle:
          operands = {in.a};
          break;
        case VmOp::kExtract:
          operands = {in.a, in.b};
          break;
        case VmOp::kArith: {
          // Linear algebra: the batched VM replays it per lane from
          // scratch copies, but the scalar engines read operand cells
          // while writing the destination.
          const auto type_of = [&](std::uint32_t op) {
            const std::uint32_t idx = op & kOperandIndexMask;
            switch (op & ~kOperandIndexMask) {
              case kSpaceReg: return prog->reg_types[idx];
              case kSpaceGlobal: return prog->globals[idx].type;
              default: return prog->consts[idx].type();
            }
          };
          const BaseType lb = type_of(in.a).base;
          const BaseType rb = type_of(in.b).base;
          if (static_cast<BinOp>(in.u8) == BinOp::kMul &&
              ((IsMatrix(lb) && (IsMatrix(rb) || IsVector(rb))) ||
               (IsVector(lb) && IsMatrix(rb)))) {
            operands = {in.a, in.b};
          }
          break;
        }
        default:
          break;
      }
      for (const std::uint32_t op : operands) {
        EXPECT_NE(op, in.dst) << "pc " << pc << " op "
                              << static_cast<int>(in.op);
      }
    }
  }
  Case c{"linalg", linalg, {}, {}};
  c.funiforms = {{"u_m", {1.5f, -2.0f, 0.25f, 3.0f, 0.5f, -1.0f, 2.0f, 4.0f,
                          -0.75f}},
                 {"u_v", {0.5f, -1.25f, 2.0f}}};
  ExpectEnginesAgree(c);
}

// Variables written through refs keep a register of their own: liveness
// cannot see a kWriteRef, so a store into a variable whose last direct read
// is behind it must not land in a temporary that is still live. Covers a
// dynamic-index store and a swizzled store into dead variables, checked
// against the tree-walk oracle on the scalar and batched engines, and by
// the one direct write (the declaration) each such register keeps.
TEST(RegAllocTest, RefTargetsKeepTheirOwnRegister) {
  Case c{"ref stores into dead variables", R"(
precision highp float;
uniform float u_x;
uniform int u_i;
void main() {
  vec4 v = vec4(u_x);
  float s = v.y;
  vec4 w = vec4(s, 1.0, 2.0, 3.0);
  v[u_i] = 9.0;
  vec4 q = vec4(u_x + 1.0);
  float t = q.x;
  vec4 r = vec4(t, t * 2.0, 5.0, 6.0);
  q.xy = vec2(7.0, 8.0);
  gl_FragColor = w + r;
}
)",
         {{"u_x", {0.5f}}},
         {{"u_i", {2}}}};
  ExpectEnginesAgree(c);
  auto shader = testutil::MustCompile(c.source);
  const auto prog = LowerToBytecode(*shader);
  std::vector<std::uint32_t> ref_targets;
  for (const VmInst& in : prog->code) {
    if (in.op == VmOp::kRefVar) ref_targets.push_back(in.a);
  }
  ASSERT_EQ(ref_targets.size(), 2u);
  for (const std::uint32_t reg : ref_targets) {
    int writes = 0;
    for (const VmInst& in : prog->code) {
      const bool value_op = in.op != VmOp::kRefVar &&
                            in.op != VmOp::kRefIndex &&
                            in.op != VmOp::kRefSwizzle &&
                            in.op != VmOp::kWriteRef;
      if (value_op && in.dst == reg) ++writes;
    }
    EXPECT_EQ(writes, 1) << "register " << (reg & kOperandIndexMask);
  }

  ExactAlu alu_s, alu_b;
  VmExec scalar(prog, alu_s);
  VmExec batch(prog, alu_b);
  for (VmExec* e : {&scalar, &batch}) {
    e->GlobalAt(e->GlobalSlot("u_x")).SetF(0, 0.5f);
    e->GlobalAt(e->GlobalSlot("u_i")).SetI(0, 2);
  }
  ASSERT_TRUE(scalar.Run());
  ASSERT_EQ(batch.RunBatch(kVmLanes), ~0u);
  const int color = scalar.GlobalSlot("gl_FragColor");
  for (int l = 0; l < kVmLanes; ++l) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(FloatToBits(batch.LaneGlobalAt(color, l).F(k)),
                FloatToBits(scalar.GlobalAt(color).F(k)))
          << "lane " << l << " comp " << k;
    }
  }
}

// Beyond the inline depth every user call is a kCall: return values travel
// in each function's ret_reg, which stays the function's own (written only
// inside its body), and results match the oracle.
TEST(RegAllocTest, NonInlinedCallsKeepReturnRegisters) {
  std::string src = DeepCallChain(65);
  src.replace(src.find("void main()"), std::string::npos, R"(
uniform float u_x;
uniform float u_deep;
float mix3(float a, float b, float c) { float t = a * b; return t + c; }
float twice(float x) { return mix3(x, 2.0, 0.0); }
void main() {
  float d = 0.0;
  if (u_deep > 0.5) { d = f1(); }
  float x = twice(u_x) + mix3(u_x, u_x, 1.0);
  gl_FragColor = vec4(x, d, twice(x), mix3(x, x, x));
}
)");
  Case c{"non-inlined calls", src, {{"u_x", {1.5f}}, {"u_deep", {0.0f}}}, {}};
  ExpectEnginesAgree(c);
  auto shader = testutil::MustCompile(src);
  const auto prog = LowerToBytecode(*shader);
  int calls = 0;
  for (const VmInst& in : prog->code) calls += in.op == VmOp::kCall;
  EXPECT_GT(calls, 4) << "expected the calls not to be inlined";
  // Bodies are laid out back to back: a function's body ends where the next
  // emitted one begins.
  std::vector<std::uint32_t> starts;
  for (const VmFunction& f : prog->functions) {
    if (f.entry > prog->run_entry) starts.push_back(f.entry);
  }
  std::sort(starts.begin(), starts.end());
  for (const VmFunction& f : prog->functions) {
    if (f.ret_reg == kOperandNone || f.entry <= prog->run_entry) continue;
    const auto next = std::upper_bound(starts.begin(), starts.end(), f.entry);
    const std::size_t end =
        next != starts.end() ? *next : prog->code.size();
    for (std::size_t pc = 0; pc < prog->code.size(); ++pc) {
      const VmInst& in = prog->code[pc];
      if (in.dst != f.ret_reg || in.op == VmOp::kRefVar) continue;
      EXPECT_TRUE(pc >= f.entry && pc < end)
          << "ret_reg written at pc " << pc << " outside [" << f.entry
          << ", " << end << ")";
    }
  }
}

VmInst Arith(BinOp op, std::uint32_t dst, std::uint32_t a, std::uint32_t b) {
  VmInst in = MakeInst(VmOp::kArith);
  in.u8 = static_cast<std::uint8_t>(op);
  in.dst = dst;
  in.a = a;
  in.b = b;
  return in;
}

// A register the run chunk reads before writing carries its value from the
// previous run (lowering emits none today; the pass must stay correct if it
// ever does). It keeps its own register, so a temporary defined after its
// last read cannot overwrite the carried value.
TEST(RegAllocTest, RegisterReadBeforeWrittenKeepsItsValueAcrossRuns) {
  const std::uint32_t r0 = kSpaceReg | 0, r1 = kSpaceReg | 1,
                      r2 = kSpaceReg | 2, r3 = kSpaceReg | 3;
  const std::uint32_t one = kSpaceConst | 0;
  auto prog = std::make_shared<VmProgram>();
  prog->globals = {{"gl_FragColor", MakeType(BaseType::kVec4)}};
  prog->consts = {Value::MakeFloat(1.0f)};
  prog->reg_types.assign(4, MakeType(BaseType::kFloat));
  VmInst color = MakeInst(VmOp::kCtor);
  color.dst = kSpaceGlobal | 0;
  color.type = MakeType(BaseType::kVec4);
  color.n = 1;
  color.aux = 0;
  prog->arg_ops = {r3};
  prog->code = {MakeInst(VmOp::kHalt),            // const-init chunk
                Arith(BinOp::kAdd, r0, r0, one),  // run: r0 += 1 (carried)
                Arith(BinOp::kMul, r1, r0, one),  // last read of r0
                Arith(BinOp::kAdd, r2, r1, one),
                Arith(BinOp::kAdd, r3, r2, r2),
                color,
                MakeInst(VmOp::kHalt)};
  prog->const_init_entry = 0;
  prog->run_entry = 1;
  (void)AllocateRegisters(*prog);
  EXPECT_EQ(prog->reg_types.size(), 3u);  // r0 alone, r1..r3 in two

  ExactAlu alu;
  VmExec vm(prog, alu);
  const int slot = vm.GlobalSlot("gl_FragColor");
  for (const float want : {4.0f, 6.0f, 8.0f}) {
    ASSERT_TRUE(vm.Run());
    EXPECT_EQ(vm.GlobalAt(slot).F(0), want);
  }
}

}  // namespace
}  // namespace mgpu::glsl
