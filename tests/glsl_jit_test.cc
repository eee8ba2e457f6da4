// Compiled-engine (glsl/jit.h) unit tests: knob resolution, eligibility,
// the content-hash module cache, and end-to-end fallback through the gles2
// context. The heavy bit-identity lockdown lives in glsl_vm_fuzz_test.cc
// and gles2_tiling_test.cc; this file pins the plumbing around it.
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gles2/context.h"
#include "gles2_test_util.h"
#include "glsl/compile.h"
#include "glsl/jit.h"
#include "glsl/vm.h"
#include "gtest/gtest.h"

namespace mgpu::glsl {
namespace {

constexpr char kUniformFs[] = R"(
precision highp float;
varying vec4 v_in;
uniform float u_s0;
void main() {
  vec3 a = v_in.xyz * 2.0 + u_s0;
  vec3 b = a * a - v_in.wzy;
  gl_FragColor = vec4(a.x + b.y, b.z, a.y * 0.5, 1.0);
}
)";

// Lane-varying branch: the transpiler must decline (uniform lockstep only)
// and CompileProgram must return null, which IS the batched-VM fallback.
constexpr char kDivergentFs[] = R"(
precision highp float;
varying vec4 v_in;
void main() {
  float v = 0.25;
  if (v_in.x > 0.5) { v = v_in.y; }
  gl_FragColor = vec4(v, 0.0, 0.0, 1.0);
}
)";

std::shared_ptr<const VmProgram> Lower(const char* src) {
  CompileResult cr = CompileGlsl(src, Stage::kFragment);
  EXPECT_TRUE(cr.ok) << cr.info_log;
  if (!cr.ok) return nullptr;
  return LowerToBytecode(*cr.shader);
}

TEST(JitKnobTest, ZeroAlwaysDisables) {
  EXPECT_FALSE(jit::Resolve(0));
}

TEST(JitKnobTest, PositiveFollowsToolchainProbe) {
  EXPECT_EQ(jit::Resolve(1), jit::Available());
}

TEST(JitKnobTest, AutoHonorsMgpuJitEnv) {
  // CI reruns this binary with MGPU_JIT=0 exported (the fallback leg), so
  // save and restore whatever the harness set rather than assuming unset.
  const char* prev = std::getenv("MGPU_JIT");
  const std::string saved = prev != nullptr ? prev : "";
  ::unsetenv("MGPU_JIT");
  EXPECT_EQ(jit::Resolve(-1), jit::Available());
  ::setenv("MGPU_JIT", "0", 1);
  EXPECT_FALSE(jit::Resolve(-1));
  // Only the exact string "0" opts out (mirrors the MGPU_SIMD idiom of
  // explicit numeric knobs).
  ::setenv("MGPU_JIT", "1", 1);
  EXPECT_EQ(jit::Resolve(-1), jit::Available());
  if (prev != nullptr) {
    ::setenv("MGPU_JIT", saved.c_str(), 1);
  } else {
    ::unsetenv("MGPU_JIT");
  }
}

TEST(JitCompileTest, DivergentProgramIsDeclined) {
  const std::shared_ptr<const VmProgram> prog = Lower(kDivergentFs);
  ASSERT_NE(prog, nullptr);
  ASSERT_FALSE(prog->uniform_control_flow);
  EXPECT_EQ(jit::CompileProgram(*prog), nullptr);
}

TEST(JitCompileTest, UniformProgramCompilesAndCacheHitsOnRecompile) {
  if (!jit::Available()) GTEST_SKIP() << "no host compiler";
  const std::shared_ptr<const VmProgram> prog = Lower(kUniformFs);
  ASSERT_NE(prog, nullptr);
  ASSERT_TRUE(prog->uniform_control_flow);
  const std::shared_ptr<const jit::Module> a = jit::CompileProgram(*prog);
  ASSERT_NE(a, nullptr);
  EXPECT_NE(a->entry(), nullptr);
  // Same program, second compile: served from the content-hash .so cache
  // (observable here only as "still works"; the fuzz harness relies on the
  // cache to keep its per-seed compile cost a one-time charge).
  const std::shared_ptr<const jit::Module> b = jit::CompileProgram(*prog);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(b->entry(), nullptr);
}

TEST(JitCompileTest, AttachedModuleMatchesInterpreterBitForBit) {
  if (!jit::Available()) GTEST_SKIP() << "no host compiler";
  const std::shared_ptr<const VmProgram> prog = Lower(kUniformFs);
  ASSERT_NE(prog, nullptr);
  const std::shared_ptr<const jit::Module> mod = jit::CompileProgram(*prog);
  ASSERT_NE(mod, nullptr);

  ExactAlu alu_ref, alu_jit;
  VmExec ref(prog, alu_ref);
  VmExec jitted(prog, alu_jit);
  jitted.SetJit(mod);
  EXPECT_TRUE(jitted.has_jit());

  const int in_slot = ref.GlobalSlot("v_in");
  const int u_slot = ref.GlobalSlot("u_s0");
  const int color_slot = ref.GlobalSlot("gl_FragColor");
  ASSERT_GE(in_slot, 0);
  ASSERT_GE(color_slot, 0);
  for (VmExec* e : {&ref, &jitted}) {
    if (u_slot >= 0) e->GlobalAt(u_slot).SetF(0, 0.375f);
  }
  for (int n = 1; n <= kVmLanes; ++n) {
    for (int l = 0; l < n; ++l) {
      for (int k = 0; k < 4; ++k) {
        const float f = 0.0625f * static_cast<float>(l + 1) +
                        0.25f * static_cast<float>(k);
        ref.LaneGlobalAt(in_slot, l).SetF(k, f);
        jitted.LaneGlobalAt(in_slot, l).SetF(k, f);
      }
    }
    alu_ref.ResetCounts();
    alu_jit.ResetCounts();
    EXPECT_EQ(jitted.RunBatch(n), ref.RunBatch(n)) << "tail " << n;
    EXPECT_EQ(alu_jit.counts().alu, alu_ref.counts().alu) << "tail " << n;
    for (int l = 0; l < n; ++l) {
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(jitted.LaneGlobalAt(color_slot, l).F(k),
                  ref.LaneGlobalAt(color_slot, l).F(k))
            << "tail " << n << " lane " << l << " comp " << k;
      }
    }
  }
}

// Two threads compiling one program into a cold cache at once (two device
// consumers linking the same shader): each temp file must be private to its
// call, so both modules load and run, and no temp file is left behind.
TEST(JitCompileTest, ConcurrentCompilesOfOneProgramBothLoad) {
  if (!jit::Available()) GTEST_SKIP() << "no host compiler";
  const std::shared_ptr<const VmProgram> prog = Lower(kUniformFs);
  ASSERT_NE(prog, nullptr);

  const char* prev = std::getenv("TMPDIR");
  const std::string saved = prev != nullptr ? prev : "";
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "mgpu-jit-test-XXXXXX")
          .string();
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  ::setenv("TMPDIR", tmpl.c_str(), 1);

  std::shared_ptr<const jit::Module> mods[2];
  {
    std::thread t0([&] { mods[0] = jit::CompileProgram(*prog); });
    std::thread t1([&] { mods[1] = jit::CompileProgram(*prog); });
    t0.join();
    t1.join();
  }
  if (prev != nullptr) {
    ::setenv("TMPDIR", saved.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }

  for (const auto& mod : mods) {
    ASSERT_NE(mod, nullptr);
    ExactAlu alu_ref, alu_jit;
    VmExec ref(prog, alu_ref);
    VmExec jitted(prog, alu_jit);
    jitted.SetJit(mod);
    const int in_slot = ref.GlobalSlot("v_in");
    const int color_slot = ref.GlobalSlot("gl_FragColor");
    for (int l = 0; l < kVmLanes; ++l) {
      for (int k = 0; k < 4; ++k) {
        const float f = 0.125f * static_cast<float>(l) + 0.5f * k;
        ref.LaneGlobalAt(in_slot, l).SetF(k, f);
        jitted.LaneGlobalAt(in_slot, l).SetF(k, f);
      }
    }
    EXPECT_EQ(jitted.RunBatch(kVmLanes), ref.RunBatch(kVmLanes));
    EXPECT_EQ(alu_jit.counts().alu, alu_ref.counts().alu);
    for (int l = 0; l < kVmLanes; ++l) {
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(jitted.LaneGlobalAt(color_slot, l).F(k),
                  ref.LaneGlobalAt(color_slot, l).F(k));
      }
    }
  }

  // Only the final .cc and .so may remain in the cache directory.
  int files = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(tmpl)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    const std::string ext = entry.path().extension().string();
    EXPECT_TRUE(ext == ".cc" || ext == ".so") << entry.path();
  }
  EXPECT_EQ(files, 2);
  std::filesystem::remove_all(tmpl);
}

}  // namespace
}  // namespace mgpu::glsl

namespace mgpu::gles2 {
namespace {

// End-to-end fallback: kCompiled with the jit knob forced off must draw —
// through the batched interpreter — byte-identically to kBatchedVm. This is
// the in-process twin of CI's MGPU_JIT=0 leg.
TEST(JitFallbackTest, CompiledEngineWithJitDisabledMatchesBatchedVm) {
  auto run = [](ExecEngine engine, int jit_knob) {
    ContextConfig cfg;
    cfg.width = 64;
    cfg.height = 64;
    cfg.exec_engine = engine;
    cfg.jit = jit_knob;
    Context ctx(cfg);
    const GLuint prog = testutil::BuildProgramOrDie(
        ctx, testutil::kPassthroughVs,
        R"(
precision highp float;
varying vec2 v_uv;
void main() { gl_FragColor = vec4(fract(v_uv * 9.0), v_uv.x, 1.0); }
)");
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    testutil::DrawFullscreenQuad(ctx, prog);
    EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
    return testutil::ReadRgba(ctx, 64, 64);
  };
  const std::vector<std::uint8_t> batched = run(ExecEngine::kBatchedVm, -1);
  EXPECT_EQ(run(ExecEngine::kCompiled, 0), batched);
  EXPECT_EQ(run(ExecEngine::kCompiled, -1), batched);
}

}  // namespace
}  // namespace mgpu::gles2
