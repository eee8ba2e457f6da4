// Fault-injection harness for the robustness model: draws are transactional.
// Any failure mid-draw — a shader trap, the per-draw watchdog, an injected
// allocation / pool-task fault — must abort the *entire draw* so that the
// framebuffer, depth plane and ALU/TMU counters hold exactly the pre-draw
// state, byte for byte, on every engine, worker count and batch width; and
// the next draw must behave exactly as if the aborted one was never issued.
//
// Usage: gles2_fault_test [--fault_iters=N] [gtest flags]
// The sweep test runs N seeded scenarios (default 60; CI's ASan job raises
// it). Seeds are deterministic (seed base + index), so any failure line
// reproduces standalone. Any other argument is an error.

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/fault.h"
#include "gles2/cmdstream.h"
#include "gles2/context.h"
#include "gles2_test_util.h"
#include "gtest/gtest.h"

namespace mgpu::gles2 {
namespace {

using fault::Site;
using testutil::BuildProgramOrDie;
using testutil::DrawFullscreenQuad;
using testutil::kPassthroughVs;
using testutil::ReadRgba;

int g_fault_iters = 60;

// 128x128 = a 2x2 grid of 64x64 tiles, so parallel configurations really
// engage the worker pool (a single-tile target would fall back to serial
// and never reach the pool-task fault site).
constexpr int kW = 128;
constexpr int kH = 128;
constexpr std::uint64_t kSeedBase = 20260808;

// Trap-free gradient shader with a loop, so the kVmInstruction site (which
// fires at loop-guard checks) has deterministic places to inject.
constexpr char kCleanFs[] = R"(
precision mediump float;
varying vec2 v_uv;
void main() {
  float acc = 0.0;
  for (int i = 0; i < 6; ++i) {
    acc += fract(v_uv.x * float(i + 1) + v_uv.y);
  }
  gl_FragColor = vec4(fract(acc), v_uv.x, v_uv.y, 1.0);
}
)";

// Traps on the right half of the screen: `poison` is declared but never
// defined, and calling it raises a deterministic shader trap ("call to
// undefined function") — the same divergent-capable trap on all engines.
constexpr char kTrapFs[] = R"(
precision mediump float;
varying vec2 v_uv;
float poison(float x);
void main() {
  float v = v_uv.x;
  if (v_uv.x > 0.5) { v = poison(v); }
  gl_FragColor = vec4(v, v_uv.y, 0.25, 1.0);
}
)";

// Vertex shader that traps (every vertex): exercises the vertex-stage
// abort path, which must restore counters even though no pixel was shaded.
constexpr char kTrapVs[] = R"(
attribute vec2 a_pos;
varying vec2 v_uv;
float poison(float x);
void main() {
  v_uv = a_pos * 0.5 + 0.5;
  gl_Position = vec4(a_pos * poison(a_pos.x), 0.0, 1.0);
}
)";

// Heavy single-tile variants for the row-band path: a 64x64 target is one
// tile, and the loops make the draws heavy enough that any worker count
// above 1 splits the tile into row bands (the tests assert that it did).
constexpr int kBandW = 64;
constexpr int kBandH = 64;

constexpr char kBandCleanFs[] = R"(
precision mediump float;
varying vec2 v_uv;
void main() {
  float acc = 0.0;
  for (int i = 0; i < 24; ++i) {
    acc += fract(v_uv.x * float(i + 1) + v_uv.y);
  }
  gl_FragColor = vec4(fract(acc), v_uv.x, v_uv.y, 1.0);
}
)";

// kBandCleanFs plus kTrapFs's right-half trap.
constexpr char kBandTrapFs[] = R"(
precision mediump float;
varying vec2 v_uv;
float poison(float x);
void main() {
  float acc = 0.0;
  for (int i = 0; i < 24; ++i) {
    acc += fract(v_uv.x * float(i + 1) + v_uv.y);
  }
  if (v_uv.x > 0.5) { acc = poison(acc); }
  gl_FragColor = vec4(fract(acc), v_uv.y, 0.25, 1.0);
}
)";

struct Snapshot {
  std::vector<std::uint8_t> fb;
  glsl::OpCounts counts;
};

Snapshot Snap(Context& ctx, int w = kW, int h = kH) {
  return {ReadRgba(ctx, w, h), ctx.alu().counts()};
}

void ExpectSnapshotEq(const Snapshot& a, const Snapshot& b,
                      const std::string& what) {
  EXPECT_EQ(a.fb, b.fb) << what << ": framebuffer differs";
  EXPECT_EQ(a.counts.alu, b.counts.alu) << what << ": alu count differs";
  EXPECT_EQ(a.counts.sfu, b.counts.sfu) << what << ": sfu count differs";
  EXPECT_EQ(a.counts.sfu_trans, b.counts.sfu_trans) << what;
  EXPECT_EQ(a.counts.tmu, b.counts.tmu) << what << ": tmu count differs";
  EXPECT_EQ(a.counts.tmu_miss, b.counts.tmu_miss) << what;
}

ContextConfig MakeConfig(ExecEngine engine, int threads, int batch_width,
                         int w = kW, int h = kH) {
  ContextConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.exec_engine = engine;
  cfg.shader_threads = threads;
  cfg.fragment_batch_width = batch_width;
  return cfg;
}

const char* EngineName(ExecEngine e) {
  switch (e) {
    case ExecEngine::kBatchedVm: return "batched";
    case ExecEngine::kBytecodeVm: return "scalar-vm";
    case ExecEngine::kTreeWalk: return "tree";
    default: return "?";
  }
}

// A shader trap must abort transactionally on every engine / worker count /
// batch width, and all configurations must converge on byte-identical
// post-abort state (trivially: the pre-draw state, which clean draws make
// engine-identical already).
TEST(FaultInjection, TrapAbortRestoresPreDrawStateEverywhere) {
  std::vector<std::uint8_t> reference_fb;
  const std::array<ExecEngine, 3> engines = {
      ExecEngine::kBatchedVm, ExecEngine::kBytecodeVm, ExecEngine::kTreeWalk};
  for (const ExecEngine engine : engines) {
    for (const int threads : {1, 4}) {
      for (const int width : {1, 17, 32}) {
        SCOPED_TRACE(std::string(EngineName(engine)) + " threads=" +
                     std::to_string(threads) + " width=" +
                     std::to_string(width));
        Context ctx(MakeConfig(engine, threads, width));
        const GLuint clean = BuildProgramOrDie(ctx, kPassthroughVs, kCleanFs);
        const GLuint trap = BuildProgramOrDie(ctx, kPassthroughVs, kTrapFs);
        DrawFullscreenQuad(ctx, clean);
        ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
        EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_NO_ERROR);
        const Snapshot before = Snap(ctx);

        DrawFullscreenQuad(ctx, trap);
        EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
        EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_GUILTY_CONTEXT_RESET);
        // Observe-and-clear: a second query reads clean.
        EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_NO_ERROR);
        EXPECT_NE(ctx.last_draw_error().find("undefined function"),
                  std::string::npos)
            << ctx.last_draw_error();
        ExpectSnapshotEq(Snap(ctx), before, "post-abort");

        // Recovery: the next draw is byte-identical to a context that
        // never issued the trapped draw.
        DrawFullscreenQuad(ctx, clean);
        ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
        if (reference_fb.empty()) {
          reference_fb = ReadRgba(ctx, kW, kH);
        } else {
          EXPECT_EQ(ReadRgba(ctx, kW, kH), reference_fb)
              << "recovery framebuffer differs across configurations";
        }
      }
    }
  }
}

TEST(FaultInjection, VertexStageTrapAbortsBeforeAnyPixel) {
  Context ctx(MakeConfig(ExecEngine::kBatchedVm, 1, 32));
  const GLuint clean = BuildProgramOrDie(ctx, kPassthroughVs, kCleanFs);
  const GLuint trap_vs = BuildProgramOrDie(ctx, kTrapVs, kCleanFs);
  DrawFullscreenQuad(ctx, clean);
  ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
  const Snapshot before = Snap(ctx);
  DrawFullscreenQuad(ctx, trap_vs);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
  EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_GUILTY_CONTEXT_RESET);
  ExpectSnapshotEq(Snap(ctx), before, "post-vertex-trap");
}

// The watchdog trips iff the draw's total modeled ALU ops exceed the
// budget; the total is engine- and thread-invariant, so the trip decision
// must be too. Budget == exact total must NOT trip (the check is strict).
TEST(FaultInjection, WatchdogBudgetTripsDeterministically) {
  // Measure the draw's exact ALU total on a reference context.
  std::uint64_t total = 0;
  {
    Context ctx(MakeConfig(ExecEngine::kBatchedVm, 1, 32));
    const GLuint clean = BuildProgramOrDie(ctx, kPassthroughVs, kCleanFs);
    const std::uint64_t before = ctx.alu().counts().alu;
    DrawFullscreenQuad(ctx, clean);
    ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
    total = ctx.alu().counts().alu - before;
    ASSERT_GT(total, 0u);
  }
  const std::array<ExecEngine, 3> engines = {
      ExecEngine::kBatchedVm, ExecEngine::kBytecodeVm, ExecEngine::kTreeWalk};
  for (const ExecEngine engine : engines) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(EngineName(engine)) + " threads=" +
                   std::to_string(threads));
      Context ctx(MakeConfig(engine, threads, 32));
      const GLuint clean = BuildProgramOrDie(ctx, kPassthroughVs, kCleanFs);
      DrawFullscreenQuad(ctx, clean);
      ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
      const Snapshot before = Snap(ctx);

      // Exactly at the total: must complete.
      ctx.SetDrawBudget(total);
      DrawFullscreenQuad(ctx, clean);
      EXPECT_EQ(ctx.GetError(), GL_NO_ERROR) << ctx.last_draw_error();
      EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_NO_ERROR);

      // One op short: must abort with the watchdog mapping.
      ctx.SetDrawBudget(total - 1);
      const Snapshot pre_trip = Snap(ctx);
      DrawFullscreenQuad(ctx, clean);
      EXPECT_EQ(ctx.GetError(), GL_OUT_OF_MEMORY);
      EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_GUILTY_CONTEXT_RESET);
      EXPECT_NE(ctx.last_draw_error().find("watchdog"), std::string::npos)
          << ctx.last_draw_error();
      ExpectSnapshotEq(Snap(ctx), pre_trip, "post-watchdog-abort");

      // The repeated draw writes the same image: only counters advanced.
      EXPECT_EQ(pre_trip.fb, before.fb);

      // Disabled again: draws succeed.
      ctx.SetDrawBudget(0);
      DrawFullscreenQuad(ctx, clean);
      EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
    }
  }
}

// --- Failure parity under row bands ---------------------------------------
// A split draw that fails — a trap inside one band, or the watchdog — must
// abort exactly as the serial path does: framebuffer, depth plane,
// counters, last_draw_error, GL error and reset status all equal the
// serial reference on every engine and worker count.

// Pass-through with a uniform depth, so the aborted draw would move the
// depth plane if it were not restored.
constexpr char kDepthVs[] = R"(
attribute vec2 a_pos;
varying vec2 v_uv;
uniform float u_z;
void main() {
  v_uv = a_pos * 0.5 + 0.5;
  gl_Position = vec4(a_pos, u_z, 1.0);
}
)";

struct AbortOutcome {
  std::vector<std::uint8_t> fb;  // right after the failed draw
  glsl::OpCounts counts;
  std::string error;
  GLenum gl_error = GL_NO_ERROR;
  GLenum reset = GL_NO_ERROR;
  std::vector<std::uint8_t> depth_probe;  // reveals the depth plane
  std::uint64_t splits = 0;
};

// Clean draw at depth 0.5, then `fs` at depth 0.25 (budget armed), then a
// probe at depth 0.4 that passes GL_LESS only where the depth plane still
// holds 0.5.
AbortOutcome RunFailingBandDraw(ExecEngine engine, int threads,
                                const char* fs, std::uint64_t budget) {
  Context ctx(MakeConfig(engine, threads, 32, kBandW, kBandH));
  const GLuint clean = BuildProgramOrDie(ctx, kDepthVs, kBandCleanFs);
  const GLuint failing = BuildProgramOrDie(ctx, kDepthVs, fs);
  const GLuint probe = BuildProgramOrDie(
      ctx, kDepthVs,
      "precision mediump float;\n"
      "void main() { gl_FragColor = vec4(0.2, 0.9, 0.4, 1.0); }\n");
  ctx.Enable(GL_DEPTH_TEST);
  ctx.DepthFunc(GL_LESS);
  ctx.Clear(GL_COLOR_BUFFER_BIT | GL_DEPTH_BUFFER_BIT);
  DrawFullscreenQuad(ctx, clean);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);

  ctx.UseProgram(failing);
  ctx.Uniform1f(ctx.GetUniformLocation(failing, "u_z"), -0.5f);
  ctx.SetDrawBudget(budget);
  DrawFullscreenQuad(ctx, failing);
  ctx.SetDrawBudget(0);
  AbortOutcome out;
  out.gl_error = ctx.GetError();
  out.reset = ctx.GetGraphicsResetStatus();
  out.error = ctx.last_draw_error();
  out.fb = ReadRgba(ctx, kBandW, kBandH);
  out.counts = ctx.alu().counts();
  out.splits = ctx.band_split_draws();

  ctx.UseProgram(probe);
  ctx.Uniform1f(ctx.GetUniformLocation(probe, "u_z"), -0.2f);
  DrawFullscreenQuad(ctx, probe);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  out.depth_probe = ReadRgba(ctx, kBandW, kBandH);
  return out;
}

void ExpectAbortParity(const char* fs, std::uint64_t budget,
                       GLenum want_error, const char* want_msg) {
  const std::array<ExecEngine, 3> engines = {
      ExecEngine::kBatchedVm, ExecEngine::kBytecodeVm, ExecEngine::kTreeWalk};
  for (const ExecEngine engine : engines) {
    const AbortOutcome serial = RunFailingBandDraw(engine, 1, fs, budget);
    EXPECT_EQ(serial.gl_error, want_error);
    EXPECT_EQ(serial.reset, static_cast<GLenum>(GL_GUILTY_CONTEXT_RESET));
    EXPECT_NE(serial.error.find(want_msg), std::string::npos) << serial.error;
    for (const int threads : {2, 3, 4, 7}) {
      SCOPED_TRACE(std::string(EngineName(engine)) + " threads=" +
                   std::to_string(threads));
      const AbortOutcome got = RunFailingBandDraw(engine, threads, fs, budget);
      if (engine != ExecEngine::kTreeWalk) {
        // Both the clean draw and the failing one split.
        EXPECT_EQ(got.splits, 2u);
      }
      EXPECT_EQ(got.gl_error, serial.gl_error);
      EXPECT_EQ(got.reset, serial.reset);
      EXPECT_EQ(got.error, serial.error);
      ExpectSnapshotEq({got.fb, got.counts}, {serial.fb, serial.counts},
                       "post-abort");
      EXPECT_EQ(got.depth_probe, serial.depth_probe)
          << "depth plane differs after the abort";
    }
  }
}

TEST(FaultInjection, BandTrapAbortMatchesSerial) {
  ExpectAbortParity(kBandTrapFs, 0, GL_INVALID_OPERATION,
                    "undefined function");
}

TEST(FaultInjection, BandWatchdogTripMatchesSerial) {
  // The failing draw's own ALU total, measured serially.
  std::uint64_t total = 0;
  {
    Context ctx(MakeConfig(ExecEngine::kBatchedVm, 1, 32, kBandW, kBandH));
    const GLuint p = BuildProgramOrDie(ctx, kDepthVs, kBandCleanFs);
    const std::uint64_t before = ctx.alu().counts().alu;
    DrawFullscreenQuad(ctx, p);
    ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
    total = ctx.alu().counts().alu - before;
  }
  // One op short trips on every engine and worker count...
  ExpectAbortParity(kBandCleanFs, total - 1, GL_OUT_OF_MEMORY, "watchdog");
  // ...and exactly the total does not.
  for (const int threads : {1, 4}) {
    const AbortOutcome ok =
        RunFailingBandDraw(ExecEngine::kBatchedVm, threads, kBandCleanFs,
                           total);
    EXPECT_EQ(ok.gl_error, static_cast<GLenum>(GL_NO_ERROR)) << ok.error;
  }
}

// Seeded sweep over fault sites x engines x thread counts x batch widths:
// every injected fault must produce either a byte-exact transactional abort
// (with the resource-failure error mapping) or an unaffected successful
// draw (site never reached), and the context must then recover to byte-
// identity with a never-faulted twin. `band` runs the heavy single-tile
// variant, whose draws split into row bands at every thread count drawn.
struct SweepSpec {
  std::vector<Site> sites;
  std::vector<int> threads;
  int w = kW;
  int h = kH;
  const char* fs = kCleanFs;
  bool band = false;
  std::uint64_t seed_base = kSeedBase;
};

void RunFaultSweep(const SweepSpec& spec) {
  const std::array<ExecEngine, 3> engines = {
      ExecEngine::kBatchedVm, ExecEngine::kBytecodeVm, ExecEngine::kTreeWalk};
  for (int iter = 0; iter < g_fault_iters; ++iter) {
    std::mt19937_64 rng(spec.seed_base + static_cast<std::uint64_t>(iter));
    const Site site = spec.sites[rng() % spec.sites.size()];
    const ExecEngine engine = engines[rng() % engines.size()];
    const int threads = spec.threads[rng() % spec.threads.size()];
    const int width = 1 + static_cast<int>(rng() % 32);  // batch tails
    SCOPED_TRACE("iter=" + std::to_string(iter) + " site=" +
                 std::to_string(static_cast<int>(site)) + " engine=" +
                 EngineName(engine) + " threads=" + std::to_string(threads) +
                 " width=" + std::to_string(width));

    const ContextConfig cfg =
        MakeConfig(engine, threads, width, spec.w, spec.h);
    // Build-path sites only fire while a context's shading state / binner
    // tables are being built — steady-state draws allocate nothing — so
    // those scenarios arm the context's *first* draw.
    const bool build_site =
        site == Site::kBinnerGrow || site == Site::kShadeCacheAlloc;

    // Probe on a throwaway context: a huge nth counts how often the site
    // is reached by this exact draw without ever failing.
    std::uint64_t reach = 0;
    {
      Context probe(cfg);
      const GLuint p = BuildProgramOrDie(probe, kPassthroughVs, spec.fs);
      if (!build_site) DrawFullscreenQuad(probe, p);  // warm caches
      fault::Arm(site, ~0ull);
      DrawFullscreenQuad(probe, p);
      reach = fault::Hits(site);
      fault::Disarm(site);
      ASSERT_EQ(probe.GetError(), GL_NO_ERROR);
      if (spec.band && engine != ExecEngine::kTreeWalk) {
        EXPECT_GT(probe.band_split_draws(), 0u) << "draw did not split";
      }
    }

    Context ctx(cfg);
    Context twin(cfg);  // never faulted
    const GLuint prog = BuildProgramOrDie(ctx, kPassthroughVs, spec.fs);
    const GLuint twin_prog = BuildProgramOrDie(twin, kPassthroughVs, spec.fs);
    if (!build_site) {
      DrawFullscreenQuad(ctx, prog);
      DrawFullscreenQuad(twin, twin_prog);
      ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
    }

    if (reach > 0) {
      const std::uint64_t nth = rng() % reach;
      const Snapshot pre = Snap(ctx, spec.w, spec.h);
      fault::Arm(site, nth);
      DrawFullscreenQuad(ctx, prog);
      fault::Disarm(site);
      // The armed draw must have failed (nth < reach) and aborted cleanly.
      if (site == Site::kVmInstruction) {
        // Injected as a shader trap: guilty, GL_INVALID_OPERATION.
        EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
        EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_GUILTY_CONTEXT_RESET);
      } else {
        // Implementation resource failure: innocent, GL_OUT_OF_MEMORY.
        EXPECT_EQ(ctx.GetError(), GL_OUT_OF_MEMORY);
        EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_INNOCENT_CONTEXT_RESET);
      }
      EXPECT_FALSE(ctx.last_draw_error().empty());
      ExpectSnapshotEq(Snap(ctx, spec.w, spec.h), pre, "post-fault abort");
    }

    // Recovery: the next draw on the faulted context must match the
    // never-faulted twin byte for byte, at identical per-draw counter
    // cost — no residue from the aborted draw.
    const std::uint64_t ctx_before = ctx.alu().counts().alu;
    const std::uint64_t twin_before = twin.alu().counts().alu;
    DrawFullscreenQuad(ctx, prog);
    DrawFullscreenQuad(twin, twin_prog);
    ASSERT_EQ(ctx.GetError(), GL_NO_ERROR) << ctx.last_draw_error();
    ASSERT_EQ(twin.GetError(), GL_NO_ERROR);
    EXPECT_EQ(ReadRgba(ctx, spec.w, spec.h), ReadRgba(twin, spec.w, spec.h))
        << "recovery draw differs from never-faulted twin";
    EXPECT_EQ(ctx.alu().counts().alu - ctx_before,
              twin.alu().counts().alu - twin_before)
        << "recovery draw cost differs from never-faulted twin";
  }
  fault::DisarmAll();
}

TEST(FaultInjection, InjectedFaultSweepAbortsCleanlyAndRecovers) {
  RunFaultSweep({.sites = {Site::kBinnerGrow, Site::kShadeCacheAlloc,
                           Site::kVmInstruction, Site::kPoolTask},
                 .threads = {1, 2, 4}});
}

// The same sweep over the row-band path: pool-task and shading-state
// allocation failures while a single tile is split across workers.
TEST(FaultInjection, InjectedFaultSweepCoversBandSplitDraws) {
  RunFaultSweep({.sites = {Site::kShadeCacheAlloc, Site::kPoolTask},
                 .threads = {2, 3, 4},
                 .w = kBandW,
                 .h = kBandH,
                 .fs = kBandCleanFs,
                 .band = true,
                 .seed_base = kSeedBase + 7919});
}

// Command-stream submit faults (Site::kCmdSubmit): a list the device drops
// must surface at the client's next sync point as an innocent reset with
// GL_OUT_OF_MEMORY, leave the framebuffer and counters exactly as if the
// dropped work was never issued, and the next draw on a fresh list must be
// byte-identical to a never-faulted twin. Swept across engines and worker
// counts; async is forced on so the sweep also runs under CI's MGPU_ASYNC=0
// leg.
TEST(FaultInjection, CmdSubmitDropLatchesInnocentResetAndRecovers) {
  const std::array<ExecEngine, 3> engines = {
      ExecEngine::kBatchedVm, ExecEngine::kBytecodeVm, ExecEngine::kTreeWalk};
  for (const ExecEngine engine : engines) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(EngineName(engine)) + " threads=" +
                   std::to_string(threads));
      ContextConfig cfg = MakeConfig(engine, threads, 32);
      cfg.async_submit = 1;
      Context ctx(cfg);
      Context twin(cfg);  // never faulted
      const GLuint prog = BuildProgramOrDie(ctx, kPassthroughVs, kCleanFs);
      const GLuint tprog = BuildProgramOrDie(twin, kPassthroughVs, kCleanFs);
      // Fully plumbed setup + baseline draw on both, then sync: the armed
      // window below contains exactly one recorded draw and its submit.
      DrawFullscreenQuad(ctx, prog);
      DrawFullscreenQuad(twin, tprog);
      ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);
      ASSERT_EQ(twin.GetError(), GL_NO_ERROR);
      const Snapshot pre = Snap(ctx);

      fault::Arm(Site::kCmdSubmit, 0);
      ctx.DrawArrays(GL_TRIANGLES, 0, 6);  // recorded, then dropped at submit
      fault::Disarm(Site::kCmdSubmit);     // quiesces: the drop happens here

      EXPECT_EQ(ctx.GetError(), GL_OUT_OF_MEMORY);
      EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_INNOCENT_CONTEXT_RESET);
      EXPECT_EQ(ctx.GetGraphicsResetStatus(), GL_NO_ERROR);  // observe+clear
      EXPECT_FALSE(ctx.last_draw_error().empty());
      // The dropped draw never executed: state is byte-exactly pre-drop.
      ExpectSnapshotEq(Snap(ctx), pre, "post-drop");
      const cmd::Stats s = ctx.command_stream_stats();
      EXPECT_GE(s.lists_dropped, 1u);

      // Recovery on a fresh list: byte-identical to the never-faulted twin
      // at identical per-draw counter cost.
      const std::uint64_t ctx_before = ctx.alu().counts().alu;
      const std::uint64_t twin_before = twin.alu().counts().alu;
      DrawFullscreenQuad(ctx, prog);
      DrawFullscreenQuad(twin, tprog);
      ASSERT_EQ(ctx.GetError(), GL_NO_ERROR) << ctx.last_draw_error();
      ASSERT_EQ(twin.GetError(), GL_NO_ERROR);
      EXPECT_EQ(ReadRgba(ctx, kW, kH), ReadRgba(twin, kW, kH))
          << "recovery draw differs from never-faulted twin";
      EXPECT_EQ(ctx.alu().counts().alu - ctx_before,
                twin.alu().counts().alu - twin_before);
    }
  }
}

// The watchdog budget has exactly two inputs: ContextConfig::draw_budget at
// construction and SetDrawBudget afterwards; a stray MGPU_DRAW_BUDGET in
// the environment changes neither.
TEST(FaultInjection, DrawBudgetConfigKnob) {
  ::setenv("MGPU_DRAW_BUDGET", "7", 1);
  {
    ContextConfig cfg = MakeConfig(ExecEngine::kBatchedVm, 1, 32);
    cfg.draw_budget = 12345;
    Context ctx(cfg);
    EXPECT_EQ(ctx.draw_budget(), 12345u);
    ctx.SetDrawBudget(0);
    EXPECT_EQ(ctx.draw_budget(), 0u);
    ctx.SetDrawBudget(99);
    EXPECT_EQ(ctx.draw_budget(), 99u);
  }
  {
    Context ctx(MakeConfig(ExecEngine::kBatchedVm, 1, 32));
    EXPECT_EQ(ctx.draw_budget(), 0u);  // the default: off
  }
  ::unsetenv("MGPU_DRAW_BUDGET");
}

}  // namespace
}  // namespace mgpu::gles2

// Custom main: gtest_main cannot parse --fault_iters. InitGoogleTest strips
// the flags it owns; ours is consumed here.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fault_iters=", 14) == 0) {
      mgpu::gles2::g_fault_iters = std::atoi(argv[i] + 14);
    } else {
      std::fprintf(stderr, "gles2_fault_test: unknown argument '%s'\n",
                   argv[i]);
      return 2;
    }
  }
  std::printf("fault-injection sweep: %d seeded scenarios\n",
              mgpu::gles2::g_fault_iters);
  return RUN_ALL_TESTS();
}
