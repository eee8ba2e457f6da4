// Tiled-pipeline invariants. The two-phase rasterizer (tile binning +
// worker-pool shading) must be invisible: primitives spanning tile
// boundaries shade exactly once per pixel, and an N-thread draw is
// byte-identical to the 1-thread reference — framebuffer bytes AND
// ALU/SFU/TMU operation counts — because tiles partition the framebuffer
// and per-worker counter shards merge by summation.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compute/device.h"
#include "compute/ops.h"
#include "gles2/context.h"
#include "gles2/tiler.h"
#include "gles2_test_util.h"
#include "glsl/alu.h"
#include "gtest/gtest.h"
#include "vc4/alu.h"
#include "vc4/profiles.h"

namespace mgpu::gles2 {
namespace {

// ---------------------------------------------------------------------------
// TileBinner unit tests
// ---------------------------------------------------------------------------

TEST(TileBinnerTest, PartialEdgeTilesAreClampedToTarget) {
  TileBinner b(161, 131);  // 3x3 grid, right/top tiles partial
  ASSERT_EQ(b.tiles_x(), 3);
  ASSERT_EQ(b.tiles_y(), 3);
  b.BinTile(0, 2, 2);
  const TileBinner::Tile& last = b.tile(8);
  EXPECT_EQ(last.rect.x0, 128);
  EXPECT_EQ(last.rect.y0, 128);
  EXPECT_EQ(last.rect.x1, 161);
  EXPECT_EQ(last.rect.y1, 131);
}

TEST(TileBinnerTest, SpanningPrimitiveLandsInEveryTouchedBin) {
  TileBinner b(200, 200);  // 4x4 grid
  b.Bin(7, PixelRect{30, 30, 150, 90});  // spans tiles x 0..2, y 0..1
  const auto work = b.NonEmptyTiles();
  ASSERT_EQ(work.size(), 6u);
  for (const std::uint32_t t : work) {
    ASSERT_EQ(b.tile(t).prims.size(), 1u);
    EXPECT_EQ(b.tile(t).prims[0], 7u);
  }
  // Row-major: tiles (0,0) (1,0) (2,0) (0,1) (1,1) (2,1).
  EXPECT_EQ(work, (std::vector<std::uint32_t>{0, 1, 2, 4, 5, 6}));
}

TEST(TileBinnerTest, SubmissionOrderIsPreservedPerBin) {
  TileBinner b(64, 64);
  b.Bin(3, PixelRect{0, 0, 10, 10});
  b.Bin(1, PixelRect{0, 0, 64, 64});
  b.Bin(2, PixelRect{5, 5, 6, 6});
  EXPECT_EQ(b.tile(0).prims, (std::vector<std::uint32_t>{3, 1, 2}));
}

TEST(TileBinnerTest, SparseStorageScalesWithTouchedTilesNotGridSize) {
  // A huge target: the dense grid would be ~2.4M tiles. A tiny draw must
  // only materialize the bins it touches.
  TileBinner b(100'000, 100'000);
  ASSERT_EQ(b.tiles_x(), 1563);
  b.Bin(0, PixelRect{70'000, 70'000, 70'010, 70'010});
  b.BinTile(1, 0, 0);
  EXPECT_EQ(b.NonEmptyTiles().size(), 2u);
  EXPECT_LE(b.slot_capacity(), 4u);
  EXPECT_LE(b.table_capacity(), 64u);
}

TEST(TileBinnerTest, BeginDrawDropsOldBinsAndResizesGrid) {
  TileBinner b(200, 200);
  b.Bin(1, PixelRect{0, 0, 200, 200});
  ASSERT_EQ(b.NonEmptyTiles().size(), 16u);
  b.BeginDraw(65, 65);  // 2x2 grid now
  EXPECT_EQ(b.tiles_x(), 2);
  EXPECT_TRUE(b.NonEmptyTiles().empty());
  b.Bin(2, PixelRect{0, 0, 65, 65});
  const auto work = b.NonEmptyTiles();
  EXPECT_EQ(work, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  for (const std::uint32_t t : work) {
    EXPECT_EQ(b.tile(t).prims, (std::vector<std::uint32_t>{2}));
  }
}

TEST(TileBinnerTest, SteadyStateDrawLoopDoesNotGrowTheHeap) {
  TileBinner b;
  // Warm-up lap establishes the high-water mark...
  b.BeginDraw(1000, 1000);
  b.Bin(0, PixelRect{100, 100, 400, 400});
  const std::size_t slots = b.slot_capacity();
  const std::size_t table = b.table_capacity();
  ASSERT_GT(slots, 0u);
  // ...after which identical draws must not allocate: same slot count, same
  // table, and per-bin prims capacity recycled (asserted via capacity()).
  for (int draw = 0; draw < 100; ++draw) {
    b.BeginDraw(1000, 1000);
    b.Bin(0, PixelRect{100, 100, 400, 400});
    b.Bin(1, PixelRect{150, 150, 300, 300});
  }
  EXPECT_EQ(b.slot_capacity(), slots);
  EXPECT_EQ(b.table_capacity(), table);
}

// ---------------------------------------------------------------------------
// Exactly-once coverage across tile boundaries (end-to-end)
// ---------------------------------------------------------------------------

constexpr int kW = 161;  // 3x3 tiles with partial right/top tiles
constexpr int kH = 131;

constexpr char kOneFs[] = R"(
precision highp float;
void main() { gl_FragColor = vec4(1.0 / 255.0); }
)";

void ExpectCoverageCounts(Context& ctx, int max_expected,
                          const char* what) {
  const std::vector<std::uint8_t> px = testutil::ReadRgba(ctx, kW, kH);
  int covered = 0;
  int bad = 0;
  for (std::size_t i = 0; i < px.size(); i += 4) {
    covered += px[i] != 0;
    bad += px[i] > max_expected;
  }
  EXPECT_GT(covered, 0) << what;
  EXPECT_EQ(bad, 0) << what << ": some pixel shaded more than "
                    << max_expected << " time(s) (tile seam double-shade)";
}

TEST(TilingCoverageTest, QuadSpanningAllTilesShadesOncePerPixel) {
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  Context ctx(cfg);
  const GLuint prog =
      testutil::BuildProgramOrDie(ctx, testutil::kPassthroughVs, kOneFs);
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_ONE, GL_ONE);  // framebuffer counts shade events
  ctx.ClearColor(0, 0, 0, 0);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  testutil::DrawFullscreenQuad(ctx, prog);
  ASSERT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
  const std::vector<std::uint8_t> px = testutil::ReadRgba(ctx, kW, kH);
  for (std::size_t i = 0; i < px.size(); i += 4) {
    ASSERT_EQ(px[i], 1) << "pixel " << (i / 4) % kW << "," << (i / 4) / kW
                        << " shaded " << int{px[i]} << " times";
  }
}

TEST(TilingCoverageTest, SkewedTriangleAcrossTileSeams) {
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  Context ctx(cfg);
  const GLuint prog =
      testutil::BuildProgramOrDie(ctx, testutil::kPassthroughVs, kOneFs);
  ctx.UseProgram(prog);
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_ONE, GL_ONE);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  // A thin, skewed triangle crossing both tile rows and all tile columns.
  const float tri[6] = {-0.95f, -0.9f, 0.98f, -0.2f, -0.4f, 0.95f};
  const GLint loc = ctx.GetAttribLocation(prog, "a_pos");
  ASSERT_GE(loc, 0);
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          tri);
  ctx.DrawArrays(GL_TRIANGLES, 0, 3);
  ASSERT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
  ExpectCoverageCounts(ctx, 1, "skewed triangle");
}

TEST(TilingCoverageTest, LineCrossingTilesEmitsEachPixelOnce) {
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  Context ctx(cfg);
  const GLuint prog =
      testutil::BuildProgramOrDie(ctx, testutil::kPassthroughVs, kOneFs);
  ctx.UseProgram(prog);
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_ONE, GL_ONE);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  const float seg[4] = {-0.97f, -0.93f, 0.91f, 0.88f};
  const GLint loc = ctx.GetAttribLocation(prog, "a_pos");
  ASSERT_GE(loc, 0);
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          seg);
  ctx.DrawArrays(GL_LINES, 0, 2);
  ASSERT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
  ExpectCoverageCounts(ctx, 1, "diagonal line");
}

// ---------------------------------------------------------------------------
// N-thread vs 1-thread differential over a draw-scenario corpus
// ---------------------------------------------------------------------------

struct Scenario {
  const char* name;
  void (*run)(Context& ctx);
};

void ScenarioQuadMath(Context& ctx) {
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      R"(
precision highp float;
varying vec2 v_uv;
uniform float u_gain;
void main() {
  float w = fract(v_uv.x * 7.0 + sin(v_uv.y * 13.0));
  float p = pow(v_uv.x + 0.5, 1.7) + exp(-v_uv.y);
  gl_FragColor = vec4(w * u_gain, fract(p), v_uv.y, 1.0);
}
)");
  ctx.UseProgram(prog);
  ctx.Uniform1f(ctx.GetUniformLocation(prog, "u_gain"), 0.8f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  testutil::DrawFullscreenQuad(ctx, prog);
}

void ScenarioTextured(Context& ctx) {
  // NPOT texture, repeat-wrapped scaled UVs: exercises both the sampler
  // and the per-tile TMU-cache model (misses must sum identically).
  GLuint tex = 0;
  ctx.GenTextures(1, &tex);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  std::vector<std::uint8_t> img(37 * 29 * 4);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::uint8_t>((i * 37 + 11) & 0xff);
  }
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 37, 29, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, img.data());
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_S, GL_CLAMP_TO_EDGE);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_WRAP_T, GL_CLAMP_TO_EDGE);
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      R"(
precision highp float;
varying vec2 v_uv;
uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_uv * 0.9 + 0.05); }
)");
  ctx.UseProgram(prog);
  ctx.Uniform1i(ctx.GetUniformLocation(prog, "u_tex"), 0);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  testutil::DrawFullscreenQuad(ctx, prog);
}

void ScenarioDepthBlend(Context& ctx) {
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx,
      R"(
attribute vec3 a_xyz;
attribute vec4 a_rgba;
varying vec4 v_rgba;
void main() { v_rgba = a_rgba; gl_Position = vec4(a_xyz, 1.0); }
)",
      R"(
precision highp float;
varying vec4 v_rgba;
void main() { gl_FragColor = v_rgba; }
)");
  ctx.UseProgram(prog);
  ctx.Enable(GL_DEPTH_TEST);
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_SRC_ALPHA, GL_ONE_MINUS_SRC_ALPHA);
  ctx.Clear(GL_COLOR_BUFFER_BIT | GL_DEPTH_BUFFER_BIT);
  // Two overlapping triangles at different depths; submission order matters
  // in the overlap, so this catches any intra-tile reordering.
  const float xyz[] = {
      -0.9f, -0.9f, 0.2f, 0.9f, -0.9f, 0.2f, 0.0f, 0.9f, 0.2f,
      -0.7f, -0.7f, 0.6f, 0.9f, 0.6f,  0.6f, -0.2f, 0.8f, 0.6f,
  };
  const float rgba[] = {
      1, 0, 0, 0.8f, 1, 0, 0, 0.8f, 1, 0, 0, 0.8f,
      0, 0, 1, 0.5f, 0, 0, 1, 0.5f, 0, 0, 1, 0.5f,
  };
  const GLint lx = ctx.GetAttribLocation(prog, "a_xyz");
  const GLint lc = ctx.GetAttribLocation(prog, "a_rgba");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(lx));
  ctx.VertexAttribPointer(static_cast<GLuint>(lx), 3, GL_FLOAT, GL_FALSE, 0,
                          xyz);
  ctx.EnableVertexAttribArray(static_cast<GLuint>(lc));
  ctx.VertexAttribPointer(static_cast<GLuint>(lc), 4, GL_FLOAT, GL_FALSE, 0,
                          rgba);
  ctx.DrawArrays(GL_TRIANGLES, 0, 6);
}

void ScenarioDiscard(Context& ctx) {
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      R"(
precision highp float;
varying vec2 v_uv;
void main() {
  if (mod(floor(v_uv.x * 23.0) + floor(v_uv.y * 17.0), 2.0) < 0.5) discard;
  gl_FragColor = vec4(v_uv, 0.5, 1.0);
}
)");
  ctx.UseProgram(prog);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  testutil::DrawFullscreenQuad(ctx, prog);
}

void ScenarioPointsAndLines(Context& ctx) {
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx,
      R"(
attribute vec2 a_pos;
varying vec2 v_uv;
void main() {
  v_uv = a_pos * 0.5 + 0.5;
  gl_Position = vec4(a_pos, 0.0, 1.0);
  gl_PointSize = 9.0;
}
)",
      R"(
precision highp float;
varying vec2 v_uv;
void main() { gl_FragColor = vec4(v_uv, gl_PointCoord.x, 1.0); }
)");
  ctx.UseProgram(prog);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  // Points near tile corners (9-px sprites straddle seams) + a line loop.
  const float pts[] = {-0.8f, -0.8f, -0.21f, -0.02f, 0.02f, 0.02f,
                       0.6f,  0.7f,  0.99f,  0.99f,  -0.99f, 0.99f};
  const GLint loc = ctx.GetAttribLocation(prog, "a_pos");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          pts);
  ctx.DrawArrays(GL_POINTS, 0, 6);
  ctx.DrawArrays(GL_LINE_LOOP, 0, 6);
}

constexpr Scenario kScenarios[] = {
    {"quad_math", ScenarioQuadMath},
    {"textured", ScenarioTextured},
    {"depth_blend", ScenarioDepthBlend},
    {"discard", ScenarioDiscard},
    {"points_and_lines", ScenarioPointsAndLines},
};

struct RunResult {
  std::vector<std::uint8_t> px;
  glsl::OpCounts counts;
};

RunResult RunScenario(const Scenario& sc, int threads) {
  // The VC4 ALU model exercises Fork() of the precision-perturbing model,
  // not just the exact one.
  vc4::Vc4Alu alu(vc4::VideoCoreIV());
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.shader_threads = threads;
  Context ctx(cfg, &alu);
  alu.ResetCounts();
  sc.run(ctx);
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR))
      << sc.name << " threads=" << threads
      << " draw error: " << ctx.last_draw_error();
  RunResult r;
  r.counts = alu.counts();
  r.px = testutil::ReadRgba(ctx, kW, kH);
  return r;
}

TEST(ThreadDifferentialTest, NThreadMatchesSerialReferenceExactly) {
  for (const Scenario& sc : kScenarios) {
    const RunResult ref = RunScenario(sc, 1);
    for (const int threads : {2, 4, 0 /* hardware_concurrency */}) {
      const RunResult got = RunScenario(sc, threads);
      EXPECT_EQ(got.px, ref.px)
          << sc.name << ": framebuffer differs at threads=" << threads;
      EXPECT_EQ(got.counts.alu, ref.counts.alu) << sc.name << " t=" << threads;
      EXPECT_EQ(got.counts.sfu, ref.counts.sfu) << sc.name << " t=" << threads;
      EXPECT_EQ(got.counts.sfu_trans, ref.counts.sfu_trans)
          << sc.name << " t=" << threads;
      EXPECT_EQ(got.counts.tmu, ref.counts.tmu) << sc.name << " t=" << threads;
      EXPECT_EQ(got.counts.tmu_miss, ref.counts.tmu_miss)
          << sc.name << " t=" << threads;
    }
    // Work was actually performed.
    EXPECT_GT(ref.counts.alu, 0u) << sc.name;
  }
}

// ---------------------------------------------------------------------------
// Engine differential: batched VM vs scalar VM vs tree-walking oracle
// ---------------------------------------------------------------------------

RunResult RunScenarioOnEngine(const Scenario& sc, ExecEngine engine,
                              int threads, bool vc4_alu) {
  vc4::Vc4Alu vc4(vc4::VideoCoreIV());
  glsl::ExactAlu exact;
  glsl::AluModel& alu = vc4_alu ? static_cast<glsl::AluModel&>(vc4) : exact;
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.shader_threads = threads;
  cfg.exec_engine = engine;
  Context ctx(cfg, &alu);
  alu.ResetCounts();
  sc.run(ctx);
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR))
      << sc.name << " engine=" << static_cast<int>(engine)
      << " draw error: " << ctx.last_draw_error();
  RunResult r;
  r.counts = alu.counts();
  r.px = testutil::ReadRgba(ctx, kW, kH);
  return r;
}

void ExpectEngineAgreement(const Scenario& sc, bool vc4_alu) {
  SCOPED_TRACE(std::string(sc.name) + (vc4_alu ? " vc4" : " exact"));
  // Scalar VM, serial: the reference.
  const RunResult ref =
      RunScenarioOnEngine(sc, ExecEngine::kBytecodeVm, 1, vc4_alu);
  struct Config {
    ExecEngine engine;
    int threads;
    const char* what;
  };
  const Config configs[] = {
      {ExecEngine::kBatchedVm, 1, "batched serial"},
      {ExecEngine::kBatchedVm, 3, "batched threaded"},
      {ExecEngine::kBytecodeVm, 3, "scalar threaded"},
      {ExecEngine::kTreeWalk, 1, "tree-walk oracle"},
  };
  for (const Config& c : configs) {
    const RunResult got =
        RunScenarioOnEngine(sc, c.engine, c.threads, vc4_alu);
    EXPECT_EQ(got.px, ref.px) << c.what << ": framebuffer differs";
    EXPECT_EQ(got.counts.alu, ref.counts.alu) << c.what;
    EXPECT_EQ(got.counts.sfu, ref.counts.sfu) << c.what;
    EXPECT_EQ(got.counts.sfu_trans, ref.counts.sfu_trans) << c.what;
    EXPECT_EQ(got.counts.tmu, ref.counts.tmu) << c.what;
    EXPECT_EQ(got.counts.tmu_miss, ref.counts.tmu_miss) << c.what;
  }
  EXPECT_GT(ref.counts.alu, 0u);
}

TEST(EngineDifferentialTest, AllEnginesAgreeOnScenarioCorpusExactAlu) {
  for (const Scenario& sc : kScenarios) ExpectEngineAgreement(sc, false);
}

TEST(EngineDifferentialTest, AllEnginesAgreeOnScenarioCorpusVc4Alu) {
  for (const Scenario& sc : kScenarios) ExpectEngineAgreement(sc, true);
}

// Divergence-heavy scenario: per-pixel branches, varying loop trip counts,
// calls inside divergent branches, divergent discard, and texture fetches
// in one branch side — the masked executor's whole menu in one draw.
void ScenarioDivergent(Context& ctx) {
  GLuint tex = 0;
  ctx.GenTextures(1, &tex);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  std::vector<std::uint8_t> img(16 * 16 * 4);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::uint8_t>((i * 13 + 5) & 0xff);
  }
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 16, 16, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, img.data());
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      R"(
precision highp float;
varying vec2 v_uv;
uniform sampler2D u_tex;
float weight(float x) {
  if (x > 0.6) return sin(x * 9.0);
  return cos(x * 5.0) * 0.5;
}
void main() {
  if (fract(v_uv.x * 13.0 + v_uv.y * 7.0) < 0.15) discard;
  float acc = 0.0;
  int n = int(mod(v_uv.x * 37.0, 6.0)) + 1;
  for (int i = 0; i < 8; ++i) {
    if (i >= n) break;
    acc += weight(v_uv.y + float(i) * 0.09);
  }
  vec4 t = vec4(0.25);
  if (v_uv.y > 0.5) t = texture2D(u_tex, v_uv * 3.0);
  gl_FragColor = vec4(fract(acc), t.xy, 1.0);
}
)");
  ctx.UseProgram(prog);
  ctx.Uniform1i(ctx.GetUniformLocation(prog, "u_tex"), 0);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  testutil::DrawFullscreenQuad(ctx, prog);
}

TEST(EngineDifferentialTest, DivergentControlFlowAgreesAcrossEngines) {
  const Scenario sc{"divergent", ScenarioDivergent};
  ExpectEngineAgreement(sc, /*vc4_alu=*/false);
  ExpectEngineAgreement(sc, /*vc4_alu=*/true);
}

// Batch-tail coverage: draws of exactly n pixels for every n in
// [1, kFragBatchWidth + 1] — each ends in a RunBatch tail of size
// n % width — must match the scalar engine bit for bit, bytes and counts.
TEST(EngineDifferentialTest, EveryBatchTailSizeMatchesScalar) {
  for (int n = 1; n <= kFragBatchWidth + 1; ++n) {
    SCOPED_TRACE("pixels=" + std::to_string(n));
    auto run = [&](ExecEngine engine) {
      glsl::ExactAlu alu;
      ContextConfig cfg;
      cfg.width = kW;
      cfg.height = kH;
      cfg.shader_threads = 1;
      cfg.exec_engine = engine;
      Context ctx(cfg, &alu);
      const GLuint prog = testutil::BuildProgramOrDie(
          ctx, testutil::kPassthroughVs,
          R"(
precision highp float;
varying vec2 v_uv;
void main() {
  float pick = v_uv.x > 0.001 ? sin(v_uv.x * 40.0) : 0.5;
  gl_FragColor = vec4(fract(pick), v_uv.x, v_uv.y, 1.0);
}
)");
      ctx.UseProgram(prog);
      ctx.Clear(GL_COLOR_BUFFER_BIT);
      // Shrink the viewport so the fullscreen quad rasterizes to exactly an
      // n x 1 pixel strip — the draw's whole fragment stream is one batch
      // tail of n lanes.
      ctx.Viewport(3, 5, n, 1);
      testutil::DrawFullscreenQuad(ctx, prog);
      EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
      RunResult r;
      r.counts = alu.counts();
      r.px = testutil::ReadRgba(ctx, kW, kH);
      return r;
    };
    const RunResult batched = run(ExecEngine::kBatchedVm);
    const RunResult scalar = run(ExecEngine::kBytecodeVm);
    EXPECT_EQ(batched.px, scalar.px);
    EXPECT_EQ(batched.counts.alu, scalar.counts.alu);
    EXPECT_EQ(batched.counts.sfu_trans, scalar.counts.sfu_trans);
  }
}

// The tree-walking oracle cannot be cloned per worker; a multithreaded
// request must fall back to the serial path and still match the VM.
TEST(ThreadDifferentialTest, TreeWalkOracleMatchesParallelVm) {
  const Scenario& sc = kScenarios[0];
  const RunResult vm = RunScenario(sc, 4);
  vc4::Vc4Alu alu(vc4::VideoCoreIV());
  ContextConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.shader_threads = 4;
  cfg.exec_engine = ExecEngine::kTreeWalk;
  Context ctx(cfg, &alu);
  alu.ResetCounts();
  sc.run(ctx);
  const std::vector<std::uint8_t> px = testutil::ReadRgba(ctx, kW, kH);
  EXPECT_EQ(px, vm.px);
  EXPECT_EQ(alu.counts().alu, vm.counts.alu);
  EXPECT_EQ(alu.counts().tmu_miss, vm.counts.tmu_miss);
}

// A shader trap mid-parallel-draw must abort the draw transactionally and
// leave the context as good as new: counters restored to their pre-draw
// values, and the NEXT draw byte-identical — framebuffer and op counts —
// to a context that never trapped. This composes the pool-level guarantee
// (a throwing worker task neither deadlocks RunOn nor poisons later jobs;
// see threadpool_test.cc) with the context's transactional abort, across
// thread counts on the multi-tile target.
TEST(ThreadDifferentialTest, TrapMidDrawDoesNotPoisonSubsequentDraws) {
  // Right-half lanes call a declared-but-undefined function: a
  // lane-divergent runtime trap that fires only once shading is well under
  // way across several tiles.
  static const char* kTrapFs = R"(
precision highp float;
varying vec2 v_uv;
float poison(float x);
void main() {
  float v = v_uv.x;
  if (v_uv.x > 0.5) { v = poison(v); }
  gl_FragColor = vec4(v, 0.0, 0.0, 1.0);
}
)";
  const Scenario& sc = kScenarios[0];  // quad_math
  const RunResult ref = RunScenario(sc, 1);  // never-trapped reference
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    vc4::Vc4Alu alu(vc4::VideoCoreIV());
    ContextConfig cfg;
    cfg.width = kW;
    cfg.height = kH;
    cfg.shader_threads = threads;
    Context ctx(cfg, &alu);
    const GLuint bad =
        testutil::BuildProgramOrDie(ctx, testutil::kPassthroughVs, kTrapFs);
    ctx.UseProgram(bad);
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    const glsl::OpCounts before = alu.counts();
    testutil::DrawFullscreenQuad(ctx, bad);
    EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_INVALID_OPERATION))
        << "trapping draw must flag GL_INVALID_OPERATION";
    EXPECT_NE(ctx.last_draw_error().find("undefined function"),
              std::string::npos)
        << "unexpected draw error: " << ctx.last_draw_error();
    EXPECT_EQ(alu.counts().alu, before.alu)
        << "aborted draw leaked ALU counter state";
    // Recovery: the clean scenario on the survivor context must match the
    // never-trapped reference bit for bit.
    alu.ResetCounts();
    sc.run(ctx);
    EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR))
        << "recovery draw error: " << ctx.last_draw_error();
    EXPECT_EQ(testutil::ReadRgba(ctx, kW, kH), ref.px);
    EXPECT_EQ(alu.counts().alu, ref.counts.alu);
    EXPECT_EQ(alu.counts().sfu, ref.counts.sfu);
    EXPECT_EQ(alu.counts().tmu, ref.counts.tmu);
  }
}

// ---------------------------------------------------------------------------
// Row-band work items: single-tile draws split across the shading pool
// ---------------------------------------------------------------------------
//
// A heavy draw with fewer non-empty tiles than workers is cut into row
// bands; the texture-cache model is replayed per tile in emission order at
// join. Every scenario below covers fewer tiles than most of the worker
// counts and is heavy enough to split (each asserts band_split_draws()
// moved when workers outnumber its tiles), and must be byte-identical to the
// serial reference — framebuffer and every op count, tmu_miss included —
// on every engine, both ALU models, and worker counts that divide the
// tile's rows unevenly. Thread counts are explicit (never 0) so a 1-core
// runner splits too.

struct BandScenario {
  const char* name;
  int w;
  int h;
  void (*run)(Context& ctx);
};

// Creates a NEAREST-filtered w x h texture bound to the active unit.
void MakeTexture(Context& ctx, int w, int h, int seed) {
  GLuint tex = 0;
  ctx.GenTextures(1, &tex);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  std::vector<std::uint8_t> img(static_cast<std::size_t>(w) * h * 4);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::uint8_t>((i * (37 + seed) + 11 * seed) & 0xff);
  }
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, w, h, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, img.data());
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
}

// Two textures on units 0 and 1 read along a row and a column per step —
// the GEMM kernel's access pattern, whose strided column walk is what
// makes TMU misses depend on emission order. kTrips scales the loop so
// smaller targets still clear the split gate.
template <int kTrips>
std::string BandGemmFs() {
  return R"(
precision highp float;
varying vec2 v_uv;
uniform sampler2D u_a;
uniform sampler2D u_b;
void main() {
  vec4 acc = vec4(0.0);
  for (int k = 0; k < )" +
         std::to_string(kTrips) + R"(; ++k) {
    float kk = (float(k) + 0.5) / )" +
         std::to_string(kTrips) + R"(.0;
    acc += texture2D(u_a, vec2(kk, v_uv.y)) * texture2D(u_b, vec2(v_uv.x, kk));
  }
  gl_FragColor = fract(acc * 0.37);
}
)";
}

void BindGemmInputs(Context& ctx, GLuint prog) {
  ctx.UseProgram(prog);
  ctx.ActiveTexture(GL_TEXTURE0);
  MakeTexture(ctx, 48, 40, 1);
  ctx.ActiveTexture(GL_TEXTURE0 + 1);
  MakeTexture(ctx, 56, 48, 2);
  ctx.ActiveTexture(GL_TEXTURE0);
  ctx.Uniform1i(ctx.GetUniformLocation(prog, "u_a"), 0);
  ctx.Uniform1i(ctx.GetUniformLocation(prog, "u_b"), 1);
}

template <int kTrips>
void BandGemmQuad(Context& ctx) {
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx, testutil::kPassthroughVs, BandGemmFs<kTrips>());
  BindGemmInputs(ctx, prog);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  testutil::DrawFullscreenQuad(ctx, prog);
}

// Overlapping, blended, depth-tested textured triangles in one draw: each
// pixel's writes must land in primitive order, and the texture streams of
// different primitives interleave across band boundaries.
void BandOverlapBlendDepth(Context& ctx) {
  MakeTexture(ctx, 97, 83, 3);
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx,
      R"(
attribute vec3 a_xyz;
varying vec2 v_uv;
void main() {
  v_uv = a_xyz.xy * 0.5 + 0.5;
  gl_Position = vec4(a_xyz, 1.0);
}
)",
      R"(
precision highp float;
varying vec2 v_uv;
uniform sampler2D u_tex;
void main() {
  vec4 acc = vec4(0.0);
  for (int k = 0; k < 16; ++k) {
    acc += texture2D(u_tex, fract(v_uv * float(k + 1) * 0.71));
  }
  gl_FragColor = vec4(fract(acc.rgb * 0.13), 0.6);
}
)");
  ctx.UseProgram(prog);
  ctx.Uniform1i(ctx.GetUniformLocation(prog, "u_tex"), 0);
  ctx.Enable(GL_DEPTH_TEST);
  ctx.DepthFunc(GL_LEQUAL);
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_SRC_ALPHA, GL_ONE_MINUS_SRC_ALPHA);
  ctx.Clear(GL_COLOR_BUFFER_BIT | GL_DEPTH_BUFFER_BIT);
  const float xyz[] = {
      -0.95f, -0.9f,  0.5f,  0.9f,  -0.95f, 0.5f,  0.1f,  0.97f, 0.5f,
      -0.8f,  0.85f,  0.2f,  -0.7f, -0.9f,  0.2f,  0.95f, 0.3f,  0.2f,
      -1.0f,  -0.2f,  0.5f,  0.99f, -0.6f,  0.5f,  0.3f,  0.9f,  0.5f,
      -0.3f,  -1.0f,  -0.4f, 0.6f,  0.95f,  -0.4f, -0.9f, 0.4f,  -0.4f,
  };
  const GLint loc = ctx.GetAttribLocation(prog, "a_xyz");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 3, GL_FLOAT, GL_FALSE, 0,
                          xyz);
  ctx.DrawArrays(GL_TRIANGLES, 0, 12);
}

// Lines walking up and down the rows (a downward line's bands replay in
// reverse), then a separate draw of large points.
void BandLinesAndPoints(Context& ctx) {
  MakeTexture(ctx, 40, 40, 4);
  const GLuint prog = testutil::BuildProgramOrDie(
      ctx,
      R"(
attribute vec2 a_pos;
varying vec2 v_uv;
void main() {
  v_uv = a_pos * 0.5 + 0.5;
  gl_Position = vec4(a_pos, 0.0, 1.0);
  gl_PointSize = 13.0;
}
)",
      R"(
precision highp float;
varying vec2 v_uv;
uniform sampler2D u_tex;
void main() {
  vec4 acc = vec4(0.0);
  for (int k = 0; k < 64; ++k) {
    acc += texture2D(u_tex, fract(v_uv.yx * float(k) * 0.173 + gl_PointCoord));
  }
  gl_FragColor = vec4(fract(acc.rgb * 0.07), 1.0);
}
)");
  ctx.UseProgram(prog);
  ctx.Uniform1i(ctx.GetUniformLocation(prog, "u_tex"), 0);
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_ONE, GL_ONE);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  const GLint loc = ctx.GetAttribLocation(prog, "a_pos");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  const float lines[] = {
      -0.95f, -0.9f, 0.9f,  0.97f,   // up, steep
      0.8f,   0.95f, -0.9f, -0.85f,  // down, crossing the first
      -0.9f,  0.6f,  0.95f, -0.3f,   // down, shallow
      0.2f,   -0.97f, 0.35f, 0.99f,  // up, near-vertical
      -0.99f, 0.1f,  0.99f, 0.12f,   // almost horizontal
  };
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          lines);
  ctx.DrawArrays(GL_LINES, 0, 10);
  const float pts[] = {-0.8f, -0.8f, -0.2f, 0.1f, 0.05f, 0.03f, 0.6f,  0.7f,
                       0.9f,  -0.9f, -0.6f, 0.8f, 0.3f,  -0.4f, -0.1f, -0.1f};
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          pts);
  ctx.DrawArrays(GL_POINTS, 0, 8);
}

constexpr BandScenario kBandScenarios[] = {
    {"gemm_two_textures", 64, 64, BandGemmQuad<16>},
    {"overlap_blend_depth", 64, 64, BandOverlapBlendDepth},
    {"lines_and_points", 64, 64, BandLinesAndPoints},
    // Bands that do not divide the rows evenly (and, at 64x5, more workers
    // than rows for some thread counts).
    {"odd_48x48", 48, 48, BandGemmQuad<24>},
    {"odd_33x17", 33, 17, BandGemmQuad<96>},
    {"odd_64x5", 64, 5, BandGemmQuad<160>},
    // Two tiles: split once workers outnumber them, each tile replayed as
    // its own TMU session.
    {"two_tiles_128x40", 128, 40, BandGemmQuad<24>},
};

struct BandRun {
  std::vector<std::uint8_t> px;
  glsl::OpCounts counts;
  std::uint64_t splits = 0;
};

BandRun RunBandScenario(const BandScenario& sc, ExecEngine engine,
                        int threads, bool vc4_alu) {
  vc4::Vc4Alu vc4(vc4::VideoCoreIV());
  glsl::ExactAlu exact;
  glsl::AluModel& alu = vc4_alu ? static_cast<glsl::AluModel&>(vc4) : exact;
  ContextConfig cfg;
  cfg.width = sc.w;
  cfg.height = sc.h;
  cfg.shader_threads = threads;
  cfg.exec_engine = engine;
  Context ctx(cfg, &alu);
  alu.ResetCounts();
  sc.run(ctx);
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR))
      << ctx.last_draw_error();
  BandRun r;
  r.counts = alu.counts();
  r.px = testutil::ReadRgba(ctx, sc.w, sc.h);
  r.splits = ctx.band_split_draws();
  return r;
}

void ExpectBandScenarioMatchesSerial(const BandScenario& sc, bool vc4_alu) {
  struct EngineCase {
    ExecEngine engine;
    const char* name;
  };
  const EngineCase engines[] = {
      {ExecEngine::kTreeWalk, "tree"},
      {ExecEngine::kBytecodeVm, "scalar-vm"},
      {ExecEngine::kBatchedVm, "batched"},
  };
  for (const EngineCase& e : engines) {
    SCOPED_TRACE(std::string(sc.name) + " " + e.name +
                 (vc4_alu ? " vc4" : " exact"));
    const BandRun ref = RunBandScenario(sc, e.engine, 1, vc4_alu);
    EXPECT_EQ(ref.splits, 0u) << "shader_threads=1 must never split";
    EXPECT_GT(ref.counts.tmu_miss, 0u);
    for (const int threads : {2, 3, 4, 7}) {
      const BandRun got = RunBandScenario(sc, e.engine, threads, vc4_alu);
      const int tiles = ((sc.w + kTileSize - 1) / kTileSize) *
                        ((sc.h + kTileSize - 1) / kTileSize);
      if (e.engine == ExecEngine::kTreeWalk || threads <= tiles) {
        EXPECT_EQ(got.splits, 0u) << "threads=" << threads;
      } else {
        EXPECT_GT(got.splits, 0u) << "threads=" << threads
                                  << ": scenario did not split";
      }
      EXPECT_EQ(got.px, ref.px) << "threads=" << threads;
      EXPECT_EQ(got.counts.alu, ref.counts.alu) << "threads=" << threads;
      EXPECT_EQ(got.counts.sfu, ref.counts.sfu) << "threads=" << threads;
      EXPECT_EQ(got.counts.sfu_trans, ref.counts.sfu_trans)
          << "threads=" << threads;
      EXPECT_EQ(got.counts.tmu, ref.counts.tmu) << "threads=" << threads;
      EXPECT_EQ(got.counts.tmu_miss, ref.counts.tmu_miss)
          << "threads=" << threads;
    }
  }
}

TEST(BandSplitDifferentialTest, MatchesSerialExactAlu) {
  for (const BandScenario& sc : kBandScenarios) {
    ExpectBandScenarioMatchesSerial(sc, /*vc4_alu=*/false);
  }
}

TEST(BandSplitDifferentialTest, MatchesSerialVc4Alu) {
  for (const BandScenario& sc : kBandScenarios) {
    ExpectBandScenarioMatchesSerial(sc, /*vc4_alu=*/true);
  }
}

// The scenarios' engines against each other too: the scalar VM serial
// reference and every engine at 4 threads agree.
TEST(BandSplitDifferentialTest, EnginesAgreeUnderBands) {
  const BandScenario& sc = kBandScenarios[0];
  const BandRun ref = RunBandScenario(sc, ExecEngine::kBytecodeVm, 1, true);
  for (const ExecEngine engine :
       {ExecEngine::kBytecodeVm, ExecEngine::kBatchedVm}) {
    const BandRun got = RunBandScenario(sc, engine, 4, true);
    EXPECT_GT(got.splits, 0u);
    EXPECT_EQ(got.px, ref.px);
    EXPECT_EQ(got.counts.alu, ref.counts.alu);
    EXPECT_EQ(got.counts.tmu_miss, ref.counts.tmu_miss);
  }
}

template <typename T>
struct GemmRun {
  std::vector<T> out;
  vc4::GpuWork work;
  std::uint64_t splits = 0;
};

template <typename T, typename Op>
GemmRun<T> RunGemm(int n, int threads, const std::vector<T>& a,
                   const std::vector<T>& b, Op op) {
  compute::DeviceOptions opt;
  opt.shader_threads = threads;
  compute::Device d(opt);
  GemmRun<T> r;
  r.out.resize(static_cast<std::size_t>(n) * n);
  (void)d.ConsumeWork();
  op(d, n, a, b, r.out);
  r.work = d.ConsumeWork();
  r.splits = d.gl().band_split_draws();
  return r;
}

void ExpectWorkEq(const vc4::GpuWork& a, const vc4::GpuWork& b) {
  EXPECT_EQ(a.fragments, b.fragments);
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.shader_ops.alu, b.shader_ops.alu);
  EXPECT_EQ(a.shader_ops.sfu, b.shader_ops.sfu);
  EXPECT_EQ(a.shader_ops.sfu_trans, b.shader_ops.sfu_trans);
  EXPECT_EQ(a.shader_ops.tmu, b.shader_ops.tmu);
  EXPECT_EQ(a.shader_ops.tmu_miss, b.shader_ops.tmu_miss);
  EXPECT_EQ(a.bytes_uploaded, b.bytes_uploaded);
  EXPECT_EQ(a.bytes_readback, b.bytes_readback);
  EXPECT_EQ(a.program_compiles, b.program_compiles);
  EXPECT_EQ(a.draw_calls, b.draw_calls);
  EXPECT_EQ(std::memcmp(&a.host_work, &b.host_work, sizeof(a.host_work)), 0);
}

// Gate, heavy side: one GEMM dispatch is one draw into a single tile, and
// n >= 32 splits it; outputs and modelled work are bit-equal to serial.
TEST(BandSplitGateTest, GemmDispatchesSplitExactlyOnceAndMatchSerial) {
  Rng rng(77);
  for (const int n : {32, 48}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::size_t nn = static_cast<std::size_t>(n) * n;
    const auto fa = rng.FloatVector(nn, -4.0f, 4.0f);
    const auto fb = rng.FloatVector(nn, -4.0f, 4.0f);
    const auto sgemm = [](compute::Device& d, int k,
                          const std::vector<float>& a,
                          const std::vector<float>& b,
                          std::vector<float>& out) {
      compute::ops::SgemmF32(d, k, a, b, out);
    };
    const GemmRun<float> fs = RunGemm<float>(n, 1, fa, fb, sgemm);
    const GemmRun<float> fp = RunGemm<float>(n, 4, fa, fb, sgemm);
    EXPECT_EQ(fs.splits, 0u);
    EXPECT_EQ(fp.splits, 1u);
    EXPECT_EQ(std::memcmp(fs.out.data(), fp.out.data(), nn * sizeof(float)),
              0);
    ExpectWorkEq(fs.work, fp.work);

    const auto ia = rng.IntVector(nn, -3000, 3000);
    const auto ib = rng.IntVector(nn, -3000, 3000);
    const auto gemm = [](compute::Device& d, int k,
                         const std::vector<std::int32_t>& a,
                         const std::vector<std::int32_t>& b,
                         std::vector<std::int32_t>& out) {
      compute::ops::GemmI32(d, k, a, b, out);
    };
    const GemmRun<std::int32_t> is = RunGemm<std::int32_t>(n, 1, ia, ib, gemm);
    const GemmRun<std::int32_t> ip = RunGemm<std::int32_t>(n, 4, ia, ib, gemm);
    EXPECT_EQ(is.splits, 0u);
    EXPECT_EQ(ip.splits, 1u);
    EXPECT_EQ(is.out, ip.out);
    ExpectWorkEq(is.work, ip.work);
  }
}

// Gate, light side: a multi-tenant frame — clear, a ~300-triangle mesh of
// ~1 px triangles, three blended textured quads — on a 64x64 target never
// splits, so contexts like it keep the serial path (no pool, no clones).
TEST(BandSplitGateTest, TenantShapedFrameNeverSplits) {
  vc4::Vc4Alu alu(vc4::VideoCoreIV());
  ContextConfig cfg;
  cfg.width = 64;
  cfg.height = 64;
  cfg.shader_threads = 4;
  Context ctx(cfg, &alu);
  const GLuint mesh = testutil::BuildProgramOrDie(
      ctx,
      R"(
attribute vec2 a_pos;
attribute vec3 a_aux;
varying vec3 v_shade;
void main() {
  v_shade = a_aux;
  gl_Position = vec4(a_pos, 0.0, 1.0);
}
)",
      R"(
precision mediump float;
varying vec3 v_shade;
void main() { gl_FragColor = vec4(v_shade, 1.0); }
)");
  const GLuint quad = testutil::BuildProgramOrDie(
      ctx,
      R"(
attribute vec2 a_pos;
attribute vec2 a_uv;
varying vec2 v_uv;
void main() {
  v_uv = a_uv;
  gl_Position = vec4(a_pos, 0.0, 1.0);
}
)",
      R"(
precision mediump float;
varying vec2 v_uv;
uniform sampler2D u_tex;
uniform vec4 u_tint;
void main() { gl_FragColor = texture2D(u_tex, v_uv) * u_tint; }
)");
  MakeTexture(ctx, 16, 16, 5);
  Rng rng(9);
  for (int frame = 0; frame < 3; ++frame) {
    ctx.Disable(GL_BLEND);
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    std::vector<float> pos;
    std::vector<float> aux;
    for (int t = 0; t < 300; ++t) {
      const float cx = static_cast<float>(rng.NextInt(-31, 31)) / 32.0f;
      const float cy = static_cast<float>(rng.NextInt(-31, 31)) / 32.0f;
      const float d = 1.0f / 32.0f;
      pos.insert(pos.end(), {cx, cy, cx + d, cy, cx, cy + d});
      for (int v = 0; v < 3; ++v) {
        aux.insert(aux.end(), {0.2f * v, 0.5f, 0.9f - 0.1f * v});
      }
    }
    ctx.UseProgram(mesh);
    const GLint mp = ctx.GetAttribLocation(mesh, "a_pos");
    const GLint ma = ctx.GetAttribLocation(mesh, "a_aux");
    ctx.EnableVertexAttribArray(static_cast<GLuint>(mp));
    ctx.EnableVertexAttribArray(static_cast<GLuint>(ma));
    ctx.VertexAttribPointer(static_cast<GLuint>(mp), 2, GL_FLOAT, GL_FALSE, 0,
                            pos.data());
    ctx.VertexAttribPointer(static_cast<GLuint>(ma), 3, GL_FLOAT, GL_FALSE, 0,
                            aux.data());
    ctx.DrawArrays(GL_TRIANGLES, 0, 900);
    ctx.DisableVertexAttribArray(static_cast<GLuint>(ma));

    ctx.Enable(GL_BLEND);
    ctx.BlendFunc(GL_SRC_ALPHA, GL_ONE_MINUS_SRC_ALPHA);
    ctx.UseProgram(quad);
    ctx.Uniform1i(ctx.GetUniformLocation(quad, "u_tex"), 0);
    ctx.Uniform4f(ctx.GetUniformLocation(quad, "u_tint"), 1.0f, 0.8f, 0.6f,
                  0.5f);
    const GLint qp = ctx.GetAttribLocation(quad, "a_pos");
    const GLint qu = ctx.GetAttribLocation(quad, "a_uv");
    ctx.EnableVertexAttribArray(static_cast<GLuint>(qp));
    ctx.EnableVertexAttribArray(static_cast<GLuint>(qu));
    ctx.VertexAttribPointer(static_cast<GLuint>(qu), 2, GL_FLOAT, GL_FALSE, 0,
                            testutil::kQuad.data());
    for (int q = 0; q < 3; ++q) {
      // Full-target quads: the largest coverage a tenant frame draws.
      ctx.VertexAttribPointer(static_cast<GLuint>(qp), 2, GL_FLOAT,
                              GL_FALSE, 0, testutil::kQuad.data());
      ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    }
    ctx.DisableVertexAttribArray(static_cast<GLuint>(qu));
    ASSERT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
  }
  EXPECT_EQ(ctx.band_split_draws(), 0u);
}

}  // namespace
}  // namespace mgpu::gles2
