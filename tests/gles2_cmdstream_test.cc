// Command-stream tests: recorded, asynchronously submitted execution must be
// byte-identical to immediate mode — framebuffer bytes, ALU/SFU/TMU counts,
// GL errors and trap/abort semantics — on every engine and worker count.
// Also covers the recording machinery itself: dirty-state diffing, record-
// time client-array snapshots, the Flush/Finish contract, the knob that
// turns the whole thing off, and the multi-consumer device: sticky,
// least-loaded queue assignment, per-context order across many contexts,
// AluModel affinity, and fault isolation and draining across consumers.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/threadpool.h"
#include "gles2/cmdstream.h"
#include "gles2/context.h"
#include "gles2_test_util.h"
#include "gtest/gtest.h"

namespace mgpu::gles2 {
namespace {

using testutil::BuildProgramOrDie;
using testutil::DrawFullscreenQuad;
using testutil::kPassthroughVs;
using testutil::kQuad;
using testutil::ReadRgba;

constexpr int kW = 128;  // 2x2 tile grid: parallel configs engage the pool
constexpr int kH = 128;

constexpr char kGradientFs[] = R"(
precision highp float;
varying vec2 v_uv;
uniform vec4 u_tint;
void main() {
  gl_FragColor = vec4(v_uv.x * u_tint.x, v_uv.y * u_tint.y, u_tint.z, 1.0);
}
)";

// Traps on the right half of the screen ("call to undefined function").
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

ContextConfig MakeConfig(int async, ExecEngine engine = ExecEngine::kBatchedVm,
                         int threads = 1, int w = kW, int h = kH) {
  ContextConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.exec_engine = engine;
  cfg.shader_threads = threads;
  cfg.async_submit = async;
  return cfg;
}

const char* EngineName(ExecEngine e) {
  switch (e) {
    case ExecEngine::kBatchedVm: return "batched";
    case ExecEngine::kBytecodeVm: return "scalar-vm";
    case ExecEngine::kTreeWalk: return "tree";
    case ExecEngine::kCompiled: return "compiled";
  }
  return "?";
}

struct Observed {
  std::vector<std::uint8_t> fb;
  std::uint64_t alu = 0, sfu = 0, tmu = 0;
  GLenum error = GL_NO_ERROR;
};

// A state-churning scene: clear, gradient quad, uniform change, scissored
// second quad, plus redundant setter calls the recorder may elide.
Observed RunScene(Context& ctx) {
  const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
  ctx.UseProgram(p);
  const GLint tint = ctx.GetUniformLocation(p, "u_tint");
  ctx.ClearColor(0.1f, 0.2f, 0.3f, 1.0f);
  ctx.ClearColor(0.1f, 0.2f, 0.3f, 1.0f);  // redundant: elidable
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  ctx.Uniform4f(tint, 1.0f, 0.5f, 0.25f, 1.0f);
  DrawFullscreenQuad(ctx, p);
  ctx.Enable(GL_SCISSOR_TEST);
  ctx.Enable(GL_SCISSOR_TEST);  // redundant: elidable
  ctx.Scissor(8, 8, 48, 48);
  ctx.Uniform4f(tint, 0.25f, 1.0f, 0.5f, 1.0f);
  DrawFullscreenQuad(ctx, p);
  ctx.Disable(GL_SCISSOR_TEST);

  Observed o;
  o.fb = ReadRgba(ctx, kW, kH);
  const glsl::OpCounts c = ctx.alu().counts();
  o.alu = c.alu;
  o.sfu = c.sfu;
  o.tmu = c.tmu;
  o.error = ctx.GetError();
  return o;
}

// The tentpole invariant: recorded + asynchronously executed scenes are
// byte-identical to immediate mode on every engine and worker count.
TEST(CmdStream, AsyncMatchesImmediateAcrossEnginesAndThreads) {
  const std::array<ExecEngine, 4> engines = {
      ExecEngine::kBatchedVm, ExecEngine::kBytecodeVm, ExecEngine::kTreeWalk,
      ExecEngine::kCompiled};
  for (const ExecEngine engine : engines) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(EngineName(engine)) + " threads=" +
                   std::to_string(threads));
      Context async_ctx(MakeConfig(/*async=*/1, engine, threads));
      Context inline_ctx(MakeConfig(/*async=*/0, engine, threads));
      ASSERT_TRUE(async_ctx.async_submit_enabled());
      ASSERT_FALSE(inline_ctx.async_submit_enabled());
      const Observed a = RunScene(async_ctx);
      const Observed b = RunScene(inline_ctx);
      EXPECT_EQ(a.fb, b.fb) << "framebuffer differs from immediate mode";
      EXPECT_EQ(a.alu, b.alu);
      EXPECT_EQ(a.sfu, b.sfu);
      EXPECT_EQ(a.tmu, b.tmu);
      EXPECT_EQ(a.error, b.error);
    }
  }
}

TEST(CmdStream, KnobResolution) {
  {
    Context ctx(MakeConfig(/*async=*/0));
    EXPECT_FALSE(ctx.async_submit_enabled());
  }
  {
    Context ctx(MakeConfig(/*async=*/1));
    EXPECT_TRUE(ctx.async_submit_enabled());
  }
  // auto (-1): the MGPU_ASYNC env var decides; unset means on.
  ::setenv("MGPU_ASYNC", "0", 1);
  {
    Context ctx(MakeConfig(/*async=*/-1));
    EXPECT_FALSE(ctx.async_submit_enabled());
  }
  ::setenv("MGPU_ASYNC", "1", 1);
  {
    Context ctx(MakeConfig(/*async=*/-1));
    EXPECT_TRUE(ctx.async_submit_enabled());
  }
  ::unsetenv("MGPU_ASYNC");
  {
    Context ctx(MakeConfig(/*async=*/-1));
    EXPECT_TRUE(ctx.async_submit_enabled());
  }
  // Config wins over env when not auto.
  ::setenv("MGPU_ASYNC", "1", 1);
  {
    Context ctx(MakeConfig(/*async=*/0));
    EXPECT_FALSE(ctx.async_submit_enabled());
  }
  ::unsetenv("MGPU_ASYNC");
}

// Dirty-state diffing: provably redundant setters are elided; redundant but
// *invalid* calls are recorded anyway so their GL errors surface at
// execution, in call order.
TEST(CmdStream, DirtyDiffingElidesOnlyProvableNoOps) {
  Context ctx(MakeConfig(/*async=*/1));
  ctx.Finish();
  const cmd::Stats before = ctx.command_stream_stats();

  ctx.Viewport(0, 0, kW, kH);  // matches ctor state, but shadow is unknown:
                               // recorded
  ctx.Viewport(0, 0, kW, kH);  // now shadowed: elided
  ctx.Viewport(0, 0, kW, kH);  // elided
  ctx.Enable(GL_DEPTH_TEST);
  ctx.Enable(GL_DEPTH_TEST);  // elided
  ctx.Disable(GL_DEPTH_TEST);
  const cmd::Stats after = ctx.command_stream_stats();
  EXPECT_EQ(after.elided - before.elided, 3u);
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));

  // Invalid enum twice: both recorded (never elided), and the first error
  // is latched by the time the sync point returns.
  const cmd::Stats s0 = ctx.command_stream_stats();
  ctx.Enable(0xDEAD);
  ctx.Enable(0xDEAD);
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_INVALID_ENUM));
  const cmd::Stats s1 = ctx.command_stream_stats();
  EXPECT_EQ(s1.elided, s0.elided);
  EXPECT_GE(s1.recorded - s0.recorded, 2u);
}

TEST(CmdStream, StatsCountSubmissionLifecycle) {
  Context ctx(MakeConfig(/*async=*/1));
  const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
  ctx.UseProgram(p);
  const GLint tint = ctx.GetUniformLocation(p, "u_tint");
  ctx.Uniform4f(tint, 1.0f, 1.0f, 1.0f, 1.0f);
  DrawFullscreenQuad(ctx, p);
  ctx.Flush();   // submit without waiting
  ctx.Finish();  // join
  const cmd::Stats s = ctx.command_stream_stats();
  EXPECT_GT(s.recorded, 0u);
  EXPECT_GE(s.draws, 1u);
  EXPECT_GE(s.lists_submitted, 1u);
  EXPECT_EQ(s.lists_executed, s.lists_submitted);
  EXPECT_EQ(s.lists_dropped, 0u);
  EXPECT_GT(s.sync_points, 0u);
  EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
}

// Client vertex arrays are snapshotted when the draw is *recorded*: mutating
// the array after the call but before Finish must not change the result —
// exactly the bytes immediate mode would have read at call time.
TEST(CmdStream, ClientArraySnapshotTakenAtRecordTime) {
  Context async_ctx(MakeConfig(/*async=*/1));
  Context inline_ctx(MakeConfig(/*async=*/0));
  std::vector<std::uint8_t> want;
  {
    Context& ctx = inline_ctx;
    const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
    ctx.UseProgram(p);
    ctx.Uniform4f(ctx.GetUniformLocation(p, "u_tint"), 1.0f, 1.0f, 1.0f, 1.0f);
    DrawFullscreenQuad(ctx, p);
    want = ReadRgba(ctx, kW, kH);
  }
  {
    Context& ctx = async_ctx;
    const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
    ctx.UseProgram(p);
    ctx.Uniform4f(ctx.GetUniformLocation(p, "u_tint"), 1.0f, 1.0f, 1.0f, 1.0f);
    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    ASSERT_GE(loc, 0);
    std::array<float, 12> quad = kQuad;
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                            quad.data());
    ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    // Clobber the client memory before the deferred draw executes.
    quad.fill(0.0f);
    EXPECT_EQ(ReadRgba(ctx, kW, kH), want)
        << "deferred draw read post-record client bytes";
  }
  EXPECT_EQ(async_ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
}

// Same contract for client-memory index arrays on DrawElements.
TEST(CmdStream, ClientIndexSnapshotTakenAtRecordTime) {
  Context ctx(MakeConfig(/*async=*/1));
  const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
  ctx.UseProgram(p);
  ctx.Uniform4f(ctx.GetUniformLocation(p, "u_tint"), 1.0f, 0.5f, 0.25f, 1.0f);
  const GLint loc = ctx.GetAttribLocation(p, "a_pos");
  ASSERT_GE(loc, 0);
  // 4-vertex strip order; two triangles via indices.
  const std::array<float, 8> verts = {-1.0f, -1.0f, 1.0f, -1.0f,
                                      -1.0f, 1.0f,  1.0f, 1.0f};
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          verts.data());
  std::array<std::uint16_t, 6> idx = {0, 1, 2, 2, 1, 3};
  ctx.DrawElements(GL_TRIANGLES, 6, GL_UNSIGNED_SHORT, idx.data());
  idx.fill(0);  // clobber before deferred execution
  const auto got = ReadRgba(ctx, kW, kH);
  ASSERT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));

  Context twin(MakeConfig(/*async=*/0));
  const GLuint tp = BuildProgramOrDie(twin, kPassthroughVs, kGradientFs);
  twin.UseProgram(tp);
  twin.Uniform4f(twin.GetUniformLocation(tp, "u_tint"), 1.0f, 0.5f, 0.25f,
                 1.0f);
  const GLint tloc = twin.GetAttribLocation(tp, "a_pos");
  twin.EnableVertexAttribArray(static_cast<GLuint>(tloc));
  twin.VertexAttribPointer(static_cast<GLuint>(tloc), 2, GL_FLOAT, GL_FALSE, 0,
                           verts.data());
  const std::array<std::uint16_t, 6> tidx = {0, 1, 2, 2, 1, 3};
  twin.DrawElements(GL_TRIANGLES, 6, GL_UNSIGNED_SHORT, tidx.data());
  EXPECT_EQ(got, ReadRgba(twin, kW, kH));
}

// Deleting a VBO after recording a draw that uses it must not disturb the
// draw: commands execute in record order, so the deferred delete lands
// after the deferred draw — exactly as immediate mode ordered them.
TEST(CmdStream, DeleteBufferBetweenRecordAndExecute) {
  Observed got[2];
  for (const int async : {1, 0}) {
    Context ctx(MakeConfig(async));
    const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
    ctx.UseProgram(p);
    ctx.Uniform4f(ctx.GetUniformLocation(p, "u_tint"), 0.5f, 1.0f, 0.75f,
                  1.0f);
    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    GLuint vbo = 0;
    ctx.GenBuffers(1, &vbo);
    ctx.BindBuffer(GL_ARRAY_BUFFER, vbo);
    ctx.BufferData(GL_ARRAY_BUFFER,
                   static_cast<GLsizeiptr>(sizeof(float) * kQuad.size()),
                   kQuad.data(), GL_STATIC_DRAW);
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                            nullptr);
    ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    ctx.DeleteBuffers(1, &vbo);  // recorded after the draw: draw unaffected
    Observed& o = got[async];
    o.fb = ReadRgba(ctx, kW, kH);
    o.alu = ctx.alu().counts().alu;
    o.error = ctx.GetError();
  }
  EXPECT_EQ(got[1].fb, got[0].fb);
  EXPECT_EQ(got[1].alu, got[0].alu);
  EXPECT_EQ(got[1].error, got[0].error);
  EXPECT_EQ(got[0].error, static_cast<GLenum>(GL_NO_ERROR));
}

// A deferred trapping draw latches its error/reset/diagnostic state for the
// client's next sync point, identically to immediate mode.
TEST(CmdStream, TrapLatchesAtSyncPoint) {
  Observed got[2];
  std::string msg[2];
  GLenum reset[2] = {GL_NO_ERROR, GL_NO_ERROR};
  for (const int async : {1, 0}) {
    Context ctx(MakeConfig(async));
    const GLuint clean = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
    const GLuint trap = BuildProgramOrDie(ctx, kPassthroughVs, kTrapFs);
    ctx.UseProgram(clean);
    ctx.Uniform4f(ctx.GetUniformLocation(clean, "u_tint"), 1.0f, 1.0f, 1.0f,
                  1.0f);
    DrawFullscreenQuad(ctx, clean);
    DrawFullscreenQuad(ctx, trap);  // aborts transactionally
    Observed& o = got[async];
    o.error = ctx.GetError();
    reset[async] = ctx.GetGraphicsResetStatus();
    msg[async] = ctx.last_draw_error();
    o.fb = ReadRgba(ctx, kW, kH);
    o.alu = ctx.alu().counts().alu;
  }
  EXPECT_EQ(got[1].error, static_cast<GLenum>(GL_INVALID_OPERATION));
  EXPECT_EQ(got[1].error, got[0].error);
  EXPECT_EQ(reset[1], static_cast<GLenum>(GL_GUILTY_CONTEXT_RESET));
  EXPECT_EQ(reset[1], reset[0]);
  EXPECT_EQ(msg[1], msg[0]);
  EXPECT_NE(msg[1].find("undefined function"), std::string::npos) << msg[1];
  EXPECT_EQ(got[1].fb, got[0].fb);
  EXPECT_EQ(got[1].alu, got[0].alu);
}

// --- many contexts on the multi-consumer device --------------------------

constexpr int kSide = 16;  // one tile: these tests are about the device

constexpr char kTintFs[] =
    "precision mediump float;\n"
    "uniform vec4 u_tint;\n"
    "void main() { gl_FragColor = u_tint; }";

// One small client: a context with a flat-tint program over a client-array
// quad, blending half-transparent tints so its final bytes depend on the
// order its draws executed in.
struct Client {
  std::unique_ptr<Context> ctx;
  GLuint prog = 0;
  GLint tint = -1;
};

Client MakeClient(int async, glsl::AluModel* alu = nullptr) {
  Client c;
  c.ctx = std::make_unique<Context>(
      MakeConfig(async, ExecEngine::kBatchedVm, 1, kSide, kSide), alu);
  Context& ctx = *c.ctx;
  c.prog = BuildProgramOrDie(ctx, kPassthroughVs, kTintFs);
  ctx.UseProgram(c.prog);
  c.tint = ctx.GetUniformLocation(c.prog, "u_tint");
  const GLint loc = ctx.GetAttribLocation(c.prog, "a_pos");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          kQuad.data());
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_SRC_ALPHA, GL_ONE_MINUS_SRC_ALPHA);
  return c;
}

// Records draw `round` of client `id`, with a tint unique to (id, round),
// and submits it unless `flush` is false.
void RecordRound(Client& c, int id, int round, bool flush = true) {
  const float v = static_cast<float>((id * 7 + round * 3) % 16) / 15.0f;
  c.ctx->Uniform4f(c.tint, v, 1.0f - v, 0.125f * static_cast<float>(round),
                   0.5f);
  c.ctx->DrawArrays(GL_TRIANGLES, 0, 6);
  if (flush) c.ctx->Flush();
}

Observed Observe(Client& c) {
  Observed o;
  o.fb = ReadRgba(*c.ctx, kSide, kSide);
  const glsl::OpCounts n = c.ctx->alu().counts();
  o.alu = n.alu;
  o.sfu = n.sfu;
  o.tmu = n.tmu;
  o.error = c.ctx->GetError();
  return o;
}

void ExpectSameAsTwin(Client& async, Client& twin, int id) {
  const Observed a = Observe(async);
  const Observed b = Observe(twin);
  EXPECT_EQ(a.fb, b.fb) << "context " << id;
  EXPECT_EQ(a.alu, b.alu) << "context " << id;
  EXPECT_EQ(a.tmu, b.tmu) << "context " << id;
  EXPECT_EQ(a.error, static_cast<GLenum>(GL_NO_ERROR)) << "context " << id;
  EXPECT_EQ(b.error, static_cast<GLenum>(GL_NO_ERROR)) << "context " << id;
}

std::size_t MaxConsumers() {
  return static_cast<std::size_t>(
      std::max(2, common::DefaultThreadCount() - 1));
}

// Lists each consumer executed since `before` was taken.
std::vector<std::uint64_t> ExecutedSince(const cmd::DeviceStats& before) {
  const cmd::DeviceStats now = cmd::device_stats();
  std::vector<std::uint64_t> d = now.lists_executed;
  for (std::size_t i = 0; i < before.lists_executed.size(); ++i) {
    d[i] -= before.lists_executed[i];
  }
  return d;
}

int Busy(const std::vector<std::uint64_t>& executed) {
  return static_cast<int>(std::count_if(executed.begin(), executed.end(),
                                        [](std::uint64_t n) { return n > 0; }));
}

// A process that creates and destroys contexts in turn (a compute device
// rebuilt per job) must keep using one consumer thread: spreading them over
// threads would give each its own malloc arena. Runs in a re-executed
// child process, where no consumer has started yet, so earlier tests in
// this binary cannot hide an extra start.
TEST(CmdStreamDevice, SequentialContextsStayOnOneConsumer) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(
      {
        for (int i = 0; i < 7; ++i) {
          Client c = MakeClient(/*async=*/1);
          RecordRound(c, i, 0);
          c.ctx->Finish();
        }
        const std::size_t started = cmd::device_stats().live_queues.size();
        std::fprintf(stderr, "consumers started: %zu\n", started);
        std::exit(started == 1 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "consumers started: 1");
}

// Live contexts are assigned least-loaded: one consumer per hardware
// thread but one (at least two) is started, and every consumer serves
// within one queue of every other.
TEST(CmdStreamDevice, LiveContextsSpreadEvenlyAcrossConsumers) {
  constexpr int kContexts = 64;
  std::vector<Client> clients;
  for (int i = 0; i < kContexts; ++i) clients.push_back(MakeClient(1));
  const cmd::DeviceStats s = cmd::device_stats();
  ASSERT_EQ(s.live_queues.size(), MaxConsumers());
  const auto [lo, hi] =
      std::minmax_element(s.live_queues.begin(), s.live_queues.end());
  EXPECT_LE(*hi - *lo, 1);
  EXPECT_EQ(std::accumulate(s.live_queues.begin(), s.live_queues.end(), 0),
            kContexts);

  for (int i = 0; i < kContexts; ++i) {
    RecordRound(clients[static_cast<std::size_t>(i)], i, 0);
  }
  for (Client& c : clients) c.ctx->Finish();
  EXPECT_EQ(Busy(ExecutedSince(s)), static_cast<int>(MaxConsumers()));
}

// Many live contexts, interleaved recording, nobody joining until the end:
// each context's lists still execute in its own order, so its bytes and
// counts equal an inline twin fed the same calls.
TEST(CmdStream, MultiContextSubmissionIsIsolated) {
  constexpr int kContexts = 64;
  constexpr int kRounds = 4;
  std::vector<Client> async, twins;
  for (int i = 0; i < kContexts; ++i) {
    async.push_back(MakeClient(/*async=*/1));
    twins.push_back(MakeClient(/*async=*/0));
  }
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kContexts; ++i) {
      RecordRound(async[static_cast<std::size_t>(i)], i, round);
      RecordRound(twins[static_cast<std::size_t>(i)], i, round);
    }
  }
  for (int i = 0; i < kContexts; ++i) {
    ExpectSameAsTwin(async[static_cast<std::size_t>(i)],
                     twins[static_cast<std::size_t>(i)], i);
    const cmd::Stats s =
        async[static_cast<std::size_t>(i)].ctx->command_stream_stats();
    EXPECT_EQ(s.lists_executed, s.lists_submitted) << "context " << i;
    EXPECT_EQ(s.lists_dropped, 0u) << "context " << i;
  }
}

// Contexts counting into one AluModel share a consumer: draws mutate the
// model (and abort rolls it back), so two consumers on it would race. The
// interleaved async run must match the inline run in bytes and in the
// summed counts.
TEST(CmdStreamDevice, ContextsSharingAnAluModelShareAConsumer) {
  constexpr int kRounds = 8;
  std::vector<std::uint8_t> fb[2][2];
  glsl::OpCounts counts[2];
  for (const int async : {1, 0}) {
    glsl::ExactAlu alu;
    Client a = MakeClient(async, &alu);
    Client b = MakeClient(async, &alu);
    if (async == 1) {
      const cmd::DeviceStats s = cmd::device_stats();
      EXPECT_EQ(std::count(s.live_queues.begin(), s.live_queues.end(), 2), 1)
          << "the two queues landed on different consumers";
    }
    for (int round = 0; round < kRounds; ++round) {
      RecordRound(a, 0, round);
      RecordRound(b, 1, round);
    }
    a.ctx->Finish();
    b.ctx->Finish();
    counts[async] = alu.counts();
    fb[async][0] = ReadRgba(*a.ctx, kSide, kSide);
    fb[async][1] = ReadRgba(*b.ctx, kSide, kSide);
    EXPECT_EQ(a.ctx->GetError(), static_cast<GLenum>(GL_NO_ERROR));
    EXPECT_EQ(b.ctx->GetError(), static_cast<GLenum>(GL_NO_ERROR));
  }
  EXPECT_EQ(fb[1][0], fb[0][0]);
  EXPECT_EQ(fb[1][1], fb[0][1]);
  EXPECT_EQ(counts[1].alu, counts[0].alu);
  EXPECT_EQ(counts[1].sfu, counts[0].sfu);
  EXPECT_EQ(counts[1].tmu, counts[0].tmu);
}

// A list dropped by the kCmdSubmit fault on one context latches that
// context's reset only: neighbours on its own consumer and on the others
// keep their frames, errors and reset status.
TEST(CmdStreamDevice, SubmitDropOnOneContextLeavesNeighboursUntouched) {
  const int neighbours = static_cast<int>(2 * MaxConsumers());
  Client victim = MakeClient(/*async=*/1);
  std::vector<Client> async, twins;
  for (int i = 1; i <= neighbours; ++i) {
    async.push_back(MakeClient(/*async=*/1));
    twins.push_back(MakeClient(/*async=*/0));
  }
  auto neighbour_round = [&](int round) {
    for (int i = 0; i < neighbours; ++i) {
      RecordRound(async[static_cast<std::size_t>(i)], i + 1, round);
      RecordRound(twins[static_cast<std::size_t>(i)], i + 1, round);
    }
  };
  RecordRound(victim, 0, 0);
  neighbour_round(0);

  fault::Arm(fault::Site::kCmdSubmit, 0);  // drains round 0 unarmed
  victim.ctx->Clear(GL_COLOR_BUFFER_BIT);
  victim.ctx->Flush();                     // dropped
  fault::Disarm(fault::Site::kCmdSubmit);

  EXPECT_EQ(victim.ctx->GetError(), static_cast<GLenum>(GL_OUT_OF_MEMORY));
  EXPECT_EQ(victim.ctx->GetGraphicsResetStatus(),
            static_cast<GLenum>(GL_INNOCENT_CONTEXT_RESET));
  neighbour_round(1);
  for (int i = 0; i < neighbours; ++i) {
    Client& c = async[static_cast<std::size_t>(i)];
    ExpectSameAsTwin(c, twins[static_cast<std::size_t>(i)], i + 1);
    EXPECT_EQ(c.ctx->GetGraphicsResetStatus(), static_cast<GLenum>(GL_NO_ERROR))
        << "context " << i + 1;
    EXPECT_EQ(c.ctx->command_stream_stats().lists_dropped, 0u)
        << "context " << i + 1;
  }
}

// The fault registry's quiesce hook must drain every consumer: after
// fault::Arm returns, the lists queued on all of them and the lists still
// open have executed.
TEST(CmdStreamDevice, FaultArmDrainsEveryConsumer) {
  const int contexts = static_cast<int>(2 * MaxConsumers());
  std::vector<Client> clients;
  for (int i = 0; i < contexts; ++i) clients.push_back(MakeClient(1));
  for (Client& c : clients) c.ctx->Finish();
  const cmd::DeviceStats before = cmd::device_stats();
  // Half the contexts submit their list, half leave it open.
  for (int i = 0; i < contexts; ++i) {
    RecordRound(clients[static_cast<std::size_t>(i)], i, 0,
                /*flush=*/i % 2 == 0);
  }
  fault::Arm(fault::Site::kCmdSubmit, ~0ull);  // never fires
  const std::vector<std::uint64_t> executed = ExecutedSince(before);
  fault::Disarm(fault::Site::kCmdSubmit);
  EXPECT_EQ(std::accumulate(executed.begin(), executed.end(),
                            std::uint64_t{0}),
            static_cast<std::uint64_t>(contexts));
  EXPECT_EQ(Busy(executed), static_cast<int>(MaxConsumers()));
  for (Client& c : clients) {
    EXPECT_EQ(c.ctx->GetError(), static_cast<GLenum>(GL_NO_ERROR));
  }
}

// A draw the recorder cannot capture faithfully (first > 0 over client
// arrays: the snapshot would read bytes immediate mode never touches) falls
// back to sync + inline execution, bit-identically.
TEST(CmdStream, UnrecordableDrawFallsBackInline) {
  Observed got[2];
  cmd::Stats stats{};
  for (const int async : {1, 0}) {
    Context ctx(MakeConfig(async));
    const GLuint p = BuildProgramOrDie(ctx, kPassthroughVs, kGradientFs);
    ctx.UseProgram(p);
    ctx.Uniform4f(ctx.GetUniformLocation(p, "u_tint"), 1.0f, 1.0f, 1.0f, 1.0f);
    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    // One junk leading vertex; the draw starts at 1.
    const std::array<float, 8> verts = {9.0f, 9.0f, -1.0f, -1.0f,
                                        1.0f, -1.0f, 0.0f,  1.0f};
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                            verts.data());
    ctx.DrawArrays(GL_TRIANGLES, 1, 3);
    Observed& o = got[async];
    o.fb = ReadRgba(ctx, kW, kH);
    o.alu = ctx.alu().counts().alu;
    o.error = ctx.GetError();
    if (async == 1) stats = ctx.command_stream_stats();
  }
  EXPECT_EQ(got[1].fb, got[0].fb);
  EXPECT_EQ(got[1].alu, got[0].alu);
  EXPECT_EQ(got[1].error, got[0].error);
  EXPECT_EQ(got[0].error, static_cast<GLenum>(GL_NO_ERROR));
  EXPECT_GE(stats.inline_syncs, 1u);
}

}  // namespace
}  // namespace mgpu::gles2
