// End-to-end GL pipeline through the Context API: state, errors, draws,
// uniforms, textures-in-shaders, and the ES 2.0 restrictions the paper
// enumerates (no GL_QUADS, no float data, single output).
#include "gles2/context.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "gles2_test_util.h"
#include "gtest/gtest.h"

namespace mgpu::gles2 {
namespace {

using testutil::BuildProgramOrDie;
using testutil::CompileShaderOrDie;
using testutil::DrawFullscreenQuad;
using testutil::ReadRgba;

ContextConfig SmallConfig(int w = 4, int h = 4) {
  ContextConfig c;
  c.width = w;
  c.height = h;
  return c;
}

TEST(ContextTest, ClearAndReadPixels) {
  Context ctx(SmallConfig());
  ctx.ClearColor(1.0f, 0.5f, 0.0f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  const auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[0], 255);
  EXPECT_EQ(px[1], 128);  // round(0.5 * 255)
  EXPECT_EQ(px[2], 0);
  EXPECT_EQ(px[3], 255);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

TEST(ContextTest, SolidColorQuadFillsFramebuffer) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(0.0, "
      "1.0, 0.0, 1.0); }");
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 4, 4);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(px[i * 4 + 0], 0);
    EXPECT_EQ(px[i * 4 + 1], 255);
    EXPECT_EQ(px[i * 4 + 3], 255);
  }
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

TEST(ContextTest, VaryingGradientMatchesPixelCenters) {
  Context ctx(SmallConfig(8, 8));
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision highp float;\nvarying vec2 v_uv;\nvoid main() { "
      "gl_FragColor = vec4(v_uv, 0.0, 1.0); }");
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      const float u = (x + 0.5f) / 8.0f;
      const float v = (y + 0.5f) / 8.0f;
      const int r = px[(y * 8 + x) * 4];
      const int g = px[(y * 8 + x) * 4 + 1];
      EXPECT_EQ(r, static_cast<int>(std::floor(u * 255.0f + 0.5f)));
      EXPECT_EQ(g, static_cast<int>(std::floor(v * 255.0f + 0.5f)));
    }
  }
}

TEST(ContextTest, UniformsAffectDraw) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nuniform vec4 u_color;\nvoid main() { "
      "gl_FragColor = u_color; }");
  ctx.UseProgram(p);
  const GLint loc = ctx.GetUniformLocation(p, "u_color");
  ASSERT_GE(loc, 0);
  ctx.Uniform4f(loc, 0.2f, 0.4f, 0.6f, 0.8f);
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[0], 51);
  EXPECT_EQ(px[1], 102);
  EXPECT_EQ(px[2], 153);
  EXPECT_EQ(px[3], 204);
}

TEST(ContextTest, UniformArrayElements) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nuniform float u_k[3];\nvoid main() { "
      "gl_FragColor = vec4(u_k[0], u_k[1], u_k[2], 1.0); }");
  ctx.UseProgram(p);
  const GLint base = ctx.GetUniformLocation(p, "u_k");
  const GLint e2 = ctx.GetUniformLocation(p, "u_k[2]");
  ASSERT_GE(base, 0);
  ASSERT_EQ(e2, base + 2);
  const float all[3] = {0.1f, 0.2f, 0.3f};
  ctx.Uniform1fv(base, 3, all);
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[0], 26);
  EXPECT_EQ(px[1], 51);
  EXPECT_EQ(px[2], 77);
}

TEST(ContextTest, TextureSamplingInFragmentShader) {
  Context ctx(SmallConfig(2, 2));
  GLuint tex;
  ctx.GenTextures(1, &tex);
  ctx.ActiveTexture(GL_TEXTURE0 + 1);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  const std::vector<std::uint8_t> data = {
      10, 0, 0, 255, 20, 0, 0, 255,
      30, 0, 0, 255, 40, 0, 0, 255,
  };
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 2, 2, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, data.data());
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
  ctx.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvarying vec2 v_uv;\nuniform sampler2D "
      "u_tex;\nvoid main() { gl_FragColor = texture2D(u_tex, v_uv); }");
  ctx.UseProgram(p);
  ctx.Uniform1i(ctx.GetUniformLocation(p, "u_tex"), 1);
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 2, 2);
  EXPECT_EQ(px[0 * 4], 10);
  EXPECT_EQ(px[1 * 4], 20);
  EXPECT_EQ(px[2 * 4], 30);
  EXPECT_EQ(px[3 * 4], 40);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

TEST(ContextTest, QuadPrimitiveRejected) {
  // Paper limitation #2: only triangles (and points/lines) exist in ES 2.0.
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.UseProgram(p);
  constexpr GLenum kDesktopGlQuads = 0x0007;
  ctx.DrawArrays(kDesktopGlQuads, 0, 4);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_ENUM);
}

TEST(ContextTest, FloatTextureUploadSetsError) {
  Context ctx(SmallConfig());
  GLuint tex;
  ctx.GenTextures(1, &tex);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  const float data[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 1, 1, 0, GL_RGBA, GL_FLOAT, data);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_ENUM);
}

TEST(ContextTest, ReadPixelsOnlyRgbaUnsignedByte) {
  // Paper limitation #7 context: the readback path is byte-RGBA only.
  Context ctx(SmallConfig());
  std::vector<float> fdata(16 * 4);
  ctx.ReadPixels(0, 0, 4, 4, GL_RGBA, GL_FLOAT, fdata.data());
  EXPECT_EQ(ctx.GetError(), GL_INVALID_ENUM);
}

// Read-back rects are computed in 64 bits: a rect starting near INT_MAX
// reads zeros (it lies past the framebuffer) instead of wrapping back into
// it, and a negative size is GL_INVALID_VALUE with nothing written.
TEST(ContextTest, ReadPixelsRectNearIntMaxReadsZerosNegativeSizeRejected) {
  Context ctx(SmallConfig());
  ctx.ClearColor(1.0f, 1.0f, 1.0f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);
  constexpr GLint kMax = std::numeric_limits<GLint>::max();
  std::vector<std::uint8_t> px(4 * 4, 0xCD);
  ctx.ReadPixels(kMax - 2, 0, 4, 1, GL_RGBA, GL_UNSIGNED_BYTE, px.data());
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  EXPECT_EQ(px, std::vector<std::uint8_t>(4 * 4, 0)) << "x near INT_MAX";
  px.assign(4 * 4, 0xCD);
  ctx.ReadPixels(0, kMax - 2, 1, 4, GL_RGBA, GL_UNSIGNED_BYTE, px.data());
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  EXPECT_EQ(px, std::vector<std::uint8_t>(4 * 4, 0)) << "y near INT_MAX";

  px.assign(4 * 4, 0xCD);
  for (const auto& [w, h] : {std::pair<GLsizei, GLsizei>{-1, 1}, {1, -1},
                             {std::numeric_limits<GLsizei>::min(), 2}}) {
    ctx.ReadPixels(0, 0, w, h, GL_RGBA, GL_UNSIGNED_BYTE, px.data());
    EXPECT_EQ(ctx.GetError(), GL_INVALID_VALUE) << w << "x" << h;
  }
  EXPECT_EQ(px, std::vector<std::uint8_t>(4 * 4, 0xCD)) << "wrote on error";
  // A rect straddling the edge reads the inside and zeros past it.
  ctx.ReadPixels(2, 0, 4, 1, GL_RGBA, GL_UNSIGNED_BYTE, px.data());
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  EXPECT_EQ(px, (std::vector<std::uint8_t>{255, 255, 255, 255, 255, 255, 255,
                                           255, 0, 0, 0, 0, 0, 0, 0, 0}));
}

TEST(ContextTest, MissingVertexShaderFailsLink) {
  // Paper challenge 1: ES 2.0 requires BOTH programmable stages.
  Context ctx(SmallConfig());
  const GLuint fs = CompileShaderOrDie(
      ctx, GL_FRAGMENT_SHADER,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  const GLuint p = ctx.CreateProgram();
  ctx.AttachShader(p, fs);
  ctx.LinkProgram(p);
  GLint ok = GL_TRUE;
  ctx.GetProgramiv(p, GL_LINK_STATUS, &ok);
  EXPECT_EQ(ok, GL_FALSE);
  EXPECT_TRUE(Contains(ctx.GetProgramInfoLog(p), "vertex"));
}

TEST(ContextTest, VaryingTypeMismatchFailsLink) {
  Context ctx(SmallConfig());
  const GLuint vs = CompileShaderOrDie(
      ctx, GL_VERTEX_SHADER,
      "attribute vec2 a_pos;\nvarying vec2 v_x;\nvoid main() { v_x = a_pos; "
      "gl_Position = vec4(a_pos, 0.0, 1.0); }");
  const GLuint fs = CompileShaderOrDie(
      ctx, GL_FRAGMENT_SHADER,
      "precision mediump float;\nvarying vec3 v_x;\nvoid main() { "
      "gl_FragColor = vec4(v_x, 1.0); }");
  const GLuint p = ctx.CreateProgram();
  ctx.AttachShader(p, vs);
  ctx.AttachShader(p, fs);
  ctx.LinkProgram(p);
  GLint ok = GL_TRUE;
  ctx.GetProgramiv(p, GL_LINK_STATUS, &ok);
  EXPECT_EQ(ok, GL_FALSE);
}

TEST(ContextTest, CompileErrorReportedInInfoLog) {
  Context ctx(SmallConfig());
  const GLuint s = ctx.CreateShader(GL_FRAGMENT_SHADER);
  ctx.ShaderSource(s, "void main() { gl_FragColor = 1.0; }");
  ctx.CompileShader(s);
  GLint ok = GL_TRUE;
  ctx.GetShaderiv(s, GL_COMPILE_STATUS, &ok);
  EXPECT_EQ(ok, GL_FALSE);
  EXPECT_FALSE(ctx.GetShaderInfoLog(s).empty());
}

TEST(ContextTest, GlFragDataZeroWorksAsOutput) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragData[0] = vec4(0.0, "
      "0.0, 1.0, 1.0); }");
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[2], 255);
}

TEST(ContextTest, ScissorRestrictsDraw) {
  Context ctx(SmallConfig(4, 4));
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.Enable(GL_SCISSOR_TEST);
  ctx.Scissor(0, 0, 2, 2);
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[(0 * 4 + 0) * 4], 255);
  EXPECT_EQ(px[(0 * 4 + 1) * 4], 255);
  EXPECT_EQ(px[(0 * 4 + 2) * 4], 0);
  EXPECT_EQ(px[(3 * 4 + 3) * 4], 0);
}

TEST(ContextTest, DepthTestKeepsNearestFragment) {
  Context ctx(SmallConfig(2, 2));
  const GLuint p = BuildProgramOrDie(
      ctx,
      "attribute vec3 a_pos;\nvoid main() { gl_Position = vec4(a_pos, 1.0); "
      "}",
      "precision mediump float;\nuniform vec4 u_c;\nvoid main() { "
      "gl_FragColor = u_c; }");
  ctx.UseProgram(p);
  ctx.Enable(GL_DEPTH_TEST);
  ctx.Clear(GL_COLOR_BUFFER_BIT | GL_DEPTH_BUFFER_BIT);
  const GLint loc = ctx.GetAttribLocation(p, "a_pos");
  const GLint c = ctx.GetUniformLocation(p, "u_c");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  // Near quad (z = 0) drawn first, red.
  const float near_quad[] = {-1, -1, 0, 1, -1, 0, 1, 1, 0,
                             -1, -1, 0, 1, 1, 0, -1, 1, 0};
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 3, GL_FLOAT, GL_FALSE, 0,
                          near_quad);
  ctx.Uniform4f(c, 1.0f, 0.0f, 0.0f, 1.0f);
  ctx.DrawArrays(GL_TRIANGLES, 0, 6);
  // Far quad (z = 0.5) drawn second, blue: must lose the depth test.
  const float far_quad[] = {-1, -1, 0.5f, 1, -1, 0.5f, 1, 1, 0.5f,
                            -1, -1, 0.5f, 1, 1, 0.5f, -1, 1, 0.5f};
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 3, GL_FLOAT, GL_FALSE, 0,
                          far_quad);
  ctx.Uniform4f(c, 0.0f, 0.0f, 1.0f, 1.0f);
  ctx.DrawArrays(GL_TRIANGLES, 0, 6);
  const auto px = ReadRgba(ctx, 2, 2);
  EXPECT_EQ(px[0], 255);
  EXPECT_EQ(px[2], 0);
}

TEST(ContextTest, BlendingAdds) {
  Context ctx(SmallConfig(1, 1));
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nuniform vec4 u_c;\nvoid main() { "
      "gl_FragColor = u_c; }");
  ctx.UseProgram(p);
  const GLint c = ctx.GetUniformLocation(p, "u_c");
  ctx.Enable(GL_BLEND);
  ctx.BlendFunc(GL_ONE, GL_ONE);
  ctx.Uniform4f(c, 0.25f, 0.0f, 0.0f, 1.0f);
  DrawFullscreenQuad(ctx, p);
  ctx.Uniform4f(c, 0.25f, 0.0f, 0.0f, 1.0f);
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 1, 1);
  EXPECT_NEAR(px[0], 128, 1);
}

TEST(ContextTest, ColorMaskSuppressesChannels) {
  Context ctx(SmallConfig(1, 1));
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.ColorMask(GL_TRUE, GL_FALSE, GL_TRUE, GL_FALSE);
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 1, 1);
  EXPECT_EQ(px[0], 255);
  EXPECT_EQ(px[1], 0);
  EXPECT_EQ(px[2], 255);
  EXPECT_EQ(px[3], 0);
}

TEST(ContextTest, DrawElementsWithIndices) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.UseProgram(p);
  const GLint loc = ctx.GetAttribLocation(p, "a_pos");
  const float verts[] = {-1, -1, 1, -1, 1, 1, -1, 1};
  const std::uint8_t idx[] = {0, 1, 2, 0, 2, 3};
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          verts);
  ctx.DrawElements(GL_TRIANGLES, 6, GL_UNSIGNED_BYTE, idx);
  const auto px = ReadRgba(ctx, 4, 4);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(px[i * 4], 255) << i;
}

TEST(ContextTest, VboVertexFetch) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.UseProgram(p);
  GLuint vbo;
  ctx.GenBuffers(1, &vbo);
  ctx.BindBuffer(GL_ARRAY_BUFFER, vbo);
  ctx.BufferData(GL_ARRAY_BUFFER, sizeof(float) * 12,
                 testutil::kQuad.data(), GL_STATIC_DRAW);
  const GLint loc = ctx.GetAttribLocation(p, "a_pos");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          nullptr);  // offset 0 into VBO
  ctx.DrawArrays(GL_TRIANGLES, 0, 6);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  const auto px = ReadRgba(ctx, 4, 4);
  EXPECT_EQ(px[0], 255);
}

// The batched engine gathers attributes into, and scatters gl_Position,
// gl_PointSize and varyings out of, the vertex VM's lane-major planes, and
// writes gl_FragCoord, gl_FrontFacing, gl_PointCoord and varyings straight
// into the fragment VM's planes. A vertex draw with every attribute kind
// (float, normalized ubyte, short, a disabled constant) over two vertex
// batches plus a partial one, and a point draw, must leave the same bytes
// and op counts as the scalar VM at shader_threads=1.
TEST(ContextTest, PlaneGatherScatterMatchesScalarVm) {
  constexpr int kW = 37;
  constexpr int kH = 29;
  const char* vs = R"(
attribute vec2 a_pos;
attribute vec4 a_col;
attribute vec3 a_s;
attribute float a_k;
varying vec4 v_col;
varying vec3 v_s;
varying float v_k;
void main() {
  v_col = a_col;
  v_s = a_s * 0.01;
  v_k = a_k + a_pos.x;
  gl_PointSize = 3.0 + a_col.x * 4.0;
  gl_Position = vec4(a_pos, a_s.z * 0.001, 1.0);
}
)";
  const char* fs = R"(
precision mediump float;
varying vec4 v_col;
varying vec3 v_s;
varying float v_k;
void main() {
  vec2 q = gl_FragCoord.xy / vec2(37.0, 29.0);
  if (q.x + v_s.y > 1.2) discard;
  float f = gl_FrontFacing ? 0.25 : 0.75;
  if (gl_FragCoord.y > 14.0) {
    f = f + dot(v_s, vec3(q, gl_FragCoord.z));
  }
  gl_FragColor = fract(vec4(v_col.xyz * f + vec3(v_k), q.y) * 3.7);
}
)";
  const char* point_fs = R"(
precision mediump float;
varying vec4 v_col;
void main() {
  gl_FragColor = vec4(gl_PointCoord, v_col.z, 1.0);
}
)";
  // 69 vertices: two full 32-vertex batches and a tail of 5, as 23
  // triangles of both windings fanned over the framebuffer.
  constexpr int kVerts = 69;
  std::vector<float> pos;
  std::vector<std::uint8_t> col;
  std::vector<std::int16_t> sv;
  for (int v = 0; v < kVerts; ++v) {
    const float t = static_cast<float>(v) / kVerts;
    const int corner = v % 3;
    const float r = corner == 0 ? 0.0f : 1.3f;
    const float a = 6.2831853f * (t + (corner == 2 ? 0.04f : 0.0f)) *
                    (v % 6 < 3 ? 1.0f : -1.0f);
    pos.push_back(r * std::cos(a));
    pos.push_back(r * std::sin(a));
    for (int c = 0; c < 4; ++c) {
      col.push_back(static_cast<std::uint8_t>((v * 37 + c * 71) % 256));
    }
    for (int c = 0; c < 3; ++c) {
      sv.push_back(static_cast<std::int16_t>((v * 113 + c * 29) % 200 - 100));
    }
  }
  const auto render = [&](ExecEngine engine, glsl::OpCounts* counts) {
    ContextConfig cfg = SmallConfig(kW, kH);
    cfg.exec_engine = engine;
    cfg.shader_threads = 1;
    glsl::ExactAlu alu;
    Context ctx(cfg, &alu);
    const GLuint p = BuildProgramOrDie(ctx, vs, fs);
    ctx.UseProgram(p);
    const auto attrib = [&](const char* name, GLint size, GLenum type,
                            GLboolean norm, const void* data) {
      const GLint loc = ctx.GetAttribLocation(p, name);
      EXPECT_GE(loc, 0) << name;
      ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
      ctx.VertexAttribPointer(static_cast<GLuint>(loc), size, type, norm, 0,
                              data);
    };
    attrib("a_pos", 2, GL_FLOAT, GL_FALSE, pos.data());
    attrib("a_col", 4, GL_UNSIGNED_BYTE, GL_TRUE, col.data());
    attrib("a_s", 3, GL_SHORT, GL_FALSE, sv.data());
    const GLint k = ctx.GetAttribLocation(p, "a_k");
    EXPECT_GE(k, 0);
    ctx.VertexAttrib4f(static_cast<GLuint>(k), 0.125f, 0.0f, 0.0f, 1.0f);
    ctx.ClearColor(0.1f, 0.2f, 0.3f, 1.0f);
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    ctx.DrawArrays(GL_TRIANGLES, 0, kVerts - kVerts % 3);
    const GLuint pp = BuildProgramOrDie(ctx, vs, point_fs);
    ctx.UseProgram(pp);
    attrib("a_pos", 2, GL_FLOAT, GL_FALSE, pos.data());
    ctx.DrawArrays(GL_POINTS, 0, kVerts);
    EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
    std::vector<std::uint8_t> px = ReadRgba(ctx, kW, kH);
    *counts = alu.counts();
    return px;
  };
  glsl::OpCounts scalar_counts;
  glsl::OpCounts batched_counts;
  const std::vector<std::uint8_t> want =
      render(ExecEngine::kBytecodeVm, &scalar_counts);
  const std::vector<std::uint8_t> got =
      render(ExecEngine::kBatchedVm, &batched_counts);
  EXPECT_EQ(got, want);
  EXPECT_EQ(batched_counts.alu, scalar_counts.alu);
  EXPECT_EQ(batched_counts.sfu, scalar_counts.sfu);
  EXPECT_EQ(batched_counts.tmu, scalar_counts.tmu);
  // The scene is not trivially uniform: both draws and the clear show.
  std::size_t distinct = 0;
  for (std::size_t i = 4; i < want.size(); i += 4) {
    distinct += want[i] != want[i - 4] ? 1 : 0;
  }
  EXPECT_GT(distinct, 100u);
}

// Attribute fetches from a VBO must be validated against the buffer store
// at draw time: a range that runs past the end fails the draw with
// GL_INVALID_OPERATION instead of reading out-of-bounds heap memory. Both
// vertex paths (batched gather and the scalar reference loop) must agree.
TEST(ContextTest, VboDrawBeyondBufferSetsErrorNotOob) {
  for (const int vertex_batch : {-1, 0}) {
    SCOPED_TRACE("vertex_batch=" + std::to_string(vertex_batch));
    ContextConfig cfg = SmallConfig();
    cfg.vertex_batch = vertex_batch;
    Context ctx(cfg);
    const GLuint p = BuildProgramOrDie(
        ctx, testutil::kPassthroughVs,
        "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
    ctx.UseProgram(p);
    GLuint vbo;
    ctx.GenBuffers(1, &vbo);
    ctx.BindBuffer(GL_ARRAY_BUFFER, vbo);
    // Room for exactly 4 vec2 vertices (32 bytes).
    ctx.BufferData(GL_ARRAY_BUFFER, sizeof(float) * 8, testutil::kQuad.data(),
                   GL_STATIC_DRAW);
    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE,
                            0, nullptr);
    ctx.ClearColor(0.0f, 0.0f, 1.0f, 1.0f);
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    const auto before = ReadRgba(ctx, 4, 4);

    // 6 vertices from a 4-vertex store: vertex 4 would read past the end.
    ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
    EXPECT_EQ(ReadRgba(ctx, 4, 4), before) << "aborted draw touched pixels";

    // The last in-bounds window still draws.
    ctx.DrawArrays(GL_TRIANGLES, 0, 3);
    EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
  }
}

// BufferSubData ranges whose end overflows a signed sum (offset or size
// near the type's maximum) must be rejected with GL_INVALID_VALUE before
// any byte is written; the store keeps its contents and still draws.
TEST(ContextTest, BufferSubDataOverflowingRangeSetsErrorNoWrite) {
  for (const int async : {1, 0}) {
    SCOPED_TRACE("async_submit=" + std::to_string(async));
    ContextConfig cfg = SmallConfig();
    cfg.async_submit = async;
    Context ctx(cfg);
    const GLuint p = BuildProgramOrDie(
        ctx, testutil::kPassthroughVs,
        "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
    ctx.UseProgram(p);
    GLuint vbo;
    ctx.GenBuffers(1, &vbo);
    ctx.BindBuffer(GL_ARRAY_BUFFER, vbo);
    constexpr GLsizeiptr kBytes = sizeof(float) * 12;
    ctx.BufferData(GL_ARRAY_BUFFER, kBytes, testutil::kQuad.data(),
                   GL_STATIC_DRAW);
    ASSERT_EQ(ctx.GetError(), GL_NO_ERROR);

    constexpr GLsizeiptr kMax = std::numeric_limits<GLsizeiptr>::max();
    const std::vector<std::uint8_t> junk(16, 0xAB);
    ctx.BufferSubData(GL_ARRAY_BUFFER, kMax - 3, 8, junk.data());
    EXPECT_EQ(ctx.GetError(), GL_INVALID_VALUE) << "offset near max";
    ctx.BufferSubData(GL_ARRAY_BUFFER, 8, kMax - 3, junk.data());
    EXPECT_EQ(ctx.GetError(), GL_INVALID_VALUE) << "size near max";
    ctx.BufferSubData(GL_ARRAY_BUFFER, kBytes - 7, 8, junk.data());
    EXPECT_EQ(ctx.GetError(), GL_INVALID_VALUE) << "one byte past the end";
    // The last in-bounds range is accepted (rewriting identical bytes).
    ctx.BufferSubData(GL_ARRAY_BUFFER, kBytes - 8, 8,
                      testutil::kQuad.data() + 10);
    EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);

    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE,
                            0, nullptr);
    ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
    EXPECT_EQ(ReadRgba(ctx, 4, 4), std::vector<std::uint8_t>(4 * 4 * 4, 255))
        << "the rejected calls changed the store";
  }
}

// An attribute offset past the end of the store must fail the same way —
// the offset alone can place every fetch out of bounds.
TEST(ContextTest, VboAttribOffsetBeyondBufferSetsError) {
  for (const int vertex_batch : {-1, 0}) {
    SCOPED_TRACE("vertex_batch=" + std::to_string(vertex_batch));
    ContextConfig cfg = SmallConfig();
    cfg.vertex_batch = vertex_batch;
    Context ctx(cfg);
    const GLuint p = BuildProgramOrDie(
        ctx, testutil::kPassthroughVs,
        "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
    ctx.UseProgram(p);
    GLuint vbo;
    ctx.GenBuffers(1, &vbo);
    ctx.BindBuffer(GL_ARRAY_BUFFER, vbo);
    ctx.BufferData(GL_ARRAY_BUFFER, sizeof(float) * 12,
                   testutil::kQuad.data(), GL_STATIC_DRAW);
    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(
        static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
        reinterpret_cast<const void*>(static_cast<std::uintptr_t>(1 << 20)));
    ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
  }
}

// Index fetches from an element-array VBO get the same draw-time check.
TEST(ContextTest, DrawElementsIndexRangeBeyondBufferSetsError) {
  Context ctx(SmallConfig());
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
  ctx.UseProgram(p);
  const GLint loc = ctx.GetAttribLocation(p, "a_pos");
  const float verts[] = {-1, -1, 1, -1, 1, 1, -1, 1};
  ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
  ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE, 0,
                          verts);
  GLuint ibo;
  ctx.GenBuffers(1, &ibo);
  ctx.BindBuffer(GL_ELEMENT_ARRAY_BUFFER, ibo);
  const std::uint8_t idx[] = {0, 1, 2};
  ctx.BufferData(GL_ELEMENT_ARRAY_BUFFER, 3, idx, GL_STATIC_DRAW);
  // 6 indices from a 3-byte store.
  ctx.DrawElements(GL_TRIANGLES, 6, GL_UNSIGNED_BYTE, nullptr);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
  // In-bounds count is fine.
  ctx.DrawElements(GL_TRIANGLES, 3, GL_UNSIGNED_BYTE, nullptr);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

// Deleting a buffer detaches it from every attribute binding: a later draw
// fails cleanly (GL_INVALID_OPERATION, no fetch through the stale id).
TEST(ContextTest, DeletedBufferDetachesFromAttribBinding) {
  for (const int vertex_batch : {-1, 0}) {
    SCOPED_TRACE("vertex_batch=" + std::to_string(vertex_batch));
    ContextConfig cfg = SmallConfig();
    cfg.vertex_batch = vertex_batch;
    Context ctx(cfg);
    const GLuint p = BuildProgramOrDie(
        ctx, testutil::kPassthroughVs,
        "precision mediump float;\nvoid main() { gl_FragColor = vec4(1.0); }");
    ctx.UseProgram(p);
    GLuint vbo;
    ctx.GenBuffers(1, &vbo);
    ctx.BindBuffer(GL_ARRAY_BUFFER, vbo);
    ctx.BufferData(GL_ARRAY_BUFFER, sizeof(float) * 12,
                   testutil::kQuad.data(), GL_STATIC_DRAW);
    const GLint loc = ctx.GetAttribLocation(p, "a_pos");
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE,
                            0, nullptr);
    ctx.DeleteBuffers(1, &vbo);
    ctx.DrawArrays(GL_TRIANGLES, 0, 6);
    EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
  }
}

// Deleting a texture detaches it from framebuffer attachments: the FBO
// reports missing-attachment instead of resolving the stale id (which a
// later GenTextures could otherwise recycle into the wrong image).
TEST(ContextTest, DeletedTextureDetachesFromFramebuffer) {
  Context ctx(SmallConfig());
  GLuint tex;
  ctx.GenTextures(1, &tex);
  ctx.BindTexture(GL_TEXTURE_2D, tex);
  std::vector<std::uint8_t> texels(4 * 4 * 4, 200);
  ctx.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 4, 4, 0, GL_RGBA,
                 GL_UNSIGNED_BYTE, texels.data());
  GLuint fbo;
  ctx.GenFramebuffers(1, &fbo);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fbo);
  ctx.FramebufferTexture2D(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                           GL_TEXTURE_2D, tex, 0);
  ASSERT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            static_cast<GLenum>(GL_FRAMEBUFFER_COMPLETE));
  ctx.DeleteTextures(1, &tex);
  EXPECT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            static_cast<GLenum>(GL_FRAMEBUFFER_INCOMPLETE_MISSING_ATTACHMENT));
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

// Same detach contract for renderbuffer attachments.
TEST(ContextTest, DeletedRenderbufferDetachesFromFramebuffer) {
  Context ctx(SmallConfig());
  GLuint rb;
  ctx.GenRenderbuffers(1, &rb);
  ctx.BindRenderbuffer(GL_RENDERBUFFER, rb);
  ctx.RenderbufferStorage(GL_RENDERBUFFER, GL_RGB565, 4, 4);
  GLuint fbo;
  ctx.GenFramebuffers(1, &fbo);
  ctx.BindFramebuffer(GL_FRAMEBUFFER, fbo);
  ctx.FramebufferRenderbuffer(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                              GL_RENDERBUFFER, rb);
  ASSERT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            static_cast<GLenum>(GL_FRAMEBUFFER_COMPLETE));
  ctx.DeleteRenderbuffers(1, &rb);
  EXPECT_EQ(ctx.CheckFramebufferStatus(GL_FRAMEBUFFER),
            static_cast<GLenum>(GL_FRAMEBUFFER_INCOMPLETE_MISSING_ATTACHMENT));
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

TEST(ContextTest, RunawayShaderSetsDrawError) {
  Context ctx(SmallConfig(1, 1));
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { float a = 0.0; while (a < "
      "1.0) { a *= 1.0; } gl_FragColor = vec4(a); }");
  DrawFullscreenQuad(ctx, p);
  EXPECT_EQ(ctx.GetError(), GL_INVALID_OPERATION);
  EXPECT_FALSE(ctx.last_draw_error().empty());
}

TEST(ContextTest, PrecisionFormatQueriesMatchProfile) {
  Context ctx(SmallConfig());
  GLint range[2] = {0, 0};
  GLint precision = 0;
  // The query the paper (§IV-E) prescribes for discovering GPU float format.
  ctx.GetShaderPrecisionFormat(GL_FRAGMENT_SHADER, GL_HIGH_FLOAT, range,
                               &precision);
  EXPECT_EQ(precision, 23);
  EXPECT_EQ(range[0], 127);

  ContextConfig mali = SmallConfig();
  mali.limits.fragment_highp_float = false;  // Mali-400 class
  Context ctx2(mali);
  ctx2.GetShaderPrecisionFormat(GL_FRAGMENT_SHADER, GL_HIGH_FLOAT, range,
                                &precision);
  EXPECT_EQ(precision, 0);  // highp unsupported in the fragment stage
  ctx2.GetShaderPrecisionFormat(GL_VERTEX_SHADER, GL_HIGH_FLOAT, range,
                                &precision);
  EXPECT_EQ(precision, 23);  // ...but supported in the vertex stage
}

TEST(ContextTest, GetStringAndIntegerQueries) {
  Context ctx(SmallConfig());
  EXPECT_EQ(std::string(ctx.GetString(GL_SHADING_LANGUAGE_VERSION)),
            "OpenGL ES GLSL ES 1.00");
  EXPECT_EQ(std::string(ctx.GetString(GL_EXTENSIONS)), "");
  GLint v = 0;
  ctx.GetIntegerv(GL_MAX_VERTEX_ATTRIBS, &v);
  EXPECT_EQ(v, 8);
  ctx.GetIntegerv(GL_MAX_TEXTURE_SIZE, &v);
  EXPECT_EQ(v, 4096);
}

TEST(ContextTest, ErrorStateIsStickyUntilRead) {
  Context ctx(SmallConfig());
  ctx.Enable(0xDEAD);
  ctx.Viewport(0, 0, -1, -1);  // would be INVALID_VALUE, but first error wins
  EXPECT_EQ(ctx.GetError(), GL_INVALID_ENUM);
  EXPECT_EQ(ctx.GetError(), GL_NO_ERROR);
}

TEST(ContextTest, PaperQuantizationModeFloors) {
  ContextConfig cfg = SmallConfig(1, 1);
  cfg.quantization = FbQuantization::kFloorPaper;
  Context ctx(cfg);
  const GLuint p = BuildProgramOrDie(
      ctx, testutil::kPassthroughVs,
      "precision mediump float;\nvoid main() { gl_FragColor = "
      "vec4(0.9999); }");
  DrawFullscreenQuad(ctx, p);
  const auto px = ReadRgba(ctx, 1, 1);
  EXPECT_EQ(px[0], 254);  // floor(0.9999 * 255) per the paper's Eq. (2)
}

}  // namespace
}  // namespace mgpu::gles2
