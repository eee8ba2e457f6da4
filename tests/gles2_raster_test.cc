// Rasterizer invariants. The critical property for the paper's framework:
// the two-triangle fullscreen quad (challenge 2) shades every pixel exactly
// once, and varyings arrive at fragment (i, j) exactly as ((i+0.5)/W,
// (j+0.5)/H).
#include "gles2/raster.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <tuple>
#include <vector>

#include "gles2/context.h"
#include "gles2_test_util.h"
#include "gtest/gtest.h"

namespace mgpu::gles2 {
namespace {

RasterVertex V(float x, float y, std::vector<float> varyings = {},
               float w = 1.0f) {
  RasterVertex v;
  v.clip = {x * w, y * w, 0.0f, w};
  v.varyings = std::move(varyings);
  return v;
}

RasterState State(int w, int h) {
  RasterState s;
  s.viewport_w = w;
  s.viewport_h = h;
  s.target_w = w;
  s.target_h = h;
  return s;
}

class CoverageCounter {
 public:
  explicit CoverageCounter(int w) : w_(w) {}
  FragmentSink Sink() {
    return [this](int x, int y, float, const float*, bool, float, float) {
      counts_[y * w_ + x]++;
    };
  }
  [[nodiscard]] const std::map<int, int>& counts() const { return counts_; }
  int w_;
  std::map<int, int> counts_;
};

class QuadCoverage : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QuadCoverage, TwoTrianglesCoverEveryPixelExactlyOnce) {
  const auto [w, h] = GetParam();
  const RasterState s = State(w, h);
  CoverageCounter cc(w);
  const auto sink = cc.Sink();
  // The same two-triangle split the compute framework uses.
  RasterizeTriangle(V(-1, -1), V(1, -1), V(1, 1), 0, s, sink);
  RasterizeTriangle(V(-1, -1), V(1, 1), V(-1, 1), 0, s, sink);
  ASSERT_EQ(cc.counts().size(), static_cast<std::size_t>(w) * h)
      << "not every pixel was covered";
  for (const auto& [pix, count] : cc.counts()) {
    EXPECT_EQ(count, 1) << "pixel " << pix % w << "," << pix / w
                        << " shaded " << count << " times (fill rule bug)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, QuadCoverage,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 2}, std::pair{4, 4},
                      std::pair{16, 16}, std::pair{64, 64}, std::pair{5, 7},
                      std::pair{33, 17}, std::pair{128, 1},
                      std::pair{1, 128}));

TEST(RasterTest, AdjacentTrianglesShareEdgeWithoutDoubleShading) {
  // Vertical shared edge through pixel centers.
  const RasterState s = State(8, 8);
  CoverageCounter cc(8);
  const auto sink = cc.Sink();
  RasterizeTriangle(V(-1, -1), V(0, -1), V(0, 1), 0, s, sink);
  RasterizeTriangle(V(-1, -1), V(0, 1), V(-1, 1), 0, s, sink);
  RasterizeTriangle(V(0, -1), V(1, -1), V(1, 1), 0, s, sink);
  RasterizeTriangle(V(0, -1), V(1, 1), V(0, 1), 0, s, sink);
  ASSERT_EQ(cc.counts().size(), 64u);
  for (const auto& [pix, count] : cc.counts()) {
    EXPECT_EQ(count, 1) << "pixel " << pix;
  }
}

TEST(RasterTest, VaryingInterpolationHitsTexelCenters) {
  // Varying v = (uv.x, uv.y) over the quad; fragment (i, j) must receive
  // ((i+0.5)/W, (j+0.5)/H) to float accuracy (challenge 4 addressing).
  const int w = 16, h = 16;
  const RasterState s = State(w, h);
  int checked = 0;
  const FragmentSink sink = [&](int x, int y, float, const float* vars, bool,
                                float, float) {
    const float expect_u = (static_cast<float>(x) + 0.5f) / w;
    const float expect_v = (static_cast<float>(y) + 0.5f) / h;
    EXPECT_NEAR(vars[0], expect_u, 1e-6f);
    EXPECT_NEAR(vars[1], expect_v, 1e-6f);
    ++checked;
  };
  RasterizeTriangle(V(-1, -1, {0, 0}), V(1, -1, {1, 0}), V(1, 1, {1, 1}), 2,
                    s, sink);
  RasterizeTriangle(V(-1, -1, {0, 0}), V(1, 1, {1, 1}), V(-1, 1, {0, 1}), 2,
                    s, sink);
  EXPECT_EQ(checked, w * h);
}

TEST(RasterTest, DegenerateTriangleEmitsNothing) {
  const RasterState s = State(8, 8);
  CoverageCounter cc(8);
  const auto sink = cc.Sink();
  RasterizeTriangle(V(-1, -1), V(-1, -1), V(1, 1), 0, s, sink);
  EXPECT_TRUE(cc.counts().empty());
}

TEST(RasterTest, BackfaceCulling) {
  RasterState s = State(8, 8);
  s.cull_enabled = true;
  s.cull_face = GL_BACK;
  s.front_face = GL_CCW;
  CoverageCounter cc(8);
  const auto sink = cc.Sink();
  // Clockwise triangle = back-facing under CCW front: culled.
  RasterizeTriangle(V(-1, -1), V(1, 1), V(1, -1), 0, s, sink);
  EXPECT_TRUE(cc.counts().empty());
  // Counter-clockwise: kept.
  RasterizeTriangle(V(-1, -1), V(1, -1), V(1, 1), 0, s, sink);
  EXPECT_FALSE(cc.counts().empty());
}

TEST(RasterTest, FrontFacingFlagReported) {
  const RasterState s = State(4, 4);
  bool saw_front = false, saw_back = false;
  const FragmentSink sink = [&](int, int, float, const float*, bool front,
                                float, float) {
    (front ? saw_front : saw_back) = true;
  };
  RasterizeTriangle(V(-1, -1), V(1, -1), V(1, 1), 0, s, sink);  // CCW
  RasterizeTriangle(V(-1, -1), V(1, 1), V(1, -1), 0, s, sink);  // CW
  EXPECT_TRUE(saw_front);
  EXPECT_TRUE(saw_back);
}

TEST(RasterTest, OffscreenGeometryClampedToTarget) {
  const RasterState s = State(4, 4);
  CoverageCounter cc(4);
  const auto sink = cc.Sink();
  // Triangle extending far beyond the viewport.
  RasterizeTriangle(V(-10, -10), V(10, -10), V(10, 10), 0, s, sink);
  for (const auto& [pix, count] : cc.counts()) {
    EXPECT_LT(pix, 16);
    EXPECT_EQ(count, 1);
  }
}

TEST(RasterTest, BehindCameraVertexClipped) {
  const RasterState s = State(8, 8);
  CoverageCounter cc(8);
  const auto sink = cc.Sink();
  RasterVertex behind = V(0, 1);
  behind.clip = {0.0f, 1.0f, 0.0f, -1.0f};  // w < 0: behind the camera
  RasterizeTriangle(V(-1, -1), V(1, -1), behind, 0, s, sink);
  // Must not crash or emit garbage; some pixels may legitimately appear.
  for (const auto& [pix, count] : cc.counts()) {
    EXPECT_LT(pix, 64);
    EXPECT_GE(count, 1);
  }
}

TEST(RasterTest, PerspectiveCorrectInterpolation) {
  // Two vertices at different w; the varying must interpolate rationally,
  // not linearly, in screen space.
  const RasterState s = State(9, 9);
  RasterVertex a = V(-1, -1, {0.0f});
  RasterVertex b = V(1, -1, {1.0f}, 2.0f);  // w = 2
  RasterVertex c = V(1, 1, {1.0f}, 2.0f);
  float mid_value = -1.0f;
  const FragmentSink sink = [&](int x, int y, float, const float* vars, bool,
                                float, float) {
    if (x == 4 && y == 2) mid_value = vars[0];
  };
  RasterizeTriangle(a, b, c, 1, s, sink);
  ASSERT_GE(mid_value, 0.0f);
  // Screen-linear interpolation would give ~0.5 at the midpoint; perspective
  // correction pulls it toward the w=1 vertex's value.
  EXPECT_LT(mid_value, 0.5f);
  EXPECT_GT(mid_value, 0.2f);
}

TEST(RasterTest, PointSpriteCoverageAndPointCoord) {
  const RasterState s = State(8, 8);
  RasterVertex p = V(0, 0);
  p.point_size = 4.0f;
  int frags = 0;
  float min_ps = 2.0f, max_ps = -1.0f;
  const FragmentSink sink = [&](int, int, float, const float*, bool,
                                float ps, float pt) {
    ++frags;
    min_ps = std::min(min_ps, ps);
    max_ps = std::max(max_ps, std::max(ps, pt));
  };
  RasterizePoint(p, 0, s, sink);
  EXPECT_EQ(frags, 16);  // 4x4 sprite
  EXPECT_GE(min_ps, 0.0f);
  EXPECT_LE(max_ps, 1.0f);
}

TEST(RasterTest, LineConnectsEndpoints) {
  const RasterState s = State(8, 8);
  std::vector<std::pair<int, int>> pixels;
  const FragmentSink sink = [&](int x, int y, float, const float*, bool,
                                float, float) {
    pixels.emplace_back(x, y);
  };
  RasterizeLine(V(-1, -1), V(1, 1), 0, s, sink);
  ASSERT_FALSE(pixels.empty());
  EXPECT_EQ(pixels.front(), (std::pair{0, 0}));
  EXPECT_EQ(pixels.back(), (std::pair{7, 7}));
}

TEST(RasterTest, ViewportOffsetShiftsOutput) {
  RasterState s = State(8, 8);
  s.viewport_x = 4;
  s.viewport_y = 4;
  s.viewport_w = 4;
  s.viewport_h = 4;
  CoverageCounter cc(8);
  const auto sink = cc.Sink();
  RasterizeTriangle(V(-1, -1), V(1, -1), V(1, 1), 0, s, sink);
  RasterizeTriangle(V(-1, -1), V(1, 1), V(-1, 1), 0, s, sink);
  ASSERT_EQ(cc.counts().size(), 16u);
  for (const auto& [pix, count] : cc.counts()) {
    EXPECT_GE(pix % 8, 4);
    EXPECT_GE(pix / 8, 4);
    EXPECT_EQ(count, 1);
  }
}

// Positions a vertex attribute can carry that leave int range once mapped
// to window coordinates.
const std::vector<float>& BadCoords() {
  static const std::vector<float> v = {
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(), 3e9f, -3e9f};
  return v;
}

// A primitive with a NaN, infinite or out-of-range window coordinate is
// culled whole, by the rasterizer and by the binner's bounds alike, before
// any coordinate is converted to int.
TEST(RasterTest, NonFiniteAndHugeCoordinatesCullThePrimitive) {
  const RasterState s = State(8, 8);
  int frags = 0;
  const FragmentSink sink = [&](int, int, float, const float*, bool, float,
                                float) { ++frags; };
  PixelRect r;
  for (const float bad : BadCoords()) {
    SCOPED_TRACE(bad);
    for (int axis = 0; axis < 2; ++axis) {
      RasterVertex v = V(0.5f, 0.5f);
      v.clip[static_cast<std::size_t>(axis)] = bad;
      RasterizeTriangle(V(-1, -1), V(1, -1), v, 0, s, sink);
      EXPECT_FALSE(TriangleBounds(V(-1, -1), V(1, -1), v, s, &r));
      // Near-clipped: the clipped polygon carries the bad vertex along.
      RasterVertex behind = V(0, 1);
      behind.clip = {0.0f, 1.0f, 0.0f, -1.0f};
      RasterizeTriangle(v, V(1, -1), behind, 0, s, sink);
      EXPECT_FALSE(TriangleBounds(v, V(1, -1), behind, s, &r));
      RasterizePoint(v, 0, s, sink);
      EXPECT_FALSE(PointBounds(v, s, &r));
      RasterizeLine(V(-1, -1), v, 0, s, sink);
      RasterizeLine(v, V(-1, -1), 0, s, sink);
      EXPECT_FALSE(LineBounds(V(-1, -1), v, s, &r));
      int tiles = 0;
      LineTouchedTiles(v, V(-1, -1), s, 4,
                       [&](int, int) { ++tiles; });
      EXPECT_EQ(tiles, 0);
    }
  }
  RasterVertex huge_point = V(0, 0);
  huge_point.point_size = std::numeric_limits<float>::infinity();
  RasterizePoint(huge_point, 0, s, sink);
  EXPECT_FALSE(PointBounds(huge_point, s, &r));
  EXPECT_EQ(frags, 0);

  // Finite primitives, even ones far outside the target, still draw.
  RasterizeTriangle(V(-1, -1), V(1e6f, -1), V(-1, 1e6f), 0, s, sink);
  EXPECT_EQ(frags, 64);
}

// The same through a whole draw on the serial and the threaded pipeline:
// triangles, points and lines holding such positions add nothing, raise no
// GL error, and leave the finite primitives of the same draw unchanged.
TEST(RasterTest, DrawsSkipNonFiniteAndHugePrimitives) {
  constexpr int kSize = 96;  // more than one 64x64 tile
  constexpr char kVs[] = R"(
attribute vec4 a_pos;
void main() {
  gl_Position = a_pos;
  gl_PointSize = 5.0;
}
)";
  constexpr char kFs[] = R"(
precision mediump float;
void main() { gl_FragColor = vec4(0.2, 0.6, 0.9, 1.0); }
)";
  // One finite triangle, point and line: the reference scene.
  const std::vector<float> tri = {-0.9f, -0.9f, 0, 1, 0.8f, -0.7f, 0, 1,
                                  -0.6f, 0.9f, 0, 1};
  const std::vector<float> point = {0.5f, 0.5f, 0, 1};
  const std::vector<float> line = {-1.0f, 0.7f, 0, 1, 0.9f, -0.2f, 0, 1};
  // The same with bad copies first: each bad value in x, then in y.
  std::vector<float> bad_tris, bad_points, bad_lines;
  for (const float bad : BadCoords()) {
    for (int axis = 0; axis < 2; ++axis) {
      std::vector<float> t = tri;
      t[8 + static_cast<std::size_t>(axis)] = bad;
      bad_tris.insert(bad_tris.end(), t.begin(), t.end());
      std::vector<float> p = point;
      p[static_cast<std::size_t>(axis)] = bad;
      bad_points.insert(bad_points.end(), p.begin(), p.end());
      std::vector<float> l = line;
      l[4 + static_cast<std::size_t>(axis)] = bad;
      bad_lines.insert(bad_lines.end(), l.begin(), l.end());
    }
  }
  const auto with = [](std::vector<float> a, const std::vector<float>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  const auto render = [&](int threads, bool bad) {
    ContextConfig cfg;
    cfg.width = kSize;
    cfg.height = kSize;
    cfg.shader_threads = threads;
    Context ctx(cfg);
    const GLuint prog = testutil::BuildProgramOrDie(ctx, kVs, kFs);
    ctx.UseProgram(prog);
    const GLint loc = ctx.GetAttribLocation(prog, "a_pos");
    EXPECT_GE(loc, 0);
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    const auto draw = [&](GLenum mode, const std::vector<float>& verts) {
      ctx.VertexAttribPointer(static_cast<GLuint>(loc), 4, GL_FLOAT,
                              GL_FALSE, 0, verts.data());
      ctx.DrawArrays(mode, 0, static_cast<GLsizei>(verts.size() / 4));
      EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
    };
    draw(GL_TRIANGLES, bad ? with(bad_tris, tri) : tri);
    draw(GL_POINTS, bad ? with(bad_points, point) : point);
    draw(GL_LINES, bad ? with(bad_lines, line) : line);
    return testutil::ReadRgba(ctx, kSize, kSize);
  };
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const std::vector<std::uint8_t> want = render(threads, false);
    EXPECT_EQ(render(threads, true), want);
  }
}


// One line fragment: pixel and its interpolated varying (which carries the
// walk parameter t, so a fragment emitted at another step shows).
struct LineFrag {
  int x;
  int y;
  float v;
  bool operator==(const LineFrag& o) const {
    return x == o.x && y == o.y && v == o.v;
  }
};

std::vector<LineFrag> RasterLine(const RasterVertex& a, const RasterVertex& b,
                                 const RasterState& s) {
  std::vector<LineFrag> out;
  RasterizeLine(a, b, 1, s,
                [&](int x, int y, float, const float* v, bool, float, float) {
                  out.push_back({x, y, v[0]});
                });
  return out;
}

// Reference walk for a line between V(x0, y0, {0}) and V(x1, y1, {1}): every
// step from the first endpoint, with the rasterizer's own arithmetic, kept
// when it lands inside the target and the clip rect.
std::vector<LineFrag> FullWalkLine(float x0, float y0, float x1, float y1,
                                   const RasterState& s) {
  const auto window = [](float c, int origin, int extent) {
    return origin + (static_cast<double>(c) * 1.0 + 1.0) * 0.5 * extent;
  };
  const double ax = window(x0, s.viewport_x, s.viewport_w);
  const double ay = window(y0, s.viewport_y, s.viewport_h);
  const double dx = window(x1, s.viewport_x, s.viewport_w) - ax;
  const double dy = window(y1, s.viewport_y, s.viewport_h) - ay;
  const int steps = std::max(
      1, static_cast<int>(std::ceil(std::max(std::fabs(dx), std::fabs(dy)))));
  const double inv_w = 1.0;
  const double va = 0.0f;
  const double vb = 1.0f;
  std::vector<LineFrag> out;
  int last_x = INT_MIN, last_y = INT_MIN;
  for (int i = 0; i <= steps; ++i) {
    const double t = static_cast<double>(i) / steps;
    const int px = static_cast<int>(std::floor(ax + t * dx));
    const int py = static_cast<int>(std::floor(ay + t * dy));
    if (px == last_x && py == last_y) continue;
    last_x = px;
    last_y = py;
    if (px < 0 || py < 0 || px >= s.target_w || py >= s.target_h ||
        px < s.clip_x0 || py < s.clip_y0 || px >= s.clip_x1 ||
        py >= s.clip_y1) {
      continue;
    }
    const double pw = (1.0 - t) * inv_w + t * inv_w;
    out.push_back({px, py,
                   static_cast<float>(
                       ((1.0 - t) * inv_w * va + t * inv_w * vb) / pw)});
  }
  return out;
}

// A line starts its walk at the first step that can reach the target, not
// at an off-target endpoint. Lines with endpoints up to ~1300 px off a
// 64x48 target, at every angle and in both directions, emit exactly the
// fragments, parameters and touched tiles of the full walk, whole-target
// and per tile.
TEST(RasterTest, OffTargetLinesMatchTheFullWalk) {
  constexpr int kTile = 16;
  const RasterState whole = State(64, 48);
  std::mt19937 rng(20261022);
  std::uniform_real_distribution<float> coord(-40.0f, 40.0f);
  std::uniform_int_distribution<int> pick(0, 3);
  int nonempty = 0;
  for (int n = 0; n < 1500; ++n) {
    // Mix far endpoints with ones inside the target ([-1, 1]).
    const auto c = [&] {
      return pick(rng) == 0 ? coord(rng) / 40.0f : coord(rng);
    };
    const float x0 = c(), y0 = c(), x1 = c(), y1 = c();
    SCOPED_TRACE(::testing::Message() << "(" << x0 << ", " << y0 << ") -> ("
                                      << x1 << ", " << y1 << ")");
    const RasterVertex a = V(x0, y0, {0.0f});
    const RasterVertex b = V(x1, y1, {1.0f});
    const std::vector<LineFrag> want = FullWalkLine(x0, y0, x1, y1, whole);
    ASSERT_EQ(RasterLine(a, b, whole), want);
    if (!want.empty()) ++nonempty;

    std::vector<std::pair<int, int>> want_tiles;
    for (const LineFrag& f : want) {
      const std::pair<int, int> t{f.x / kTile, f.y / kTile};
      if (want_tiles.empty() || want_tiles.back() != t) want_tiles.push_back(t);
    }
    std::vector<std::pair<int, int>> tiles;
    LineTouchedTiles(a, b, whole, kTile,
                     [&](int tx, int ty) { tiles.emplace_back(tx, ty); });
    ASSERT_EQ(tiles, want_tiles);

    for (const auto& [tx, ty] : want_tiles) {
      RasterState tile = whole;
      tile.clip_x0 = tx * kTile;
      tile.clip_y0 = ty * kTile;
      tile.clip_x1 = tile.clip_x0 + kTile;
      tile.clip_y1 = tile.clip_y0 + kTile;
      ASSERT_EQ(RasterLine(a, b, tile), FullWalkLine(x0, y0, x1, y1, tile));
    }
  }
  EXPECT_GT(nonempty, 200);  // the corpus does reach the target
}

// An endpoint 3.2e8 px off target (clip x = -1e7 on a 64-px viewport): the
// walk must not step through the off-target pixels, which takes seconds
// per line, and still emits the on-target run.
TEST(RasterTest, FarOffTargetLineDrawsPromptly) {
  const RasterState s = State(64, 64);
  const std::vector<LineFrag> got =
      RasterLine(V(-1e7f, 0.0f, {0.0f}), V(0.0f, 0.0f, {1.0f}), s);
  ASSERT_EQ(got.size(), 33u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].x, static_cast<int>(i));
    EXPECT_EQ(got[i].y, 32);
  }
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end(),
                             [](const LineFrag& l, const LineFrag& r) {
                               return l.v < r.v;
                             }));
  std::vector<std::pair<int, int>> tiles;
  LineTouchedTiles(V(0.0f, -1e7f), V(0.0f, 0.0f), s, kTileSize,
                   [&](int tx, int ty) { tiles.emplace_back(tx, ty); });
  EXPECT_EQ(tiles, (std::vector<std::pair<int, int>>{{0, 0}}));

  // Through whole draws, serial and on the tile pool: far lines paint the
  // same pixels as the same segments clipped to the viewport edge. On a
  // 128-px viewport clip -2^22 maps to 64 - 2^28 px, so every segment spans
  // a power of two and each walk step lands exactly on a pixel.
  constexpr int kSize = 128;  // 2x2 tiles of 64x64
  constexpr char kVs[] = R"(
attribute vec4 a_pos;
void main() { gl_Position = a_pos; }
)";
  constexpr char kFs[] = R"(
precision mediump float;
void main() { gl_FragColor = vec4(0.2, 0.6, 0.9, 1.0); }
)";
  const auto render = [&](int threads, const std::vector<float>& lines) {
    ContextConfig cfg;
    cfg.width = kSize;
    cfg.height = kSize;
    cfg.shader_threads = threads;
    Context ctx(cfg);
    const GLuint prog = testutil::BuildProgramOrDie(ctx, kVs, kFs);
    ctx.UseProgram(prog);
    const GLint loc = ctx.GetAttribLocation(prog, "a_pos");
    EXPECT_GE(loc, 0);
    ctx.EnableVertexAttribArray(static_cast<GLuint>(loc));
    ctx.Clear(GL_COLOR_BUFFER_BIT);
    ctx.VertexAttribPointer(static_cast<GLuint>(loc), 2, GL_FLOAT, GL_FALSE,
                            0, lines.data());
    ctx.DrawArrays(GL_LINES, 0, static_cast<GLsizei>(lines.size() / 2));
    EXPECT_EQ(ctx.GetError(), static_cast<GLenum>(GL_NO_ERROR));
    return testutil::ReadRgba(ctx, kSize, kSize);
  };
  constexpr float kFar = -4194304.0f;  // -2^22
  const std::vector<float> far = {kFar, 0.25f, 0.0f, 0.25f,   // from the left
                                  0.5f, -kFar, 0.5f, 0.0f,    // from above
                                  0.0f, 0.0f, kFar, kFar};    // to lower left
  const std::vector<float> near = {-1.0f, 0.25f, 0.0f, 0.25f,
                                   0.5f, 1.0f, 0.5f, 0.0f,
                                   0.0f, 0.0f, -1.0f, -1.0f};
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const std::vector<std::uint8_t> want = render(threads, near);
    EXPECT_EQ(std::count(want.begin(), want.end(), 0x33), 65 + 64 + 65);
    EXPECT_EQ(render(threads, far), want);
  }
}

}  // namespace
}  // namespace mgpu::gles2
