#include "gles2/raster.h"

#include <algorithm>
#include <climits>
#include <cmath>

namespace mgpu::gles2 {
namespace {

constexpr float kNearEps = 1e-6f;

// Emitter policies: how a covered fragment leaves the pixel loops. The
// templated emission code writes interpolated varying cell k at
// VarBase()[k * kVarStride] and then calls Commit — so the scalar emitter
// (kVarStride == 1, a local buffer handed to the FragmentSink) and the
// batch emitter (kVarStride == kFragBatchWidth, writing the current lane's
// column of the SoA planes directly) share one set of coverage and
// interpolation loops, and therefore emit identical fragments in identical
// order by construction.
struct SinkEmitter {
  const FragmentSink& sink;
  // Only the first `varying_cells` cells are ever written and read; the
  // tail stays uninitialized on purpose (zero-filling all cells per pixel
  // dominated small-kernel rasterization).
  std::array<float, kMaxVaryingCells> vars;

  static constexpr int kVarStride = 1;
  [[nodiscard]] float* VarBase() { return vars.data(); }
  void Commit(int px, int py, float z, bool front, float ps, float pt) {
    sink(px, py, z, vars.data(), front, ps, pt);
  }
};

struct BatchEmitter {
  FragmentBatch& b;
  const BatchFlushFn& flush;

  static constexpr int kVarStride = kFragBatchWidth;
  [[nodiscard]] float* VarBase() {
    return &b.varyings[static_cast<std::size_t>(b.count)];
  }
  void Commit(int px, int py, float z, bool front, float ps, float pt) {
    const std::size_t l = static_cast<std::size_t>(b.count);
    b.x[l] = px;
    b.y[l] = py;
    b.depth[l] = z;
    b.front[l] = front ? 1 : 0;
    b.point_s[l] = ps;
    b.point_t[l] = pt;
    if (++b.count == b.width) flush();
  }
};

struct DeviceVertex {
  double x = 0.0, y = 0.0, z = 0.0;  // window coordinates
  double inv_w = 1.0;
  std::array<float, kMaxVaryingCells> varyings{};
  float point_size = 1.0f;
};

DeviceVertex ToDevice(const RasterVertex& v, int varying_cells,
                      const RasterState& s) {
  DeviceVertex d;
  const double w = v.clip[3];
  const double inv_w = 1.0 / w;
  const double xn = v.clip[0] * inv_w;
  const double yn = v.clip[1] * inv_w;
  const double zn = v.clip[2] * inv_w;
  d.x = s.viewport_x + (xn + 1.0) * 0.5 * s.viewport_w;
  d.y = s.viewport_y + (yn + 1.0) * 0.5 * s.viewport_h;
  d.z = (zn + 1.0) * 0.5;  // default glDepthRangef(0, 1)
  d.inv_w = inv_w;
  for (int i = 0; i < varying_cells && i < kMaxVaryingCells; ++i) {
    d.varyings[static_cast<std::size_t>(i)] =
        i < static_cast<int>(v.varyings.size()) ? v.varyings[static_cast<std::size_t>(i)] : 0.0f;
  }
  d.point_size = v.point_size;
  return d;
}

// Window coordinates past +-2^29 pixels, NaN and infinities cull the whole
// primitive before any of them is converted to int: inside the bound every
// bbox edge, a line's step count (at most twice the bound) and its +1 end
// pixel fit an int. The rasterizers and the binner's bounds apply the same
// test, so they agree on which primitives exist.
constexpr double kMaxWindowCoord = 536870912.0;  // 2^29

bool InRange(double v) { return std::fabs(v) <= kMaxWindowCoord; }

bool InRange(const DeviceVertex& d) { return InRange(d.x) && InRange(d.y); }

// A point's half extent (point size clamped below at 1); false when its
// square leaves the coordinate range (including an infinite point size).
bool PointHalf(const DeviceVertex& d, double* half) {
  *half = std::max(1.0f, d.point_size) * 0.5;
  return InRange(d.x - *half) && InRange(d.x + *half) &&
         InRange(d.y - *half) && InRange(d.y + *half);
}

// Clips a polygon (in clip space, varyings linear in clip space) against the
// plane w >= kNearEps. Sutherland-Hodgman on a single plane.
std::vector<RasterVertex> ClipNear(const std::vector<RasterVertex>& poly,
                                   int varying_cells) {
  std::vector<RasterVertex> out;
  const auto n = poly.size();
  for (std::size_t i = 0; i < n; ++i) {
    const RasterVertex& a = poly[i];
    const RasterVertex& b = poly[(i + 1) % n];
    const bool a_in = a.clip[3] >= kNearEps;
    const bool b_in = b.clip[3] >= kNearEps;
    auto lerp = [&](float t) {
      RasterVertex m;
      for (int k = 0; k < 4; ++k) {
        m.clip[static_cast<std::size_t>(k)] =
            a.clip[static_cast<std::size_t>(k)] +
            t * (b.clip[static_cast<std::size_t>(k)] -
                 a.clip[static_cast<std::size_t>(k)]);
      }
      m.varyings.resize(static_cast<std::size_t>(varying_cells));
      for (int k = 0; k < varying_cells; ++k) {
        const float av = k < static_cast<int>(a.varyings.size())
                             ? a.varyings[static_cast<std::size_t>(k)] : 0.0f;
        const float bv = k < static_cast<int>(b.varyings.size())
                             ? b.varyings[static_cast<std::size_t>(k)] : 0.0f;
        m.varyings[static_cast<std::size_t>(k)] = av + t * (bv - av);
      }
      m.point_size = a.point_size;
      return m;
    };
    if (a_in) out.push_back(a);
    if (a_in != b_in) {
      const float t = (kNearEps - a.clip[3]) / (b.clip[3] - a.clip[3]);
      out.push_back(lerp(t));
    }
  }
  return out;
}

double Orient2d(double ax, double ay, double bx, double by, double cx,
                double cy) {
  return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
}

// Top-left fill rule for a CCW triangle in a y-up coordinate system: an edge
// (a -> b) owns its boundary pixels when it is a "left" edge (heading
// downward... here upward in y-up CCW = dy > 0) or the "top" horizontal edge
// (dy == 0 and dx < 0). Verified by the exact-coverage tests in
// gles2_raster_test.cc (two triangles sharing a diagonal must shade every
// pixel exactly once — the paper's challenge 2 quad).
bool EdgeIsTopLeft(double dx, double dy) {
  if (dy == 0.0) return dx < 0.0;
  return dy > 0.0;
}

// Facing/cull decision shared by EmitTriangle and TriangleBounds (the
// binner and the rasterizer must agree, or tiles could be dropped/wasted).
// With y-up window coords, positive area = counter-clockwise. Returns true
// when the triangle is culled; *front reports facingness either way.
bool CullTest(double area, const RasterState& s, bool* front) {
  const bool ccw = area > 0.0;
  *front = (s.front_face == GL_CCW) == ccw;
  if (!s.cull_enabled) return false;
  if (s.cull_face == GL_FRONT_AND_BACK) return true;
  return *front == (s.cull_face == GL_FRONT);
}

template <typename Emitter>
void EmitTriangle(const DeviceVertex& d0, const DeviceVertex& d1,
                  const DeviceVertex& d2, int varying_cells,
                  const RasterState& s, Emitter& emit) {
  const double area = Orient2d(d0.x, d0.y, d1.x, d1.y, d2.x, d2.y);
  if (area == 0.0) return;

  bool front = false;
  if (CullTest(area, s, &front)) return;

  // Wind to CCW for a uniform fill rule.
  const bool ccw = area > 0.0;
  const DeviceVertex& a = d0;
  const DeviceVertex& b = ccw ? d1 : d2;
  const DeviceVertex& c = ccw ? d2 : d1;
  const double abs_area = std::fabs(area);

  int min_x = static_cast<int>(std::floor(std::min({a.x, b.x, c.x})));
  int max_x = static_cast<int>(std::ceil(std::max({a.x, b.x, c.x})));
  int min_y = static_cast<int>(std::floor(std::min({a.y, b.y, c.y})));
  int max_y = static_cast<int>(std::ceil(std::max({a.y, b.y, c.y})));
  min_x = std::max({min_x, 0, s.clip_x0});
  min_y = std::max({min_y, 0, s.clip_y0});
  max_x = std::min({max_x, s.target_w, s.clip_x1});
  max_y = std::min({max_y, s.target_h, s.clip_y1});
  if (min_x >= max_x || min_y >= max_y) return;

  const bool tl0 = EdgeIsTopLeft(c.x - b.x, c.y - b.y);  // edge b->c (w0)
  const bool tl1 = EdgeIsTopLeft(a.x - c.x, a.y - c.y);  // edge c->a (w1)
  const bool tl2 = EdgeIsTopLeft(b.x - a.x, b.y - a.y);  // edge a->b (w2)

  // Edge setup hoisted out of the pixel loop: each edge function is affine
  // in the sample position, so it is evaluated exactly (Orient2d) once per
  // row at the row anchor and stepped by its constant x-derivative across
  // the row. For pixel-aligned vertex coordinates (the GPGPU quad and the
  // exact-coverage corpus) anchor and increments are exactly representable
  // in double, so the stepped values equal direct evaluation bit-for-bit —
  // the shared-diagonal tests below guard this.
  const double dw0dx = b.y - c.y;
  const double dw1dx = c.y - a.y;
  const double dw2dx = a.y - b.y;

  for (int py = min_y; py < max_y; ++py) {
    const double sy = py + 0.5;
    const double sx0 = min_x + 0.5;
    double w0 = Orient2d(b.x, b.y, c.x, c.y, sx0, sy);
    double w1 = Orient2d(c.x, c.y, a.x, a.y, sx0, sy);
    double w2 = Orient2d(a.x, a.y, b.x, b.y, sx0, sy);
    for (int px = min_x; px < max_x;
         ++px, w0 += dw0dx, w1 += dw1dx, w2 += dw2dx) {
      const bool in0 = w0 > 0.0 || (w0 == 0.0 && tl0);
      const bool in1 = w1 > 0.0 || (w1 == 0.0 && tl1);
      const bool in2 = w2 > 0.0 || (w2 == 0.0 && tl2);
      if (!in0 || !in1 || !in2) continue;

      const double ba = w0 / abs_area;
      const double bb = w1 / abs_area;
      const double bc = w2 / abs_area;
      const double z = ba * a.z + bb * b.z + bc * c.z;
      // Perspective-correct interpolation (exact linear when w == 1, the
      // GPGPU case, so kernel indices arrive exactly at (i + 0.5) / N).
      const double pa = ba * a.inv_w;
      const double pb = bb * b.inv_w;
      const double pc = bc * c.inv_w;
      const double denom = pa + pb + pc;
      float* const vb = emit.VarBase();
      for (int k = 0; k < varying_cells; ++k) {
        const std::size_t ki = static_cast<std::size_t>(k);
        vb[static_cast<std::size_t>(k) * Emitter::kVarStride] =
            static_cast<float>((pa * a.varyings[ki] + pb * b.varyings[ki] +
                                pc * c.varyings[ki]) /
                               denom);
      }
      emit.Commit(px, py, static_cast<float>(std::clamp(z, 0.0, 1.0)), front,
                  0.0f, 0.0f);
    }
  }
}

template <typename Emitter>
void RasterizeTriangleT(const RasterVertex& v0, const RasterVertex& v1,
                        const RasterVertex& v2, int varying_cells,
                        const RasterState& state, Emitter& emit) {
  // Near-plane (w > 0) clipping; everything else is handled by the scissor
  // to the render target in EmitTriangle.
  const bool in0 = v0.clip[3] >= kNearEps;
  const bool in1 = v1.clip[3] >= kNearEps;
  const bool in2 = v2.clip[3] >= kNearEps;
  if (in0 && in1 && in2) {
    const DeviceVertex d0 = ToDevice(v0, varying_cells, state);
    const DeviceVertex d1 = ToDevice(v1, varying_cells, state);
    const DeviceVertex d2 = ToDevice(v2, varying_cells, state);
    if (!InRange(d0) || !InRange(d1) || !InRange(d2)) return;
    EmitTriangle(d0, d1, d2, varying_cells, state, emit);
    return;
  }
  const std::vector<RasterVertex> poly =
      ClipNear({v0, v1, v2}, varying_cells);
  if (poly.size() < 3) return;
  std::vector<DeviceVertex> d;
  d.reserve(poly.size());
  for (const RasterVertex& v : poly) {
    d.push_back(ToDevice(v, varying_cells, state));
    if (!InRange(d.back())) return;
  }
  for (std::size_t i = 1; i + 1 < d.size(); ++i) {
    EmitTriangle(d[0], d[i], d[i + 1], varying_cells, state, emit);
  }
}

template <typename Emitter>
void RasterizePointT(const RasterVertex& v, int varying_cells,
                     const RasterState& state, Emitter& emit) {
  if (v.clip[3] < kNearEps) return;
  const DeviceVertex d = ToDevice(v, varying_cells, state);
  double half = 0.0;
  if (!PointHalf(d, &half)) return;
  const double size = half * 2.0;
  int min_x = static_cast<int>(std::floor(d.x - half));
  int max_x = static_cast<int>(std::ceil(d.x + half));
  int min_y = static_cast<int>(std::floor(d.y - half));
  int max_y = static_cast<int>(std::ceil(d.y + half));
  min_x = std::max({min_x, 0, state.clip_x0});
  min_y = std::max({min_y, 0, state.clip_y0});
  max_x = std::min({max_x, state.target_w, state.clip_x1});
  max_y = std::min({max_y, state.target_h, state.clip_y1});
  for (int py = min_y; py < max_y; ++py) {
    for (int px = min_x; px < max_x; ++px) {
      const double sx = px + 0.5;
      const double sy = py + 0.5;
      if (std::fabs(sx - d.x) > half || std::fabs(sy - d.y) > half) continue;
      const float ps = static_cast<float>((sx - (d.x - half)) / size);
      const float pt = static_cast<float>(1.0 - (sy - (d.y - half)) / size);
      float* const vb = emit.VarBase();
      for (int k = 0; k < varying_cells; ++k) {
        vb[static_cast<std::size_t>(k) * Emitter::kVarStride] =
            d.varyings[static_cast<std::size_t>(k)];
      }
      emit.Commit(px, py, static_cast<float>(std::clamp(d.z, 0.0, 1.0)),
                  true, ps, pt);
    }
  }
}

}  // namespace

void RasterizeTriangle(const RasterVertex& v0, const RasterVertex& v1,
                       const RasterVertex& v2, int varying_cells,
                       const RasterState& state, const FragmentSink& sink) {
  SinkEmitter emit{sink, {}};
  RasterizeTriangleT(v0, v1, v2, varying_cells, state, emit);
}

void RasterizeTriangle(const RasterVertex& v0, const RasterVertex& v1,
                       const RasterVertex& v2, int varying_cells,
                       const RasterState& state, FragmentBatch& batch,
                       const BatchFlushFn& flush) {
  BatchEmitter emit{batch, flush};
  RasterizeTriangleT(v0, v1, v2, varying_cells, state, emit);
}

void RasterizePoint(const RasterVertex& v, int varying_cells,
                    const RasterState& state, const FragmentSink& sink) {
  SinkEmitter emit{sink, {}};
  RasterizePointT(v, varying_cells, state, emit);
}

void RasterizePoint(const RasterVertex& v, int varying_cells,
                    const RasterState& state, FragmentBatch& batch,
                    const BatchFlushFn& flush) {
  BatchEmitter emit{batch, flush};
  RasterizePointT(v, varying_cells, state, emit);
}

namespace {

// The line's pixel walk, shared by RasterizeLine and LineTouchedTiles so
// the binner sees exactly the pixels the rasterizer emits. Calls
// fn(t, px, py) for each deduplicated step, pre-target-clip; fn returning
// false stops the walk (used to bail once a monotone walk has passed its
// clip rect for good).
//
// The walk starts at the first step whose pixel has reached the target
// [0, target_w) x [0, target_h) on both axes, not at step 0: an endpoint
// up to 2^29 px off target would otherwise cost one step per pixel before
// anything could be emitted. Each axis's pixel is a monotone function of
// the step (the floor of rounded a + (i / steps) * d), so a binary search
// over the expression the walk itself evaluates finds that step exactly.
// The skipped steps are all off target and emit nothing. The first walked
// step is either on target, so it differs from its off-target predecessor
// and a full walk would not have deduplicated it, or past the target's far
// side on some axis, where a full walk would already have bailed. The
// start depends on the target only, not on a caller's clip rect, so every
// tile's run of a line walks the same steps.
template <typename Fn>
void WalkLine(const DeviceVertex& a, const DeviceVertex& b,
              const RasterState& state, Fn&& fn) {
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const int steps =
      std::max(1, static_cast<int>(std::ceil(std::max(std::fabs(dx),
                                                      std::fabs(dy)))));
  const auto param = [steps](int i) { return static_cast<double>(i) / steps; };
  const auto pixel = [](double p, double d, double t) {
    return static_cast<int>(std::floor(p + t * d));
  };
  // First step at which one axis's pixel enters [0, extent) when its start
  // lies before the range in the walk's direction; 0 when it starts inside
  // or moves away, steps + 1 when it never enters.
  const auto enter = [&](double p, double d, int extent) {
    const int start = pixel(p, d, 0.0);
    const bool rising = d > 0.0 && start < 0;
    const bool falling = d < 0.0 && start >= extent;
    if (!rising && !falling) return 0;
    int lo = 1, hi = steps + 1;  // step lo-1 is out; the answer is in [lo, hi]
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      const int px = pixel(p, d, param(mid));
      if (rising ? px >= 0 : px < extent) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  };
  const int first = std::max(enter(a.x, dx, state.target_w),
                             enter(a.y, dy, state.target_h));
  int last_x = INT_MIN, last_y = INT_MIN;
  for (int i = first; i <= steps; ++i) {
    const double t = param(i);
    const int px = pixel(a.x, dx, t);
    const int py = pixel(a.y, dy, t);
    if (px == last_x && py == last_y) continue;
    last_x = px;
    last_y = py;
    if (!fn(t, px, py)) return;
  }
}

}  // namespace

namespace {

template <typename Emitter>
void RasterizeLineT(const RasterVertex& v0, const RasterVertex& v1,
                    int varying_cells, const RasterState& state,
                    Emitter& emit) {
  if (v0.clip[3] < kNearEps || v1.clip[3] < kNearEps) return;
  const DeviceVertex a = ToDevice(v0, varying_cells, state);
  const DeviceVertex b = ToDevice(v1, varying_cells, state);
  if (!InRange(a) || !InRange(b)) return;
  // Each pixel coordinate advances in one direction only, so once the walk
  // has passed the clip rect's far side on either axis it can never
  // re-enter — stop instead of stepping the remainder (per-tile runs of a
  // long line would otherwise each walk the full length). Stopping only
  // skips steps that emit nothing, so the emitted sequence is unchanged.
  const bool x_inc = b.x >= a.x;
  const bool y_inc = b.y >= a.y;
  WalkLine(a, b, state, [&](double t, int px, int py) {
    if ((x_inc ? px >= state.clip_x1 : px < state.clip_x0) ||
        (y_inc ? py >= state.clip_y1 : py < state.clip_y0)) {
      return false;
    }
    if (px < 0 || py < 0 || px >= state.target_w || py >= state.target_h) {
      return true;
    }
    // WalkLine's start and step dedup do not depend on the clip rect, so
    // per-tile runs of the same line visit identical (px, py) prefixes; the
    // rect only filters emission.
    if (px < state.clip_x0 || py < state.clip_y0 || px >= state.clip_x1 ||
        py >= state.clip_y1) {
      return true;
    }
    // Perspective-correct parameter along the line.
    const double pw = (1.0 - t) * a.inv_w + t * b.inv_w;
    float* const vb = emit.VarBase();
    for (int k = 0; k < varying_cells; ++k) {
      const std::size_t ki = static_cast<std::size_t>(k);
      vb[static_cast<std::size_t>(k) * Emitter::kVarStride] =
          static_cast<float>(((1.0 - t) * a.inv_w * a.varyings[ki] +
                              t * b.inv_w * b.varyings[ki]) /
                             pw);
    }
    const double z = (1.0 - t) * a.z + t * b.z;
    emit.Commit(px, py, static_cast<float>(std::clamp(z, 0.0, 1.0)), true,
                0.0f, 0.0f);
    return true;
  });
}

}  // namespace

void RasterizeLine(const RasterVertex& v0, const RasterVertex& v1,
                   int varying_cells, const RasterState& state,
                   const FragmentSink& sink) {
  SinkEmitter emit{sink, {}};
  RasterizeLineT(v0, v1, varying_cells, state, emit);
}

void RasterizeLine(const RasterVertex& v0, const RasterVertex& v1,
                   int varying_cells, const RasterState& state,
                   FragmentBatch& batch, const BatchFlushFn& flush) {
  BatchEmitter emit{batch, flush};
  RasterizeLineT(v0, v1, varying_cells, state, emit);
}

namespace {

// Clamps a device-space bbox (every edge InRange) to the target and reports
// emptiness.
bool FinishRect(double fx0, double fy0, double fx1, double fy1,
                const RasterState& s, PixelRect* out) {
  out->x0 = std::max(static_cast<int>(std::floor(fx0)), 0);
  out->y0 = std::max(static_cast<int>(std::floor(fy0)), 0);
  out->x1 = std::min(static_cast<int>(std::ceil(fx1)), s.target_w);
  out->y1 = std::min(static_cast<int>(std::ceil(fy1)), s.target_h);
  return !out->Empty();
}

}  // namespace

bool TriangleBounds(const RasterVertex& v0, const RasterVertex& v1,
                    const RasterVertex& v2, const RasterState& state,
                    PixelRect* out) {
  const bool in0 = v0.clip[3] >= kNearEps;
  const bool in1 = v1.clip[3] >= kNearEps;
  const bool in2 = v2.clip[3] >= kNearEps;
  if (in0 && in1 && in2) {
    const DeviceVertex a = ToDevice(v0, 0, state);
    const DeviceVertex b = ToDevice(v1, 0, state);
    const DeviceVertex c = ToDevice(v2, 0, state);
    if (!InRange(a) || !InRange(b) || !InRange(c)) return false;
    const double area = Orient2d(a.x, a.y, b.x, b.y, c.x, c.y);
    if (area == 0.0) return false;
    bool front = false;
    if (CullTest(area, state, &front)) return false;
    return FinishRect(std::min({a.x, b.x, c.x}), std::min({a.y, b.y, c.y}),
                      std::max({a.x, b.x, c.x}), std::max({a.y, b.y, c.y}),
                      state, out);
  }
  // Near-clipped: bound the clipped polygon (no cull test here — it is
  // conservative to bin a culled sliver; the rasterizer drops it per tile).
  const std::vector<RasterVertex> poly = ClipNear({v0, v1, v2}, 0);
  if (poly.size() < 3) return false;
  double fx0 = 0.0, fy0 = 0.0, fx1 = 0.0, fy1 = 0.0;
  bool first = true;
  for (const RasterVertex& v : poly) {
    const DeviceVertex d = ToDevice(v, 0, state);
    if (!InRange(d)) return false;
    if (first) {
      fx0 = fx1 = d.x;
      fy0 = fy1 = d.y;
      first = false;
    } else {
      fx0 = std::min(fx0, d.x);
      fy0 = std::min(fy0, d.y);
      fx1 = std::max(fx1, d.x);
      fy1 = std::max(fy1, d.y);
    }
  }
  return FinishRect(fx0, fy0, fx1, fy1, state, out);
}

bool PointBounds(const RasterVertex& v, const RasterState& state,
                 PixelRect* out) {
  if (v.clip[3] < kNearEps) return false;
  const DeviceVertex d = ToDevice(v, 0, state);
  double half = 0.0;
  if (!PointHalf(d, &half)) return false;
  return FinishRect(d.x - half, d.y - half, d.x + half, d.y + half, state,
                    out);
}

bool LineBounds(const RasterVertex& v0, const RasterVertex& v1,
                const RasterState& state, PixelRect* out) {
  if (v0.clip[3] < kNearEps || v1.clip[3] < kNearEps) return false;
  const DeviceVertex a = ToDevice(v0, 0, state);
  const DeviceVertex b = ToDevice(v1, 0, state);
  if (!InRange(a) || !InRange(b)) return false;
  // WalkLine floors positions between the endpoints: the pixel holding the
  // far endpoint is the last one, hence the +1.
  return FinishRect(std::min(a.x, b.x), std::min(a.y, b.y),
                    std::max(a.x, b.x) + 1.0, std::max(a.y, b.y) + 1.0,
                    state, out);
}

int TriangleRowOrder(const RasterVertex& v0, const RasterVertex& v1,
                     const RasterVertex& v2) {
  // Unclipped triangles are one EmitTriangle row walk (RasterizeTriangleT).
  return v0.clip[3] >= kNearEps && v1.clip[3] >= kNearEps &&
                 v2.clip[3] >= kNearEps
             ? 1
             : 0;
}

int LineRowOrder(const RasterVertex& v0, const RasterVertex& v1,
                 const RasterState& state) {
  // A near-clipped line emits nothing, so any order is exact.
  if (v0.clip[3] < kNearEps || v1.clip[3] < kNearEps) return 1;
  // Same test as RasterizeLineT's y_inc.
  return ToDevice(v1, 0, state).y >= ToDevice(v0, 0, state).y ? 1 : -1;
}

void LineTouchedTiles(const RasterVertex& v0, const RasterVertex& v1,
                      const RasterState& state, int tile_size,
                      const std::function<void(int, int)>& tile_fn) {
  if (v0.clip[3] < kNearEps || v1.clip[3] < kNearEps) return;
  const DeviceVertex a = ToDevice(v0, 0, state);
  const DeviceVertex b = ToDevice(v1, 0, state);
  if (!InRange(a) || !InRange(b)) return;
  const bool x_inc = b.x >= a.x;
  const bool y_inc = b.y >= a.y;
  int last_tx = INT_MIN, last_ty = INT_MIN;
  WalkLine(a, b, state, [&](double, int px, int py) {
    // Monotone walk: once past the target's far side on either axis the
    // line never comes back in.
    if ((x_inc ? px >= state.target_w : px < 0) ||
        (y_inc ? py >= state.target_h : py < 0)) {
      return false;
    }
    if (px < 0 || py < 0 || px >= state.target_w || py >= state.target_h) {
      return true;
    }
    const int tx = px / tile_size;
    const int ty = py / tile_size;
    // The walk's pixel coordinates advance monotonically (each axis one
    // direction only), so tile pairs repeat only consecutively: comparing
    // against the previous pair is a complete dedup.
    if (tx == last_tx && ty == last_ty) return true;
    last_tx = tx;
    last_ty = ty;
    tile_fn(tx, ty);
    return true;
  });
}

}  // namespace mgpu::gles2
