// gl_tenants: many small GL clients on one process-wide command-stream
// device, no compute layer. A hundred gles2::Contexts each own a 64x64
// target — exactly one VC4 tile, so no context spawns a worker pool — two
// programs, two textures and a mesh. A job is one tenant frame: clear,
// program and texture switches, a vertex-bound mesh of ~1 px triangles, a
// few blended textured quads, Flush; it completes when its ReadPixels
// returns. The client keeps a window of frames from distinct tenants in
// flight, so recording overlaps execution on the device thread.
#include <array>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gles2/context.h"
#include "vc4/alu.h"
#include "vc4/profiles.h"
#include "workload.h"

namespace mgpu::e2ebench {
namespace {

using namespace gles2;

constexpr int kTenants = 100;
constexpr int kTarget = 64;
constexpr int kFramesPerPass = 400;
constexpr std::size_t kWindow = 8;
constexpr int kQuads = 3;
constexpr int kQuadFloats = 6 * 4;  // two triangles of (x, y, u, v)
constexpr int kOracleFrames = 4;

constexpr char kMeshVs[] = R"(
attribute vec2 a_pos;
attribute vec2 a_aux;
uniform vec4 u_anim;
varying vec3 v_shade;
void main() {
  float ang = u_anim.x + a_aux.x;
  float r = a_aux.y * (0.85 + 0.15 * sin(u_anim.y + a_aux.x * 3.0));
  vec2 p = a_pos + vec2(cos(ang), sin(ang)) * r;
  float w = 0.5 + 0.5 * sin(dot(p, p) * 19.0 + u_anim.z);
  v_shade = vec3(w, p * 0.5 + 0.5);
  gl_Position = vec4(p, 0.0, 1.0);
}
)";

constexpr char kMeshFs[] = R"(
precision mediump float;
varying vec3 v_shade;
void main() { gl_FragColor = vec4(v_shade, 1.0); }
)";

constexpr char kQuadVs[] = R"(
attribute vec2 a_pos;
attribute vec2 a_uv;
varying vec2 v_uv;
void main() {
  v_uv = a_uv;
  gl_Position = vec4(a_pos, 0.0, 1.0);
}
)";

constexpr char kQuadFs[] = R"(
precision mediump float;
uniform sampler2D u_tex;
uniform vec4 u_tint;
varying vec2 v_uv;
void main() { gl_FragColor = texture2D(u_tex, v_uv) * u_tint; }
)";

struct Frame {
  int tenant = 0;
  std::array<float, 3> clear{};
  std::array<float, 3> anim{};
  std::array<float, kQuads * kQuadFloats> quads{};
  std::array<std::array<float, 4>, kQuads> tints{};
  std::uint64_t ref_hash = 0;
  vc4::GpuWork ref_work;
};

Frame MakeFrame(int tenant, Rng& rng) {
  Frame f;
  f.tenant = tenant;
  for (float& c : f.clear) c = rng.NextFloat01();
  f.anim = {rng.NextFloat(0.0f, 6.28f), rng.NextFloat(0.0f, 6.28f),
            rng.NextFloat(0.0f, 6.28f)};
  for (int q = 0; q < kQuads; ++q) {
    const float s = rng.NextFloat(0.3f, 0.6f);
    const float x0 = rng.NextFloat(-1.0f, 1.0f - s);
    const float y0 = rng.NextFloat(-1.0f, 1.0f - s);
    const float x1 = x0 + s;
    const float y1 = y0 + s;
    const float v[kQuadFloats] = {x0, y0, 0, 0, x1, y0, 1, 0, x1, y1, 1, 1,
                                  x0, y0, 0, 0, x1, y1, 1, 1, x0, y1, 0, 1};
    std::copy(std::begin(v), std::end(v),
              f.quads.begin() + static_cast<std::ptrdiff_t>(q * kQuadFloats));
    f.tints[static_cast<std::size_t>(q)] = {
        rng.NextFloat(0.25f, 1.0f), rng.NextFloat(0.25f, 1.0f),
        rng.NextFloat(0.25f, 1.0f), rng.NextFloat(0.25f, 1.0f)};
  }
  return f;
}

GLuint BuildProgram(Context& c, const char* vs_src, const char* fs_src,
                    const char* attr0, const char* attr1) {
  const GLuint vs = c.CreateShader(GL_VERTEX_SHADER);
  c.ShaderSource(vs, vs_src);
  c.CompileShader(vs);
  const GLuint fs = c.CreateShader(GL_FRAGMENT_SHADER);
  c.ShaderSource(fs, fs_src);
  c.CompileShader(fs);
  const GLuint p = c.CreateProgram();
  c.AttachShader(p, vs);
  c.AttachShader(p, fs);
  c.BindAttribLocation(p, 0, attr0);
  c.BindAttribLocation(p, 1, attr1);
  c.LinkProgram(p);
  GLint ok = GL_FALSE;
  c.GetProgramiv(p, GL_LINK_STATUS, &ok);
  if (ok != GL_TRUE) {
    throw std::runtime_error("tenant program link failed: " +
                             c.GetProgramInfoLog(p));
  }
  c.DeleteShader(vs);
  c.DeleteShader(fs);
  return p;
}

// One client: its context (on the VideoCore IV ALU model) and the GL
// objects it built. Resources depend only on (seed, index), so an oracle
// tenant built on another engine renders the same frames.
struct Tenant {
  Tenant(std::uint64_t seed, int index, ExecEngine engine, int async_submit)
      : alu(vc4::VideoCoreIV()) {
    ContextConfig cfg;
    cfg.width = kTarget;
    cfg.height = kTarget;
    cfg.has_depth = false;
    cfg.exec_engine = engine;
    cfg.async_submit = async_submit;
    ctx = std::make_unique<Context>(cfg, &alu);
    Context& c = *ctx;
    Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(index));

    mesh = BuildProgram(c, kMeshVs, kMeshFs, "a_pos", "a_aux");
    quad = BuildProgram(c, kQuadVs, kQuadFs, "a_pos", "a_uv");
    u_anim = c.GetUniformLocation(mesh, "u_anim");
    u_tint = c.GetUniformLocation(quad, "u_tint");
    c.UseProgram(quad);
    c.Uniform1i(c.GetUniformLocation(quad, "u_tex"), 0);

    // Tenants differ in mesh size (192..384 triangles) by index only, so
    // the work per pass does not depend on the seed.
    const int tris = 192 + 64 * (index % 4);
    mesh_vertices = 3 * tris;
    std::vector<float> mesh_data;
    mesh_data.reserve(static_cast<std::size_t>(mesh_vertices) * 4);
    for (int t = 0; t < tris; ++t) {
      const float cx = rng.NextFloat(-0.95f, 0.95f);
      const float cy = rng.NextFloat(-0.95f, 0.95f);
      const float rot = rng.NextFloat(0.0f, 6.28f);
      const float r = rng.NextFloat(0.02f, 0.04f);  // ~1 px at 64x64
      for (int k = 0; k < 3; ++k) {
        mesh_data.insert(mesh_data.end(),
                         {cx, cy, rot + 2.0944f * static_cast<float>(k), r});
      }
    }
    c.GenBuffers(1, &mesh_vbo);
    c.BindBuffer(GL_ARRAY_BUFFER, mesh_vbo);
    c.BufferData(GL_ARRAY_BUFFER,
                 static_cast<GLsizeiptr>(mesh_data.size() * sizeof(float)),
                 mesh_data.data(), GL_STATIC_DRAW);

    c.GenTextures(2, tex.data());
    for (const GLuint t : tex) {
      const std::vector<std::uint8_t> texels = rng.ByteVector(32 * 32 * 4);
      c.BindTexture(GL_TEXTURE_2D, t);
      c.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MIN_FILTER, GL_NEAREST);
      c.TexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
      c.TexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 32, 32, 0, GL_RGBA,
                   GL_UNSIGNED_BYTE, texels.data());
    }
    c.EnableVertexAttribArray(0);
    c.EnableVertexAttribArray(1);
    c.BlendFunc(GL_SRC_ALPHA, GL_ONE_MINUS_SRC_ALPHA);
    pixels.resize(static_cast<std::size_t>(kTarget) * kTarget * 4);
  }
  // The context holds the address of `alu`.
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  // Records one frame and submits it.
  void Record(const Frame& f, JobTrace jt) {
    Context& c = *ctx;
    auto rec = [jt](auto&& call) { Traced(jt, Layer::kGlRecord, call); };
    // Redundant every frame: dirty-state diffing elides it.
    rec([&] { c.Viewport(0, 0, kTarget, kTarget); });
    rec([&] { c.ClearColor(f.clear[0], f.clear[1], f.clear[2], 1.0f); });
    rec([&] { c.Clear(GL_COLOR_BUFFER_BIT); });
    rec([&] { c.UseProgram(mesh); });
    rec([&] { c.Uniform4f(u_anim, f.anim[0], f.anim[1], f.anim[2], 0.0f); });
    rec([&] { c.BindBuffer(GL_ARRAY_BUFFER, mesh_vbo); });
    rec([&] { c.VertexAttribPointer(0, 2, GL_FLOAT, GL_FALSE, 16, nullptr); });
    rec([&] {
      c.VertexAttribPointer(1, 2, GL_FLOAT, GL_FALSE, 16,
                            reinterpret_cast<const void*>(8));
    });
    rec([&] { c.DrawArrays(GL_TRIANGLES, 0, mesh_vertices); });
    rec([&] { c.UseProgram(quad); });
    // Quad corners come from client memory, snapshotted when each draw is
    // recorded (the command stream's path for per-frame vertex data).
    rec([&] { c.BindBuffer(GL_ARRAY_BUFFER, 0); });
    rec([&] { c.Enable(GL_BLEND); });
    rec([&] { c.ActiveTexture(GL_TEXTURE0); });
    for (int q = 0; q < kQuads; ++q) {
      const float* v = f.quads.data() + q * kQuadFloats;
      const auto& t = f.tints[static_cast<std::size_t>(q)];
      rec([&] { c.VertexAttribPointer(0, 2, GL_FLOAT, GL_FALSE, 16, v); });
      rec([&] { c.VertexAttribPointer(1, 2, GL_FLOAT, GL_FALSE, 16, v + 2); });
      rec([&] { c.BindTexture(GL_TEXTURE_2D, tex[q % 2]); });
      rec([&] { c.Uniform4f(u_tint, t[0], t[1], t[2], t[3]); });
      rec([&] { c.DrawArrays(GL_TRIANGLES, 0, 6); });
    }
    rec([&] { c.Disable(GL_BLEND); });
    rec([&] { c.Flush(); });
  }

  // Completes the frame in flight: reads it back and returns its modelled
  // work; `hash` receives the framebuffer hash. Throws on a GL error.
  vc4::GpuWork Complete(JobTrace jt, std::uint64_t* hash) {
    Context& c = *ctx;
    GLenum err = GL_NO_ERROR;
    Traced(jt, Layer::kGlSyncWait, [&] {
      c.ReadPixels(0, 0, kTarget, kTarget, GL_RGBA, GL_UNSIGNED_BYTE,
                   pixels.data());
    });
    Traced(jt, Layer::kGlSyncWait, [&] { err = c.GetError(); });
    if (err != GL_NO_ERROR) {
      throw std::runtime_error("GL error " + std::to_string(err));
    }
    *hash = HashBytes(pixels.data(), pixels.size());
    vc4::GpuWork w;
    // The readback joined this context's lists, so its ALU model is quiet.
    const glsl::OpCounts now = alu.counts();
    w.shader_ops.alu = now.alu - last_ops.alu;
    w.shader_ops.sfu = now.sfu - last_ops.sfu;
    w.shader_ops.sfu_trans = now.sfu_trans - last_ops.sfu_trans;
    w.shader_ops.tmu = now.tmu - last_ops.tmu;
    w.shader_ops.tmu_miss = now.tmu_miss - last_ops.tmu_miss;
    last_ops = now;
    w.draw_calls = 1 + kQuads;
    w.vertices = static_cast<std::uint64_t>(mesh_vertices + 6 * kQuads);
    w.bytes_uploaded = sizeof(Frame::quads);  // client quad vertices
    w.bytes_readback = pixels.size();
    return w;
  }

  vc4::Vc4Alu alu;  // outlives ctx, which executes on it
  std::unique_ptr<Context> ctx;
  GLuint mesh = 0, quad = 0, mesh_vbo = 0;
  std::array<GLuint, 2> tex{};
  GLint u_anim = -1, u_tint = -1;
  int mesh_vertices = 0;
  glsl::OpCounts last_ops;
  std::vector<std::uint8_t> pixels;
};

class GlTenants final : public Workload {
 public:
  explicit GlTenants(std::uint64_t seed) : seed_(seed) {
    Rng rng(seed ^ 0x7E4A7C15ull);
    // One seeded tenant order, repeated: any kWindow consecutive frames
    // belong to distinct tenants.
    std::vector<int> order(kTenants);
    for (int i = 0; i < kTenants; ++i) order[static_cast<std::size_t>(i)] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.NextInt(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    }
    for (int i = 0; i < kFramesPerPass; ++i) {
      frames_.push_back(
          MakeFrame(order[static_cast<std::size_t>(i % kTenants)], rng));
    }
  }

  void Setup() override {
    for (int t = 0; t < kTenants; ++t) {
      tenants_.push_back(std::make_unique<Tenant>(
          seed_, t, ExecEngine::kBatchedVm, /*async_submit=*/-1));
    }
    // Warm-up: one frame per tenant, so every program has drawn once.
    Rng rng(seed_ ^ 0x5BD1E995ull);
    for (int t = 0; t < kTenants; ++t) {
      tenants_[static_cast<std::size_t>(t)]->Record(MakeFrame(t, rng),
                                                    JobTrace{});
    }
    for (auto& t : tenants_) {
      std::uint64_t h = 0;
      (void)t->Complete(JobTrace{}, &h);
    }
  }

  void RunPass(int pass, Tracer* tracer, PassResult& out) override {
    struct InFlight {
      std::size_t frame;
      double t0;
      JobTrace jt;
    };
    std::deque<InFlight> window;
    std::vector<bool> failed(frames_.size(), false);
    auto complete = [&] {
      const InFlight f = window.front();
      window.pop_front();
      Frame& fr = frames_[f.frame];
      std::uint64_t h = 0;
      vc4::GpuWork w;
      std::string err;
      try {
        w = tenants_[static_cast<std::size_t>(fr.tenant)]->Complete(f.jt, &h);
      } catch (const std::exception& e) {
        err = e.what();
      }
      if (tracer != nullptr) tracer->End(f.jt.job);
      const double dt = NowSeconds() - f.t0;
      if (pass == 0) {
        fr.ref_hash = h;
        fr.ref_work = w;
      } else if (err.empty() && h != fr.ref_hash) {
        err = "framebuffer differs from pass 0";
      } else if (err.empty() && !SameWork(w, fr.ref_work)) {
        err = "modelled work differs from pass 0";
      }
      if (!err.empty()) {
        std::fprintf(stderr, "frame %zu (pass %d) failed: %s\n", f.frame,
                     pass, err.c_str());
        failed[f.frame] = true;
        ++out.failed;
      }
      out.latency_s.push_back(dt);
      ++out.jobs;
      out.work += w;
      out.output_hash = HashBytes(&h, sizeof(h), out.output_hash);
    };

    const double pass_t0 = NowSeconds();
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      if (window.size() == kWindow) complete();
      InFlight f{i, NowSeconds(), JobTrace{tracer, -1}};
      if (tracer != nullptr) f.jt.job = tracer->Begin(Layer::kJob, -1);
      tenants_[static_cast<std::size_t>(frames_[i].tenant)]->Record(frames_[i],
                                                                     f.jt);
      window.push_back(f);
    }
    while (!window.empty()) complete();
    out.busy_s += NowSeconds() - pass_t0;

    if (pass == 0) {
      // Off the clock: replay a seeded sample of frames on the tree-walking
      // reference engine in immediate mode, on freshly built tenants.
      Rng rng(seed_ ^ 0x0AC1E5ull);
      for (int k = 0; k < kOracleFrames; ++k) {
        const auto i = static_cast<std::size_t>(
            rng.NextInt(0, static_cast<std::int64_t>(frames_.size()) - 1));
        const Frame& fr = frames_[i];
        std::string err;
        try {
          Tenant ref(seed_, fr.tenant, ExecEngine::kTreeWalk,
                     /*async_submit=*/0);
          ref.last_ops = ref.alu.counts();
          ref.Record(fr, JobTrace{});
          std::uint64_t h = 0;
          const vc4::GpuWork w = ref.Complete(JobTrace{}, &h);
          if (h != fr.ref_hash) {
            err = "framebuffer differs from the tree-walk oracle";
          } else if (!SameWork(w, fr.ref_work)) {
            err = "op counts differ from the tree-walk oracle";
          }
        } catch (const std::exception& e) {
          err = e.what();
        }
        if (!err.empty() && !failed[i]) {
          std::fprintf(stderr, "frame %zu failed: %s\n", i, err.c_str());
          failed[i] = true;
          ++out.failed;
        }
      }
    }
  }

  GlCounters ReadGlCounters() override {
    GlCounters c;
    for (auto& t : tenants_) c.Add(*t->ctx);
    return c;
  }

 private:
  std::uint64_t seed_;
  std::vector<Frame> frames_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
};

}  // namespace

std::unique_ptr<Workload> MakeGlTenants(std::uint64_t seed) {
  return std::make_unique<GlTenants>(seed);
}

}  // namespace mgpu::e2ebench
