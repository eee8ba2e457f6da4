// Vertex-storm benchmark: few draws, *many* vertices, near-zero fragment
// cost. The draw-storm bench prices the per-draw tax and the Fig. 1 sweeps
// price the fragment stage; neither says anything about the vertex stage,
// which before ISSUE 9 ran one scalar VM invocation per vertex regardless
// of engine. This bench is the regression guard for the lane-batched vertex
// path: a dense mesh of sub-pixel triangles whose vertex shader does real
// transform work (rotate, scale, trig, normalize) while the fragment shader
// is a passthrough, re-drawn over several animated frames so the vertex
// stage dominates wall clock. A/B legs hold the batched vertex stage
// byte-identical to the scalar per-vertex reference loop (and to the SIMD-
// off SoA tier) via FNV framebuffer hashes and ALU op counts, and BENCH_vertex_storm.json records the speedup for CI's
// check_bench.py gate.
//
// Usage: bench_vertex_storm [--quick] [--tris N] [--frames N]
//   --quick: CI smoke size (fewer triangles/frames), same metric names.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "gles2/context.h"

namespace {

using namespace mgpu;
using namespace mgpu::gles2;

constexpr int kTargetSize = 512;  // small target: fragment work is noise,
                                  // the vertex stage is what's being timed

// Uniform control flow (no branches), so the lane-batched interpreter never
// diverges: the whole mesh rides the plane kernels at the SIMD tier. The
// work is deliberately trig- and normalize-heavy — the shapes the SIMD
// tiers accelerate. Each vertex orbits its triangle's shared center (a_pos) on a
// tiny per-corner circle (a_aux = corner phase, corner radius), so the
// vertex stage does real transform work while every triangle stays ~1 px:
// fragment cost remains noise no matter what the animation does.
constexpr char kVs[] = R"(
attribute vec2 a_pos;
attribute vec2 a_aux;
uniform vec4 u_anim;
varying vec3 v_shade;
void main() {
  float ang = u_anim.x + a_aux.x;
  float r = a_aux.y * (0.85 + 0.15 * sin(u_anim.y + a_aux.x * 3.0));
  vec2 p = a_pos + vec2(cos(ang), sin(ang)) * r;
  float w = 0.5 + 0.5 * sin(dot(p, p) * 19.0 + u_anim.z);
  v_shade = normalize(vec3(p * w + vec2(0.001, 0.002), 1.0 - 0.5 * w));
  gl_Position = vec4(p, 0.0, 1.0);
}
)";

constexpr char kFs[] = R"(
precision highp float;
varying vec3 v_shade;
void main() {
  gl_FragColor = vec4(v_shade * 0.5 + 0.5, 1.0);
}
)";

struct StormResult {
  double seconds = 0.0;
  std::uint64_t alu_ops = 0;
  std::uint32_t fb_hash = 0;
  bool draw_ok = true;
};

std::uint32_t Fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint32_t h = 2166136261u;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

GLuint BuildProgram(gles2::Context& ctx) {
  const GLuint vs = ctx.CreateShader(GL_VERTEX_SHADER);
  ctx.ShaderSource(vs, kVs);
  ctx.CompileShader(vs);
  const GLuint fs = ctx.CreateShader(GL_FRAGMENT_SHADER);
  ctx.ShaderSource(fs, kFs);
  ctx.CompileShader(fs);
  const GLuint p = ctx.CreateProgram();
  ctx.AttachShader(p, vs);
  ctx.AttachShader(p, fs);
  ctx.LinkProgram(p);
  GLint ok = GL_FALSE;
  ctx.GetProgramiv(p, GL_LINK_STATUS, &ok);
  if (ok != GL_TRUE) {
    std::fprintf(stderr, "link failed: %s\n",
                 ctx.GetProgramInfoLog(p).c_str());
  }
  return p;
}

// Deterministic mesh: `tris` triangle centers scattered over clip space.
// All three vertices of a triangle share the center in a_pos; a_aux gives
// each corner its own phase (base phase + 120 degree spread, so the shaded
// corners form a real triangle) and a tiny radius (~1 px on a 512 target).
// The phases differ lane to lane, so the shader's trig inputs are never
// accidentally uniform for SIMD to skip.
void BuildMesh(int tris, std::vector<float>* pos, std::vector<float>* aux) {
  Rng rng(7);
  pos->reserve(static_cast<std::size_t>(tris) * 6);
  aux->reserve(static_cast<std::size_t>(tris) * 6);
  for (int t = 0; t < tris; ++t) {
    const float cx = rng.NextFloat(-0.9f, 0.9f);
    const float cy = rng.NextFloat(-0.9f, 0.9f);
    const float phase = rng.NextFloat(0.0f, 6.28318f);
    const float radius = rng.NextFloat(0.002f, 0.004f);
    for (int v = 0; v < 3; ++v) {
      pos->push_back(cx);
      pos->push_back(cy);
      aux->push_back(phase + 2.09439f * static_cast<float>(v));
      aux->push_back(radius);
    }
  }
}

// Runs the storm: `frames` animated full-mesh draws. Timed region = the
// draw loop only (vertex gather + shade + scatter + raster), not context,
// mesh, or program setup, and not readback.
StormResult RunStorm(int tris, int frames,
                     const std::vector<float>& pos,
                     const std::vector<float>& aux,
                     gles2::ExecEngine engine = gles2::ExecEngine::kBatchedVm,
                     int simd = -1, int vertex_batch = -1) {
  gles2::ContextConfig cfg;
  cfg.width = kTargetSize;
  cfg.height = kTargetSize;
  cfg.has_depth = false;
  cfg.shader_threads = 1;
  cfg.exec_engine = engine;
  cfg.simd = simd;
  cfg.vertex_batch = vertex_batch;
  gles2::Context ctx(cfg);

  const GLuint prog = BuildProgram(ctx);
  ctx.UseProgram(prog);
  const GLint a_pos = ctx.GetAttribLocation(prog, "a_pos");
  const GLint a_aux = ctx.GetAttribLocation(prog, "a_aux");
  const GLint u_anim = ctx.GetUniformLocation(prog, "u_anim");
  ctx.EnableVertexAttribArray(static_cast<GLuint>(a_pos));
  ctx.VertexAttribPointer(static_cast<GLuint>(a_pos), 2, GL_FLOAT, GL_FALSE,
                          0, pos.data());
  ctx.EnableVertexAttribArray(static_cast<GLuint>(a_aux));
  ctx.VertexAttribPointer(static_cast<GLuint>(a_aux), 2, GL_FLOAT, GL_FALSE,
                          0, aux.data());
  ctx.ClearColor(0.02f, 0.02f, 0.05f, 1.0f);
  ctx.Clear(GL_COLOR_BUFFER_BIT);

  StormResult r;
  // Async submission (default-on) defers execution; bracket the timed region
  // with Finish() so it measures execution, not enqueue.
  ctx.Finish();
  const auto t0 = std::chrono::steady_clock::now();
  for (int f = 0; f < frames; ++f) {
    // Every frame advances the animation uniforms, so cached shading state
    // must re-mirror them and the full vertex stage re-runs per frame.
    const float fa = 0.37f * static_cast<float>(f);
    ctx.Uniform4f(u_anim, fa, 1.3f * fa + 0.25f, 0.7f * fa - 1.0f, 0.0f);
    ctx.DrawArrays(GL_TRIANGLES, 0, tris * 3);
  }
  ctx.Finish();
  r.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.draw_ok = ctx.GetError() == static_cast<GLenum>(GL_NO_ERROR);
  r.alu_ops = ctx.alu().counts().alu;

  std::vector<std::uint8_t> fb(
      static_cast<std::size_t>(kTargetSize) * kTargetSize * 4);
  ctx.ReadPixels(0, 0, kTargetSize, kTargetSize, GL_RGBA, GL_UNSIGNED_BYTE,
                 fb.data());
  r.fb_hash = Fnv1a(fb);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  int tris = 30000;
  int frames = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      tris = 10000;
      frames = 4;
    } else if (std::strcmp(argv[i], "--tris") == 0 && i + 1 < argc) {
      tris = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      frames = std::atoi(argv[++i]);
    }
  }
  const long long verts =
      static_cast<long long>(tris) * 3 * frames;

  std::printf("=== Vertex storm: %d tris x %d frames (%lld vertex shades) "
              "on a %dx%d target ===\n\n",
              tris, frames, verts, kTargetSize, kTargetSize);

  std::vector<float> pos, aux;
  BuildMesh(tris, &pos, &aux);

  // Min over 3 identical runs (same de-noiser as the draw storm); the
  // deterministic metrics are identical across runs by construction.
  constexpr int kReps = 3;
  auto best_of = [&](gles2::ExecEngine engine =
                         gles2::ExecEngine::kBatchedVm,
                     int simd = -1, int vertex_batch = -1) {
    StormResult best =
        RunStorm(tris, frames, pos, aux, engine, simd, vertex_batch);
    for (int r = 1; r < kReps; ++r) {
      const StormResult again =
          RunStorm(tris, frames, pos, aux, engine, simd, vertex_batch);
      if (again.seconds < best.seconds) best = again;
    }
    return best;
  };

  const StormResult batched = best_of();
  std::printf("  batched vertex:      %8.3f s  (%8.0f verts/s, best of %d)\n",
              batched.seconds, verts / batched.seconds, kReps);

  // The headline A/B: the identical storm with the vertex stage forced back
  // onto the scalar per-vertex reference loop. Same engine, same SIMD tier
  // for the fragment stage — the delta is purely the lane-batched vertex
  // path this bench exists to defend.
  const StormResult scalar_vertex =
      best_of(gles2::ExecEngine::kBatchedVm, /*simd=*/-1,
              /*vertex_batch=*/0);
  const bool vertex_identical = batched.fb_hash == scalar_vertex.fb_hash &&
                                batched.alu_ops == scalar_vertex.alu_ops;
  std::printf("  scalar vertex stage: %s (%8.3f s, batched-vertex speedup "
              "%.2fx)\n",
              vertex_identical ? "identical" : "MISMATCH",
              scalar_vertex.seconds,
              scalar_vertex.seconds / batched.seconds);

  // SIMD A/B: vector kernels off, scalar SoA batch loops on. Full 32-lane
  // vertex batches are the SIMD tiers' best case (the draw storm only ever
  // sees 3-lane tails), so this leg is where a vertex-plane SIMD regression
  // would actually show.
  const StormResult soa =
      best_of(gles2::ExecEngine::kBatchedVm, /*simd=*/0);
  const bool simd_identical = batched.fb_hash == soa.fb_hash &&
                              batched.alu_ops == soa.alu_ops;
  std::printf("  simd vs scalar SoA:  %s (%8.3f s SoA, simd speedup %.2fx)\n",
              simd_identical ? "identical" : "MISMATCH", soa.seconds,
              soa.seconds / batched.seconds);

  // A blank framebuffer would make every hash "identical" vacuously; require
  // visible coverage from the mesh.
  const bool coverage_ok = batched.fb_hash != 0 && batched.alu_ops > 0;

  const bool ok = vertex_identical && simd_identical && coverage_ok &&
                  batched.draw_ok && scalar_vertex.draw_ok && soa.draw_ok;

  bench::JsonBenchWriter json("vertex_storm");
  json.Add("tris", tris, "count");
  json.Add("frames", frames, "count");
  json.Add("vertex_shades", static_cast<double>(verts), "count");
  json.Add("batched_storm", batched.seconds, "s");
  json.Add("verts_per_sec", verts / batched.seconds, "/s");
  json.Add("scalar_vertex_storm", scalar_vertex.seconds, "s");
  json.Add("vertex_batch_speedup",
           scalar_vertex.seconds / batched.seconds, "x");
  json.Add("vertex_batch_identical", vertex_identical ? 1.0 : 0.0, "bool");
  json.Add("soa_storm", soa.seconds, "s");
  json.Add("simd_speedup_vs_soa", soa.seconds / batched.seconds, "x");
  json.Add("simd_identical", simd_identical ? 1.0 : 0.0, "bool");
  json.Add("alu_ops_per_vert",
           static_cast<double>(batched.alu_ops) / verts, "ops");
  json.Add("fb_hash", batched.fb_hash, "hash");
  json.Add("draw_errors_ok",
           batched.draw_ok && scalar_vertex.draw_ok && soa.draw_ok ? 1.0 : 0.0,
           "bool");
  if (!json.Write()) {
    std::fprintf(stderr,
                 "warning: could not write BENCH_vertex_storm.json\n");
  }

  std::printf("\nresult: %s\n", ok ? "ok" : "FAILURE");
  return ok ? 0 : 1;
}
