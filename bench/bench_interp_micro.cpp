// Micro-benchmark M2: simulator throughput on this machine — GLSL compile
// time, fragment-shader interpretation rate, and full kernel-dispatch rate.
// Documents the sim-vs-silicon gap DESIGN.md's sizing note relies on.
//
// Also writes BENCH_interp_micro.json, whatever --benchmark_filter selects
// (`--benchmark_filter=^$` runs none of the Google benchmarks):
// the lowered register and instruction counts of the shipped AddI32, AddF32
// and SgemmF32 kernels (deterministic, gated exactly in CI, so a register
// allocation regression fails the build) and the time LowerToBytecode takes
// on AddF32 (a timing, reported only).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "compute/kernel.h"
#include "compute/ops.h"
#include "glsl/compile.h"
#include "glsl/interp.h"
#include "glsl/ir.h"
#include "glsl/vm.h"
#include "vc4/profiles.h"

namespace {

using namespace mgpu;

constexpr char kFragSrc[] = R"(
precision highp float;
uniform float u_x;
void main() {
  float acc = 0.0;
  for (int i = 0; i < 16; ++i) {
    acc += float(i) * u_x;
  }
  gl_FragColor = vec4(fract(acc));
}
)";

void BM_CompileFragmentShader(benchmark::State& state) {
  for (auto _ : state) {
    auto r = glsl::CompileGlsl(kFragSrc, glsl::Stage::kFragment);
    benchmark::DoNotOptimize(r.ok);
  }
}
BENCHMARK(BM_CompileFragmentShader);

// The per-fragment hot loop on both engines: the bytecode VM (production
// path) vs the tree-walking interpreter (oracle). The VM target is >= 2x.
void BM_FragmentInvocationVm(benchmark::State& state) {
  auto r = glsl::CompileGlsl(kFragSrc, glsl::Stage::kFragment);
  glsl::ExactAlu alu;
  glsl::VmExec exec(glsl::LowerToBytecode(*r.shader), alu);
  exec.GlobalAt(exec.GlobalSlot("u_x")).SetF(0, 0.37f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FragmentInvocationVm);

void BM_FragmentInvocationTree(benchmark::State& state) {
  auto r = glsl::CompileGlsl(kFragSrc, glsl::Stage::kFragment);
  glsl::ExactAlu alu;
  glsl::ShaderExec exec(*r.shader, alu);
  exec.GlobalAt(exec.GlobalSlot("u_x")).SetF(0, 0.37f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FragmentInvocationTree);

void KernelDispatchF32(benchmark::State& state, gles2::ExecEngine engine) {
  compute::DeviceOptions o;
  o.profile = vc4::IeeeExact();
  o.exec_engine = engine;
  compute::Device d(o);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> host(n);
  for (auto& x : host) x = rng.NextWorkloadFloat();
  compute::PackedBuffer in(d, compute::ElemType::kF32, n);
  compute::PackedBuffer out(d, compute::ElemType::kF32, n);
  in.Upload(std::span<const float>(host));
  compute::Kernel k(d, {.name = "saxpy1",
                        .inputs = {{"u_src", compute::ElemType::kF32}},
                        .output = compute::ElemType::kF32,
                        .extra_decls = "",
                        .body = "float gp_kernel(vec2 p) { return "
                                "gp_fetch_u_src(gp_linear_index()) * 2.0 + "
                                "1.0; }\n"});
  for (auto _ : state) {
    k.Run(out, {&in});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_KernelDispatchF32(benchmark::State& state) {
  KernelDispatchF32(state, gles2::ExecEngine::kBytecodeVm);
}
BENCHMARK(BM_KernelDispatchF32)->Arg(256)->Arg(4096)->Arg(16384);

void BM_KernelDispatchF32Tree(benchmark::State& state) {
  KernelDispatchF32(state, gles2::ExecEngine::kTreeWalk);
}
BENCHMARK(BM_KernelDispatchF32Tree)->Arg(4096);

void BM_TextureSampleNearest(benchmark::State& state) {
  gles2::Texture t;
  std::vector<std::uint8_t> px(64 * 64 * 4, 128);
  (void)t.TexImage2D(0, gles2::GL_RGBA, 64, 64, gles2::GL_RGBA,
                     gles2::GL_UNSIGNED_BYTE, px.data(), 4);
  (void)t.SetParameter(gles2::GL_TEXTURE_MIN_FILTER, gles2::GL_NEAREST);
  (void)t.SetParameter(gles2::GL_TEXTURE_MAG_FILTER, gles2::GL_NEAREST);
  float s = 0.0f;
  for (auto _ : state) {
    s += 0.013f;
    if (s > 1.0f) s -= 1.0f;
    benchmark::DoNotOptimize(t.Sample(s, 0.5f, 0.0f));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TextureSampleNearest);

// Lowered size of the shipped kernels, and the lowering cost every program
// link pays once per context that links it.
void WriteLoweringMetrics() {
  using compute::ElemType;
  namespace ops = compute::ops;
  bench::JsonBenchWriter json("interp_micro");
  const struct {
    const char* name;
    compute::Kernel::Options kernel;
  } kernels[] = {{"add_i32", ops::AddKernel(ElemType::kI32)},
                 {"add_f32", ops::AddKernel(ElemType::kF32)},
                 {"sgemm_f32", ops::GemmKernel(ElemType::kF32, 48)}};
  for (const auto& k : kernels) {
    auto r = glsl::CompileGlsl(compute::Kernel::FragmentSource(k.kernel),
                               glsl::Stage::kFragment);
    if (!r.ok) {
      std::fprintf(stderr, "%s: compile failed\n%s", k.name,
                   r.info_log.c_str());
      continue;
    }
    const auto prog = glsl::LowerToBytecode(*r.shader);
    json.Add(std::string("lowered_regs_") + k.name,
             static_cast<double>(prog->reg_types.size()), "count");
    json.Add(std::string("lowered_code_") + k.name,
             static_cast<double>(prog->code.size()), "count");
    std::printf("%-10s lowered: %zu registers, %zu instructions\n", k.name,
                prog->reg_types.size(), prog->code.size());
    if (std::string(k.name) != "add_f32") continue;
    // Best of 5 batches of 100 lowerings.
    double best = 1e9;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < 100; ++i) {
        benchmark::DoNotOptimize(glsl::LowerToBytecode(*r.shader));
      }
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      best = std::min(best, dt.count() / 100);
    }
    json.Add("lower_add_f32", best, "s");
    std::printf("add_f32    LowerToBytecode: %.1f us\n", best * 1e6);
  }
  if (!json.Write()) std::fprintf(stderr, "could not write BENCH json\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteLoweringMetrics();
  return 0;
}
