// End-to-end benchmark of the GPGPU-over-GLES2 stack.
//
//   e2ebench --workload <paper_large|churn_small|gl_tenants> --seed <n>
//            --seconds <s> --trace <0|1>
//
// One client thread drives the shipped defaults (batched VM engine, async
// command stream, auto SIMD, one shading worker per hardware thread)
// through the public compute / gles2 APIs, closed loop over a seeded fixed
// job list. The run sets the workload up seven times (setup_s is the
// median), runs the reference pass (oracles, modelled work, output
// hashes), then loops over the job list for 3 x --seconds and reports the
// fastest passes that add up to --seconds of job time with ten samples
// beyond the p95 (see FastestFirst). With --trace 1 the loop
// alternates untraced and traced passes and reports per-layer numbers and
// the tracing overhead instead of the end-to-end metrics.
//
// Output: an info line, then one JSON line with correct / attempted /
// failed / metrics and the deterministic values the run must reproduce
// for its seed (e2ebench/run.py compares those across runs).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "glsl/simd.h"
#include "stats.h"
#include "vc4/profiles.h"
#include "vc4/timing.h"
#include "workload.h"

extern char** environ;

namespace mgpu::e2ebench {
namespace {

constexpr int kSetups = 7;
constexpr double kTailQuantile = 0.95;
// Stop adding passes after this much wall time, well inside the 180 s a
// run may take.
constexpr double kMaxRunSeconds = 140.0;
// Wall time of the measured loop as a multiple of --seconds; the metrics
// use the fastest --seconds of it (see FastestFirst).
constexpr double kLoopFactor = 3.0;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

const char* EngineName(gles2::ExecEngine e) {
  switch (e) {
    case gles2::ExecEngine::kBatchedVm: return "batched_vm";
    case gles2::ExecEngine::kBytecodeVm: return "bytecode_vm";
    case gles2::ExecEngine::kTreeWalk: return "tree_walk";
    case gles2::ExecEngine::kCompiled: return "compiled";
  }
  return "?";
}

double Median(std::vector<double> v) { return NearestRank(std::move(v), 0.5); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t ShaderOps(const vc4::GpuWork& w) {
  return w.shader_ops.alu + w.shader_ops.sfu + w.shader_ops.sfu_trans +
         w.shader_ops.tmu;
}

// Cumulative CPU time the hypervisor gave to other guests, summed over this
// machine's CPUs (the "steal" column of /proc/stat); 0 where unavailable.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics,
               const std::vector<Metric>& deterministic,
               std::uint64_t output_hash) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}, \"deterministic\": {\"output_hash\": \"%016llx\"",
              static_cast<unsigned long long>(output_hash));
  for (const Metric& m : deterministic) {
    std::printf(", \"%s\": %.17g", m.name.c_str(), m.value);
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <paper_large|churn_small|"
               "gl_tenants> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

int Run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else {
      return Usage();
    }
  }
  const std::map<std::string,
                 std::function<std::unique_ptr<Workload>(std::uint64_t)>>
      factories = {{"paper_large", MakePaperLarge},
                   {"churn_small", MakeChurnSmall},
                   {"gl_tenants", MakeGlTenants}};
  const auto factory = factories.find(workload);
  if (argc % 2 != 1 || factory == factories.end() || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  // The benchmark measures the shipped defaults; an environment override
  // would silently measure something else.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MGPU_", 5) == 0) {
      std::fprintf(stderr,
                   "refusing to run: %s overrides a shipped default; unset "
                   "every MGPU_* variable\n",
                   *e);
      return 2;
    }
  }

  const double run_t0 = NowSeconds();
  const double ncpu = static_cast<double>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<double> setup_s;
  std::unique_ptr<Workload> wl;
  for (int k = 0; k < kSetups; ++k) {
    wl.reset();
    const double t0 = NowSeconds();
    std::unique_ptr<Workload> w = factory->second(seed);
    w->Setup();
    setup_s.push_back(NowSeconds() - t0);
    wl = std::move(w);
  }

  {
    const gles2::Context probe{gles2::ContextConfig{}};
    std::printf("# e2ebench workload=%s seed=%llu engine=%s simd=%s "
                "async=%s nproc=%u\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                EngineName(probe.exec_engine()),
                glsl::simd::LevelName(glsl::simd::Resolve(-1)),
                probe.async_submit_enabled() ? "on" : "off",
                std::thread::hardware_concurrency());
  }

  // Reference pass: oracles, per-job references, deterministic totals and
  // the layer counters of one pass over the job list.
  const GlCounters gl0 = wl->ReadGlCounters();
  PassResult ref;
  wl->RunPass(0, nullptr, ref);
  const GlCounters gl = wl->ReadGlCounters().Minus(gl0);
  const vc4::GpuTimeBreakdown sim =
      vc4::GpuSeconds(vc4::VideoCoreIV(), vc4::Arm1176(), ref.work);
  const auto ref_jobs = static_cast<double>(ref.jobs);

  std::vector<Metric> metrics;
  std::uint64_t attempted = ref.jobs;
  std::uint64_t failed = ref.failed;

  // The measured loop. Odd passes are untraced; with --trace 1 even passes
  // are traced. It runs for kLoopFactor x --seconds of wall time and the
  // metrics come from the fastest passes that add up to --seconds of job
  // time (--seconds / 2 per kind when tracing).
  struct Pass {
    PassResult r;
    std::unique_ptr<Tracer> tracer;
  };
  std::vector<Pass> passes;
  // Fastest passes of one kind until `target` seconds of job time (and,
  // when `tail`, a p95 with ten samples beyond it); empty if not there yet.
  auto select = [&](bool traced, double target, bool tail) {
    std::vector<double> pass_s;
    for (const Pass& p : passes) {
      pass_s.push_back((p.tracer != nullptr) == traced ? p.r.busy_s : 1e300);
    }
    std::vector<std::size_t> chosen;
    std::vector<double> lat;
    double busy = 0.0;
    for (const std::size_t i : FastestFirst(pass_s)) {
      if ((passes[i].tracer != nullptr) != traced) break;
      chosen.push_back(i);
      busy += passes[i].r.busy_s;
      lat.insert(lat.end(), passes[i].r.latency_s.begin(),
                 passes[i].r.latency_s.end());
      if (busy >= target && (!tail || TailQuantile(lat, kTailQuantile))) {
        return chosen;
      }
    }
    return std::vector<std::size_t>{};
  };
  auto merge = [&](const std::vector<std::size_t>& chosen) {
    PassResult m;
    for (const std::size_t i : chosen) {
      const PassResult& r = passes[i].r;
      m.latency_s.insert(m.latency_s.end(), r.latency_s.begin(),
                         r.latency_s.end());
      m.busy_s += r.busy_s;
      m.jobs += r.jobs;
      m.work += r.work;
    }
    return m;
  };
  const double loop_t0 = NowSeconds();
  const double steal_t0 = StealSeconds();
  std::vector<std::size_t> untraced_set, traced_set;
  for (int pass = 1;; ++pass) {
    Pass& p = passes.emplace_back();
    if (trace == 1 && pass % 2 == 0) p.tracer = std::make_unique<Tracer>();
    wl->RunPass(pass, p.tracer.get(), p.r);
    attempted += p.r.jobs;
    failed += p.r.failed;
    if (NowSeconds() - loop_t0 >= kLoopFactor * seconds) {
      if (trace == 0) {
        untraced_set = select(false, seconds, true);
        if (!untraced_set.empty()) break;
      } else {
        untraced_set = select(false, seconds / 2, false);
        traced_set = select(true, seconds / 2, false);
        if (!untraced_set.empty() && !traced_set.empty()) break;
      }
    }
    if (NowSeconds() - run_t0 > kMaxRunSeconds) {
      std::fprintf(stderr, "not enough samples within %.0f s\n",
                   kMaxRunSeconds);
      return 3;
    }
  }
  // Host steal is reported, not corrected for: it says how disturbed the
  // machine was while the loop ran.
  std::printf("# passes kept=%zu of %zu host_steal_share=%.4f "
              "error_rate=%.6g\n",
              untraced_set.size() + traced_set.size(), passes.size(),
              (StealSeconds() - steal_t0) /
                  ((NowSeconds() - loop_t0) * ncpu),
              Ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)));

  if (trace == 0) {
    const PassResult timed = merge(untraced_set);
    const std::vector<double>& lat = timed.latency_s;
    const double p95 = *TailQuantile(lat, kTailQuantile);
    std::printf("# samples=%zu beyond_p95=%td\n", lat.size(),
                std::count_if(lat.begin(), lat.end(),
                              [p95](double s) { return s > p95; }));
    metrics = {
        {"jobs_per_s", static_cast<double>(timed.jobs) / timed.busy_s, "1/s"},
        {"job_ms.p50", Median(lat) * 1e3, "ms"},
        {"job_ms.p95", p95 * 1e3, "ms"},
        {"sim_gpu_s", sim.total(), "s"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const PassResult untraced = merge(untraced_set);
    const PassResult traced = merge(traced_set);
    std::vector<SpanRecord> spans;
    for (const std::size_t i : traced_set) {
      // Parent indices are per tracer; rebase them into the merged vector.
      const int base = static_cast<int>(spans.size());
      for (SpanRecord s : passes[i].tracer->spans()) {
        if (s.parent >= 0) s.parent += base;
        spans.push_back(s);
      }
    }
    const auto layer = LayerSeconds(spans);
    const auto jobs = static_cast<double>(traced.jobs);
    auto per_job = [&](Layer l) {
      return layer[static_cast<std::size_t>(l)] / jobs;
    };
    const std::vector<double> self = SelfTimes(spans);
    double job_self = 0.0;
    for (std::size_t i = 0; i < self.size(); ++i) {
      if (spans[i].layer == Layer::kJob) job_self += self[i];
    }
    const double shading_s = per_job(Layer::kComputeOps) +
                             per_job(Layer::kComputeFirstDispatch) +
                             per_job(Layer::kComputeDispatch) +
                             per_job(Layer::kGlSyncWait);
    // Bytes and builds belong to the compute layer only where the benchmark
    // calls it; gl_tenants moves its bytes through gles2 directly.
    const double compute = workload == "gl_tenants" ? 0.0 : 1.0;
    const double untraced_rate =
        static_cast<double>(untraced.jobs) / untraced.busy_s;
    const double traced_rate = jobs / traced.busy_s;
    const glsl::OpCounts& ops = ref.work.shader_ops;
    metrics = {
        {"compute.ops.s", per_job(Layer::kComputeOps), "s/job"},
        {"compute.buffer_alloc.s", per_job(Layer::kComputeAlloc), "s/job"},
        {"compute.upload.s", per_job(Layer::kComputeUpload), "s/job"},
        {"compute.upload.bytes",
         compute * static_cast<double>(ref.work.bytes_uploaded) / ref_jobs,
         "bytes/job"},
        {"compute.kernel_build.s", per_job(Layer::kComputeBuild), "s/job"},
        {"compute.kernel_build.calls",
         compute * ref.work.program_compiles / ref_jobs, "1/job"},
        {"compute.first_dispatch.s", per_job(Layer::kComputeFirstDispatch),
         "s/job"},
        {"compute.dispatch.s", per_job(Layer::kComputeDispatch), "s/job"},
        {"compute.download.s", per_job(Layer::kComputeDownload), "s/job"},
        {"compute.download.bytes",
         compute * static_cast<double>(ref.work.bytes_readback) / ref_jobs,
         "bytes/job"},
        {"glsl.shader_ops", static_cast<double>(ShaderOps(ref.work)), "ops"},
        {"glsl.shader_ops_per_s",
         Ratio(static_cast<double>(ShaderOps(traced.work)) / jobs, shading_s),
         "ops/s"},
        {"gles2.record.s", per_job(Layer::kGlRecord), "s/job"},
        {"gles2.sync_wait.s", per_job(Layer::kGlSyncWait), "s/job"},
        {"gles2.draws", static_cast<double>(ref.work.draw_calls) / ref_jobs,
         "1/job"},
        {"gles2.vertices", static_cast<double>(ref.work.vertices) / ref_jobs,
         "1/job"},
        {"gles2.cmdstream.recorded",
         static_cast<double>(gl.recorded) / ref_jobs, "1/job"},
        {"gles2.cmdstream.elided_ratio",
         Ratio(static_cast<double>(gl.elided),
               static_cast<double>(gl.recorded + gl.elided)),
         "share"},
        {"gles2.cmdstream.lists_executed",
         static_cast<double>(gl.lists_executed) / ref_jobs, "1/job"},
        {"gles2.cmdstream.inline_syncs",
         static_cast<double>(gl.inline_syncs) / ref_jobs, "1/job"},
        {"gles2.cmdstream.lists_dropped",
         static_cast<double>(gl.lists_dropped) / ref_jobs, "1/job"},
        {"gles2.shade_cache.hit_ratio",
         Ratio(static_cast<double>(gl.shade_hits),
               static_cast<double>(gl.shade_hits + gl.shade_misses)),
         "share"},
        {"gles2.shade_cache.evictions",
         static_cast<double>(gl.shade_evictions) / ref_jobs, "1/job"},
        {"vc4.shader_s", sim.shader, "s"},
        {"vc4.upload_s", sim.upload, "s"},
        {"vc4.readback_s", sim.readback, "s"},
        {"vc4.compile_s", sim.compile, "s"},
        {"vc4.api_s", sim.api_overhead, "s"},
        {"vc4.host_s", sim.host, "s"},
        {"vc4.tmu_miss_ratio",
         Ratio(static_cast<double>(ops.tmu_miss), static_cast<double>(ops.tmu)),
         "share"},
        {"bench.job_self.s", job_self / jobs, "s/job"},
        {"trace.jobs_per_s", traced_rate, "1/s"},
        {"trace.untraced_jobs_per_s", untraced_rate, "1/s"},
        {"trace.overhead", TracingOverhead(untraced_rate, traced_rate),
         "share"},
    };
  }

  const glsl::OpCounts& ops = ref.work.shader_ops;
  const std::vector<Metric> deterministic = {
      {"sim_gpu_s", sim.total(), "s"},
      {"vc4.shader_s", sim.shader, "s"},
      {"vc4.upload_s", sim.upload, "s"},
      {"vc4.readback_s", sim.readback, "s"},
      {"vc4.compile_s", sim.compile, "s"},
      {"vc4.api_s", sim.api_overhead, "s"},
      {"vc4.host_s", sim.host, "s"},
      {"vc4.tmu_miss", static_cast<double>(ops.tmu_miss), "ops"},
      {"glsl.shader_ops", static_cast<double>(ShaderOps(ref.work)), "ops"},
  };
  std::fflush(stdout);
  PrintJson(failed == 0, attempted, failed, metrics, deterministic,
            ref.output_hash);
  return 0;
}

}  // namespace
}  // namespace mgpu::e2ebench

int main(int argc, char** argv) {
  try {
    return mgpu::e2ebench::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
