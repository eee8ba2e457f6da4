// The two compute-layer workloads. Both drive compute::ops and
// compute::Kernel the way a library user would, on one compute::Device
// with the shipped defaults, and check every job against the CPU oracle
// off the clock.
//
//   paper_large — the paper's §V kernels at shading-bound sizes (64K-element
//     adds, reductions and custom kernels, GEMMs at n = 32..48, a 256x256
//     convolution and a 128x128 divergent-loop mandelbrot). The glsl VM and
//     the gles2 rasterizer dominate; sizes span 1..16 VC4 tiles, so both
//     serial and worker-pool draws occur.
//   churn_small — the same families at <= 4K elements (one tile per job)
//     mixed with seeded custom Kernel bodies, half of which repeat an
//     earlier source text exactly while the other half are new every pass.
//     Fixed per-job costs (compile, link, first dispatch, buffer
//     allocation) dominate.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compute/kernel.h"
#include "compute/ops.h"
#include "cpuref/cpuref.h"
#include "workload.h"

namespace mgpu::e2ebench {
namespace {

using compute::ElemType;
using compute::Kernel;
using compute::PackedBuffer;

enum class Kind {
  kAddI32,
  kAddF32,
  kReduceF32,
  kSgemmF32,
  kGemmI32,
  kConvU8,
  kMandel,
  kCustom
};

constexpr int kMandelIters = 64;

// Exact 3x3 filters (integer or power-of-two weights), so the byte output
// is exactly the CPU reference's.
constexpr std::array<std::array<float, 9>, 3> kFilters = {{
    {0.0625f, 0.125f, 0.0625f, 0.125f, 0.25f, 0.125f, 0.0625f, 0.125f,
     0.0625f},
    {0.0f, -1.0f, 0.0f, -1.0f, 5.0f, -1.0f, 0.0f, -1.0f, 0.0f},
    {-2.0f, -1.0f, 0.0f, -1.0f, 1.0f, 1.0f, 0.0f, 1.0f, 2.0f},
}};

struct Job {
  Kind kind = Kind::kAddI32;
  // Elements for add / reduce / custom, n for GEMM, width for the square
  // convolution image and mandelbrot grid.
  int size = 0;
  std::vector<float> fa, fb;
  std::vector<std::int32_t> ia, ib;
  std::vector<std::uint8_t> img;
  std::array<float, 9> weights{};
  float mx = 0.0f, my = 0.0f, mstep = 0.0f;  // mandelbrot origin and step
  // Custom kernels: family and constants baked into the source text, the
  // two dispatches' uniform, and the custom job whose text this one
  // repeats (-1: a fresh text every pass).
  int family = 0, k1 = 0, k2 = 0;
  float uk1 = 0.0f, uk2 = 0.0f;
  int repeat_of = -1;
  // Host outputs, allocated once.
  std::vector<float> fout;
  std::vector<std::int32_t> iout;
  std::vector<std::uint8_t> bout;
  float rout = 0.0f;
  // Pass-0 references.
  std::uint64_t ref_hash = 0;
  vc4::GpuWork ref_work;
};

// --- oracles ----------------------------------------------------------------

// The §V precision band the compute precision tests assert for float
// results under the VideoCore IV model: every element within 2^-12 of the
// magnitude of the terms that produced it, and at least 13 matching
// mantissa bits on average.
bool FloatBand(std::span<const float> ref, std::span<const float> got,
               std::span<const float> magnitude, std::string* err) {
  double bits = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!std::isfinite(got[i]) ||
        std::fabs(got[i] - ref[i]) > std::ldexp(magnitude[i], -12)) {
      *err = StrFormat("element %zu: got %.9g, want %.9g", i,
                       static_cast<double>(got[i]),
                       static_cast<double>(ref[i]));
      return false;
    }
    bits += MatchingMantissaBits(ref[i], got[i]);
  }
  if (bits < 13.0 * static_cast<double>(ref.size())) {
    *err = StrFormat("mean matching mantissa bits %.2f < 13",
                     bits / static_cast<double>(ref.size()));
    return false;
  }
  return true;
}

template <typename T>
bool Exact(const std::vector<T>& ref, const std::vector<T>& got,
           std::string* err) {
  const auto it = std::mismatch(ref.begin(), ref.end(), got.begin());
  if (it.first == ref.end()) return true;
  *err = StrFormat("element %td: got %d, want %d", it.first - ref.begin(),
                   static_cast<int>(*it.second), static_cast<int>(*it.first));
  return false;
}

// CPU mirror of the mandelbrot kernel body, operation for operation.
std::vector<std::int32_t> MandelRef(const Job& j) {
  std::vector<std::int32_t> out(static_cast<std::size_t>(j.size) * j.size);
  for (int y = 0; y < j.size; ++y) {
    for (int x = 0; x < j.size; ++x) {
      const float cx = j.mx + static_cast<float>(x) * j.mstep;
      const float cy = j.my + static_cast<float>(y) * j.mstep;
      float zx = 0.0f, zy = 0.0f;
      int i = 0;
      for (; i < kMandelIters; ++i) {
        const float nx = zx * zx - zy * zy;
        const float ny = 2.0f * zx * zy;
        zx = nx + cx;
        zy = ny + cy;
        if (zx * zx + zy * zy > 4.0f) break;
      }
      out[static_cast<std::size_t>(y) * j.size + x] = i;
    }
  }
  return out;
}

// --- custom kernels ---------------------------------------------------------

// Additive constant of a custom job's source text in `pass`: fresh jobs get
// a new one every pass (so their text was never built before), repeats
// reuse the text of the job they repeat.
int CustomK3(const std::vector<Job>& jobs, std::size_t i, std::uint64_t seed,
             int pass) {
  const Job& j = jobs[i];
  if (j.repeat_of >= 0) {
    return CustomK3(jobs, static_cast<std::size_t>(j.repeat_of), seed, pass);
  }
  Rng r(seed ^ (0x9E3779B97F4A7C15ull * (i + 1)) ^
        (0xC2B2AE3D27D4EB4Full * static_cast<std::uint64_t>(pass + 2)));
  return static_cast<int>(r.NextInt(1, 99999));
}

// Integer-valued bodies whose every intermediate stays below 2^24, so the
// float pipeline is exact and the CPU mirror below matches bit for bit.
std::string CustomBody(const Job& j, int k3) {
  static constexpr const char* kBodies[] = {
      "  return gp_fetch_u_a(i) * %d.0 + gp_fetch_u_b(i) * %d.0 + %d.0 - "
      "u_k;\n",
      "  return max(gp_fetch_u_a(i), gp_fetch_u_b(i) * %d.0) + %d.0 - "
      "u_k * %d.0;\n",
      "  float s = %d.0;\n"
      "  for (int j = 0; j < 4; ++j) { s += gp_fetch_u_a(i) - float(j); }\n"
      "  return s + gp_fetch_u_b(i) * %d.0 - u_k;\n",
      "  return clamp(gp_fetch_u_a(i), -%d.0, %d.0) * %d.0 + "
      "gp_fetch_u_b(i) - u_k * %d.0;\n",
  };
  std::string body;
  switch (j.family) {
    case 0: body = StrFormat(kBodies[0], j.k1, j.k2, k3); break;
    case 1: body = StrFormat(kBodies[1], j.k1, k3, j.k2); break;
    case 2: body = StrFormat(kBodies[2], k3, j.k2); break;
    default: body = StrFormat(kBodies[3], k3, k3, j.k1, j.k2); break;
  }
  return "float gp_kernel(vec2 gp_pos) {\n  float i = gp_linear_index();\n" +
         body + "}\n";
}

std::int64_t CustomRef(const Job& j, int k3, std::int64_t a, std::int64_t b,
                       std::int64_t uk) {
  switch (j.family) {
    case 0: return a * j.k1 + b * j.k2 + k3 - uk;
    case 1: return std::max(a, b * j.k1) + k3 - uk * j.k2;
    case 2: {
      std::int64_t s = k3;
      for (int t = 0; t < 4; ++t) s += a - t;
      return s + b * j.k2 - uk;
    }
    default: return std::clamp<std::int64_t>(a, -k3, k3) * j.k1 + b - uk * j.k2;
  }
}

// --- the workload -----------------------------------------------------------

class ComputeWorkload final : public Workload {
 public:
  ComputeWorkload(std::uint64_t seed, std::vector<Job> jobs)
      : seed_(seed), jobs_(std::move(jobs)) {}

  void Setup() override {
    device_ = std::make_unique<compute::Device>();
    // Warm-up: the smallest job of every kind in the list, so lazy state
    // (worker pools, shader-library statics) exists before the first job.
    for (int k = 0; k <= static_cast<int>(Kind::kCustom); ++k) {
      const Job* smallest = nullptr;
      for (const Job& j : jobs_) {
        if (static_cast<int>(j.kind) == k &&
            (smallest == nullptr || j.size < smallest->size)) {
          smallest = &j;
        }
      }
      if (smallest == nullptr) continue;
      Job warm = *smallest;
      warm.repeat_of = -1;
      Execute(warm, CustomK3(jobs_, 0, seed_, -1), JobTrace{});
    }
    (void)device_->ConsumeWork();
  }

  void RunPass(int pass, Tracer* tracer, PassResult& out) override {
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      Job& j = jobs_[i];
      const int k3 =
          j.kind == Kind::kCustom ? CustomK3(jobs_, i, seed_, pass) : 0;
      JobTrace jt{tracer, -1};
      std::string err;
      bool ok = true;
      const double t0 = NowSeconds();
      if (tracer != nullptr) jt.job = tracer->Begin(Layer::kJob, -1);
      try {
        Execute(j, k3, jt);
      } catch (const std::exception& e) {
        ok = false;
        err = e.what();
      }
      if (tracer != nullptr) tracer->End(jt.job);
      const double dt = NowSeconds() - t0;

      // Off the clock: modelled work, the oracle and the pass-0 reference.
      const vc4::GpuWork w = device_->ConsumeWork();
      if (ok) ok = Check(j, k3, &err);
      const std::uint64_t h = OutputHash(j);
      // Custom texts change every pass, and with them the outputs and the
      // value-dependent pack/unpack op counts, so custom jobs are held to
      // the oracle alone after pass 0.
      if (pass == 0) {
        j.ref_hash = h;
        j.ref_work = w;
      } else if (ok && j.kind != Kind::kCustom && !SameWork(w, j.ref_work)) {
        ok = false;
        err = "modelled work differs from pass 0";
      } else if (ok && j.kind != Kind::kCustom && h != j.ref_hash) {
        ok = false;
        err = "output differs from pass 0";
      }
      if (!ok) {
        std::fprintf(stderr, "job %zu (pass %d) failed: %s\n", i, pass,
                     err.c_str());
        ++out.failed;
      }
      out.latency_s.push_back(dt);
      out.busy_s += dt;
      ++out.jobs;
      out.work += w;
      out.output_hash = HashBytes(&h, sizeof(h), out.output_hash);
    }
  }

  GlCounters ReadGlCounters() override {
    GlCounters c;
    c.Add(device_->gl());
    return c;
  }

 private:
  void Execute(Job& j, int k3, JobTrace jt) {
    compute::Device& d = *device_;
    namespace ops = compute::ops;
    switch (j.kind) {
      case Kind::kAddI32:
        Traced(jt, Layer::kComputeOps,
               [&] { ops::AddI32(d, j.ia, j.ib, j.iout); });
        break;
      case Kind::kAddF32:
        Traced(jt, Layer::kComputeOps,
               [&] { ops::AddF32(d, j.fa, j.fb, j.fout); });
        break;
      case Kind::kReduceF32:
        Traced(jt, Layer::kComputeOps,
               [&] { j.rout = ops::ReduceSumF32(d, j.fa); });
        break;
      case Kind::kSgemmF32:
        Traced(jt, Layer::kComputeOps,
               [&] { ops::SgemmF32(d, j.size, j.fa, j.fb, j.fout); });
        break;
      case Kind::kGemmI32:
        Traced(jt, Layer::kComputeOps,
               [&] { ops::GemmI32(d, j.size, j.ia, j.ib, j.iout); });
        break;
      case Kind::kConvU8:
        Traced(jt, Layer::kComputeOps, [&] {
          ops::Conv3x3U8(d, j.size, j.size, j.img, j.weights, j.bout);
        });
        break;
      case Kind::kMandel: {
        std::unique_ptr<PackedBuffer> out;
        std::unique_ptr<Kernel> k;
        Traced(jt, Layer::kComputeAlloc, [&] {
          out = std::make_unique<PackedBuffer>(d, ElemType::kI32, j.size,
                                               j.size);
        });
        Traced(jt, Layer::kComputeBuild, [&] {
          k = std::make_unique<Kernel>(
              d, Kernel::Options{
                     .name = "mandelbrot",
                     .inputs = {},
                     .output = ElemType::kI32,
                     .extra_decls = "uniform vec2 u_origin;\n"
                                    "uniform float u_step;\n",
                     .body = StrFormat(R"(
float gp_kernel(vec2 gp_pos) {
  vec2 c = u_origin + gp_pos * u_step;
  vec2 z = vec2(0.0);
  for (int i = 0; i < %d; ++i) {
    z = vec2(z.x * z.x - z.y * z.y, 2.0 * z.x * z.y) + c;
    if (dot(z, z) > 4.0) { return float(i); }
  }
  return %d.0;
}
)",
                                       kMandelIters, kMandelIters)});
        });
        k->SetUniform2f("u_origin", j.mx, j.my);
        k->SetUniform1f("u_step", j.mstep);
        Traced(jt, Layer::kComputeFirstDispatch, [&] { k->Run(*out, {}); });
        Traced(jt, Layer::kComputeDownload, [&] {
          out->Download(std::span<std::int32_t>(j.iout));
        });
        break;
      }
      case Kind::kCustom: {
        const auto n = static_cast<std::size_t>(j.size);
        std::unique_ptr<PackedBuffer> a, b, mid, out;
        std::unique_ptr<Kernel> k;
        Traced(jt, Layer::kComputeAlloc, [&] {
          a = std::make_unique<PackedBuffer>(d, ElemType::kI32, n);
          b = std::make_unique<PackedBuffer>(d, ElemType::kI32, n);
          mid = std::make_unique<PackedBuffer>(d, ElemType::kI32, n);
          out = std::make_unique<PackedBuffer>(d, ElemType::kI32, n);
        });
        Traced(jt, Layer::kComputeUpload, [&] {
          a->Upload(std::span<const std::int32_t>(j.ia));
          b->Upload(std::span<const std::int32_t>(j.ib));
        });
        Traced(jt, Layer::kComputeBuild, [&] {
          k = std::make_unique<Kernel>(
              d, Kernel::Options{.name = "custom",
                                 .inputs = {{"u_a", ElemType::kI32},
                                            {"u_b", ElemType::kI32}},
                                 .output = ElemType::kI32,
                                 .extra_decls = "uniform float u_k;\n",
                                 .body = CustomBody(j, k3)});
        });
        // A two-step chain: the intermediate stays on the device.
        k->SetUniform1f("u_k", j.uk1);
        Traced(jt, Layer::kComputeFirstDispatch,
               [&] { k->Run(*mid, {a.get(), b.get()}); });
        k->SetUniform1f("u_k", j.uk2);
        Traced(jt, Layer::kComputeDispatch,
               [&] { k->Run(*out, {mid.get(), b.get()}); });
        Traced(jt, Layer::kComputeDownload, [&] {
          out->Download(std::span<std::int32_t>(j.iout));
        });
        break;
      }
    }
  }

  static bool Check(const Job& j, int k3, std::string* err) {
    const auto n = static_cast<std::size_t>(j.size);
    switch (j.kind) {
      case Kind::kAddI32: {
        std::vector<std::int32_t> ref(j.ia.size());
        cpuref::AddI32(j.ia, j.ib, ref);
        return Exact(ref, j.iout, err);
      }
      case Kind::kAddF32: {
        std::vector<float> ref(j.fa.size()), mag(j.fa.size());
        cpuref::AddF32(j.fa, j.fb, ref);
        for (std::size_t i = 0; i < mag.size(); ++i) {
          mag[i] = std::fabs(j.fa[i]) + std::fabs(j.fb[i]);
        }
        return FloatBand(ref, j.fout, mag, err);
      }
      case Kind::kReduceF32: {
        const float ref = cpuref::ReduceSumTree4F32(j.fa);
        float mag = 0.0f;
        for (const float v : j.fa) mag += std::fabs(v);
        if (std::isfinite(j.rout) &&
            std::fabs(j.rout - ref) <= std::ldexp(mag, -12)) {
          return true;
        }
        *err = StrFormat("sum %.9g, want %.9g", static_cast<double>(j.rout),
                         static_cast<double>(ref));
        return false;
      }
      case Kind::kSgemmF32: {
        std::vector<float> ref(n * n), mag(n * n), aa(n * n), ab(n * n);
        cpuref::SgemmF32(j.size, j.fa, j.fb, ref);
        for (std::size_t i = 0; i < n * n; ++i) {
          aa[i] = std::fabs(j.fa[i]);
          ab[i] = std::fabs(j.fb[i]);
        }
        cpuref::SgemmF32(j.size, aa, ab, mag);
        return FloatBand(ref, j.fout, mag, err);
      }
      case Kind::kGemmI32: {
        std::vector<std::int32_t> ref(n * n);
        cpuref::GemmI32(j.size, j.ia, j.ib, ref);
        return Exact(ref, j.iout, err);
      }
      case Kind::kConvU8: {
        std::vector<std::uint8_t> ref(n * n);
        cpuref::Conv3x3U8(j.size, j.size, j.img, j.weights, ref);
        return Exact(ref, j.bout, err);
      }
      case Kind::kMandel:
        return Exact(MandelRef(j), j.iout, err);
      case Kind::kCustom: {
        std::vector<std::int32_t> ref(n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::int64_t mid = CustomRef(
              j, k3, j.ia[i], j.ib[i], static_cast<std::int64_t>(j.uk1));
          ref[i] = static_cast<std::int32_t>(
              CustomRef(j, k3, mid, j.ib[i], static_cast<std::int64_t>(j.uk2)));
        }
        return Exact(ref, j.iout, err);
      }
    }
    return false;
  }

  static std::uint64_t OutputHash(const Job& j) {
    std::uint64_t h = HashBytes(j.fout.data(), j.fout.size() * sizeof(float));
    h = HashBytes(j.iout.data(), j.iout.size() * sizeof(std::int32_t), h);
    h = HashBytes(j.bout.data(), j.bout.size(), h);
    return HashBytes(&j.rout, sizeof(j.rout), h);
  }

  std::uint64_t seed_;
  std::vector<Job> jobs_;
  std::unique_ptr<compute::Device> device_;
};

// --- job lists --------------------------------------------------------------

// A job of `kind` and `size` with seeded inputs. Only values depend on the
// seed; the kinds and sizes (and with them the work per pass) do not.
Job MakeJob(Kind kind, int size, Rng& rng) {
  Job j;
  j.kind = kind;
  j.size = size;
  const auto n = static_cast<std::size_t>(size);
  auto workload_floats = [&rng](std::size_t count) {
    std::vector<float> v(count);
    for (float& x : v) x = rng.NextWorkloadFloat();
    return v;
  };
  switch (kind) {
    case Kind::kAddI32:
      // Within the paper's 24-bit integer envelope, sums included.
      j.ia = rng.IntVector(n, -(1 << 22), 1 << 22);
      j.ib = rng.IntVector(n, -(1 << 22), 1 << 22);
      j.iout.resize(n);
      break;
    case Kind::kAddF32:
      j.fa = workload_floats(n);
      j.fb = workload_floats(n);
      j.fout.resize(n);
      break;
    case Kind::kReduceF32:
      j.fa = workload_floats(n);
      break;
    case Kind::kSgemmF32:
      j.fa = rng.FloatVector(n * n, -2.0f, 2.0f);
      j.fb = rng.FloatVector(n * n, -2.0f, 2.0f);
      j.fout.resize(n * n);
      break;
    case Kind::kGemmI32:
      j.ia = rng.IntVector(n * n, -100, 100);
      j.ib = rng.IntVector(n * n, -100, 100);
      j.iout.resize(n * n);
      break;
    case Kind::kConvU8:
      j.img = rng.ByteVector(n * n);
      j.weights = kFilters[static_cast<std::size_t>(rng.NextInt(0, 2))];
      j.bout.resize(n * n);
      break;
    case Kind::kMandel:
      // The full set's bounding box, jittered by under 1% of its extent.
      j.mstep = 2.5f / static_cast<float>(size);
      j.mx = -2.0f + rng.NextFloat(-0.02f, 0.02f);
      j.my = -1.25f + rng.NextFloat(-0.02f, 0.02f);
      j.iout.resize(n * n);
      break;
    case Kind::kCustom:
      j.ia = rng.IntVector(n, -32768, 32768);
      j.ib = rng.IntVector(n, -32768, 32768);
      j.k1 = static_cast<int>(rng.NextInt(2, 7));
      j.k2 = static_cast<int>(rng.NextInt(2, 7));
      j.uk1 = static_cast<float>(rng.NextInt(1, 100));
      j.uk2 = static_cast<float>(rng.NextInt(1, 100));
      j.iout.resize(n);
      break;
  }
  return j;
}

struct Entry {
  Kind kind;
  int size;
  int count;
};

std::vector<Job> MakeJobs(std::uint64_t seed,
                          std::initializer_list<Entry> mix) {
  Rng rng(seed);
  std::vector<Job> jobs;
  for (const Entry& e : mix) {
    for (int c = 0; c < e.count; ++c) {
      jobs.push_back(MakeJob(e.kind, e.size, rng));
    }
  }
  // Seeded order (Fisher-Yates).
  for (std::size_t i = jobs.size(); i > 1; --i) {
    std::swap(jobs[i - 1],
              jobs[static_cast<std::size_t>(
                  rng.NextInt(0, static_cast<std::int64_t>(i) - 1))]);
  }
  // Every second custom job (in list order) repeats the source text of a
  // seeded earlier fresh one exactly.
  std::vector<int> fresh;
  int customs = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Job& j = jobs[i];
    if (j.kind != Kind::kCustom) continue;
    if (customs++ % 2 == 0) {
      j.family = static_cast<int>(fresh.size() % 4);
      fresh.push_back(static_cast<int>(i));
      continue;
    }
    const int src = fresh[static_cast<std::size_t>(
        rng.NextInt(0, static_cast<std::int64_t>(fresh.size()) - 1))];
    const Job& s = jobs[static_cast<std::size_t>(src)];
    j.family = s.family;
    j.k1 = s.k1;
    j.k2 = s.k2;
    j.repeat_of = src;
  }
  return jobs;
}

}  // namespace

std::unique_ptr<Workload> MakePaperLarge(std::uint64_t seed) {
  // Counts put the median inside the mandelbrot block and the p95 inside
  // the n=48 GEMM block, away from the boundaries between job families, so
  // the percentiles do not flip between families from run to run.
  return std::make_unique<ComputeWorkload>(
      seed, MakeJobs(seed, {{Kind::kConvU8, 256, 4},
                            {Kind::kReduceF32, 65536, 2},
                            {Kind::kGemmI32, 32, 1},
                            {Kind::kSgemmF32, 32, 1},
                            {Kind::kMandel, 128, 4},
                            {Kind::kAddF32, 65536, 2},
                            {Kind::kAddI32, 65536, 2},
                            {Kind::kCustom, 65536, 2},
                            {Kind::kGemmI32, 48, 2},
                            {Kind::kSgemmF32, 48, 2}}));
}

std::unique_ptr<Workload> MakeChurnSmall(std::uint64_t seed) {
  return std::make_unique<ComputeWorkload>(
      seed, MakeJobs(seed, {{Kind::kAddI32, 1024, 4},
                            {Kind::kAddF32, 4096, 4},
                            {Kind::kReduceF32, 4096, 4},
                            {Kind::kSgemmF32, 16, 4},
                            {Kind::kGemmI32, 16, 4},
                            {Kind::kConvU8, 64, 4},
                            {Kind::kMandel, 32, 4},
                            {Kind::kCustom, 1024, 7},
                            {Kind::kCustom, 2048, 7},
                            {Kind::kCustom, 4096, 6}}));
}

}  // namespace mgpu::e2ebench
