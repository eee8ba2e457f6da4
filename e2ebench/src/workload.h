// A benchmark workload: a seeded, fixed list of jobs (units of user work)
// driven closed-loop from one client thread through the public compute /
// gles2 APIs with the shipped defaults.
#ifndef MGPU_E2EBENCH_WORKLOAD_H_
#define MGPU_E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gles2/context.h"
#include "stats.h"
#include "vc4/timing.h"

namespace mgpu::e2ebench {

// What one pass over the job list produced. `busy_s` is the host time the
// pass's jobs took: the sum of job latencies for strictly sequential jobs
// (so oracle checks between jobs stay off the clock), the pass's wall time
// for pipelined ones.
struct PassResult {
  std::vector<double> latency_s;
  double busy_s = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
  vc4::GpuWork work;            // summed over the pass's jobs
  std::uint64_t output_hash = 0;  // order-sensitive hash of every output
};

// Cumulative public gles2 counters (command stream + shade cache), summed
// over every context a workload owns.
struct GlCounters {
  std::uint64_t recorded = 0;
  std::uint64_t elided = 0;
  std::uint64_t lists_executed = 0;
  std::uint64_t inline_syncs = 0;
  std::uint64_t lists_dropped = 0;
  std::uint64_t shade_hits = 0;
  std::uint64_t shade_misses = 0;
  std::uint64_t shade_evictions = 0;

  void Add(gles2::Context& ctx);
  [[nodiscard]] GlCounters Minus(const GlCounters& o) const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Device/context creation, program builds and warm-up: everything a
  // client pays once before its first job.
  virtual void Setup() = 0;
  // Runs every job of the list once. Pass 0 is the reference pass: it runs
  // the oracles and records each job's output hash and modelled work;
  // later passes must reproduce both (and still pass the oracles).
  virtual void RunPass(int pass, Tracer* tracer, PassResult& out) = 0;
  [[nodiscard]] virtual GlCounters ReadGlCounters() = 0;
};

std::unique_ptr<Workload> MakePaperLarge(std::uint64_t seed);
std::unique_ptr<Workload> MakeChurnSmall(std::uint64_t seed);
std::unique_ptr<Workload> MakeGlTenants(std::uint64_t seed);

// FNV-1a over bytes, chained through `h`.
std::uint64_t HashBytes(const void* data, std::size_t n,
                        std::uint64_t h = 1469598103934665603ull);

// Field-by-field equality of modelled work (the deterministic self-check).
bool SameWork(const vc4::GpuWork& a, const vc4::GpuWork& b);

}  // namespace mgpu::e2ebench

#endif  // MGPU_E2EBENCH_WORKLOAD_H_
