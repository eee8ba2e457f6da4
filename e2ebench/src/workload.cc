#include "workload.h"

#include "gles2/cmdstream.h"

namespace mgpu::e2ebench {

void GlCounters::Add(gles2::Context& ctx) {
  const gles2::cmd::Stats s = ctx.command_stream_stats();
  recorded += s.recorded;
  elided += s.elided;
  lists_executed += s.lists_executed;
  inline_syncs += s.inline_syncs;
  lists_dropped += s.lists_dropped;
  const gles2::ShadeStateCache& cache = ctx.shade_state_cache();
  shade_hits += cache.hits();
  shade_misses += cache.misses();
  shade_evictions += cache.evictions();
}

GlCounters GlCounters::Minus(const GlCounters& o) const {
  return {recorded - o.recorded,
          elided - o.elided,
          lists_executed - o.lists_executed,
          inline_syncs - o.inline_syncs,
          lists_dropped - o.lists_dropped,
          shade_hits - o.shade_hits,
          shade_misses - o.shade_misses,
          shade_evictions - o.shade_evictions};
}

std::uint64_t HashBytes(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

bool SameWork(const vc4::GpuWork& a, const vc4::GpuWork& b) {
  const glsl::OpCounts& x = a.shader_ops;
  const glsl::OpCounts& y = b.shader_ops;
  const vc4::CpuWork& h = a.host_work;
  const vc4::CpuWork& k = b.host_work;
  return a.fragments == b.fragments && a.vertices == b.vertices &&
         x.alu == y.alu && x.sfu == y.sfu && x.sfu_trans == y.sfu_trans &&
         x.tmu == y.tmu && x.tmu_miss == y.tmu_miss &&
         a.bytes_uploaded == b.bytes_uploaded &&
         a.bytes_readback == b.bytes_readback &&
         a.program_compiles == b.program_compiles &&
         a.draw_calls == b.draw_calls && h.int_ops == k.int_ops &&
         h.int_muls == k.int_muls && h.fp_adds == k.fp_adds &&
         h.fp_muls == k.fp_muls && h.fp_divs == k.fp_divs &&
         h.loads == k.loads && h.stores == k.stores &&
         h.iterations == k.iterations;
}

}  // namespace mgpu::e2ebench
