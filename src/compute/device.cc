#include "compute/device.h"

namespace mgpu::compute {
namespace {

constexpr float kQuad[12] = {
    -1.0f, -1.0f, 1.0f, -1.0f, 1.0f, 1.0f,
    -1.0f, -1.0f, 1.0f, 1.0f, -1.0f, 1.0f,
};

}  // namespace

Device::Device(const DeviceOptions& options)
    : options_(options), alu_(options.profile) {
  gles2::ContextConfig cfg;
  cfg.width = 1;  // the default framebuffer is unused; kernels render to FBOs
  cfg.height = 1;
  cfg.limits = options_.profile.limits;
  cfg.quantization = options_.quantization;
  cfg.exec_engine = options_.exec_engine;
  cfg.shader_threads = options_.shader_threads;
  cfg.simd = options_.simd;
  cfg.max_texture_size = options_.max_texture_size;
  cfg.renderer_name = "mgpu software GLES2 (" + options_.profile.name + ")";
  ctx_ = std::make_unique<gles2::Context>(cfg, &alu_);
}

int Device::FragmentHighpMantissaBits() {
  gles2::GLint range[2] = {0, 0};
  gles2::GLint precision = 0;
  ctx_->GetShaderPrecisionFormat(gles2::GL_FRAGMENT_SHADER,
                                 gles2::GL_HIGH_FLOAT, range, &precision);
  return precision;
}

const float* Device::quad_vertices() const { return kQuad; }

void Device::SyncShaderOps() {
  const glsl::OpCounts now = alu_.counts();
  work_.shader_ops.alu += now.alu - last_ops_.alu;
  work_.shader_ops.sfu += now.sfu - last_ops_.sfu;
  work_.shader_ops.sfu_trans += now.sfu_trans - last_ops_.sfu_trans;
  work_.shader_ops.tmu += now.tmu - last_ops_.tmu;
  work_.shader_ops.tmu_miss += now.tmu_miss - last_ops_.tmu_miss;
  last_ops_ = now;
}

vc4::GpuWork Device::ConsumeWork() {
  SyncShaderOps();
  vc4::GpuWork out = work_;
  work_ = vc4::GpuWork{};
  return out;
}

}  // namespace mgpu::compute
