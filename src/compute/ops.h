// Library of ready-made GPGPU operations built on the kernel framework:
// the paper's two benchmarks (streaming add "sum" and sgemm, §V) for both
// integer and floating point, plus convolution, multi-pass reduction and a
// multi-output min/max (challenge 8 demo).
#ifndef MGPU_COMPUTE_OPS_H_
#define MGPU_COMPUTE_OPS_H_

#include <cstdint>
#include <span>
#include <utility>

#include "compute/device.h"
#include "compute/kernel.h"

namespace mgpu::compute::ops {

// --- the paper's "sum" benchmark: element-wise c[i] = a[i] + b[i] ---------
void AddF32(Device& d, std::span<const float> a, std::span<const float> b,
            std::span<float> out);
// Integer adds are exact within the paper's 24-bit envelope.
void AddI32(Device& d, std::span<const std::int32_t> a,
            std::span<const std::int32_t> b, std::span<std::int32_t> out);
void AddU32(Device& d, std::span<const std::uint32_t> a,
            std::span<const std::uint32_t> b, std::span<std::uint32_t> out);
// Byte adds wrap modulo 256, matching C unsigned char semantics.
void AddU8(Device& d, std::span<const std::uint8_t> a,
           std::span<const std::uint8_t> b, std::span<std::uint8_t> out);
void AddI8(Device& d, std::span<const std::int8_t> a,
           std::span<const std::int8_t> b, std::span<std::int8_t> out);

// --- saxpy: out = alpha * x + y -------------------------------------------
void SaxpyF32(Device& d, float alpha, std::span<const float> x,
              std::span<const float> y, std::span<float> out);

// --- the paper's sgemm benchmark: C = A * B, n x n row-major --------------
void SgemmF32(Device& d, int n, std::span<const float> a,
              std::span<const float> b, std::span<float> out);
// Integer GEMM through the float pipeline (exact while |values| < 2^24).
void GemmI32(Device& d, int n, std::span<const std::int32_t> a,
             std::span<const std::int32_t> b, std::span<std::int32_t> out);

// --- 3x3 convolution on an 8-bit image (w divisible by 4) -----------------
// `weights` is row-major 3x3; border pixels clamp. Output is rounded and
// saturated to [0, 255].
void Conv3x3U8(Device& d, int w, int h, std::span<const std::uint8_t> img,
               std::span<const float> weights, std::span<std::uint8_t> out);

// --- multi-pass reduction (kernel-ordering pattern of challenge 7) --------
[[nodiscard]] float ReduceSumF32(Device& d, std::span<const float> v);

// --- multi-output min/max via kernel splitting (challenge 8) --------------
[[nodiscard]] std::pair<float, float> MinMaxF32(Device& d,
                                                std::span<const float> v);

// --- the kernels behind the ops above -------------------------------------
// Each op links exactly the Kernel these describe, so tooling can inspect a
// shipped program (Kernel::FragmentSource, its lowered bytecode) without
// running the op.
[[nodiscard]] Kernel::Options AddKernel(ElemType t);  // AddF32 ... AddI8
[[nodiscard]] Kernel::Options SaxpyKernel();
[[nodiscard]] Kernel::Options GemmKernel(ElemType t, int n);  // n x n
[[nodiscard]] Kernel::Options Conv3x3U8Kernel();
[[nodiscard]] Kernel::Options ReduceSumKernel();

}  // namespace mgpu::compute::ops

#endif  // MGPU_COMPUTE_OPS_H_
