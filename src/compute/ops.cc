#include "compute/ops.h"

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "common/strings.h"
#include "compute/buffer.h"
#include "compute/kernel.h"

namespace mgpu::compute::ops {
namespace {

constexpr char kAdd32Body[] = R"(
float gp_kernel(vec2 gp_pos) {
  float i = gp_linear_index();
  return gp_fetch_u_a(i) + gp_fetch_u_b(i);
}
)";

// Byte adds wrap modulo 256 to match C's unsigned char arithmetic.
constexpr char kAddU8Body[] = R"(
vec4 gp_kernel(vec2 gp_pos) {
  float t = gp_linear_index();
  return mod(gp_fetch_u_a(t) + gp_fetch_u_b(t), 256.0);
}
)";

constexpr char kAddI8Body[] = R"(
vec4 gp_kernel(vec2 gp_pos) {
  float t = gp_linear_index();
  vec4 s = gp_fetch_u_a(t) + gp_fetch_u_b(t) + vec4(128.0);
  return mod(s + 256.0, 256.0) - vec4(128.0);
}
)";

template <typename T>
void RunBinary(Device& d, ElemType t, std::span<const T> a,
               std::span<const T> b, std::span<T> out) {
  PackedBuffer ba(d, t, a.size());
  PackedBuffer bb(d, t, b.size());
  PackedBuffer bo(d, t, out.size());
  ba.Upload(a);
  bb.Upload(b);
  Kernel k(d, AddKernel(t));
  k.Run(bo, {&ba, &bb});
  bo.Download(out);
}

}  // namespace

Kernel::Options AddKernel(ElemType t) {
  const char* body = t == ElemType::kU8   ? kAddU8Body
                     : t == ElemType::kI8 ? kAddI8Body
                                          : kAdd32Body;
  return {.name = std::string("add_") + ElemTypeName(t),
          .inputs = {{"u_a", t}, {"u_b", t}},
          .output = t,
          .extra_decls = "",
          .body = body};
}

void AddF32(Device& d, std::span<const float> a, std::span<const float> b,
            std::span<float> out) {
  RunBinary(d, ElemType::kF32, a, b, out);
}

void AddI32(Device& d, std::span<const std::int32_t> a,
            std::span<const std::int32_t> b, std::span<std::int32_t> out) {
  RunBinary(d, ElemType::kI32, a, b, out);
}

void AddU32(Device& d, std::span<const std::uint32_t> a,
            std::span<const std::uint32_t> b, std::span<std::uint32_t> out) {
  RunBinary(d, ElemType::kU32, a, b, out);
}

void AddU8(Device& d, std::span<const std::uint8_t> a,
           std::span<const std::uint8_t> b, std::span<std::uint8_t> out) {
  RunBinary(d, ElemType::kU8, a, b, out);
}

void AddI8(Device& d, std::span<const std::int8_t> a,
           std::span<const std::int8_t> b, std::span<std::int8_t> out) {
  RunBinary(d, ElemType::kI8, a, b, out);
}

Kernel::Options SaxpyKernel() {
  return {.name = "saxpy",
          .inputs = {{"u_x", ElemType::kF32}, {"u_y", ElemType::kF32}},
          .output = ElemType::kF32,
          .extra_decls = "uniform float u_alpha;",
          .body = R"(
float gp_kernel(vec2 gp_pos) {
  float i = gp_linear_index();
  return u_alpha * gp_fetch_u_x(i) + gp_fetch_u_y(i);
}
)"};
}

void SaxpyF32(Device& d, float alpha, std::span<const float> x,
              std::span<const float> y, std::span<float> out) {
  PackedBuffer bx(d, ElemType::kF32, x.size());
  PackedBuffer by(d, ElemType::kF32, y.size());
  PackedBuffer bo(d, ElemType::kF32, out.size());
  bx.Upload(x);
  by.Upload(y);
  Kernel k(d, SaxpyKernel());
  k.SetUniform1f("u_alpha", alpha);
  k.Run(bo, {&bx, &by});
  bo.Download(out);
}

Kernel::Options GemmKernel(ElemType t, int n) {
  return {.name = std::string("gemm_") + ElemTypeName(t),
          .inputs = {{"u_a", t}, {"u_b", t}},
          .output = t,
          .extra_decls = StrFormat("#define GP_K %d", n),
          .body = R"(
float gp_kernel(vec2 gp_pos) {
  float acc = 0.0;
  for (int k = 0; k < GP_K; ++k) {
    acc += gp_fetch2_u_a(float(k), gp_pos.y) *
           gp_fetch2_u_b(gp_pos.x, float(k));
  }
  return acc;
}
)"};
}

namespace {

template <typename T>
void GemmImpl(Device& d, ElemType t, int n, std::span<const T> a,
              std::span<const T> b, std::span<T> out) {
  PackedBuffer ba(d, t, n, n);
  PackedBuffer bb(d, t, n, n);
  PackedBuffer bo(d, t, n, n);
  ba.Upload(a);
  bb.Upload(b);
  Kernel k(d, GemmKernel(t, n));
  k.Run(bo, {&ba, &bb});
  bo.Download(out);
}

}  // namespace

void SgemmF32(Device& d, int n, std::span<const float> a,
              std::span<const float> b, std::span<float> out) {
  GemmImpl(d, ElemType::kF32, n, a, b, out);
}

void GemmI32(Device& d, int n, std::span<const std::int32_t> a,
             std::span<const std::int32_t> b, std::span<std::int32_t> out) {
  GemmImpl(d, ElemType::kI32, n, a, b, out);
}

Kernel::Options Conv3x3U8Kernel() {
  return {.name = "conv3x3_u8",
          .inputs = {{"u_img", ElemType::kU8}},
          .output = ElemType::kU8,
          .extra_decls = "uniform float u_w[9];",
          .body = R"(
vec4 gp_row_conv(vec4 l, vec4 c, vec4 r, float w0, float w1, float w2) {
  // Convolve the 4 lanes of the center texel with their row neighbors.
  vec4 left = vec4(l.a, c.r, c.g, c.b);
  vec4 right = vec4(c.g, c.b, c.a, r.r);
  return left * w0 + c * w1 + right * w2;
}

vec4 gp_kernel(vec2 gp_pos) {
  float x = gp_pos.x;
  vec4 acc = vec4(0.0);
  for (int dy = -1; dy <= 1; ++dy) {
    float y = gp_pos.y + float(dy);  // CLAMP_TO_EDGE handles row borders
    vec4 l = gp_fetch2_u_img(x - 1.0, y);
    vec4 c = gp_fetch2_u_img(x, y);
    vec4 r = gp_fetch2_u_img(x + 1.0, y);
    // Horizontal borders are at texel granularity: lane 0 of the first
    // texel must see pixel 0 as its left neighbor (clamp semantics), not
    // lane 3 of the wrapped texel; symmetrically on the right.
    if (x < 0.5) { l = vec4(c.r); }
    if (x > gp_size_u_img.x - 1.5) { r = vec4(c.a); }
    int row = dy + 1;
    acc += gp_row_conv(l, c, r, u_w[row * 3 + 0], u_w[row * 3 + 1],
                       u_w[row * 3 + 2]);
  }
  return clamp(acc, 0.0, 255.0);
}
)"};
}

void Conv3x3U8(Device& d, int w, int h, std::span<const std::uint8_t> img,
               std::span<const float> weights, std::span<std::uint8_t> out) {
  PackedBuffer bi(d, ElemType::kU8, w, h);
  PackedBuffer bo(d, ElemType::kU8, w, h);
  bi.Upload(img);
  // Each RGBA texel covers 4 horizontal pixels; the kernel gathers the
  // left/center/right texels of three rows and convolves each lane.
  Kernel k(d, Conv3x3U8Kernel());
  // Upload the nine weights.
  for (int i = 0; i < 9; ++i) {
    k.SetUniform1f(StrFormat("u_w[%d]", i), weights[static_cast<std::size_t>(i)]);
  }
  k.Run(bo, {&bi});
  bo.Download(out);
}

Kernel::Options ReduceSumKernel() {
  return {.name = "reduce4",
          .inputs = {{"u_src", ElemType::kF32}},
          .output = ElemType::kF32,
          .extra_decls = "uniform float u_count;",
          .body = R"(
float gp_kernel(vec2 gp_pos) {
  float j = gp_linear_index();
  if (j >= u_count) { return 0.0; }
  float i = j * 4.0;
  return gp_fetch_u_src(i) + gp_fetch_u_src(i + 1.0) +
         gp_fetch_u_src(i + 2.0) + gp_fetch_u_src(i + 3.0);
}
)"};
}

float ReduceSumF32(Device& d, std::span<const float> v) {
  // Multi-pass 4:1 tree; intermediate buffers are padded to multiples of 4
  // so tail fetches read zeros, and the final 1-element buffer is the one
  // read back — the "careful kernel ordering" of challenge 7.
  auto padded4 = [](std::size_t n) { return (n + 3) / 4 * 4; };
  std::vector<float> host(v.begin(), v.end());
  host.resize(padded4(host.size()), 0.0f);

  auto src = std::make_unique<PackedBuffer>(d, ElemType::kF32, host.size());
  src->Upload(std::span<const float>(host));

  // The u_count guard zeroes the padding lanes of each level so they never
  // inject out-of-range fetches into the next level.
  Kernel k(d, ReduceSumKernel());

  std::size_t n = host.size();
  while (n > 1) {
    const std::size_t groups = (n + 3) / 4;
    const std::size_t next = std::max<std::size_t>(padded4(groups), 4);
    auto dst = std::make_unique<PackedBuffer>(d, ElemType::kF32, next);
    k.SetUniform1f("u_count", static_cast<float>(groups));
    k.Run(*dst, {src.get()});
    src = std::move(dst);
    n = groups;
  }
  float result = 0.0f;
  std::array<float, 4> tmp{};
  src->Download(std::span<float>(tmp.data(), std::min<std::size_t>(src->size(), 4)));
  result = tmp[0];
  return result;
}

std::pair<float, float> MinMaxF32(Device& d, std::span<const float> v) {
  // Challenge 8: the kernel conceptually has two outputs (min, max); ES 2.0
  // allows one per program, so MultiKernel splits it into two programs.
  auto padded4 = [](std::size_t n) { return (n + 3) / 4 * 4; };
  std::vector<float> host(v.begin(), v.end());
  const float first = host.empty() ? 0.0f : host[0];
  host.resize(padded4(std::max<std::size_t>(host.size(), 1)), first);

  PackedBuffer src(d, ElemType::kF32, host.size());
  src.Upload(std::span<const float>(host));
  const std::size_t groups = host.size() / 4;
  PackedBuffer mins(d, ElemType::kF32, groups);
  PackedBuffer maxs(d, ElemType::kF32, groups);

  MultiKernel mk(d, {.name = "minmax",
                     .inputs = {{"u_src", ElemType::kF32}},
                     .outputs = {ElemType::kF32, ElemType::kF32},
                     .extra_decls = "",
                     .body = R"(
void gp_kernel_multi(vec2 gp_pos, out float o0, out float o1) {
  float i = gp_linear_index() * 4.0;
  float a = gp_fetch_u_src(i);
  float b = gp_fetch_u_src(i + 1.0);
  float c = gp_fetch_u_src(i + 2.0);
  float e = gp_fetch_u_src(i + 3.0);
  o0 = min(min(a, b), min(c, e));
  o1 = max(max(a, b), max(c, e));
}
)"});
  mk.Run({&mins, &maxs}, {&src});
  std::vector<float> hmin(groups), hmax(groups);
  mins.Download(std::span<float>(hmin));
  maxs.Download(std::span<float>(hmax));
  float mn = hmin[0], mx = hmax[0];
  for (std::size_t i = 1; i < groups; ++i) {
    mn = std::min(mn, hmin[i]);
    mx = std::max(mx, hmax[i]);
  }
  return {mn, mx};
}

}  // namespace mgpu::compute::ops
