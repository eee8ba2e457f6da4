#include "gles2/texture.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

namespace mgpu::gles2 {
namespace {

bool IsPowerOfTwo(GLsizei v) { return v > 0 && (v & (v - 1)) == 0; }

// Expands an n-bit channel to 8 bits (standard replication).
std::uint8_t Expand(int value, int bits) {
  const int max = (1 << bits) - 1;
  return static_cast<std::uint8_t>((value * 255 + max / 2) / max);
}

// floor(x) as a texel coordinate. A shader can compute any coordinate, and
// a bare cast of NaN, an infinity or a value outside the int range is
// undefined; those give INT_MIN, the value x86's truncating convert has
// always produced here, so sampled texels do not change.
int FloorToTexel(float x) {
  const float f = std::floor(x);
  if (!(f >= -2147483648.0f && f < 2147483648.0f)) {
    return std::numeric_limits<int>::min();
  }
  return static_cast<int>(f);
}

}  // namespace

int ExternalBytesPerPixel(GLenum format, GLenum type) {
  switch (type) {
    case GL_UNSIGNED_BYTE:
      switch (format) {
        case GL_RGBA: return 4;
        case GL_RGB: return 3;
        case GL_LUMINANCE_ALPHA: return 2;
        case GL_LUMINANCE: return 1;
        case GL_ALPHA: return 1;
        default: return 0;
      }
    case GL_UNSIGNED_SHORT_5_6_5:
      return format == GL_RGB ? 2 : 0;
    case GL_UNSIGNED_SHORT_4_4_4_4:
    case GL_UNSIGNED_SHORT_5_5_5_1:
      return format == GL_RGBA ? 2 : 0;
    default:
      return 0;  // GL_FLOAT and friends: unsupported in ES 2.0
  }
}

bool ConvertRowToRgba8(GLenum format, GLenum type, const std::uint8_t* src,
                       GLsizei width, std::uint8_t* dst) {
  if (ExternalBytesPerPixel(format, type) == 0) return false;
  for (GLsizei x = 0; x < width; ++x) {
    std::uint8_t r = 0, g = 0, b = 0, a = 255;
    switch (type) {
      case GL_UNSIGNED_BYTE:
        switch (format) {
          case GL_RGBA:
            r = src[0]; g = src[1]; b = src[2]; a = src[3];
            src += 4;
            break;
          case GL_RGB:
            r = src[0]; g = src[1]; b = src[2];
            src += 3;
            break;
          case GL_LUMINANCE_ALPHA:
            r = g = b = src[0]; a = src[1];
            src += 2;
            break;
          case GL_LUMINANCE:
            r = g = b = src[0];
            src += 1;
            break;
          case GL_ALPHA:
            r = g = b = 0; a = src[0];
            src += 1;
            break;
          default:
            return false;
        }
        break;
      case GL_UNSIGNED_SHORT_5_6_5: {
        std::uint16_t p;
        std::memcpy(&p, src, 2);
        src += 2;
        r = Expand((p >> 11) & 0x1f, 5);
        g = Expand((p >> 5) & 0x3f, 6);
        b = Expand(p & 0x1f, 5);
        break;
      }
      case GL_UNSIGNED_SHORT_4_4_4_4: {
        std::uint16_t p;
        std::memcpy(&p, src, 2);
        src += 2;
        r = Expand((p >> 12) & 0xf, 4);
        g = Expand((p >> 8) & 0xf, 4);
        b = Expand((p >> 4) & 0xf, 4);
        a = Expand(p & 0xf, 4);
        break;
      }
      case GL_UNSIGNED_SHORT_5_5_5_1: {
        std::uint16_t p;
        std::memcpy(&p, src, 2);
        src += 2;
        r = Expand((p >> 11) & 0x1f, 5);
        g = Expand((p >> 6) & 0x1f, 5);
        b = Expand((p >> 1) & 0x1f, 5);
        a = (p & 1) != 0 ? 255 : 0;
        break;
      }
      default:
        return false;
    }
    dst[0] = r; dst[1] = g; dst[2] = b; dst[3] = a;
    dst += 4;
  }
  return true;
}

GLenum Texture::TexImage2D(GLint level, GLenum internal_format, GLsizei width,
                           GLsizei height, GLenum format, GLenum type,
                           const void* data, GLint unpack_alignment) {
  if (level != 0) {
    // Mipmap uploads accepted by the spec; this implementation supports a
    // single level and rejects others to keep behaviour explicit.
    return GL_INVALID_VALUE;
  }
  if (internal_format != format) return GL_INVALID_OPERATION;
  if (width < 0 || height < 0 || width > 4096 || height > 4096) {
    return GL_INVALID_VALUE;
  }
  const int bpp = ExternalBytesPerPixel(format, type);
  if (bpp == 0) return GL_INVALID_ENUM;  // includes GL_FLOAT: limitation #5
  width_ = width;
  height_ = height;
  format_ = format;
  rgba8_.assign(static_cast<std::size_t>(width) * height * 4, 0);
  if (data == nullptr) return GL_NO_ERROR;
  const auto* src = static_cast<const std::uint8_t*>(data);
  const int row_bytes = bpp * width;
  const int stride =
      (row_bytes + unpack_alignment - 1) / unpack_alignment * unpack_alignment;
  for (GLsizei y = 0; y < height; ++y) {
    if (!ConvertRowToRgba8(format, type, src + y * stride, width,
                           rgba8_.data() + static_cast<std::size_t>(y) * width * 4)) {
      return GL_INVALID_ENUM;
    }
  }
  return GL_NO_ERROR;
}

GLenum Texture::TexSubImage2D(GLint level, GLint xoffset, GLint yoffset,
                              GLsizei width, GLsizei height, GLenum format,
                              GLenum type, const void* data,
                              GLint unpack_alignment) {
  if (level != 0) return GL_INVALID_VALUE;
  if (!has_storage()) return GL_INVALID_OPERATION;
  if (format != format_) return GL_INVALID_OPERATION;
  // In 64 bits: xoffset + width must not wrap past the check.
  if (xoffset < 0 || yoffset < 0 || width < 0 || height < 0 ||
      std::int64_t{xoffset} + width > width_ ||
      std::int64_t{yoffset} + height > height_) {
    return GL_INVALID_VALUE;
  }
  const int bpp = ExternalBytesPerPixel(format, type);
  if (bpp == 0) return GL_INVALID_ENUM;
  if (data == nullptr) return GL_INVALID_VALUE;
  const auto* src = static_cast<const std::uint8_t*>(data);
  const int row_bytes = bpp * width;
  const int stride =
      (row_bytes + unpack_alignment - 1) / unpack_alignment * unpack_alignment;
  std::vector<std::uint8_t> row(static_cast<std::size_t>(width) * 4);
  for (GLsizei y = 0; y < height; ++y) {
    if (!ConvertRowToRgba8(format, type,
                           src + static_cast<std::ptrdiff_t>(y) * stride,
                           width, row.data())) {
      return GL_INVALID_ENUM;
    }
    std::memcpy(rgba8_.data() +
                    (static_cast<std::size_t>(yoffset + y) * width_ + xoffset) * 4,
                row.data(), row.size());
  }
  return GL_NO_ERROR;
}

GLenum Texture::SetParameter(GLenum pname, GLint value) {
  const auto v = static_cast<GLenum>(value);
  switch (pname) {
    case GL_TEXTURE_MIN_FILTER:
      switch (v) {
        case GL_NEAREST: case GL_LINEAR:
        case GL_NEAREST_MIPMAP_NEAREST: case GL_LINEAR_MIPMAP_NEAREST:
        case GL_NEAREST_MIPMAP_LINEAR: case GL_LINEAR_MIPMAP_LINEAR:
          min_filter_ = v;
          return GL_NO_ERROR;
        default:
          return GL_INVALID_ENUM;
      }
    case GL_TEXTURE_MAG_FILTER:
      if (v == GL_NEAREST || v == GL_LINEAR) {
        mag_filter_ = v;
        return GL_NO_ERROR;
      }
      return GL_INVALID_ENUM;
    case GL_TEXTURE_WRAP_S:
    case GL_TEXTURE_WRAP_T:
      if (v == GL_REPEAT || v == GL_CLAMP_TO_EDGE || v == GL_MIRRORED_REPEAT) {
        (pname == GL_TEXTURE_WRAP_S ? wrap_s_ : wrap_t_) = v;
        return GL_NO_ERROR;
      }
      return GL_INVALID_ENUM;
    default:
      return GL_INVALID_ENUM;
  }
}

bool Texture::IsComplete() const {
  if (!has_storage()) return false;
  // No mipmaps are ever defined in this implementation, so mipmapping min
  // filters make the texture incomplete — including the ES 2.0 *default*
  // min filter, a classic real-driver trap for GPGPU code.
  const bool mipmapped = min_filter_ != GL_NEAREST && min_filter_ != GL_LINEAR;
  if (mipmapped) return false;
  const bool npot = !IsPowerOfTwo(width_) || !IsPowerOfTwo(height_);
  if (npot && (wrap_s_ != GL_CLAMP_TO_EDGE || wrap_t_ != GL_CLAMP_TO_EDGE)) {
    return false;
  }
  return true;
}

int Texture::WrapCoord(int c, int size, GLenum mode) {
  switch (mode) {
    case GL_REPEAT: {
      const int m = c % size;
      return m < 0 ? m + size : m;
    }
    case GL_MIRRORED_REPEAT: {
      const int period = 2 * size;
      int m = c % period;
      if (m < 0) m += period;
      return m < size ? m : period - 1 - m;
    }
    case GL_CLAMP_TO_EDGE:
    default:
      return c < 0 ? 0 : (c >= size ? size - 1 : c);
  }
}

std::array<std::uint8_t, 4> Texture::TexelAt(int x, int y) const {
  const std::size_t off = (static_cast<std::size_t>(y) * width_ + x) * 4;
  return {rgba8_[off], rgba8_[off + 1], rgba8_[off + 2], rgba8_[off + 3]};
}

void Texture::SetTexelAt(int x, int y,
                         const std::array<std::uint8_t, 4>& rgba) {
  const std::size_t off = (static_cast<std::size_t>(y) * width_ + x) * 4;
  rgba8_[off] = rgba[0];
  rgba8_[off + 1] = rgba[1];
  rgba8_[off + 2] = rgba[2];
  rgba8_[off + 3] = rgba[3];
}

std::array<float, 4> Texture::FetchTexel(int x, int y) const {
  const auto t = TexelAt(x, y);
  // Eq. (1): f = c / (2^8 - 1).
  return {t[0] / 255.0f, t[1] / 255.0f, t[2] / 255.0f, t[3] / 255.0f};
}

long long Texture::NearestTexelIndex(float s, float t) const {
  if (!has_storage()) return -1;
  int x = FloorToTexel(s * static_cast<float>(width_));
  int y = FloorToTexel(t * static_cast<float>(height_));
  x = WrapCoord(x, width_, wrap_s_);
  y = WrapCoord(y, height_, wrap_t_);
  return static_cast<long long>(y) * width_ + x;
}

std::array<float, 4> Texture::Sample(float s, float t, float /*lod*/) const {
  if (!IsComplete()) return {0.0f, 0.0f, 0.0f, 1.0f};
  if (mag_filter_ == GL_NEAREST) {
    int x = FloorToTexel(s * static_cast<float>(width_));
    int y = FloorToTexel(t * static_cast<float>(height_));
    x = WrapCoord(x, width_, wrap_s_);
    y = WrapCoord(y, height_, wrap_t_);
    return FetchTexel(x, y);
  }
  // Bilinear.
  const float u = s * static_cast<float>(width_) - 0.5f;
  const float v = t * static_cast<float>(height_) - 0.5f;
  const int x0 = FloorToTexel(u);
  const int y0 = FloorToTexel(v);
  const float fu = u - static_cast<float>(x0);
  const float fv = v - static_cast<float>(y0);
  const int xs[2] = {WrapCoord(x0, width_, wrap_s_),
                     WrapCoord(x0 + 1, width_, wrap_s_)};
  const int ys[2] = {WrapCoord(y0, height_, wrap_t_),
                     WrapCoord(y0 + 1, height_, wrap_t_)};
  const auto t00 = FetchTexel(xs[0], ys[0]);
  const auto t10 = FetchTexel(xs[1], ys[0]);
  const auto t01 = FetchTexel(xs[0], ys[1]);
  const auto t11 = FetchTexel(xs[1], ys[1]);
  std::array<float, 4> out{};
  for (int c = 0; c < 4; ++c) {
    const float a = t00[c] + (t10[c] - t00[c]) * fu;
    const float b = t01[c] + (t11[c] - t01[c]) * fu;
    out[c] = a + (b - a) * fv;
  }
  return out;
}

}  // namespace mgpu::gles2
