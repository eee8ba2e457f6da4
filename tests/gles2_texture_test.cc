// Texture storage, format conversion, completeness rules and sampling — the
// substrate behaviour the paper's buffer mapping (challenges 3/4/5) depends
// on.
#include "gles2/texture.h"

#include <cmath>
#include <limits>
#include <vector>

#include "gtest/gtest.h"

namespace mgpu::gles2 {
namespace {

Texture MakeRgba(int w, int h, const std::vector<std::uint8_t>& data) {
  Texture t;
  EXPECT_EQ(t.TexImage2D(0, GL_RGBA, w, h, GL_RGBA, GL_UNSIGNED_BYTE,
                         data.empty() ? nullptr : data.data(), 1),
            GL_NO_ERROR);
  EXPECT_EQ(t.SetParameter(GL_TEXTURE_MIN_FILTER, GL_NEAREST), GL_NO_ERROR);
  EXPECT_EQ(t.SetParameter(GL_TEXTURE_MAG_FILTER, GL_NEAREST), GL_NO_ERROR);
  EXPECT_EQ(t.SetParameter(GL_TEXTURE_WRAP_S, GL_CLAMP_TO_EDGE), GL_NO_ERROR);
  EXPECT_EQ(t.SetParameter(GL_TEXTURE_WRAP_T, GL_CLAMP_TO_EDGE), GL_NO_ERROR);
  return t;
}

TEST(TextureTest, FloatUploadRejected) {
  // Limitation #5 of the paper: ES 2.0 has no float textures.
  Texture t;
  std::vector<float> data(4, 1.0f);
  EXPECT_EQ(t.TexImage2D(0, GL_RGBA, 1, 1, GL_RGBA, GL_FLOAT, data.data(), 1),
            GL_INVALID_ENUM);
}

TEST(TextureTest, RgbaUploadRoundTrips) {
  const std::vector<std::uint8_t> px = {1, 2, 3, 4, 250, 251, 252, 253};
  Texture t = MakeRgba(2, 1, px);
  EXPECT_EQ(t.TexelAt(0, 0), (std::array<std::uint8_t, 4>{1, 2, 3, 4}));
  EXPECT_EQ(t.TexelAt(1, 0),
            (std::array<std::uint8_t, 4>{250, 251, 252, 253}));
}

TEST(TextureTest, RgbExpandsAlphaToOpaque) {
  Texture t;
  const std::vector<std::uint8_t> px = {10, 20, 30};
  ASSERT_EQ(t.TexImage2D(0, GL_RGB, 1, 1, GL_RGB, GL_UNSIGNED_BYTE, px.data(),
                         1),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(0, 0), (std::array<std::uint8_t, 4>{10, 20, 30, 255}));
}

TEST(TextureTest, LuminanceReplicates) {
  Texture t;
  const std::vector<std::uint8_t> px = {77};
  ASSERT_EQ(t.TexImage2D(0, GL_LUMINANCE, 1, 1, GL_LUMINANCE,
                         GL_UNSIGNED_BYTE, px.data(), 1),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(0, 0), (std::array<std::uint8_t, 4>{77, 77, 77, 255}));
}

TEST(TextureTest, AlphaOnly) {
  Texture t;
  const std::vector<std::uint8_t> px = {99};
  ASSERT_EQ(t.TexImage2D(0, GL_ALPHA, 1, 1, GL_ALPHA, GL_UNSIGNED_BYTE,
                         px.data(), 1),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(0, 0), (std::array<std::uint8_t, 4>{0, 0, 0, 99}));
}

TEST(TextureTest, Packed565Expansion) {
  Texture t;
  // R=31, G=63, B=31 -> white.
  const std::uint16_t white = 0xFFFF;
  ASSERT_EQ(t.TexImage2D(0, GL_RGB, 1, 1, GL_RGB, GL_UNSIGNED_SHORT_5_6_5,
                         &white, 1),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(0, 0),
            (std::array<std::uint8_t, 4>{255, 255, 255, 255}));
}

TEST(TextureTest, Packed4444Expansion) {
  Texture t;
  const std::uint16_t px = 0xF081;  // r=15, g=0, b=8, a=1
  ASSERT_EQ(t.TexImage2D(0, GL_RGBA, 1, 1, GL_RGBA,
                         GL_UNSIGNED_SHORT_4_4_4_4, &px, 1),
            GL_NO_ERROR);
  const auto texel = t.TexelAt(0, 0);
  EXPECT_EQ(texel[0], 255);
  EXPECT_EQ(texel[1], 0);
  EXPECT_EQ(texel[2], 136);  // 8/15 expanded
  EXPECT_EQ(texel[3], 17);   // 1/15 expanded
}

TEST(TextureTest, Packed5551Alpha) {
  Texture t;
  const std::uint16_t px = 0x0001;  // only alpha bit set
  ASSERT_EQ(t.TexImage2D(0, GL_RGBA, 1, 1, GL_RGBA,
                         GL_UNSIGNED_SHORT_5_5_5_1, &px, 1),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(0, 0)[3], 255);
}

TEST(TextureTest, TexSubImageUpdatesRegion) {
  Texture t = MakeRgba(4, 4, std::vector<std::uint8_t>(64, 0));
  const std::vector<std::uint8_t> patch = {9, 8, 7, 6};
  ASSERT_EQ(t.TexSubImage2D(0, 2, 3, 1, 1, GL_RGBA, GL_UNSIGNED_BYTE,
                            patch.data(), 1),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(2, 3), (std::array<std::uint8_t, 4>{9, 8, 7, 6}));
  EXPECT_EQ(t.TexelAt(0, 0), (std::array<std::uint8_t, 4>{0, 0, 0, 0}));
}

TEST(TextureTest, TexSubImageOutOfBoundsRejected) {
  Texture t = MakeRgba(4, 4, {});
  const std::vector<std::uint8_t> patch(16, 0);
  EXPECT_EQ(t.TexSubImage2D(0, 3, 3, 2, 2, GL_RGBA, GL_UNSIGNED_BYTE,
                            patch.data(), 1),
            GL_INVALID_VALUE);
}

// The rect check must not wrap: xoffset + width near INT_MAX used to pass
// an int comparison and write far outside the texel store. Negative sizes
// are invalid too. Every rejected call leaves the texels untouched.
TEST(TextureTest, TexSubImageOverflowingRectRejectedNoWrite) {
  Texture t = MakeRgba(4, 4, std::vector<std::uint8_t>(64, 7));
  constexpr GLint kMax = std::numeric_limits<GLint>::max();
  const std::vector<std::uint8_t> patch(64, 0xAB);
  const struct {
    GLint x, y;
    GLsizei w, h;
  } rects[] = {{kMax - 1, 0, 2, 1}, {0, kMax - 1, 1, 2}, {kMax, kMax, 1, 1},
               {1, 0, kMax, 1},     {0, 1, 1, kMax},     {0, 0, -1, 1},
               {0, 0, 1, -1},       {2, 2, -4, -4}};
  for (const auto& r : rects) {
    EXPECT_EQ(t.TexSubImage2D(0, r.x, r.y, r.w, r.h, GL_RGBA,
                              GL_UNSIGNED_BYTE, patch.data(), 1),
              GL_INVALID_VALUE)
        << r.x << "," << r.y << " " << r.w << "x" << r.h;
  }
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      EXPECT_EQ(t.TexelAt(x, y), (std::array<std::uint8_t, 4>{7, 7, 7, 7}));
    }
  }
  // The last in-bounds rect is still accepted.
  EXPECT_EQ(t.TexSubImage2D(0, 3, 3, 1, 1, GL_RGBA, GL_UNSIGNED_BYTE,
                            patch.data(), 1),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(3, 3),
            (std::array<std::uint8_t, 4>{0xAB, 0xAB, 0xAB, 0xAB}));
}

TEST(TextureTest, DefaultMinFilterMakesIncomplete) {
  // The ES 2.0 default min filter mipmaps; without mipmaps the texture is
  // incomplete and samples black — the classic GPGPU setup bug.
  Texture t;
  const std::vector<std::uint8_t> px = {200, 100, 50, 25};
  ASSERT_EQ(t.TexImage2D(0, GL_RGBA, 1, 1, GL_RGBA, GL_UNSIGNED_BYTE,
                         px.data(), 1),
            GL_NO_ERROR);
  EXPECT_FALSE(t.IsComplete());
  const auto s = t.Sample(0.5f, 0.5f, 0.0f);
  EXPECT_FLOAT_EQ(s[0], 0.0f);
  EXPECT_FLOAT_EQ(s[3], 1.0f);
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_MIN_FILTER, GL_NEAREST), GL_NO_ERROR);
  EXPECT_TRUE(t.IsComplete());
}

TEST(TextureTest, NpotRequiresClampToEdge) {
  Texture t;
  ASSERT_EQ(t.TexImage2D(0, GL_RGBA, 3, 5, GL_RGBA, GL_UNSIGNED_BYTE, nullptr,
                         1),
            GL_NO_ERROR);
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_MIN_FILTER, GL_NEAREST), GL_NO_ERROR);
  // Default wrap is REPEAT: incomplete for NPOT.
  EXPECT_FALSE(t.IsComplete());
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_WRAP_S, GL_CLAMP_TO_EDGE), GL_NO_ERROR);
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_WRAP_T, GL_CLAMP_TO_EDGE), GL_NO_ERROR);
  EXPECT_TRUE(t.IsComplete());
}

TEST(TextureTest, NearestSamplingAddressesTexelCenters) {
  // 4 texels; normalized coordinate (i + 0.5) / 4 must hit texel i exactly —
  // the addressing rule the paper's 1D->2D coordinate mapping (challenge 4)
  // relies on.
  std::vector<std::uint8_t> px;
  for (int i = 0; i < 4; ++i) {
    px.insert(px.end(), {static_cast<std::uint8_t>(i * 10), 0, 0, 255});
  }
  Texture t = MakeRgba(4, 1, px);
  for (int i = 0; i < 4; ++i) {
    const float s = (static_cast<float>(i) + 0.5f) / 4.0f;
    const auto texel = t.Sample(s, 0.5f, 0.0f);
    EXPECT_FLOAT_EQ(texel[0], static_cast<float>(i * 10) / 255.0f) << i;
  }
}

TEST(TextureTest, SampleValuesAreExactlyCOver255) {
  // Eq. (1) of the paper: the shader sees f = c / 255 exactly.
  std::vector<std::uint8_t> px = {0, 1, 128, 255};
  Texture t = MakeRgba(1, 1, px);
  const auto s = t.Sample(0.5f, 0.5f, 0.0f);
  EXPECT_EQ(s[0], 0.0f / 255.0f);
  EXPECT_EQ(s[1], 1.0f / 255.0f);
  EXPECT_EQ(s[2], 128.0f / 255.0f);
  EXPECT_EQ(s[3], 255.0f / 255.0f);
}

TEST(TextureTest, WrapModes) {
  std::vector<std::uint8_t> px;
  for (int i = 0; i < 2; ++i) {
    px.insert(px.end(), {static_cast<std::uint8_t>(i * 200), 0, 0, 255});
  }
  Texture t = MakeRgba(2, 1, px);
  // CLAMP_TO_EDGE: out-of-range sticks to the border texel.
  EXPECT_FLOAT_EQ(t.Sample(-0.3f, 0.5f, 0.0f)[0], 0.0f);
  EXPECT_FLOAT_EQ(t.Sample(1.3f, 0.5f, 0.0f)[0], 200.0f / 255.0f);
  // REPEAT (power-of-two texture, so still complete).
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_WRAP_S, GL_REPEAT), GL_NO_ERROR);
  EXPECT_FLOAT_EQ(t.Sample(1.25f, 0.5f, 0.0f)[0],
                  t.Sample(0.25f, 0.5f, 0.0f)[0]);
  // MIRRORED_REPEAT.
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_WRAP_S, GL_MIRRORED_REPEAT),
            GL_NO_ERROR);
  EXPECT_FLOAT_EQ(t.Sample(1.25f, 0.5f, 0.0f)[0],
                  t.Sample(0.75f, 0.5f, 0.0f)[0]);
}

TEST(TextureTest, NonFiniteAndHugeCoordinatesSampleTheIntMinTexel) {
  // A shader can hand the sampler NaN, an infinity or a coordinate past the
  // int range; each addresses texel INT_MIN before wrapping (defined, and
  // what x86's truncating convert always gave), which every wrap mode of a
  // 4-texel row maps to texel 0. The bilinear filter takes the same
  // conversion; under -fsanitize=float-cast-overflow this test also checks
  // that it stays defined.
  const std::vector<std::uint8_t> px = {10,  0, 0, 255, 70,  0, 0, 255,
                                       130, 0, 0, 255, 190, 0, 0, 255};
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const GLenum wrap : {GL_CLAMP_TO_EDGE, GL_REPEAT, GL_MIRRORED_REPEAT}) {
    Texture t = MakeRgba(4, 1, px);
    ASSERT_EQ(t.SetParameter(GL_TEXTURE_WRAP_S, wrap), GL_NO_ERROR);
    for (const float s : {nan, inf, -inf, 3e9f, -3e9f}) {
      EXPECT_EQ(t.NearestTexelIndex(s, 0.5f), 0) << s;
      EXPECT_EQ(t.Sample(s, 0.5f, 0.0f)[0], 10.0f / 255.0f) << s;
    }
    ASSERT_EQ(t.SetParameter(GL_TEXTURE_MAG_FILTER, GL_LINEAR), GL_NO_ERROR);
    for (const float s : {nan, inf, -inf, 3e9f, -3e9f}) {
      (void)t.Sample(s, 0.5f, 0.0f);
    }
  }
}

TEST(TextureTest, BilinearInterpolatesMidpoint) {
  std::vector<std::uint8_t> px = {0, 0, 0, 255, 200, 0, 0, 255};
  Texture t = MakeRgba(2, 1, px);
  ASSERT_EQ(t.SetParameter(GL_TEXTURE_MAG_FILTER, GL_LINEAR), GL_NO_ERROR);
  const auto s = t.Sample(0.5f, 0.5f, 0.0f);
  EXPECT_NEAR(s[0], 100.0f / 255.0f, 1e-5f);
}

TEST(TextureTest, InvalidFilterEnumRejected) {
  Texture t;
  EXPECT_EQ(t.SetParameter(GL_TEXTURE_MIN_FILTER, GL_REPEAT),
            GL_INVALID_ENUM);
  EXPECT_EQ(t.SetParameter(GL_TEXTURE_WRAP_S, GL_NEAREST), GL_INVALID_ENUM);
}

TEST(TextureTest, UnpackAlignmentHonored) {
  // 3-byte RGB rows with alignment 4: row stride is padded to 4.
  Texture t;
  const std::uint8_t data[] = {10, 20, 30, 0 /*pad*/, 40, 50, 60, 0 /*pad*/};
  ASSERT_EQ(t.TexImage2D(0, GL_RGB, 1, 2, GL_RGB, GL_UNSIGNED_BYTE, data, 4),
            GL_NO_ERROR);
  EXPECT_EQ(t.TexelAt(0, 0), (std::array<std::uint8_t, 4>{10, 20, 30, 255}));
  EXPECT_EQ(t.TexelAt(0, 1), (std::array<std::uint8_t, 4>{40, 50, 60, 255}));
}

}  // namespace
}  // namespace mgpu::gles2
