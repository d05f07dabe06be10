#include "am/image.hpp"

#include <gtest/gtest.h>

#include "common/fs.hpp"

namespace strata::am {
namespace {

TEST(GrayImage, ConstructionAndAccess) {
  GrayImage image(10, 5, 7);
  EXPECT_EQ(image.width(), 10);
  EXPECT_EQ(image.height(), 5);
  EXPECT_EQ(image.size_bytes(), 50u);
  EXPECT_EQ(image.at(0, 0), 7);
  image.set(3, 2, 200);
  EXPECT_EQ(image.at(3, 2), 200);
}

TEST(GrayImage, InvalidDimensionsThrow) {
  EXPECT_THROW(GrayImage(0, 5), std::invalid_argument);
  EXPECT_THROW(GrayImage(5, -1), std::invalid_argument);
}

TEST(GrayImage, OutOfBoundsAccessThrows) {
  GrayImage image(4, 4);
  EXPECT_THROW((void)image.at(4, 0), std::out_of_range);
  EXPECT_THROW((void)image.at(0, 4), std::out_of_range);
  EXPECT_THROW((void)image.at(-1, 0), std::out_of_range);
  EXPECT_THROW(image.set(0, -1, 1), std::out_of_range);
}

TEST(GrayImage, RegionMean) {
  GrayImage image(4, 4, 10);
  image.set(0, 0, 20);
  image.set(1, 0, 30);
  // 2x2 region at origin: (20 + 30 + 10 + 10) / 4 = 17.5
  EXPECT_DOUBLE_EQ(image.RegionMean(0, 0, 2, 2), 17.5);
  EXPECT_DOUBLE_EQ(image.RegionMean(2, 2, 2, 2), 10.0);
}

TEST(GrayImage, RegionMeanClipsToBounds) {
  GrayImage image(4, 4, 50);
  EXPECT_DOUBLE_EQ(image.RegionMean(2, 2, 10, 10), 50.0);
  EXPECT_DOUBLE_EQ(image.RegionMean(-2, -2, 3, 3), 50.0);
  EXPECT_DOUBLE_EQ(image.RegionMean(10, 10, 2, 2), 0.0);  // empty
}

TEST(GrayImage, SerializeRoundTrip) {
  GrayImage image(16, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) {
      image.set(x, y, static_cast<std::uint8_t>((x * 31 + y * 7) % 256));
    }
  }
  std::string bytes;
  image.SerializeTo(&bytes);
  EXPECT_EQ(bytes.size(), image.serialized_size());
  auto decoded = GrayImage::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, image);
}

TEST(GrayImage, DeserializeRejectsGarbage) {
  EXPECT_FALSE(GrayImage::Deserialize("nonsense").ok());
  EXPECT_FALSE(GrayImage::Deserialize("").ok());
  // Valid header but truncated pixel payload.
  GrayImage image(8, 8);
  std::string bytes;
  image.SerializeTo(&bytes);
  bytes.pop_back();
  EXPECT_FALSE(GrayImage::Deserialize(bytes).ok());
}

TEST(GrayImage, PgmRoundTrip) {
  strata::fs::ScopedTempDir dir("pgm");
  GrayImage image(20, 10);
  for (int x = 0; x < 20; ++x) image.set(x, 5, 255);
  const auto path = dir.path() / "test.pgm";
  ASSERT_TRUE(image.SavePgm(path).ok());
  auto loaded = GrayImage::LoadPgm(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, image);
}

TEST(GrayImage, LoadPgmRejectsNonPgm) {
  strata::fs::ScopedTempDir dir("pgm-bad");
  const auto path = dir.path() / "bad.pgm";
  ASSERT_TRUE(strata::fs::WriteFile(path, "P6\n2 2\n255\nxxxx").ok());
  EXPECT_FALSE(GrayImage::LoadPgm(path).ok());
}

TEST(ImageValue, WrapsForPayloadTransport) {
  GrayImage image(4, 4, 9);
  const Value value = MakeImageValue(image);
  EXPECT_EQ(value.kind(), ValueKind::kOpaque);
  const auto unwrapped = value.AsOpaque<ImageValue>();
  EXPECT_EQ(unwrapped->image().at(2, 2), 9);
  EXPECT_EQ(unwrapped->ApproxBytes(), 16u);
  EXPECT_STREQ(unwrapped->TypeName(), "GrayImage");
}

}  // namespace
}  // namespace strata::am
