// 8-bit gray-scale image: the Optical Tomography (OT) frame format. The real
// system captures 2000x2000 px long-exposure images of the 250x250 mm build
// area per layer (paper §5); the simulator produces the same shape at a
// configurable resolution.
//
// Images travel through the SPE as shared immutable objects (OpaqueValue) to
// avoid copying megabytes per tuple, serialize to/from bytes for the tuple
// codec (spe/codec.hpp: connectors, checkpoints, the durable sink), and to
// PGM files for visual inspection (Figure 4).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/value.hpp"

namespace strata::am {

class GrayImage {
 public:
  GrayImage() = default;
  GrayImage(int width, int height, std::uint8_t fill = 0)
      : width_(width), height_(height) {
    if (width <= 0 || height <= 0) {
      throw std::invalid_argument("GrayImage: non-positive dimensions");
    }
    pixels_.assign(
        static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
        fill);
  }

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return pixels_.size();
  }

  [[nodiscard]] std::uint8_t at(int x, int y) const {
    return pixels_[Index(x, y)];
  }
  void set(int x, int y, std::uint8_t v) { pixels_[Index(x, y)] = v; }

  [[nodiscard]] const std::vector<std::uint8_t>& pixels() const noexcept {
    return pixels_;
  }
  [[nodiscard]] std::vector<std::uint8_t>& pixels() noexcept { return pixels_; }

  /// Mean intensity over the rectangle [x0, x0+w) x [y0, y0+h), clipped to
  /// the image bounds. Returns 0 for an empty intersection.
  [[nodiscard]] double RegionMean(int x0, int y0, int w, int h) const;

  /// Serialization: fixed header (magic, width, height) + raw pixels,
  /// appended straight into *out (no frame-sized temporary).
  static constexpr std::size_t kSerializedHeaderBytes = 12;
  [[nodiscard]] std::size_t serialized_size() const noexcept {
    return kSerializedHeaderBytes + pixels_.size();
  }
  void SerializeTo(std::string* out) const;
  [[nodiscard]] static Result<GrayImage> Deserialize(std::string_view data);

  /// Binary PGM (P5) I/O for human inspection.
  [[nodiscard]] Status SavePgm(const std::filesystem::path& path) const;
  [[nodiscard]] static Result<GrayImage> LoadPgm(
      const std::filesystem::path& path);

  friend bool operator==(const GrayImage&, const GrayImage&) = default;

 private:
  [[nodiscard]] std::size_t Index(int x, int y) const {
    if (x < 0 || x >= width_ || y < 0 || y >= height_) {
      throw std::out_of_range("GrayImage: (" + std::to_string(x) + "," +
                              std::to_string(y) + ") outside " +
                              std::to_string(width_) + "x" +
                              std::to_string(height_));
    }
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> pixels_;
};

/// Wraps a shared image for zero-copy transport inside SPE tuples.
class ImageValue final : public OpaqueValue {
 public:
  explicit ImageValue(GrayImage image) : image_(std::move(image)) {}
  [[nodiscard]] const char* TypeName() const noexcept override {
    return "GrayImage";
  }
  [[nodiscard]] std::size_t ApproxBytes() const noexcept override {
    return image_.size_bytes();
  }
  [[nodiscard]] const GrayImage& image() const noexcept { return image_; }

 private:
  GrayImage image_;
};

/// Convenience: wrap an image as a payload Value.
[[nodiscard]] inline Value MakeImageValue(GrayImage image) {
  return Value(OpaqueRef(std::make_shared<const ImageValue>(std::move(image))));
}

}  // namespace strata::am
