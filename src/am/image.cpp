#include "am/image.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/codec.hpp"
#include "common/fs.hpp"

namespace strata::am {

namespace {
constexpr std::uint32_t kImageMagic = 0x4f54494d;  // "OTIM"
}

double GrayImage::RegionMean(int x0, int y0, int w, int h) const {
  const int x_begin = std::max(0, x0);
  const int y_begin = std::max(0, y0);
  const int x_end = std::min(width_, x0 + w);
  const int y_end = std::min(height_, y0 + h);
  if (x_begin >= x_end || y_begin >= y_end) return 0.0;

  std::uint64_t sum = 0;
  for (int y = y_begin; y < y_end; ++y) {
    const std::uint8_t* row =
        pixels_.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(width_);
    for (int x = x_begin; x < x_end; ++x) sum += row[x];
  }
  const auto count = static_cast<std::uint64_t>(x_end - x_begin) *
                     static_cast<std::uint64_t>(y_end - y_begin);
  return static_cast<double>(sum) / static_cast<double>(count);
}

void GrayImage::SerializeTo(std::string* out) const {
  out->reserve(out->size() + serialized_size());
  codec::PutFixed32(out, kImageMagic);
  codec::PutFixed32(out, static_cast<std::uint32_t>(width_));
  codec::PutFixed32(out, static_cast<std::uint32_t>(height_));
  out->append(reinterpret_cast<const char*>(pixels_.data()), pixels_.size());
}

Result<GrayImage> GrayImage::Deserialize(std::string_view data) {
  std::uint32_t magic = 0;
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  if (!codec::GetFixed32(&data, &magic) || magic != kImageMagic ||
      !codec::GetFixed32(&data, &width) || !codec::GetFixed32(&data, &height)) {
    return Status::Corruption("GrayImage: bad header");
  }
  if (width == 0 || height == 0 || width > 1u << 16 || height > 1u << 16) {
    return Status::Corruption("GrayImage: implausible dimensions");
  }
  const std::size_t expected =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  if (data.size() != expected) {
    return Status::Corruption("GrayImage: pixel payload size mismatch");
  }
  GrayImage image(static_cast<int>(width), static_cast<int>(height));
  std::copy(data.begin(), data.end(),
            reinterpret_cast<char*>(image.pixels_.data()));
  return image;
}

Status GrayImage::SavePgm(const std::filesystem::path& path) const {
  std::string contents = "P5\n" + std::to_string(width_) + " " +
                         std::to_string(height_) + "\n255\n";
  contents.append(reinterpret_cast<const char*>(pixels_.data()),
                  pixels_.size());
  return strata::fs::WriteFile(path, contents);
}

Result<GrayImage> GrayImage::LoadPgm(const std::filesystem::path& path) {
  auto contents = strata::fs::ReadFile(path);
  if (!contents.ok()) return contents.status();
  const std::string& data = contents.value();

  // Minimal P5 parser: "P5\n<w> <h>\n<maxval>\n<pixels>".
  std::istringstream header(data.substr(0, 64));
  std::string magic;
  int width = 0;
  int height = 0;
  int maxval = 0;
  header >> magic >> width >> height >> maxval;
  if (magic != "P5" || width <= 0 || height <= 0 || maxval != 255) {
    return Status::Corruption("LoadPgm: unsupported header in " +
                              path.string());
  }
  const auto header_end = static_cast<std::size_t>(header.tellg()) + 1;
  const std::size_t expected =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  if (data.size() < header_end + expected) {
    return Status::Corruption("LoadPgm: truncated pixels in " + path.string());
  }
  GrayImage image(width, height);
  std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(header_end), expected,
              reinterpret_cast<char*>(image.pixels_.data()));
  return image;
}

}  // namespace strata::am
