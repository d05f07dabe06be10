#include "common/crc32.hpp"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define STRATA_CRC32C_SSE42 1
#endif

namespace strata {

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected CRC-32C

constexpr std::array<std::uint32_t, 256> MakeTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = MakeTable();

using Kernel = std::uint32_t (*)(std::string_view, std::uint32_t) noexcept;

#ifdef STRATA_CRC32C_SSE42
// Compiled for SSE4.2 on its own, so the rest of the binary needs no
// -msse4.2; only called once the CPU is known to have it.
__attribute__((target("sse4.2"))) std::uint32_t Sse42(
    std::string_view data, std::uint32_t seed) noexcept {
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));  // no UB on unaligned input
    crc = _mm_crc32_u64(crc, word);
  }
  auto tail = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    tail = _mm_crc32_u8(tail, static_cast<unsigned char>(*p));
  }
  return ~tail;
}
#endif

Kernel PickKernel() noexcept {
#ifdef STRATA_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &Sse42;
#endif
  return &crc32_internal::Crc32cTable;
}

// A function-local static, not a namespace-scope one: other translation
// units checksum during their own static initialisation.
Kernel ActiveKernel() noexcept {
  static const Kernel kernel = PickKernel();
  return kernel;
}

}  // namespace

std::uint32_t Crc32c(std::string_view data, std::uint32_t seed) noexcept {
  return ActiveKernel()(data, seed);
}

namespace crc32_internal {

std::uint32_t Crc32cTable(std::string_view data, std::uint32_t seed) noexcept {
  std::uint32_t crc = ~seed;
  for (const char c : data) {
    crc = kTable[(crc ^ static_cast<unsigned char>(c)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

bool HardwareActive() noexcept {
  return ActiveKernel() != &Crc32cTable;
}

}  // namespace crc32_internal

}  // namespace strata
