// CRC-32C (Castagnoli polynomial) used to checksum WAL records, SSTable
// blocks, pub/sub segment entries, wire frames, tuples and checkpoints.
//
// On an x86-64 CPU with SSE4.2, Crc32c runs the crc32 instruction over
// 8-byte words; the kernel is chosen once, at the first call, so the binary
// still runs on any x86-64. Every other CPU, and every non-x86 build
// (aarch64 included), runs the software table loop. Both give the same
// value, so nothing on disk or on the wire depends on the CPU.
#pragma once

#include <cstdint>
#include <string_view>

namespace strata {

/// CRC-32C of `data`, optionally chained from a previous crc.
[[nodiscard]] std::uint32_t Crc32c(std::string_view data,
                                   std::uint32_t seed = 0) noexcept;

/// Masked CRC (as in LevelDB): protects against CRC-of-CRC patterns when a
/// checksum is itself stored in checksummed data.
[[nodiscard]] constexpr std::uint32_t MaskCrc(std::uint32_t crc) noexcept {
  constexpr std::uint32_t kMaskDelta = 0xa282ead8u;
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

[[nodiscard]] constexpr std::uint32_t UnmaskCrc(std::uint32_t masked) noexcept {
  constexpr std::uint32_t kMaskDelta = 0xa282ead8u;
  const std::uint32_t rot = masked - kMaskDelta;
  return (rot >> 17) | (rot << 15);
}

/// For tests and benchmarks only; production code calls Crc32c.
namespace crc32_internal {

/// The table loop Crc32c falls back to, callable on any CPU.
[[nodiscard]] std::uint32_t Crc32cTable(std::string_view data,
                                        std::uint32_t seed = 0) noexcept;

/// Whether Crc32c runs the hardware kernel on this CPU.
[[nodiscard]] bool HardwareActive() noexcept;

}  // namespace crc32_internal

}  // namespace strata
