#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <string_view>

namespace strata {
namespace {

using crc32_internal::Crc32cTable;

/// Bytes 0..31 in ascending or descending order (RFC 3720 B.4).
std::string Ramp(bool ascending) {
  std::string out;
  for (int i = 0; i < 32; ++i) {
    out.push_back(static_cast<char>(ascending ? i : 31 - i));
  }
  return out;
}

TEST(Crc32c, KnownVectors) {
  // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  // RFC 3720 appendix B.4 test vectors.
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(Ramp(true)), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(Ramp(false)), 0x113FDB5Cu);
}

TEST(Crc32c, EmptyInput) { EXPECT_EQ(Crc32c(""), 0u); }

TEST(Crc32c, DifferentInputsDiffer) {
  EXPECT_NE(Crc32c("hello"), Crc32c("hellp"));
  EXPECT_NE(Crc32c("a"), Crc32c("aa"));
}

TEST(Crc32c, SingleBitFlipDetected) {
  std::string data(128, 'x');
  const std::uint32_t base = Crc32c(data);
  for (std::size_t byte : {0u, 64u, 127u}) {
    std::string corrupted = data;
    corrupted[byte] = static_cast<char>(corrupted[byte] ^ 0x01);
    EXPECT_NE(Crc32c(corrupted), base) << "byte " << byte;
  }
}

TEST(Crc32c, MaskUnmaskRoundTrip) {
  for (std::uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
  }
}

TEST(Crc32c, MaskChangesValue) {
  EXPECT_NE(MaskCrc(0x12345678u), 0x12345678u);
}

// ------------------------------------------- hardware kernel vs table loop

TEST(Crc32c, HardwareKernelIsActive) {
  // Without it the equivalence tests below compare the table loop with
  // itself; this case makes that visible instead of passing silently.
  if (!crc32_internal::HardwareActive()) {
    GTEST_SKIP() << "no hardware CRC-32C kernel on this CPU; Crc32c runs "
                    "the table loop";
  }
  SUCCEED();
}

TEST(Crc32c, MatchesTableLoopOverLengthsOffsetsAndSeeds) {
  std::mt19937_64 gen(7);
  std::string buf(64 + 9000, '\0');
  for (char& c : buf) c = static_cast<char>(gen() & 0xff);
  std::uniform_int_distribution<std::size_t> length(0, 9000);
  std::uniform_int_distribution<std::size_t> offset(0, 63);
  for (int i = 0; i < 2000; ++i) {
    const std::string_view data(buf.data() + offset(gen), length(gen));
    const auto seed = static_cast<std::uint32_t>(gen());
    ASSERT_EQ(Crc32c(data, seed), Crc32cTable(data, seed))
        << "length " << data.size() << " offset " << (data.data() - buf.data())
        << " seed " << seed;
  }
  // Every short length and alignment, where the word loop hands over to
  // the byte tail.
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 40; ++len) {
      const std::string_view data(buf.data() + off, len);
      ASSERT_EQ(Crc32c(data, 0x9e3779b9u), Crc32cTable(data, 0x9e3779b9u))
          << "length " << len << " offset " << off;
    }
  }
}

TEST(Crc32c, ChainedFormMatchesTableLoop) {
  // net/frame.cpp checksums the header fields, then chains the payload
  // from that crc: Crc32c(payload, Crc32c(fields)).
  std::mt19937_64 gen(11);
  std::string buf(4096 + 64, '\0');
  for (char& c : buf) c = static_cast<char>(gen() & 0xff);
  std::uniform_int_distribution<std::size_t> length(0, 4096);
  for (int i = 0; i < 500; ++i) {
    const std::string_view fields(buf.data() + (gen() % 8), 24);
    const std::string_view payload(buf.data() + (gen() % 64), length(gen));
    EXPECT_EQ(Crc32c(payload, Crc32c(fields)),
              Crc32cTable(payload, Crc32cTable(fields)));
    // Chaining is concatenation: the split point does not matter.
    std::string whole(fields);
    whole.append(payload);
    EXPECT_EQ(Crc32c(payload, Crc32c(fields)), Crc32c(whole));
  }
}

TEST(Crc32c, FourMiBGoldenValues) {
  // A 4 MiB frame-sized buffer; the values were computed by the table loop
  // alone, before Crc32c had a hardware kernel.
  std::mt19937_64 gen(20221025);
  std::string buf(std::size_t{4} << 20, '\0');
  for (char& c : buf) c = static_cast<char>(gen() & 0xff);
  EXPECT_EQ(Crc32c(buf), 0xF1B5A77Bu);
  EXPECT_EQ(Crc32c(buf, 0x12345678u), 0xB9C17A0Bu);
  EXPECT_EQ(Crc32cTable(buf), 0xF1B5A77Bu);
}

}  // namespace
}  // namespace strata
