#include "pubsub/log.hpp"

#include <gtest/gtest.h>

#include "common/codec.hpp"
#include "common/crc32.hpp"
#include "common/fs.hpp"
#include "fault/failpoint.hpp"

namespace strata::ps {
namespace {

Record MakeRecord(const std::string& key, const std::string& value,
                  Timestamp ts = 0) {
  Record r;
  r.key = key;
  r.value = value;
  r.timestamp = ts;
  return r;
}

TEST(RecordCodec, RoundTrip) {
  Record r = MakeRecord("key", "value", 123456);
  std::string buf;
  EncodeRecord(r, &buf);
  std::string_view in(buf);
  Record out;
  ASSERT_TRUE(DecodeRecord(&in, &out).ok());
  EXPECT_EQ(out.key, "key");
  EXPECT_EQ(out.value, "value");
  EXPECT_EQ(out.timestamp, 123456);
  EXPECT_TRUE(in.empty());
}

TEST(RecordCodec, RejectsTruncation) {
  Record r = MakeRecord("key", "value", 1);
  std::string buf;
  EncodeRecord(r, &buf);
  std::string_view in(buf.data(), buf.size() - 1);
  Record out;
  EXPECT_FALSE(DecodeRecord(&in, &out).ok());
}

TEST(PartitionLog, InMemoryAppendRead) {
  auto log = std::move(PartitionLog::Open({})).value();
  for (int i = 0; i < 10; ++i) {
    auto offset = log->Append(MakeRecord("k", std::to_string(i)));
    ASSERT_TRUE(offset.ok());
    EXPECT_EQ(*offset, i);
  }
  EXPECT_EQ(log->EndOffset(), 10);
  EXPECT_EQ(log->StartOffset(), 0);

  std::vector<Record> records;
  std::int64_t next = 0;
  ASSERT_TRUE(log->ReadFrom(3, 4, &records, &next).ok());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].value, "3");
  EXPECT_EQ(records[3].value, "6");
  EXPECT_EQ(next, 7);
}

TEST(PartitionLog, ReadPastEndReturnsEmpty) {
  auto log = std::move(PartitionLog::Open({})).value();
  ASSERT_TRUE(log->Append(MakeRecord("", "x")).ok());
  std::vector<Record> records;
  std::int64_t next = 0;
  ASSERT_TRUE(log->ReadFrom(1, 10, &records, &next).ok());
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(next, 1);
}

TEST(PartitionLog, RetentionTrimsOldRecords) {
  LogOptions options;
  options.retention_records = 5;
  auto log = std::move(PartitionLog::Open(options)).value();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(log->Append(MakeRecord("", std::to_string(i))).ok());
  }
  EXPECT_EQ(log->StartOffset(), 7);
  EXPECT_EQ(log->EndOffset(), 12);

  std::vector<Record> records;
  std::int64_t next = 0;
  EXPECT_FALSE(log->ReadFrom(3, 10, &records, &next).ok());  // below horizon
  ASSERT_TRUE(log->ReadFrom(7, 10, &records, &next).ok());
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[0].value, "7");
}

TEST(PartitionLog, CloseUnblocksWaitersAndRejectsAppends) {
  auto log = std::move(PartitionLog::Open({})).value();
  log->Close();
  EXPECT_TRUE(log->Append(MakeRecord("", "x")).status().IsClosed());
}

TEST(PartitionLog, PersistenceReloadsRecords) {
  strata::fs::ScopedTempDir dir("pslog");
  LogOptions options;
  options.dir = dir.path() / "p0";
  {
    auto log = std::move(PartitionLog::Open(options)).value();
    for (int i = 0; i < 100; ++i) {
      const std::string n = std::to_string(i);
      ASSERT_TRUE(log->Append(MakeRecord("k" + n, "v" + n, i)).ok());
    }
  }
  auto log = std::move(PartitionLog::Open(options)).value();
  EXPECT_EQ(log->EndOffset(), 100);
  std::vector<Record> records;
  std::int64_t next = 0;
  ASSERT_TRUE(log->ReadFrom(0, 200, &records, &next).ok());
  ASSERT_EQ(records.size(), 100u);
  EXPECT_EQ(records[42].key, "k42");
  EXPECT_EQ(records[42].value, "v42");
  EXPECT_EQ(records[42].timestamp, 42);
}

TEST(PartitionLog, PersistenceRollsSegments) {
  strata::fs::ScopedTempDir dir("pslog-roll");
  LogOptions options;
  options.dir = dir.path() / "p0";
  options.segment_bytes = 256;  // tiny: force many segments
  {
    auto log = std::move(PartitionLog::Open(options)).value();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(log->Append(MakeRecord("", std::string(64, 'x'))).ok());
    }
  }
  int segment_count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(options.dir)) {
    if (entry.path().extension() == ".seg") ++segment_count;
  }
  EXPECT_GT(segment_count, 5);

  auto log = std::move(PartitionLog::Open(options)).value();
  EXPECT_EQ(log->EndOffset(), 50);
}

TEST(PartitionLog, PersistenceToleratesTornTail) {
  strata::fs::ScopedTempDir dir("pslog-torn");
  LogOptions options;
  options.dir = dir.path() / "p0";
  {
    auto log = std::move(PartitionLog::Open(options)).value();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(log->Append(MakeRecord("", std::to_string(i))).ok());
    }
  }
  // Truncate the single segment mid-record.
  std::filesystem::path segment;
  for (const auto& entry : std::filesystem::directory_iterator(options.dir)) {
    if (entry.path().extension() == ".seg") segment = entry.path();
  }
  ASSERT_FALSE(segment.empty());
  std::filesystem::resize_file(segment,
                               std::filesystem::file_size(segment) - 3);

  auto log = std::move(PartitionLog::Open(options)).value();
  EXPECT_EQ(log->EndOffset(), 9);  // last record dropped, rest intact
}

// --- segment format golden bytes ---------------------------------------------
//
// The expected bytes are built from the codec primitives alone, so these
// tests pin the on-disk format however the log assembles an entry.

/// One segment entry: masked_crc32c(4) | length(4) | varint timestamp |
/// length-prefixed key | length-prefixed value.
std::string SegmentEntry(const std::string& key, const std::string& value,
                         Timestamp ts) {
  std::string body;
  codec::PutVarint64Signed(&body, ts);
  codec::PutLengthPrefixed(&body, key);
  codec::PutLengthPrefixed(&body, value);
  std::string entry;
  codec::PutFixed32(&entry, MaskCrc(Crc32c(body)));
  codec::PutFixed32(&entry, static_cast<std::uint32_t>(body.size()));
  entry.append(body);
  return entry;
}

/// The contents of the only segment file under `dir`.
std::string OnlySegment(const std::filesystem::path& dir) {
  std::filesystem::path segment;
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") {
      segment = entry.path();
      ++count;
    }
  }
  EXPECT_EQ(count, 1);
  auto contents = strata::fs::ReadFile(segment);
  EXPECT_TRUE(contents.ok());
  return contents.ok() ? *contents : std::string();
}

/// A value that takes every byte value, 0 included.
std::string BinaryValue(std::size_t n) {
  std::string value(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    value[i] = static_cast<char>((i * 131 + i / 256) & 0xff);
  }
  return value;
}

TEST(PartitionLog, SegmentBytesAreTheDocumentedFormat) {
  strata::fs::ScopedTempDir dir("pslog-golden");
  LogOptions options;
  options.dir = dir.path() / "p0";
  const std::string big = BinaryValue(70'000);
  const std::string long_key = "a key longer than the short string buffer";
  auto log = std::move(PartitionLog::Open(options)).value();
  ASSERT_TRUE(log->Append(MakeRecord("", "v0", 0)).ok());
  ASSERT_TRUE(log->Append(MakeRecord("key-1", big, -7)).ok());
  ASSERT_TRUE(
      log->Append(MakeRecord(long_key, std::string("\0\xff", 2), 1'700'000'000'000))
          .ok());
  ASSERT_TRUE(log->Append(MakeRecord("empty-value", "", 5)).ok());

  const std::string expected =
      SegmentEntry("", "v0", 0) + SegmentEntry("key-1", big, -7) +
      SegmentEntry(long_key, std::string("\0\xff", 2), 1'700'000'000'000) +
      SegmentEntry("empty-value", "", 5);
  const std::string written = OnlySegment(options.dir);
  EXPECT_EQ(written.size(), expected.size());
  EXPECT_TRUE(written == expected);
  // The first entry byte for byte: CRC, length 5, then ts 0, key "", "v0".
  const std::string first = SegmentEntry("", "v0", 0);
  EXPECT_EQ(written.substr(4, 9),
            std::string("\x05\x00\x00\x00\x00\x00\x02v0", 9));
  EXPECT_EQ(written.substr(0, first.size()), first);
}

TEST(PartitionLog, TornSegmentAppendPersistsExactlyNBytes) {
  const std::string value = BinaryValue(1'000);
  const std::string entry = SegmentEntry("key", value, 9);
  // Inside the 8-byte CRC/length header, inside the record head, and inside
  // the value.
  for (const std::size_t cut : {std::size_t{3}, std::size_t{11},
                                std::size_t{500}}) {
    strata::fs::ScopedTempDir dir("pslog-torn-append");
    LogOptions options;
    options.dir = dir.path() / "p0";
    {
      auto log = std::move(PartitionLog::Open(options)).value();
      ASSERT_TRUE(log->Append(MakeRecord("", "before", 1)).ok());
      fault::Activate("segment.append",
                      fault::Action{fault::ActionKind::kTornWrite,
                                    static_cast<std::int64_t>(cut), 1.0, 1});
      EXPECT_FALSE(log->Append(MakeRecord("key", value, 9)).ok());
      fault::DeactivateAll();
    }
    const std::string written = OnlySegment(options.dir);
    const std::string before = SegmentEntry("", "before", 1);
    ASSERT_EQ(written.size(), before.size() + cut) << "cut " << cut;
    EXPECT_EQ(written.substr(before.size()), entry.substr(0, cut))
        << "cut " << cut;
    // Recovery drops the torn tail and keeps the record before it.
    auto log = std::move(PartitionLog::Open(options)).value();
    EXPECT_EQ(log->EndOffset(), 1) << "cut " << cut;
  }
}

TEST(PartitionLog, AppendsContinueAfterReload) {
  strata::fs::ScopedTempDir dir("pslog-cont");
  LogOptions options;
  options.dir = dir.path() / "p0";
  {
    auto log = std::move(PartitionLog::Open(options)).value();
    ASSERT_TRUE(log->Append(MakeRecord("", "before")).ok());
  }
  {
    auto log = std::move(PartitionLog::Open(options)).value();
    auto offset = log->Append(MakeRecord("", "after"));
    ASSERT_TRUE(offset.ok());
    EXPECT_EQ(*offset, 1);
  }
  auto log = std::move(PartitionLog::Open(options)).value();
  EXPECT_EQ(log->EndOffset(), 2);
  std::vector<Record> records;
  std::int64_t next = 0;
  ASSERT_TRUE(log->ReadFrom(0, 10, &records, &next).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].value, "before");
  EXPECT_EQ(records[1].value, "after");
}

TEST(PartitionLog, TruncateToDropsTailInMemory) {
  auto log = std::move(PartitionLog::Open({})).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(log->Append(MakeRecord("", std::to_string(i))).ok());
  }
  ASSERT_TRUE(log->TruncateTo(6).ok());
  EXPECT_EQ(log->EndOffset(), 6);
  std::vector<Record> records;
  std::int64_t next = 0;
  ASSERT_TRUE(log->ReadFrom(0, 20, &records, &next).ok());
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records.back().value, "5");

  // Appends renumber from the truncation point.
  auto offset = log->Append(MakeRecord("", "new6"));
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, 6);

  // At/after the end: no-op. Negative: rejected.
  EXPECT_TRUE(log->TruncateTo(7).ok());
  EXPECT_EQ(log->EndOffset(), 7);
  EXPECT_FALSE(log->TruncateTo(-1).ok());
}

TEST(PartitionLog, TruncateToRewritesSegments) {
  strata::fs::ScopedTempDir dir("pslog-trunc");
  LogOptions options;
  options.dir = dir.path() / "p0";
  options.segment_bytes = 256;  // several segments, cut mid-segment
  {
    auto log = std::move(PartitionLog::Open(options)).value();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          log->Append(MakeRecord("", "v" + std::string(60, 'x'))).ok());
    }
    ASSERT_TRUE(log->TruncateTo(17).ok());
    EXPECT_EQ(log->EndOffset(), 17);
    EXPECT_FALSE(log->degraded());
  }
  // Reopen: the surviving prefix (and only it) comes back from disk.
  auto log = std::move(PartitionLog::Open(options)).value();
  EXPECT_EQ(log->EndOffset(), 17);
  auto offset = log->Append(MakeRecord("", "after"));
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, 17);
}

TEST(PartitionLog, TruncateBelowRetainedPrefixDegrades) {
  strata::fs::ScopedTempDir dir("pslog-trunc-ret");
  LogOptions options;
  options.dir = dir.path() / "p0";
  options.retention_records = 5;  // memory holds only the last 5
  auto log = std::move(PartitionLog::Open(options)).value();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(log->Append(MakeRecord("", std::to_string(i))).ok());
  }
  // The prefix [0, 15) is no longer in memory: a persistent rewrite would
  // leave a hole, so the log stays correct but degrades to memory-only.
  ASSERT_TRUE(log->TruncateTo(18).ok());
  EXPECT_EQ(log->EndOffset(), 18);
  EXPECT_TRUE(log->degraded());
}

}  // namespace
}  // namespace strata::ps
