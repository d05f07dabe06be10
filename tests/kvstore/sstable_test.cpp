#include "kvstore/sstable.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/fs.hpp"
#include "common/rng.hpp"

namespace strata::kv {
namespace {

class SSTableTest : public ::testing::Test {
 protected:
  strata::fs::ScopedTempDir dir_{"sst-test"};
  std::filesystem::path TablePath() const { return dir_.path() / "t.sst"; }

  /// Build a table from (user_key -> value) with sequence 1..n in key order.
  std::shared_ptr<Table> BuildTable(
      const std::map<std::string, std::string>& entries,
      std::size_t block_size = 256) {
    TableBuilder builder(block_size);
    SequenceNumber seq = 1;
    for (const auto& [key, value] : entries) {
      builder.Add(MakeInternalKey(key, seq++, EntryType::kPut), value);
    }
    FileMeta meta;
    EXPECT_TRUE(builder.Finish(TablePath(), &meta).ok());
    auto table = Table::Open(TablePath());
    EXPECT_TRUE(table.ok());
    return std::move(table).value();
  }
};

TEST_F(SSTableTest, PointLookups) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 1000; ++i) {
    entries["key-" + std::to_string(10'000 + i)] = "value-" + std::to_string(i);
  }
  auto table = BuildTable(entries);
  EXPECT_EQ(table->entry_count(), 1000u);

  for (const auto& [key, value] : entries) {
    std::string got;
    bool deleted = false;
    Status error;
    ASSERT_TRUE(table->Get(key, kMaxSequenceNumber, &got, &deleted, &error))
        << key;
    EXPECT_TRUE(error.ok());
    EXPECT_FALSE(deleted);
    EXPECT_EQ(got, value);
  }
}

TEST_F(SSTableTest, MissingKeysNotFound) {
  std::map<std::string, std::string> entries{{"b", "1"}, {"d", "2"}};
  auto table = BuildTable(entries);
  for (const char* key : {"a", "c", "e"}) {
    std::string got;
    bool deleted = false;
    Status error;
    EXPECT_FALSE(table->Get(key, kMaxSequenceNumber, &got, &deleted, &error));
    EXPECT_TRUE(error.ok());
  }
}

TEST_F(SSTableTest, SnapshotVisibility) {
  TableBuilder builder(256);
  // Newest first within a user key (internal key order).
  builder.Add(MakeInternalKey("k", 10, EntryType::kPut), "v10");
  builder.Add(MakeInternalKey("k", 5, EntryType::kPut), "v5");
  FileMeta meta;
  ASSERT_TRUE(builder.Finish(TablePath(), &meta).ok());
  auto table_result = Table::Open(TablePath());
  ASSERT_TRUE(table_result.ok());
  auto table = std::move(table_result).value();

  std::string got;
  bool deleted = false;
  Status error;
  ASSERT_TRUE(table->Get("k", 20, &got, &deleted, &error));
  EXPECT_EQ(got, "v10");
  ASSERT_TRUE(table->Get("k", 7, &got, &deleted, &error));
  EXPECT_EQ(got, "v5");
  EXPECT_FALSE(table->Get("k", 3, &got, &deleted, &error));
}

TEST_F(SSTableTest, TombstoneVisible) {
  TableBuilder builder(256);
  builder.Add(MakeInternalKey("k", 10, EntryType::kDelete), "");
  builder.Add(MakeInternalKey("k", 5, EntryType::kPut), "v5");
  FileMeta meta;
  ASSERT_TRUE(builder.Finish(TablePath(), &meta).ok());
  auto table = std::move(Table::Open(TablePath())).value();

  std::string got;
  bool deleted = false;
  Status error;
  ASSERT_TRUE(table->Get("k", 20, &got, &deleted, &error));
  EXPECT_TRUE(deleted);
}

TEST_F(SSTableTest, IteratorFullScanIsSorted) {
  std::map<std::string, std::string> entries;
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    const std::string n = std::to_string(rng.UniformInt(0, 1'000'000'000));
    entries["k" + n] = std::to_string(i);
  }
  auto table = BuildTable(entries);

  auto it = table->NewIterator();
  auto expected = entries.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(ExtractUserKey(it->key()), expected->first);
    EXPECT_EQ(it->value(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(it->status().ok());
}

TEST_F(SSTableTest, IteratorSeek) {
  std::map<std::string, std::string> entries{
      {"apple", "1"}, {"banana", "2"}, {"cherry", "3"}};
  auto table = BuildTable(entries);
  auto it = table->NewIterator();
  it->Seek(MakeInternalKey("b", kMaxSequenceNumber, EntryType::kPut));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()), "banana");
  it->Seek(MakeInternalKey("zebra", kMaxSequenceNumber, EntryType::kPut));
  EXPECT_FALSE(it->Valid());
}

TEST_F(SSTableTest, FileMetaBounds) {
  TableBuilder builder(256);
  const std::string first = MakeInternalKey("aaa", 1, EntryType::kPut);
  const std::string last = MakeInternalKey("zzz", 2, EntryType::kPut);
  builder.Add(first, "1");
  builder.Add(last, "2");
  FileMeta meta;
  ASSERT_TRUE(builder.Finish(TablePath(), &meta).ok());
  EXPECT_EQ(meta.smallest, first);
  EXPECT_EQ(meta.largest, last);
  EXPECT_EQ(meta.entry_count, 2u);
  EXPECT_EQ(meta.file_size, std::filesystem::file_size(TablePath()));
}

TEST_F(SSTableTest, CorruptBlockDetected) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 200; ++i) {
    entries["key-" + std::to_string(1000 + i)] = std::string(50, 'v');
  }
  {
    auto table = BuildTable(entries);
  }
  // Flip a byte early in the file (inside the first data block).
  auto contents = strata::fs::ReadFile(TablePath());
  ASSERT_TRUE(contents.ok());
  std::string data = std::move(contents).value();
  data[20] = static_cast<char>(data[20] ^ 0xff);
  ASSERT_TRUE(strata::fs::WriteFile(TablePath(), data).ok());

  // Open re-validates all blocks and must fail.
  EXPECT_FALSE(Table::Open(TablePath()).ok());
}

TEST_F(SSTableTest, BadMagicRejected) {
  std::map<std::string, std::string> entries{{"k", "v"}};
  { auto table = BuildTable(entries); }
  auto contents = strata::fs::ReadFile(TablePath());
  ASSERT_TRUE(contents.ok());
  std::string data = std::move(contents).value();
  data[data.size() - 1] = static_cast<char>(data[data.size() - 1] ^ 0xff);
  ASSERT_TRUE(strata::fs::WriteFile(TablePath(), data).ok());
  auto result = Table::Open(TablePath());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST_F(SSTableTest, TruncatedFileRejected) {
  ASSERT_TRUE(strata::fs::WriteFile(TablePath(), "tiny").ok());
  EXPECT_FALSE(Table::Open(TablePath()).ok());
}

TEST_F(SSTableTest, ManyBlocksSmallBlockSize) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 500; ++i) {
    entries["key-" + std::to_string(10'000 + i)] = std::string(100, 'x');
  }
  auto table = BuildTable(entries, /*block_size=*/128);
  EXPECT_EQ(table->entry_count(), 500u);
  std::string got;
  bool deleted = false;
  Status error;
  EXPECT_TRUE(
      table->Get("key-10250", kMaxSequenceNumber, &got, &deleted, &error));
}

}  // namespace
}  // namespace strata::kv
