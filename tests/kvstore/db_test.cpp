#include "kvstore/db.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/fs.hpp"

namespace strata::kv {
namespace {

class DbTest : public ::testing::Test {
 protected:
  strata::fs::ScopedTempDir dir_{"db-test"};

  std::unique_ptr<DB> OpenDb(DbOptions options = {}) {
    auto db = DB::Open(dir_.path(), options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }
};

TEST_F(DbTest, PutGetDelete) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k", "v").ok());
  auto got = db->Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v");

  ASSERT_TRUE(db->Delete("k").ok());
  EXPECT_TRUE(db->Get("k").status().IsNotFound());
}

TEST_F(DbTest, GetMissingIsNotFound) {
  auto db = OpenDb();
  EXPECT_TRUE(db->Get("nope").status().IsNotFound());
}

TEST_F(DbTest, OverwriteReturnsLatest) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k", "v1").ok());
  ASSERT_TRUE(db->Put("k", "v2").ok());
  EXPECT_EQ(*db->Get("k"), "v2");
}

TEST_F(DbTest, WriteBatchIsAtomicallyVisible) {
  auto db = OpenDb();
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  ASSERT_TRUE(db->Write(batch).ok());
  EXPECT_TRUE(db->Get("a").status().IsNotFound());
  EXPECT_EQ(*db->Get("b"), "2");
}

TEST_F(DbTest, SnapshotIsolation) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k", "old").ok());
  const SequenceNumber snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put("k", "new").ok());

  auto at_snap = db->Get("k", snap);
  ASSERT_TRUE(at_snap.ok());
  EXPECT_EQ(*at_snap, "old");
  EXPECT_EQ(*db->Get("k"), "new");
  db->ReleaseSnapshot(snap);
}

TEST_F(DbTest, SnapshotSeesDeletesCorrectly) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k", "v").ok());
  const SequenceNumber snap = db->GetSnapshot();
  ASSERT_TRUE(db->Delete("k").ok());
  EXPECT_EQ(*db->Get("k", snap), "v");
  EXPECT_TRUE(db->Get("k").status().IsNotFound());
  db->ReleaseSnapshot(snap);
}

TEST_F(DbTest, FlushPersistsToTable) {
  auto db = OpenDb();
  for (int i = 0; i < 100; ++i) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(db->Put("k" + n, "v" + n).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_GE(db->stats().flushes, 1u);
  EXPECT_GE(db->stats().live_tables, 1u);
  for (int i = 0; i < 100; ++i) {
    const std::string n = std::to_string(i);
    EXPECT_EQ(*db->Get("k" + n), "v" + n);
  }
}

TEST_F(DbTest, GetReadsAcrossMemtableAndTables) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("flushed", "table-value").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put("fresh", "mem-value").ok());
  EXPECT_EQ(*db->Get("flushed"), "table-value");
  EXPECT_EQ(*db->Get("fresh"), "mem-value");
}

TEST_F(DbTest, NewerTableShadowsOlder) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k", "old").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put("k", "new").ok());
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(*db->Get("k"), "new");
}

TEST_F(DbTest, RecoveryFromWalAfterReopen) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("persist", "me").ok());
    ASSERT_TRUE(db->Put("and", "me-too").ok());
  }  // destructor = clean close
  auto db = OpenDb();
  EXPECT_EQ(*db->Get("persist"), "me");
  EXPECT_EQ(*db->Get("and"), "me-too");
}

TEST_F(DbTest, RecoveryPreservesDeletes) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("k", "v").ok());
    ASSERT_TRUE(db->Delete("k").ok());
  }
  auto db = OpenDb();
  EXPECT_TRUE(db->Get("k").status().IsNotFound());
}

TEST_F(DbTest, RecoveryAfterFlushAndMoreWrites) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("a", "1").ok());
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->Put("b", "2").ok());
  }
  auto db = OpenDb();
  EXPECT_EQ(*db->Get("a"), "1");
  EXPECT_EQ(*db->Get("b"), "2");
}

TEST_F(DbTest, SequenceNumbersMonotonicAcrossReopen) {
  SequenceNumber before;
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("x", "1").ok());
    before = db->LastSequence();
  }
  auto db = OpenDb();
  EXPECT_GE(db->LastSequence(), before);
  ASSERT_TRUE(db->Put("y", "2").ok());
  EXPECT_GT(db->LastSequence(), before);
}

TEST_F(DbTest, AutomaticFlushWhenBufferFull) {
  DbOptions options;
  options.write_buffer_bytes = 16 * 1024;
  auto db = OpenDb(options);
  const std::string big_value(1024, 'v');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), big_value).ok());
  }
  // Give the background thread a moment; then everything must still be
  // readable regardless of which layer holds it.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*db->Get("key" + std::to_string(i)), big_value);
  }
  EXPECT_GE(db->stats().flushes, 1u);
}

TEST_F(DbTest, CompactionMergesTables) {
  DbOptions options;
  options.compaction_trigger = 100;  // only manual compaction
  auto db = OpenDb(options);
  for (int round = 0; round < 5; ++round) {
    const std::string r = std::to_string(round);
    for (int i = 0; i < 50; ++i) {
      const std::string n = std::to_string(i);
      ASSERT_TRUE(db->Put("k" + n, "r" + r).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
  }
  EXPECT_GE(db->stats().live_tables, 5u);
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_EQ(db->stats().live_tables, 1u);
  for (int i = 0; i < 50; ++i) {
    const std::string n = std::to_string(i);
    EXPECT_EQ(*db->Get("k" + n), "r4");
  }
}

TEST_F(DbTest, CompactionDropsTombstones) {
  DbOptions options;
  options.compaction_trigger = 100;
  auto db = OpenDb(options);
  for (int i = 0; i < 100; ++i) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(db->Put("k" + n, "v").ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  for (int i = 0; i < 100; ++i) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(db->Delete("k" + n).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactAll().ok());
  // All entries were deleted and no snapshot pins them: the merged table
  // should be empty or absent.
  EXPECT_LE(db->stats().live_tables, 1u);
  for (int i = 0; i < 100; ++i) {
    const std::string n = std::to_string(i);
    EXPECT_TRUE(db->Get("k" + n).status().IsNotFound());
  }
}

TEST_F(DbTest, CompactionRespectsSnapshots) {
  DbOptions options;
  options.compaction_trigger = 100;
  auto db = OpenDb(options);
  ASSERT_TRUE(db->Put("k", "old").ok());
  const SequenceNumber snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put("k", "new").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put("other", "x").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactAll().ok());

  EXPECT_EQ(*db->Get("k", snap), "old");
  EXPECT_EQ(*db->Get("k"), "new");
  db->ReleaseSnapshot(snap);
}

TEST_F(DbTest, IteratorScansSortedAndDeduplicated) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("b", "2").ok());
  ASSERT_TRUE(db->Put("a", "1").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Put("c", "3").ok());
  ASSERT_TRUE(db->Put("a", "1-updated").ok());
  ASSERT_TRUE(db->Delete("b").ok());

  auto it = db->NewIterator();
  std::vector<std::pair<std::string, std::string>> seen;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    seen.emplace_back(std::string(it->key()), std::string(it->value()));
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<std::string, std::string>{"a", "1-updated"}));
  EXPECT_EQ(seen[1], (std::pair<std::string, std::string>{"c", "3"}));
}

TEST_F(DbTest, IteratorSeekPositions) {
  auto db = OpenDb();
  for (const char* k : {"apple", "banana", "cherry"}) {
    ASSERT_TRUE(db->Put(k, k).ok());
  }
  auto it = db->NewIterator();
  it->Seek("b");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "banana");
  it->Seek("cherry");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "cherry");
  it->Seek("zzz");
  EXPECT_FALSE(it->Valid());
}

TEST_F(DbTest, IteratorAtSnapshotIgnoresLaterWrites) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("a", "1").ok());
  const SequenceNumber snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put("b", "2").ok());
  ASSERT_TRUE(db->Put("a", "1b").ok());

  auto it = db->NewIterator(snap);
  std::vector<std::pair<std::string, std::string>> seen;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    seen.emplace_back(std::string(it->key()), std::string(it->value()));
  }
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].second, "1");
  db->ReleaseSnapshot(snap);
}

TEST_F(DbTest, EmptyKeyAndValue) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("", "empty-key").ok());
  ASSERT_TRUE(db->Put("empty-value", "").ok());
  EXPECT_EQ(*db->Get(""), "empty-key");
  EXPECT_EQ(*db->Get("empty-value"), "");
}

TEST_F(DbTest, BinaryKeysAndValues) {
  auto db = OpenDb();
  const std::string key("\x00\x01\xff\x7f", 4);
  const std::string value("\xde\xad\x00\xbe\xef", 5);
  ASSERT_TRUE(db->Put(key, value).ok());
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(*db->Get(key), value);
}

TEST_F(DbTest, ConcurrentReadersWithWriter) {
  auto db = OpenDb();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      const std::string n = std::to_string(i % 50);
      ASSERT_TRUE(db->Put("k" + n, std::to_string(i)).ok());
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto result = db->Get("k25");
        if (result.ok()) {
          EXPECT_FALSE(result->empty());
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
}

TEST_F(DbTest, StatsTrackOperations) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("a", "1").ok());
  ASSERT_TRUE(db->Delete("a").ok());
  (void)db->Get("a");
  const DbStats stats = db->stats();
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_GE(stats.gets, 1u);
}

}  // namespace
}  // namespace strata::kv
