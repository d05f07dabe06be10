#include "kvstore/memtable.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"

namespace strata::kv {
namespace {

TEST(MemTable, PutThenGet) {
  MemTable mem;
  mem.Add(1, EntryType::kPut, "key", "value");
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get("key", 10, &value, &deleted));
  EXPECT_FALSE(deleted);
  EXPECT_EQ(value, "value");
}

TEST(MemTable, MissingKeyNotFound) {
  MemTable mem;
  mem.Add(1, EntryType::kPut, "key", "value");
  std::string value;
  bool deleted = false;
  EXPECT_FALSE(mem.Get("other", 10, &value, &deleted));
}

TEST(MemTable, SnapshotHidesNewerVersions) {
  MemTable mem;
  mem.Add(5, EntryType::kPut, "k", "v5");
  mem.Add(10, EntryType::kPut, "k", "v10");
  std::string value;
  bool deleted = false;

  ASSERT_TRUE(mem.Get("k", 20, &value, &deleted));
  EXPECT_EQ(value, "v10");

  ASSERT_TRUE(mem.Get("k", 7, &value, &deleted));
  EXPECT_EQ(value, "v5");

  EXPECT_FALSE(mem.Get("k", 4, &value, &deleted));  // before first write
}

TEST(MemTable, TombstoneReported) {
  MemTable mem;
  mem.Add(1, EntryType::kPut, "k", "v");
  mem.Add(2, EntryType::kDelete, "k", "");
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get("k", 10, &value, &deleted));
  EXPECT_TRUE(deleted);
  // At snapshot 1 the put is still visible.
  ASSERT_TRUE(mem.Get("k", 1, &value, &deleted));
  EXPECT_FALSE(deleted);
  EXPECT_EQ(value, "v");
}

TEST(MemTable, EmptyValueAllowed) {
  MemTable mem;
  mem.Add(1, EntryType::kPut, "k", "");
  std::string value = "sentinel";
  bool deleted = false;
  ASSERT_TRUE(mem.Get("k", 1, &value, &deleted));
  EXPECT_FALSE(deleted);
  EXPECT_TRUE(value.empty());
}

TEST(MemTable, LargeValues) {
  MemTable mem;
  const std::string big(1 << 20, 'x');
  mem.Add(1, EntryType::kPut, "big", big);
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get("big", 1, &value, &deleted));
  EXPECT_EQ(value, big);
  EXPECT_GE(mem.ApproximateBytes(), big.size());
}

TEST(MemTable, IteratorSortedByUserKeyThenSequenceDesc) {
  MemTable mem;
  mem.Add(1, EntryType::kPut, "b", "b1");
  mem.Add(2, EntryType::kPut, "a", "a2");
  mem.Add(3, EntryType::kPut, "b", "b3");

  auto it = mem.NewIterator();
  std::vector<std::pair<std::string, SequenceNumber>> seen;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(it->key(), &parsed));
    seen.emplace_back(std::string(parsed.user_key), parsed.sequence);
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::string, SequenceNumber>{"a", 2}));
  EXPECT_EQ(seen[1], (std::pair<std::string, SequenceNumber>{"b", 3}));
  EXPECT_EQ(seen[2], (std::pair<std::string, SequenceNumber>{"b", 1}));
}

TEST(MemTable, IteratorSeek) {
  MemTable mem;
  mem.Add(1, EntryType::kPut, "apple", "1");
  mem.Add(2, EntryType::kPut, "cherry", "2");

  auto it = mem.NewIterator();
  it->Seek(MakeInternalKey("banana", kMaxSequenceNumber, EntryType::kPut));
  ASSERT_TRUE(it->Valid());
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(it->key(), &parsed));
  EXPECT_EQ(parsed.user_key, "cherry");
}

TEST(MemTable, RandomizedAgainstModel) {
  MemTable mem;
  // Model: user key -> sorted map of (sequence -> (type, value)).
  std::map<std::string, std::map<SequenceNumber, std::pair<EntryType, std::string>>>
      model;
  Rng rng(99);
  SequenceNumber seq = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "key" + std::to_string(rng.UniformInt(0, 200));
    ++seq;
    if (rng.Bernoulli(0.2)) {
      mem.Add(seq, EntryType::kDelete, key, "");
      model[key][seq] = {EntryType::kDelete, ""};
    } else {
      const std::string n = std::to_string(seq);
      const std::string value = "v" + n;
      mem.Add(seq, EntryType::kPut, key, value);
      model[key][seq] = {EntryType::kPut, value};
    }
  }

  // Check visibility at several snapshots.
  for (const SequenceNumber snapshot : {seq / 4, seq / 2, seq}) {
    for (const auto& [key, versions] : model) {
      auto it = versions.upper_bound(snapshot);
      std::string value;
      bool deleted = false;
      const bool found = mem.Get(key, snapshot, &value, &deleted);
      if (it == versions.begin()) {
        EXPECT_FALSE(found) << key << "@" << snapshot;
      } else {
        --it;
        ASSERT_TRUE(found) << key << "@" << snapshot;
        if (it->second.first == EntryType::kDelete) {
          EXPECT_TRUE(deleted);
        } else {
          EXPECT_FALSE(deleted);
          EXPECT_EQ(value, it->second.second);
        }
      }
    }
  }
}

}  // namespace
}  // namespace strata::kv
