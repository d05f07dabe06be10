// Broker disk-failure policies and crash-restart recovery, driven by
// strata::fault failpoints (chaos label).
#include <gtest/gtest.h>

#include "common/fs.hpp"
#include "fault/failpoint.hpp"
#include "pubsub/broker.hpp"

namespace strata::ps {
namespace {

class BrokerFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DeactivateAll(); }

  strata::fs::ScopedTempDir dir_{"broker-fault"};
  const TopicPartition tp_{"events", 0};

  [[nodiscard]] BrokerOptions PersistentOptions() const {
    BrokerOptions options;
    options.data_dir = dir_.path();
    options.segment_bytes = 512;  // roll often
    return options;
  }

  static Record Rec(const std::string& value) {
    Record record;
    record.value = value;
    return record;
  }
};

TEST_F(BrokerFaultTest, FailStopPolicyMakesErrorsSticky) {
  Broker broker(PersistentOptions());  // kFailStop is the default
  ASSERT_TRUE(broker.CreateTopic(tp_.topic, TopicConfig{1}).ok());
  ASSERT_TRUE(broker.Produce(tp_.topic, Rec("before")).ok());

  fault::Activate("segment.append",
                  fault::Action{fault::ActionKind::kError, 0, 1.0, 1});
  EXPECT_FALSE(broker.Produce(tp_.topic, Rec("during")).ok());
  fault::DeactivateAll();

  // The failpoint is gone but the log fail-stopped: still refusing.
  EXPECT_FALSE(broker.Produce(tp_.topic, Rec("after")).ok());

  const Broker::BrokerStats stats = broker.Stats();
  EXPECT_TRUE(stats.fail_stopped);
  EXPECT_FALSE(stats.storage_degraded);
  EXPECT_GE(stats.disk_append_errors, 1u);
}

TEST_F(BrokerFaultTest, DegradePolicyServesFromMemoryWithStickyFlag) {
  BrokerOptions options = PersistentOptions();
  options.disk_failure_policy = DiskFailurePolicy::kDegrade;
  Broker broker(options);
  ASSERT_TRUE(broker.CreateTopic(tp_.topic, TopicConfig{1}).ok());
  ASSERT_TRUE(broker.Produce(tp_.topic, Rec("durable")).ok());

  fault::Activate("segment.append",
                  fault::Action{fault::ActionKind::kError, 0, 1.0, 1});
  // The append that hits the disk error still succeeds: the record lives in
  // memory and the log degrades.
  ASSERT_TRUE(broker.Produce(tp_.topic, Rec("memory-1")).ok());
  fault::DeactivateAll();
  ASSERT_TRUE(broker.Produce(tp_.topic, Rec("memory-2")).ok());

  const Broker::BrokerStats stats = broker.Stats();
  EXPECT_TRUE(stats.storage_degraded);
  EXPECT_FALSE(stats.fail_stopped);

  // All three records serve from memory.
  auto log = broker.GetLog(tp_.topic, 0);
  ASSERT_TRUE(log.ok());
  std::vector<Record> records;
  std::int64_t next = 0;
  ASSERT_TRUE((*log)->ReadFrom(0, 10, &records, &next).ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].value, "memory-2");

  // But the memory-only records were never persisted: a restarted broker
  // sees only what reached disk.
  broker.Close();
  Broker reopened(options);
  ASSERT_TRUE(reopened.CreateTopic(tp_.topic, TopicConfig{1}).ok());
  auto relog = reopened.GetLog(tp_.topic, 0);
  ASSERT_TRUE(relog.ok());
  EXPECT_EQ((*relog)->EndOffset(), 1);
  EXPECT_FALSE(reopened.Stats().storage_degraded);  // health resets on reopen
}

TEST_F(BrokerFaultTest, RestartServesIdenticalRecordsAndOffsets) {
  // Hard-kill emulation: produce + commit, then abandon the broker without a
  // clean close by copying the data directory mid-life.
  {
    BrokerOptions options = PersistentOptions();
    options.sync_each_append = true;
    Broker broker(options);
    ASSERT_TRUE(broker.CreateTopic(tp_.topic, TopicConfig{1}).ok());
    for (int i = 0; i < 40; ++i) {
      const std::string n = std::to_string(i);
      ASSERT_TRUE(broker.Produce(tp_.topic, Rec("r" + n)).ok());
    }
    ASSERT_TRUE(broker.CommitOffset("readers", tp_, 25).ok());
  }  // destructor close; segments were fsync'd per append anyway

  Broker reopened(PersistentOptions());
  ASSERT_TRUE(reopened.CreateTopic(tp_.topic, TopicConfig{1}).ok());
  auto log = reopened.GetLog(tp_.topic, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ((*log)->EndOffset(), 40);
  std::vector<Record> records;
  std::int64_t next = 0;
  ASSERT_TRUE((*log)->ReadFrom(0, 40, &records, &next).ok());
  for (int i = 0; i < 40; ++i) {
    const std::string n = std::to_string(i);
    EXPECT_EQ(records[static_cast<std::size_t>(i)].value, "r" + n);
  }
  auto committed = reopened.CommittedOffset("readers", tp_);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(*committed, 25);
}

TEST_F(BrokerFaultTest, TornSegmentTailIsTruncatedOnReopen) {
  {
    Broker broker(PersistentOptions());
    ASSERT_TRUE(broker.CreateTopic(tp_.topic, TopicConfig{1}).ok());
    ASSERT_TRUE(broker.Produce(tp_.topic, Rec("good-0")).ok());
    ASSERT_TRUE(broker.Produce(tp_.topic, Rec("good-1")).ok());
    // Crash mid-append: only 6 bytes of the third record reach the file.
    fault::Activate("segment.append",
                    fault::Action{fault::ActionKind::kTornWrite, 6, 1.0, 1});
    EXPECT_FALSE(broker.Produce(tp_.topic, Rec("torn")).ok());
    fault::DeactivateAll();
  }

  // Find the damaged segment and note its size before recovery.
  std::filesystem::path segment;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           dir_.path())) {
    if (entry.path().extension() == ".seg") segment = entry.path();
  }
  ASSERT_FALSE(segment.empty());
  const auto torn_size = std::filesystem::file_size(segment);

  Broker reopened(PersistentOptions());
  ASSERT_TRUE(reopened.CreateTopic(tp_.topic, TopicConfig{1}).ok());
  auto log = reopened.GetLog(tp_.topic, 0);
  ASSERT_TRUE(log.ok());
  // Only the two complete records survive; the torn bytes were cut off the
  // file itself, exactly like the kvstore WAL's recovery contract.
  EXPECT_EQ((*log)->EndOffset(), 2);
  EXPECT_LT(std::filesystem::file_size(segment), torn_size);

  std::vector<Record> records;
  std::int64_t next = 0;
  ASSERT_TRUE((*log)->ReadFrom(0, 10, &records, &next).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].value, "good-1");
}

TEST_F(BrokerFaultTest, CorruptedSegmentRecordIsNotServed) {
  {
    Broker broker(PersistentOptions());
    ASSERT_TRUE(broker.CreateTopic(tp_.topic, TopicConfig{1}).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(broker.Produce(tp_.topic, Rec("rec-" + std::to_string(i)))
                      .ok());
    }
  }
  // Flip a byte in the middle of the (only) segment: the CRC must reject
  // that record and everything after it.
  std::filesystem::path segment;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           dir_.path())) {
    if (entry.path().extension() == ".seg") segment = entry.path();
  }
  ASSERT_FALSE(segment.empty());
  auto contents = std::move(strata::fs::ReadFile(segment)).value();
  contents[contents.size() / 2] =
      static_cast<char>(contents[contents.size() / 2] ^ 0xff);
  strata::fs::WriteFile(segment, contents).OrDie();

  Broker reopened(PersistentOptions());
  ASSERT_TRUE(reopened.CreateTopic(tp_.topic, TopicConfig{1}).ok());
  auto log = reopened.GetLog(tp_.topic, 0);
  ASSERT_TRUE(log.ok());
  EXPECT_LT((*log)->EndOffset(), 3);  // damaged record (and tail) dropped
}

}  // namespace
}  // namespace strata::ps
