#include "pubsub/consumer.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/fs.hpp"
#include "pubsub/producer.hpp"

namespace strata::ps {
namespace {

constexpr auto kShortTimeout = std::chrono::microseconds(10'000);
constexpr auto kLongTimeout = std::chrono::microseconds(2'000'000);

class ConsumerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 2}).ok());
  }
  Broker broker_;
  Producer producer_{&broker_};
};

TEST_F(ConsumerTest, ConsumesProducedRecords) {
  for (int i = 0; i < 10; ++i) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(producer_.Send("t", "k" + n, "v" + n, i).ok());
  }
  auto consumer = std::move(Consumer::Create(&broker_, "t")).value();
  std::vector<ConsumedRecord> all;
  while (all.size() < 10) {
    auto batch = consumer->Poll(kLongTimeout);
    ASSERT_TRUE(batch.ok());
    ASSERT_FALSE(batch->empty()) << "timed out before consuming everything";
    for (auto& record : *batch) all.push_back(std::move(record));
  }
  EXPECT_EQ(all.size(), 10u);
  std::set<std::string> keys;
  for (const auto& record : all) keys.insert(record.key);
  EXPECT_EQ(keys.size(), 10u);
}

TEST_F(ConsumerTest, PollTimesOutWhenIdle) {
  auto consumer = std::move(Consumer::Create(&broker_, "t")).value();
  auto batch = consumer->Poll(kShortTimeout);
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsTimeout());
}

TEST_F(ConsumerTest, ZeroTimeoutProbeReturnsEmptyOkBatch) {
  auto consumer = std::move(Consumer::Create(&broker_, "t")).value();
  // A probe is not a deadline: nothing available is an empty Ok batch, not
  // Status::Timeout.
  auto batch = consumer->Poll(std::chrono::microseconds{0});
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

TEST_F(ConsumerTest, PollSurfacesClosedWhenBrokerShutsDownMidWait) {
  auto consumer = std::move(Consumer::Create(&broker_, "t")).value();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    broker_.Close();
  });
  auto batch = consumer->Poll(kLongTimeout);
  closer.join();
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsClosed());
}

TEST_F(ConsumerTest, CreateFailsForMissingTopic) {
  EXPECT_FALSE(Consumer::Create(&broker_, "missing").ok());
}

TEST_F(ConsumerTest, ConsumedRecordsCarryMetadata) {
  ASSERT_TRUE(producer_.Send("t", "key", "value", 777).ok());
  auto consumer = std::move(Consumer::Create(&broker_, "t")).value();
  auto batch = consumer->Poll(kLongTimeout);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  const ConsumedRecord& record = (*batch)[0];
  EXPECT_EQ(record.topic, "t");
  EXPECT_GE(record.partition, 0);
  EXPECT_EQ(record.offset, 0);
  EXPECT_EQ(record.key, "key");
  EXPECT_EQ(record.value, "value");
  EXPECT_EQ(record.timestamp, 777);
}

TEST_F(ConsumerTest, GroupResumesFromCommittedOffset) {
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(producer_.Send("t", "", std::to_string(i), 0).ok());
  }
  {
    auto consumer =
        std::move(Consumer::Create(&broker_, "t", {.group = "g"})).value();
    std::size_t consumed = 0;
    while (consumed < 6) {
      auto batch = consumer->Poll(kLongTimeout);
      ASSERT_TRUE(batch.ok());
      ASSERT_FALSE(batch->empty());
      consumed += batch->size();
    }
  }
  // Same group: nothing left, so the poll window times out.
  {
    auto consumer =
        std::move(Consumer::Create(&broker_, "t", {.group = "g"})).value();
    auto batch = consumer->Poll(kShortTimeout);
    ASSERT_FALSE(batch.ok());
    EXPECT_TRUE(batch.status().IsTimeout());
  }
  // Fresh group with earliest reset: sees everything again.
  {
    auto consumer =
        std::move(Consumer::Create(&broker_, "t", {.group = "g2"})).value();
    std::size_t consumed = 0;
    while (consumed < 6) {
      auto batch = consumer->Poll(kLongTimeout);
      ASSERT_TRUE(batch.ok());
      ASSERT_FALSE(batch->empty());
      consumed += batch->size();
    }
  }
}

TEST_F(ConsumerTest, ManualCommit) {
  ASSERT_TRUE(producer_.Send("t", "", "x", 0).ok());
  {
    ConsumerOptions options;
    options.group = "manual";
    options.auto_commit = false;
    auto consumer =
        std::move(Consumer::Create(&broker_, "t", options)).value();
    auto batch = consumer->Poll(kLongTimeout);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), 1u);
    // No commit: the next consumer in this group re-reads the record.
  }
  {
    auto consumer =
        std::move(Consumer::Create(&broker_, "t", {.group = "manual"}))
            .value();
    auto batch = consumer->Poll(kLongTimeout);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch->size(), 1u);
  }
}

TEST_F(ConsumerTest, LatestResetSkipsBacklog) {
  ASSERT_TRUE(producer_.Send("t", "", "old", 0).ok());
  ConsumerOptions options;
  options.group = "latest";
  options.reset = ConsumerOptions::AutoOffsetReset::kLatest;
  auto consumer = std::move(Consumer::Create(&broker_, "t", options)).value();
  auto batch = consumer->Poll(kShortTimeout);
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsTimeout());

  ASSERT_TRUE(producer_.Send("t", "", "new", 0).ok());
  // Poll until the new record arrives (it may be on either partition; the
  // blocking wait covers only the first, so retry briefly).
  std::vector<ConsumedRecord> got;
  for (int attempt = 0; attempt < 50 && got.empty(); ++attempt) {
    auto polled = consumer->Poll(kShortTimeout);
    if (!polled.ok()) {
      ASSERT_TRUE(polled.status().IsTimeout()) << polled.status().ToString();
      continue;
    }
    got = std::move(*polled);
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].value, "new");
}

TEST_F(ConsumerTest, TwoMembersSplitThePartitions) {
  auto c1 = std::move(Consumer::Create(&broker_, "t", {.group = "g"})).value();
  auto c2 = std::move(Consumer::Create(&broker_, "t", {.group = "g"})).value();
  // Trigger assignment refresh.
  (void)c1->Poll(kShortTimeout);
  (void)c2->Poll(kShortTimeout);

  std::set<int> p1;
  for (const auto& tp : c1->assignment()) p1.insert(tp.partition);
  std::set<int> p2;
  for (const auto& tp : c2->assignment()) p2.insert(tp.partition);
  EXPECT_EQ(p1.size() + p2.size(), 2u);
  for (int p : p1) EXPECT_FALSE(p2.contains(p));
}

TEST_F(ConsumerTest, BlockingPollWakesOnProduce) {
  ASSERT_TRUE(broker_.CreateTopic("single", {.partitions = 1}).ok());
  auto consumer = std::move(Consumer::Create(&broker_, "single")).value();
  std::thread producer_thread([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    Producer producer(&broker_);
    ASSERT_TRUE(producer.Send("single", "", "wake", 0).ok());
  });
  auto batch = consumer->Poll(kLongTimeout);
  producer_thread.join();
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].value, "wake");
}

TEST_F(ConsumerTest, BlockingPollWakesOnAnyAssignedPartition) {
  // Find a key that hashes to partition 1 (the mapping depends only on the
  // key hash and the partition count, so a scratch topic with the same
  // partition count probes it without touching "t").
  ASSERT_TRUE(broker_.CreateTopic("probe", {.partitions = 2}).ok());
  std::string key_p1;
  for (int i = 0; i < 64 && key_p1.empty(); ++i) {
    const std::string key = "key" + std::to_string(i);
    auto sent = producer_.Send("probe", key, "x", 0);
    ASSERT_TRUE(sent.ok());
    if (sent->first == 1) key_p1 = key;
  }
  ASSERT_FALSE(key_p1.empty());

  auto consumer = std::move(Consumer::Create(&broker_, "t")).value();
  (void)consumer->Poll(kShortTimeout);
  ASSERT_EQ(consumer->assignment().size(), 2u);  // sole member: p0 and p1

  std::thread producer_thread([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Producer producer(&broker_);
    ASSERT_TRUE(producer.Send("t", key_p1, "wake", 0).ok());
  });
  const auto start = std::chrono::steady_clock::now();
  auto batch = consumer->Poll(kLongTimeout);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  producer_thread.join();
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].partition, 1);
  EXPECT_EQ((*batch)[0].value, "wake");
  // A consumer waiting only on partition 0's log sleeps through the whole
  // 2 s timeout here; waking on any assigned partition returns promptly.
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
}

TEST_F(ConsumerTest, RebalanceDropsUncommittedOffsetsOfRevokedPartitions) {
  // Seed both partitions, tracking how many records each got.
  int per_partition[2] = {0, 0};
  int key_index = 0;
  while (per_partition[0] < 2 || per_partition[1] < 2) {
    const std::string n = std::to_string(key_index++);
    auto sent = producer_.Send("t", "k" + n, "v", 0);
    ASSERT_TRUE(sent.ok());
    ++per_partition[sent->first];
  }
  const int total = per_partition[0] + per_partition[1];

  // c1 is the sole member: it consumes both partitions without committing.
  ConsumerOptions manual;
  manual.group = "g";
  manual.auto_commit = false;
  auto c1 = std::move(Consumer::Create(&broker_, "t", manual)).value();
  int consumed = 0;
  while (consumed < total) {
    auto batch = c1->Poll(kLongTimeout);
    ASSERT_TRUE(batch.ok());
    ASSERT_FALSE(batch->empty());
    consumed += static_cast<int>(batch->size());
  }

  // c2 joins: the rebalance leaves c1 with partition 0 and hands partition 1
  // to c2. c1 polls once to pick up the new generation.
  auto c2 = std::move(Consumer::Create(&broker_, "t", {.group = "g"})).value();
  (void)c1->Poll(kShortTimeout);
  ASSERT_EQ(c1->assignment().size(), 1u);
  EXPECT_EQ(c1->assignment()[0].partition, 0);

  // Partition 1 moves on under its new owner: more records arrive and c2
  // consumes all of them, committing its progress as it goes.
  int added_p1 = 0;
  key_index = 1000;
  while (added_p1 < 3) {
    auto sent = producer_.Send("t", "n" + std::to_string(key_index++), "v", 0);
    ASSERT_TRUE(sent.ok());
    if (sent->first == 1) ++added_p1;
  }
  const std::int64_t p1_end = per_partition[1] + added_p1;
  int c2_consumed = 0;
  while (c2_consumed < p1_end) {
    auto batch = c2->Poll(kLongTimeout);
    ASSERT_TRUE(batch.ok());
    ASSERT_FALSE(batch->empty());
    c2_consumed += static_cast<int>(batch->size());
  }
  const TopicPartition p1{"t", 1};
  ASSERT_EQ(std::move(broker_.CommittedOffset("g", p1)).value(), p1_end);

  // c1's late commit must not clobber the new owner's progress with the
  // stale offset it held from before the rebalance.
  ASSERT_TRUE(c1->Commit().ok());
  EXPECT_EQ(std::move(broker_.CommittedOffset("g", p1)).value(), p1_end);
  // Its own partition's progress still commits normally.
  EXPECT_EQ(std::move(broker_.CommittedOffset("g", TopicPartition{"t", 0}))
                .value(),
            per_partition[0]);
}

TEST_F(ConsumerTest, SeekToEndSkipsExistingRecords) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(producer_.Send("t", "", std::to_string(i), 0).ok());
  }
  auto consumer =
      std::move(Consumer::Create(&broker_, "t", {.group = "seek"})).value();
  ASSERT_TRUE(consumer->SeekToEnd().ok());
  auto batch = consumer->Poll(kShortTimeout);
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsTimeout());
}

TEST_F(ConsumerTest, RebalanceUnderLoadLosesNoRecords) {
  // A producer keeps sending while a second member joins mid-stream (forcing
  // a rebalance the first member picks up inside Poll's RefreshAssignment).
  // Every record must still be consumed, and the group's committed offsets
  // must land exactly at the partition ends — no lost records, no commit
  // clobbering the new owner's progress.
  constexpr int kCount = 4000;
  std::thread producer_thread([&] {
    for (int i = 0; i < kCount; ++i) {
      const std::string n = std::to_string(i % 64);
      ASSERT_TRUE(producer_.Send("t", "k" + n, std::to_string(i), i).ok());
      if (i % 400 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  std::mutex mu;
  std::set<std::string> values;  // distinct payloads: coverage check
  std::atomic<bool> stop{false};
  auto drain = [&](Consumer* consumer) {
    while (!stop.load()) {
      auto batch = consumer->Poll(std::chrono::microseconds(20'000));
      if (!batch.ok()) {
        if (batch.status().IsTimeout()) continue;
        break;
      }
      std::lock_guard lock(mu);
      for (const auto& record : *batch) values.emplace(record.value);
      if (values.size() == static_cast<std::size_t>(kCount)) stop.store(true);
    }
  };

  auto c1 = std::move(Consumer::Create(&broker_, "t", {.group = "g"})).value();
  std::thread t1([&] { drain(c1.get()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto c2 = std::move(Consumer::Create(&broker_, "t", {.group = "g"})).value();
  std::thread t2([&] { drain(c2.get()); });

  producer_thread.join();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!stop.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  t1.join();
  t2.join();

  EXPECT_EQ(values.size(), static_cast<std::size_t>(kCount))
      << "records lost across the rebalance";

  // Both members' auto-commits (plus a final explicit one) must leave the
  // group's committed offsets exactly at the partition ends.
  ASSERT_TRUE(c1->Commit().ok());
  ASSERT_TRUE(c2->Commit().ok());
  for (int partition = 0; partition < 2; ++partition) {
    const TopicPartition tp{"t", partition};
    auto log = std::move(broker_.GetLog("t", partition)).value();
    auto committed = broker_.CommittedOffset("g", tp);
    ASSERT_TRUE(committed.ok()) << "partition " << partition;
    EXPECT_EQ(*committed, log->EndOffset()) << "partition " << partition;
  }
}

// ----- Seek (checkpoint replay): explicit repositioning of one partition ---

TEST_F(ConsumerTest, SeekBackReplaysRecords) {
  ASSERT_TRUE(broker_.CreateTopic("seek", {.partitions = 1}).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(producer_.Send("seek", "k", "v" + std::to_string(i), i).ok());
  }
  auto consumer = std::move(Consumer::Create(&broker_, "seek")).value();
  std::size_t consumed = 0;
  while (consumed < 10) {
    auto batch = consumer->Poll(kLongTimeout);
    ASSERT_TRUE(batch.ok());
    consumed += batch->size();
  }

  ASSERT_TRUE(consumer->Seek("seek", 0, 3).ok());
  std::vector<ConsumedRecord> replayed;
  while (replayed.size() < 7) {
    auto batch = consumer->Poll(kLongTimeout);
    ASSERT_TRUE(batch.ok());
    ASSERT_FALSE(batch->empty()) << "replay stalled";
    for (auto& record : *batch) replayed.push_back(std::move(record));
  }
  ASSERT_EQ(replayed.size(), 7u);
  EXPECT_EQ(replayed.front().offset, 3);
  EXPECT_EQ(replayed.front().value, "v3");
  EXPECT_EQ(replayed.back().offset, 9);
}

TEST_F(ConsumerTest, SeekToLogEndIsValidAndYieldsNothing) {
  ASSERT_TRUE(broker_.CreateTopic("seek", {.partitions = 1}).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(producer_.Send("seek", "k", "v", i).ok());
  }
  auto consumer = std::move(Consumer::Create(&broker_, "seek")).value();
  ASSERT_TRUE(consumer->Seek("seek", 0, 5).ok());  // end is a valid position
  auto batch = consumer->Poll(kShortTimeout);
  EXPECT_TRUE(batch.status().IsTimeout());
}

TEST_F(ConsumerTest, SeekBelowRetentionStartIsCleanError) {
  // A 5-record retention window on 8 appends truncates offsets 0..2 away.
  ASSERT_TRUE(
      broker_
          .CreateTopic("trunc", {.partitions = 1, .retention_records = 5})
          .ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(producer_.Send("trunc", "k", "v" + std::to_string(i), i).ok());
  }
  auto consumer = std::move(Consumer::Create(&broker_, "trunc")).value();

  // Replaying from a truncated offset must fail loudly — the caller (query
  // recovery) needs to know the checkpoint outlived retention; a silent
  // heal would hide the gap and a retry loop would spin forever.
  const Status truncated = consumer->Seek("trunc", 0, 1);
  ASSERT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.IsOutOfRange()) << truncated.ToString();

  // The failed seek moved nothing: the surviving range still reads fine.
  ASSERT_TRUE(consumer->Seek("trunc", 0, 3).ok());
  auto batch = consumer->Poll(kLongTimeout);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->empty());
  EXPECT_EQ(batch->front().offset, 3);
  EXPECT_EQ(batch->front().value, "v3");
}

TEST_F(ConsumerTest, SeekPastEndAndUnassignedAreErrors) {
  ASSERT_TRUE(broker_.CreateTopic("seek", {.partitions = 1}).ok());
  ASSERT_TRUE(producer_.Send("seek", "k", "v", 0).ok());
  auto consumer = std::move(Consumer::Create(&broker_, "seek")).value();

  const Status future = consumer->Seek("seek", 0, 100);
  ASSERT_FALSE(future.ok());
  EXPECT_TRUE(future.IsOutOfRange());

  // Partition 7 does not exist, and topic "t" is not this consumer's.
  EXPECT_FALSE(consumer->Seek("seek", 7, 0).ok());
  EXPECT_FALSE(consumer->Seek("t", 0, 0).ok());
}

TEST_F(ConsumerTest, SeekAloneCommitsNothing) {
  ASSERT_TRUE(broker_.CreateTopic("seek", {.partitions = 1}).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(producer_.Send("seek", "k", "v", i).ok());
  }
  ConsumerOptions options;
  options.group = "g";
  options.auto_commit = false;
  {
    auto consumer =
        std::move(Consumer::Create(&broker_, "seek", options)).value();
    std::size_t consumed = 0;
    while (consumed < 6) {
      auto batch = consumer->Poll(kLongTimeout);
      ASSERT_TRUE(batch.ok());
      consumed += batch->size();
    }
    ASSERT_TRUE(consumer->Commit().ok());  // group offset now 6
    // Seeking back and committing without polling must not rewind the
    // group: a seek is a position change, not consumption.
    ASSERT_TRUE(consumer->Seek("seek", 0, 0).ok());
    ASSERT_TRUE(consumer->Commit().ok());
  }
  auto resumed = std::move(Consumer::Create(&broker_, "seek", options)).value();
  auto batch = resumed->Poll(kShortTimeout);
  EXPECT_TRUE(batch.status().IsTimeout()) << "group offset was rewound";
}

TEST_F(ConsumerTest, EndToEndThroughputManyRecords) {
  constexpr int kCount = 20'000;
  std::thread producer_thread([&] {
    for (int i = 0; i < kCount; ++i) {
      const std::string n = std::to_string(i % 100);
      ASSERT_TRUE(producer_.Send("t", "k" + n, "v", i).ok());
    }
  });
  auto consumer = std::move(Consumer::Create(&broker_, "t")).value();
  std::size_t consumed = 0;
  while (consumed < kCount) {
    auto batch = consumer->Poll(kLongTimeout);
    if (!batch.ok()) break;  // premature timeout = failure below
    consumed += batch->size();
  }
  producer_thread.join();
  EXPECT_EQ(consumed, static_cast<std::size_t>(kCount));
}

}  // namespace
}  // namespace strata::ps
