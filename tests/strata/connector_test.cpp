#include "strata/connector.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "am/image.hpp"
#include "common/codec.hpp"
#include "strata/api.hpp"

namespace strata::core {
namespace {

spe::Tuple NumberedTuple(int i) {
  spe::Tuple t;
  t.event_time = i;
  t.job = 1;
  t.layer = i;
  t.payload.Set("i", i);
  return t;
}

/// Every tuple the source hands over until end of stream, in order.
std::vector<spe::Tuple> Drain(const spe::BatchSourceFn& source) {
  std::vector<spe::Tuple> tuples;
  while (auto batch = source()) {
    for (spe::Tuple& tuple : *batch) tuples.push_back(std::move(tuple));
  }
  return tuples;
}

class ConnectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(broker_.CreateTopic("conn", {.partitions = 2}).ok());
  }
  ps::Broker broker_;
};

TEST_F(ConnectorTest, PublishThenSubscribeRoundTrip) {
  ConnectorPublisher publisher(&broker_, "conn",
                               [](const spe::Tuple& t) { return RawDataKey(t); });
  auto sink = publisher.AsSinkFn();
  for (int i = 0; i < 10; ++i) sink(NumberedTuple(i));
  publisher.AsFinishHook()();  // EOS

  auto subscriber =
      std::move(ConnectorSubscriber::Create(&broker_, "conn", "g")).value();
  std::set<int> seen;
  for (const spe::Tuple& tuple : Drain(subscriber->AsBatchSourceFn())) {
    seen.insert(static_cast<int>(tuple.payload.Get("i").AsInt()));
  }
  EXPECT_EQ(seen.size(), 10u);  // all delivered, then EOS ended the stream
}

TEST_F(ConnectorTest, PerKeyOrderPreserved) {
  ConnectorPublisher publisher(&broker_, "conn",
                               [](const spe::Tuple& t) {
                                 return std::to_string(t.job);
                               });
  auto sink = publisher.AsSinkFn();
  for (int i = 0; i < 100; ++i) {
    spe::Tuple t = NumberedTuple(i);
    t.job = i % 2;
    sink(t);
  }
  publisher.AsFinishHook()();

  auto subscriber =
      std::move(ConnectorSubscriber::Create(&broker_, "conn", "g")).value();
  std::map<std::int64_t, int> last;
  for (const spe::Tuple& tuple : Drain(subscriber->AsBatchSourceFn())) {
    const int i = static_cast<int>(tuple.payload.Get("i").AsInt());
    if (last.contains(tuple.job)) {
      EXPECT_GT(i, last[tuple.job]);
    }
    last[tuple.job] = i;
  }
  EXPECT_EQ(last.size(), 2u);
}

TEST_F(ConnectorTest, StopEndsStreamWithoutEos) {
  auto subscriber =
      std::move(ConnectorSubscriber::Create(&broker_, "conn", "g")).value();
  auto source = subscriber->AsBatchSourceFn();
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    subscriber->Stop();
  });
  EXPECT_FALSE(source().has_value());  // returns once stopped
  stopper.join();
}

TEST_F(ConnectorTest, SubscriberBlocksUntilDataArrives) {
  auto subscriber =
      std::move(ConnectorSubscriber::Create(&broker_, "conn", "g")).value();
  auto source = subscriber->AsBatchSourceFn();

  ConnectorPublisher publisher(&broker_, "conn", nullptr);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    publisher.AsSinkFn()(NumberedTuple(7));
  });
  auto batch = source();
  producer.join();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ(batch->front().payload.Get("i").AsInt(), 7);
  subscriber->Stop();
}

TEST_F(ConnectorTest, ImageTuplesCrossTheConnector) {
  ConnectorPublisher publisher(&broker_, "conn", nullptr);
  am::GrayImage image(64, 64, 99);
  spe::Tuple t = NumberedTuple(0);
  t.payload.Set("ot_image", am::MakeImageValue(image));
  publisher.AsSinkFn()(t);
  publisher.AsFinishHook()();

  auto subscriber =
      std::move(ConnectorSubscriber::Create(&broker_, "conn", "g")).value();
  auto source = subscriber->AsBatchSourceFn();
  auto received = source();
  ASSERT_TRUE(received.has_value());
  ASSERT_EQ(received->size(), 1u);
  EXPECT_EQ(received->front()
                .payload.Get("ot_image")
                .AsOpaque<am::ImageValue>()
                ->image(),
            image);
  EXPECT_FALSE(source().has_value());
}

TEST_F(ConnectorTest, TwoGroupsEachSeeAllTuples) {
  ConnectorPublisher publisher(&broker_, "conn", nullptr);
  auto sink = publisher.AsSinkFn();
  for (int i = 0; i < 5; ++i) sink(NumberedTuple(i));
  publisher.AsFinishHook()();

  for (const char* group : {"g1", "g2"}) {
    auto subscriber =
        std::move(ConnectorSubscriber::Create(&broker_, "conn", group)).value();
    EXPECT_EQ(Drain(subscriber->AsBatchSourceFn()).size(), 5u) << group;
  }
}

// ----- effectively-once: tagging, dedupe, and checkpoint hooks -----

class TaggedConnectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(broker_.CreateTopic("tagged", {.partitions = 1}).ok());
  }

  /// Decode record `offset` of tagged/0 with its sequence tag.
  void ReadTagged(std::int64_t offset, std::uint64_t* seq, spe::Tuple* tuple) {
    auto log = broker_.GetLog("tagged", 0);
    ASSERT_TRUE(log.ok());
    std::vector<ps::Record> records;
    std::int64_t next = 0;
    ASSERT_TRUE((*log)->ReadFrom(offset, 1, &records, &next).ok());
    ASSERT_EQ(records.size(), 1u);
    auto decoded = DecodeTaggedTuple(records[0].value, seq);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    *tuple = std::move(*decoded);
  }

  ps::Broker broker_;
};

TEST_F(TaggedConnectorTest, RestoredPublisherResumesSequenceNumbers) {
  ConnectorPublisher first(&broker_, "tagged", nullptr);
  first.EnableTagging();
  auto sink = first.AsSinkFn();
  for (int i = 0; i < 5; ++i) sink(NumberedTuple(i));
  std::string blob;
  ASSERT_TRUE(first.AsSnapshotFn()(/*epoch=*/1, &blob).ok());
  // The snapshot is the sequence counter alone.
  std::string_view view = blob;
  std::uint64_t snapshot_seq = 0;
  ASSERT_TRUE(codec::GetVarint64(&view, &snapshot_seq));
  EXPECT_EQ(snapshot_seq, 5u);
  EXPECT_TRUE(view.empty());

  // A recovered publisher picks the counter up where the snapshot left it.
  ConnectorPublisher second(&broker_, "tagged", nullptr);
  second.EnableTagging();
  ASSERT_TRUE(second.AsRestoreFn()(blob).ok());
  auto sink2 = second.AsSinkFn();
  for (int i = 5; i < 8; ++i) sink2(NumberedTuple(i));

  for (std::int64_t offset = 0; offset < 8; ++offset) {
    std::uint64_t seq = 0;
    spe::Tuple tuple;
    ReadTagged(offset, &seq, &tuple);
    EXPECT_EQ(seq, static_cast<std::uint64_t>(offset + 1));
    EXPECT_EQ(tuple.payload.Get("i").AsInt(), offset);
  }
  EXPECT_FALSE(second.AsRestoreFn()("garbage").ok());
}

TEST_F(TaggedConnectorTest, SubscriberDropsReplayedDuplicates) {
  ConnectorPublisher publisher(&broker_, "tagged", nullptr);
  publisher.EnableTagging();
  auto sink = publisher.AsSinkFn();
  for (int i = 0; i < 5; ++i) sink(NumberedTuple(i));
  std::string blob;
  ASSERT_TRUE(publisher.AsSnapshotFn()(1, &blob).ok());
  for (int i = 5; i < 10; ++i) sink(NumberedTuple(i));

  // Crash-and-replay: a publisher restored from the epoch snapshot re-sends
  // the post-checkpoint tuples with their original sequence numbers.
  ConnectorPublisher replayer(&broker_, "tagged", nullptr);
  replayer.EnableTagging();
  ASSERT_TRUE(replayer.AsRestoreFn()(blob).ok());
  auto replay_sink = replayer.AsSinkFn();
  for (int i = 5; i < 10; ++i) replay_sink(NumberedTuple(i));
  replayer.AsFinishHook()();  // EOS

  auto subscriber =
      std::move(ConnectorSubscriber::Create(&broker_, "tagged", "g")).value();
  std::vector<int> seen;
  for (const spe::Tuple& tuple : Drain(subscriber->AsBatchSourceFn())) {
    seen.push_back(static_cast<int>(tuple.payload.Get("i").AsInt()));
  }
  // 15 data records in the log, but each sequence number delivered once.
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(subscriber->duplicates_dropped(), 5u);
}

TEST_F(TaggedConnectorTest, SubscriberSnapshotRestoreResumesReplayCursor) {
  ConnectorPublisher publisher(&broker_, "tagged", nullptr);
  publisher.EnableTagging();
  auto sink = publisher.AsSinkFn();
  for (int i = 0; i < 6; ++i) sink(NumberedTuple(i));

  // The source operator snapshots between calls, so the cursor has poll
  // granularity: take the delivered batches, then snapshot.
  auto first =
      std::move(ConnectorSubscriber::Create(&broker_, "tagged", "ga")).value();
  auto source = first->AsBatchSourceFn();
  std::vector<int> delivered;
  while (delivered.size() < 6) {
    auto batch = source();
    ASSERT_TRUE(batch.has_value());
    for (const spe::Tuple& tuple : *batch) {
      delivered.push_back(static_cast<int>(tuple.payload.Get("i").AsInt()));
    }
  }
  ASSERT_EQ(delivered.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)], i);
  }
  std::string blob;
  ASSERT_TRUE(first->AsSnapshotFn()(1, &blob).ok());
  for (int i = 6; i < 10; ++i) sink(NumberedTuple(i));
  publisher.AsFinishHook()();

  // A fresh subscriber restored from the snapshot resumes at the first
  // record after the delivered batches — not at the group's committed
  // offset, not at zero.
  auto second =
      std::move(ConnectorSubscriber::Create(&broker_, "tagged", "gb")).value();
  ASSERT_TRUE(second->AsRestoreFn()(blob).ok());
  std::vector<int> rest;
  for (const spe::Tuple& tuple : Drain(second->AsBatchSourceFn())) {
    rest.push_back(static_cast<int>(tuple.payload.Get("i").AsInt()));
  }
  ASSERT_EQ(rest.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rest[static_cast<std::size_t>(i)], 6 + i);
  }
  EXPECT_EQ(second->duplicates_dropped(), 0u);
}

TEST_F(TaggedConnectorTest, RestoreWithoutPartitionsStartsAtTheLogStart) {
  ConnectorPublisher publisher(&broker_, "tagged", nullptr);
  publisher.EnableTagging();
  auto sink = publisher.AsSinkFn();
  for (int i = 0; i < 10; ++i) sink(NumberedTuple(i));
  publisher.AsFinishHook()();

  // The group has moved past most of the topic (as a consumer that
  // auto-committed before a crash would have)...
  ASSERT_TRUE(broker_.CommitOffset("g", {"tagged", 0}, 7).ok());

  // ...but a checkpointed subscriber restored from a snapshot that names no
  // partition (taken before its first poll) replays from the log start.
  auto subscriber = std::move(ConnectorSubscriber::Create(
                                  &broker_, "tagged", "g", /*checkpointed=*/true))
                        .value();
  std::string blob;
  codec::PutVarint64(&blob, 0);  // no partitions
  ASSERT_TRUE(subscriber->AsRestoreFn()(blob).ok());
  std::vector<int> seen;
  for (const spe::Tuple& tuple : Drain(subscriber->AsBatchSourceFn())) {
    seen.push_back(static_cast<int>(tuple.payload.Get("i").AsInt()));
  }
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);

  // It never commits: the group offset is where the crash left it, and its
  // own snapshot names the partition with the next un-polled offset.
  EXPECT_EQ(*broker_.CommittedOffset("g", {"tagged", 0}), 7);
  std::string snapshot;
  ASSERT_TRUE(subscriber->AsSnapshotFn()(1, &snapshot).ok());
  std::string_view view = snapshot;
  std::uint64_t count = 0;
  std::uint64_t partition = 0;
  std::int64_t offset = 0;
  ASSERT_TRUE(codec::GetVarint64(&view, &count));
  ASSERT_TRUE(codec::GetVarint64(&view, &partition));
  ASSERT_TRUE(codec::GetVarint64Signed(&view, &offset));
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(partition, 0u);
  EXPECT_EQ(offset, 11);  // 10 records and the EOS sentinel
}

// A snapshot taken before the first poll still names every assigned
// partition, at the log start.
TEST_F(TaggedConnectorTest, SnapshotBeforeFirstPollNamesEveryPartition) {
  ASSERT_TRUE(broker_.CreateTopic("wide", {.partitions = 3}).ok());
  auto subscriber = std::move(ConnectorSubscriber::Create(
                                  &broker_, "wide", "g", /*checkpointed=*/true))
                        .value();
  std::string snapshot;
  ASSERT_TRUE(subscriber->AsSnapshotFn()(1, &snapshot).ok());
  std::string_view view = snapshot;
  std::uint64_t count = 0;
  ASSERT_TRUE(codec::GetVarint64(&view, &count));
  EXPECT_EQ(count, 3u);
  for (std::uint64_t p = 0; p < count; ++p) {
    std::uint64_t partition = 0;
    std::int64_t offset = 0;
    std::uint64_t floor = 0;
    ASSERT_TRUE(codec::GetVarint64(&view, &partition));
    ASSERT_TRUE(codec::GetVarint64Signed(&view, &offset));
    ASSERT_TRUE(codec::GetVarint64(&view, &floor));
    EXPECT_EQ(partition, p);
    EXPECT_EQ(offset, 0);
  }
}

TEST_F(TaggedConnectorTest, RestoreToTruncatedOffsetSurfacesOutOfRange) {
  ASSERT_TRUE(
      broker_.CreateTopic("trunc", {.partitions = 1, .retention_records = 4})
          .ok());
  ConnectorPublisher publisher(&broker_, "trunc", nullptr);
  publisher.EnableTagging();
  auto sink = publisher.AsSinkFn();
  sink(NumberedTuple(0));

  // Snapshot a subscriber whose replay cursor is offset 0...
  auto first =
      std::move(ConnectorSubscriber::Create(&broker_, "trunc", "ga")).value();
  std::string blob;
  {
    auto source = first->AsBatchSourceFn();
    auto batch = source();
    ASSERT_TRUE(batch.has_value());
    ASSERT_TRUE(first->AsSnapshotFn()(1, &blob).ok());
    first->Stop();
  }
  // ...then age offset 0 out of retention.
  for (int i = 1; i < 10; ++i) sink(NumberedTuple(i));

  // The checkpoint outlived the broker's history: restore must say so
  // loudly (the operator can then alert) instead of silently skipping the
  // gap or spinning on an offset that no longer exists.
  auto second =
      std::move(ConnectorSubscriber::Create(&broker_, "trunc", "gb")).value();
  const Status restored = second->AsRestoreFn()(blob);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.IsOutOfRange()) << restored.ToString();
}

}  // namespace
}  // namespace strata::core
