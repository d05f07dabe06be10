#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "pubsub/broker.hpp"
#include "pubsub/consumer.hpp"
#include "pubsub/producer.hpp"

namespace strata::ps {
namespace {

TEST(BrokerStats, ListTopics) {
  Broker broker;
  EXPECT_TRUE(broker.ListTopics().empty());
  ASSERT_TRUE(broker.CreateTopic("b-topic", {.partitions = 1}).ok());
  ASSERT_TRUE(broker.CreateTopic("a-topic", {.partitions = 2}).ok());
  const auto topics = broker.ListTopics();
  ASSERT_EQ(topics.size(), 2u);
  EXPECT_EQ(topics[0], "a-topic");  // map order: sorted
  EXPECT_EQ(topics[1], "b-topic");
}

TEST(BrokerStats, TopicStatsCountRecords) {
  Broker broker;
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 3}).ok());
  Producer producer(&broker);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(producer.Send("t", "", "v", 0).ok());
  }
  auto stats = broker.GetTopicStats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->partitions, 3);
  EXPECT_EQ(stats->total_records, 30);
  ASSERT_EQ(stats->offsets.size(), 3u);
  // Round-robin distributes evenly across 3 partitions.
  for (const auto& [start, end] : stats->offsets) {
    EXPECT_EQ(start, 0);
    EXPECT_EQ(end, 10);
  }
}

TEST(BrokerStats, MissingTopicNotFound) {
  Broker broker;
  EXPECT_TRUE(broker.GetTopicStats("nope").status().IsNotFound());
}

TEST(BrokerStats, RetentionMovesStartOffset) {
  Broker broker;
  ASSERT_TRUE(
      broker.CreateTopic("t", {.partitions = 1, .retention_records = 4}).ok());
  Producer producer(&broker);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(producer.Send("t", "", "v", 0).ok());
  }
  auto stats = broker.GetTopicStats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->offsets[0].first, 6);
  EXPECT_EQ(stats->offsets[0].second, 10);
}

TEST(BrokerStats, ConsumerLagTracksCommits) {
  Broker broker;
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  Producer producer(&broker);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(producer.Send("t", "", "v", 0).ok());
  }
  const TopicPartition tp{"t", 0};
  // Uncommitted group lags from the log start.
  EXPECT_EQ(*broker.ConsumerLag("g", tp), 10);
  ASSERT_TRUE(broker.CommitOffset("g", tp, 4).ok());
  EXPECT_EQ(*broker.ConsumerLag("g", tp), 6);
  ASSERT_TRUE(broker.CommitOffset("g", tp, 10).ok());
  EXPECT_EQ(*broker.ConsumerLag("g", tp), 0);
}

TEST(BrokerStats, GroupLagGaugeOnlyForCommittedPartitions) {
  obs::MetricsRegistry registry;
  Broker broker;
  broker.BindMetrics(&registry);
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  Producer producer(&broker);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(producer.Send("t", "", "v", 0).ok());
  }
  const obs::Labels checkpointed{
      {"group", "checkpointed"}, {"topic", "t"}, {"partition", "0"}};
  const obs::Labels committing{
      {"group", "committing"}, {"topic", "t"}, {"partition", "0"}};

  // A member that keeps its cursor elsewhere reads everything and never
  // commits: it has no lag series, not a lag of the whole log.
  auto silent = std::move(Consumer::Create(&broker, "t",
                                           {.group = "checkpointed",
                                            .auto_commit = false,
                                            .resume_committed = false}))
                    .value();
  ASSERT_EQ(silent->Poll(std::chrono::microseconds(0))->size(), 10u);
  auto snapshot = registry.Snapshot();
  EXPECT_FALSE(snapshot.Value("pubsub.group.lag", checkpointed).has_value());

  // A committing group reports end - committed.
  auto committer = std::move(Consumer::Create(
                                 &broker, "t",
                                 {.group = "committing",
                                  .auto_commit = false,
                                  .max_poll_records = 4}))
                       .value();
  ASSERT_EQ(committer->Poll(std::chrono::microseconds(0))->size(), 4u);
  EXPECT_FALSE(registry.Snapshot()
                   .Value("pubsub.group.lag", committing)
                   .has_value());
  ASSERT_TRUE(committer->Commit().ok());
  snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Value("pubsub.group.lag", committing), 6);
  EXPECT_FALSE(snapshot.Value("pubsub.group.lag", checkpointed).has_value());
}

TEST(BrokerStats, ConsumerLagValidatesTarget) {
  Broker broker;
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  EXPECT_TRUE(broker.ConsumerLag("g", {"none", 0}).status().IsNotFound());
  EXPECT_FALSE(broker.ConsumerLag("g", {"t", 5}).ok());
}

}  // namespace
}  // namespace strata::ps
