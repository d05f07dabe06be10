// One consumer contract, checked over both transports: the in-process
// broker (EmbeddedBrokerClient) and a BrokerServer reached over loopback TCP
// (RemoteBroker). Every case runs the same calls against each and expects
// the same observations, down to the text of Seek's range errors.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "net/remote.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "pubsub/broker.hpp"
#include "pubsub/client.hpp"

namespace strata::net {
namespace {

using namespace std::chrono_literals;

constexpr auto kShortTimeout = std::chrono::microseconds(20'000);
constexpr auto kLongTimeout = std::chrono::microseconds(2'000'000);

enum class Transport { kEmbedded, kRemote };

class ConsumerContractTest : public ::testing::TestWithParam<Transport> {
 protected:
  void SetUp() override {
    if (GetParam() == Transport::kEmbedded) {
      client_ = std::make_unique<ps::EmbeddedBrokerClient>(&broker_);
      return;
    }
    BrokerServerOptions server_options;
    server_options.metrics = &registry_;
    server_ = std::make_unique<BrokerServer>(&broker_, server_options);
    server_->Start().OrDie();
    RemoteOptions remote;
    remote.port = server_->port();
    remote.backoff_initial = 5ms;
    client_ = std::make_unique<RemoteBroker>(remote);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  /// Creates `topic` with one partition holding values v0..v{count-1}.
  void Seed(const std::string& topic, int count, std::size_t retention = 0) {
    ASSERT_TRUE(client_
                    ->CreateTopic(topic, {.partitions = 1,
                                          .retention_records = retention})
                    .ok());
    Append(topic, 0, count);
  }

  void Append(const std::string& topic, int from, int to) {
    for (int i = from; i < to; ++i) {
      ps::Record record;
      std::string value = "v";
      value.append(std::to_string(i));
      record.value = std::move(value);
      ASSERT_TRUE(broker_.Produce(topic, record).ok());
    }
  }

  auto NewConsumer(const std::string& topic, ps::ConsumerOptions options) {
    auto consumer = client_->NewConsumer(topic, std::move(options));
    EXPECT_TRUE(consumer.ok()) << consumer.status().ToString();
    return std::move(consumer).value();
  }

  /// Polls until `count` records arrived; returns their offsets.
  template <typename ConsumerPtr>
  std::vector<std::int64_t> Drain(ConsumerPtr& consumer, std::size_t count) {
    std::vector<std::int64_t> offsets;
    while (offsets.size() < count) {
      auto batch = consumer->Poll(kLongTimeout);
      EXPECT_TRUE(batch.ok()) << batch.status().ToString();
      if (!batch.ok()) break;
      for (const ps::ConsumedRecord& record : *batch) {
        offsets.push_back(record.offset);
      }
    }
    return offsets;
  }

  double Requests(const std::string& api) {
    return registry_.Snapshot()
        .Value("net.server.requests", {{"api", api}})
        .value_or(0);
  }

  ps::Broker broker_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<BrokerServer> server_;
  std::unique_ptr<ps::BrokerClient> client_;
};

const ps::TopicPartition kP0{"t", 0};

TEST_P(ConsumerContractTest, ResetEarliestStartsAtTheLogStart) {
  Seed("t", 5);
  auto consumer = NewConsumer(
      "t", {.group = "g",
            .reset = ps::ConsumerOptions::AutoOffsetReset::kEarliest});
  EXPECT_EQ(consumer->Position(kP0), 0);
  const auto offsets = Drain(consumer, 5);
  ASSERT_EQ(offsets.size(), 5u);
  EXPECT_EQ(offsets.front(), 0);
  EXPECT_EQ(offsets.back(), 4);
}

TEST_P(ConsumerContractTest, ResetLatestStartsAtTheLogEnd) {
  Seed("t", 5);
  auto consumer = NewConsumer(
      "t",
      {.group = "g", .reset = ps::ConsumerOptions::AutoOffsetReset::kLatest});
  EXPECT_EQ(consumer->Position(kP0), 5);
  EXPECT_TRUE(consumer->Poll(kShortTimeout).status().IsTimeout());
  Append("t", 5, 6);
  const auto offsets = Drain(consumer, 1);
  ASSERT_EQ(offsets.size(), 1u);
  EXPECT_EQ(offsets.front(), 5);
}

TEST_P(ConsumerContractTest, ResumeCommittedChoosesTheCommittedOffset) {
  Seed("t", 5);
  {
    auto first = NewConsumer("t", {.group = "g", .max_poll_records = 3});
    ASSERT_EQ(Drain(first, 3).size(), 3u);  // auto-commits offset 3
  }
  ASSERT_EQ(broker_.CommittedOffset("g", kP0).value(), 3);

  auto resumed = NewConsumer("t", {.group = "g", .resume_committed = true});
  EXPECT_EQ(resumed->Position(kP0), 3);
  resumed.reset();

  auto fresh = NewConsumer("t", {.group = "g", .resume_committed = false});
  EXPECT_EQ(fresh->Position(kP0), 0);
  const auto offsets = Drain(fresh, 5);
  ASSERT_FALSE(offsets.empty());
  EXPECT_EQ(offsets.front(), 0);
}

TEST_P(ConsumerContractTest, ManualCommitIsWhereTheNextMemberResumes) {
  Seed("t", 5);
  const ps::ConsumerOptions manual{.group = "g", .auto_commit = false};
  {
    auto uncommitted = NewConsumer("t", manual);
    ASSERT_EQ(Drain(uncommitted, 5).size(), 5u);
  }
  EXPECT_FALSE(broker_.CommittedOffset("g", kP0).ok());
  {
    auto restarted = NewConsumer("t", manual);
    EXPECT_EQ(restarted->Position(kP0), 0);
    ASSERT_EQ(Drain(restarted, 5).size(), 5u);
    ASSERT_TRUE(restarted->Commit().ok());
  }
  EXPECT_EQ(broker_.CommittedOffset("g", kP0).value(), 5);
  auto resumed = NewConsumer("t", manual);
  EXPECT_EQ(resumed->Position(kP0), 5);
}

TEST_P(ConsumerContractTest, SeekOutsideTheLogIsOutOfRange) {
  Seed("t", 10, /*retention=*/4);  // offsets 6..9 survive
  auto consumer = NewConsumer("t", {.group = "g"});

  const Status below = consumer->Seek(kP0, 2);
  EXPECT_TRUE(below.IsOutOfRange()) << below.ToString();
  EXPECT_EQ(below.message(),
            "Seek: offset 2 below retention start 6 for t/0");

  const Status past = consumer->Seek(kP0, 11);
  EXPECT_TRUE(past.IsOutOfRange()) << past.ToString();
  EXPECT_EQ(past.message(), "Seek: offset 11 past log end 10 for t/0");

  EXPECT_EQ(consumer->Position(kP0), 6);  // rejected seeks move nothing
}

TEST_P(ConsumerContractTest, SeekSetsThePosition) {
  Seed("t", 10);
  auto consumer = NewConsumer("t", {.group = "g"});
  ASSERT_EQ(Drain(consumer, 10).size(), 10u);
  EXPECT_EQ(consumer->Position(kP0), 10);

  ASSERT_TRUE(consumer->Seek(kP0, 4).ok());
  EXPECT_EQ(consumer->Position(kP0), 4);
  const auto offsets = Drain(consumer, 6);
  ASSERT_EQ(offsets.size(), 6u);
  EXPECT_EQ(offsets.front(), 4);
  EXPECT_EQ(consumer->Position(kP0), 10);

  ASSERT_TRUE(consumer->Seek(kP0, 10).ok());  // the end is a valid position
  EXPECT_TRUE(consumer->Poll(kShortTimeout).status().IsTimeout());
}

TEST_P(ConsumerContractTest, RebalanceDropsTheRevokedPartitionsProgress) {
  ASSERT_TRUE(client_->CreateTopic("r", {.partitions = 2}).ok());
  for (int i = 0; i < 8; ++i) {
    ps::Record record;
    record.key = "k" + std::to_string(i);
    record.value = "v";
    ASSERT_TRUE(broker_.Produce("r", record).ok());
  }
  auto first = NewConsumer("r", {.group = "g", .auto_commit = false});
  ASSERT_EQ(Drain(first, 8).size(), 8u);
  ASSERT_EQ(first->assignment().size(), 2u);

  // A second member takes partition 1; the first picks up the new
  // generation at its next poll and commits what it still owns.
  auto second = NewConsumer("r", {.group = "g", .auto_commit = false});
  (void)first->Poll(std::chrono::microseconds(0));
  ASSERT_EQ(first->assignment().size(), 1u);
  EXPECT_EQ(first->assignment()[0].partition, 0);
  ASSERT_TRUE(first->Commit().ok());

  EXPECT_TRUE(broker_.CommittedOffset("g", {"r", 0}).ok());
  EXPECT_FALSE(broker_.CommittedOffset("g", {"r", 1}).ok())
      << "a revoked partition's uncommitted progress was committed";
}

TEST_P(ConsumerContractTest, EmptyDeadlineIsTimeoutAndEmptyProbeIsOk) {
  Seed("t", 0);
  auto consumer = NewConsumer("t", {.group = "g"});
  const auto start = std::chrono::steady_clock::now();
  const auto waited = consumer->Poll(kShortTimeout);
  EXPECT_TRUE(waited.status().IsTimeout()) << waited.status().ToString();
  EXPECT_GE(std::chrono::steady_clock::now() - start, kShortTimeout);

  const auto probed = consumer->Poll(std::chrono::microseconds(0));
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  EXPECT_TRUE(probed->empty());
}

TEST_P(ConsumerContractTest, PollWithDataIsOneHeartbeatAndOneFetch) {
  // Counted on the server; the in-process transport sends nothing.
  const double per_poll = GetParam() == Transport::kRemote ? 1 : 0;
  Seed("t", 3);
  auto consumer = NewConsumer("t", {.group = "g"});
  for (int round = 0; round < 3; ++round) {
    const double heartbeats = Requests("heartbeat");
    const double fetches = Requests("fetch");
    const double commits = Requests("commit_offset");
    auto batch = consumer->Poll(kLongTimeout);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_FALSE(batch->empty());
    EXPECT_EQ(Requests("heartbeat") - heartbeats, per_poll);
    EXPECT_EQ(Requests("fetch") - fetches, per_poll);
    EXPECT_EQ(Requests("commit_offset") - commits, per_poll);  // auto_commit
    EXPECT_EQ(Requests("offset_fetch"), per_poll);  // once, when joining
    Append("t", 3 + round, 4 + round);
  }
}

INSTANTIATE_TEST_SUITE_P(ConsumerContract, ConsumerContractTest,
                         ::testing::Values(Transport::kEmbedded,
                                           Transport::kRemote),
                         [](const ::testing::TestParamInfo<Transport>& info) {
                           return info.param == Transport::kEmbedded
                                      ? "embedded"
                                      : "remote";
                         });

}  // namespace
}  // namespace strata::net
