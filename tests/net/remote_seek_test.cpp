// ps::Consumer::Seek over the remote transport — checkpoint replay over the
// wire. The seek validates the requested offset against the server's
// current [start, end) bounds via a Metadata round-trip, so a checkpoint
// that outlived broker retention surfaces as one clean OutOfRange instead of
// a fetch loop that spins on an offset the server no longer holds.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "net/remote.hpp"
#include "net/server.hpp"
#include "pubsub/broker.hpp"

namespace strata::net {
namespace {

using namespace std::chrono_literals;

constexpr auto kShortTimeout = std::chrono::microseconds(10'000);
constexpr auto kLongTimeout = std::chrono::microseconds(2'000'000);

class RemoteSeekTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<BrokerServer>(&broker_);
    server_->Start().OrDie();
    RemoteOptions remote;
    remote.host = "127.0.0.1";
    remote.port = server_->port();
    remote.backoff_initial = 5ms;
    client_ = std::make_unique<RemoteBroker>(remote);
  }
  void TearDown() override { server_->Stop(); }

  void Produce(const std::string& topic, int count) {
    auto producer = std::move(client_->NewProducer()).value();
    for (int i = 0; i < count; ++i) {
      const std::string n = std::to_string(i);
      ASSERT_TRUE(producer->Send(topic, "k", "v" + n, i).ok());
    }
  }

  ps::Broker broker_;
  std::unique_ptr<BrokerServer> server_;
  std::unique_ptr<RemoteBroker> client_;
};

TEST_F(RemoteSeekTest, SeekBackReplaysRecords) {
  ASSERT_TRUE(client_->CreateTopic("events", {.partitions = 1}).ok());
  Produce("events", 10);

  auto consumer = std::move(client_->NewConsumer("events", {})).value();
  std::size_t consumed = 0;
  while (consumed < 10) {
    auto batch = consumer->Poll(kLongTimeout);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    consumed += batch->size();
  }

  ASSERT_TRUE(consumer->Seek("events", 0, 4).ok());
  std::vector<ps::ConsumedRecord> replayed;
  while (replayed.size() < 6) {
    auto batch = consumer->Poll(kLongTimeout);
    ASSERT_TRUE(batch.ok());
    ASSERT_FALSE(batch->empty()) << "replay stalled";
    for (auto& record : *batch) replayed.push_back(std::move(record));
  }
  ASSERT_EQ(replayed.size(), 6u);
  EXPECT_EQ(replayed.front().offset, 4);
  EXPECT_EQ(replayed.front().value, "v4");
  EXPECT_EQ(replayed.back().offset, 9);
}

TEST_F(RemoteSeekTest, SeekBelowRetentionIsCleanOutOfRange) {
  ASSERT_TRUE(
      client_
          ->CreateTopic("events", {.partitions = 1, .retention_records = 4})
          .ok());
  Produce("events", 10);  // offsets 0..5 truncated away, 6..9 survive

  auto consumer = std::move(client_->NewConsumer("events", {})).value();
  const Status truncated = consumer->Seek("events", 0, 2);
  ASSERT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.IsOutOfRange()) << truncated.ToString();

  // The consumer is still healthy after the rejected seek: the surviving
  // suffix reads normally from a valid offset.
  ASSERT_TRUE(consumer->Seek("events", 0, 6).ok());
  auto batch = consumer->Poll(kLongTimeout);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->empty());
  EXPECT_EQ(batch->front().offset, 6);
  EXPECT_EQ(batch->front().value, "v6");
}

TEST_F(RemoteSeekTest, SeekPastEndAndUnassignedAreErrors) {
  ASSERT_TRUE(client_->CreateTopic("events", {.partitions = 1}).ok());
  Produce("events", 3);

  auto consumer = std::move(client_->NewConsumer("events", {})).value();
  const Status future = consumer->Seek("events", 0, 99);
  ASSERT_FALSE(future.ok());
  EXPECT_TRUE(future.IsOutOfRange()) << future.ToString();
  EXPECT_FALSE(consumer->Seek("events", 5, 0).ok());

  // End-of-log is a valid (empty) position.
  ASSERT_TRUE(consumer->Seek("events", 0, 3).ok());
  auto batch = consumer->Poll(kShortTimeout);
  EXPECT_TRUE(batch.status().IsTimeout());
}

}  // namespace
}  // namespace strata::net
