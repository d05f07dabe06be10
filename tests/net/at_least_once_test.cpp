// The remote produce path is at-least-once: when the server dies after
// applying a produce but before acking, the client's retry duplicates the
// record. This test forces that exact window with the net.server.dispatch
// failpoint and demonstrates the documented duplicate (chaos label).
#include <gtest/gtest.h>

#include <chrono>

#include "fault/failpoint.hpp"
#include "net/remote.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "pubsub/broker.hpp"

namespace strata::net {
namespace {

using namespace std::chrono_literals;

class AtLeastOnceTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DeactivateAll(); }
};

TEST_F(AtLeastOnceTest, RetryAfterDroppedAckDuplicatesRecord) {
  ps::Broker broker;
  BrokerServer server(&broker);
  server.Start().OrDie();

  obs::MetricsRegistry registry;
  RemoteOptions remote;
  remote.host = "127.0.0.1";
  remote.port = server.port();
  remote.max_retries = 3;
  remote.backoff_initial = 5ms;
  remote.metrics = &registry;
  RemoteBroker client(remote);
  // Create the topic and prime the producer's own connection before arming:
  // the first Send would otherwise connect and say Hello, and the
  // failpoint's single hit must land on the produce, not the handshake.
  ASSERT_TRUE(client.CreateTopic("events", {.partitions = 1}).ok());
  auto producer = client.NewProducer();
  ASSERT_TRUE(producer.ok());
  ASSERT_TRUE((*producer)->Send("events", "k", "prime", 1).ok());

  // Sever the connection after the next request is applied, before its
  // response is written — the crash window that makes produce at-least-once.
  fault::Activate("net.server.dispatch",
                  fault::Action{fault::ActionKind::kDisconnect, 0, 1.0, 1});

  auto sent = (*producer)->Send("events", "k", "once?", 1);
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();

  // The client saw one successful Send; the broker holds the record twice.
  auto log = broker.GetLog("events", 0);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->EndOffset(), 3);
  std::vector<ps::Record> records;
  std::int64_t next = 0;
  ASSERT_TRUE((*log)->ReadFrom(0, 10, &records, &next).ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].value, "once?");
  EXPECT_EQ(records[2].value, "once?");

  // The retry is observable: net.client.retries counted at least one.
  bool counted = false;
  for (const auto& sample : registry.Snapshot().samples) {
    if (sample.name == "net.client.retries" && sample.value >= 1) {
      counted = true;
    }
  }
  EXPECT_TRUE(counted);

  server.Stop();
}

TEST_F(AtLeastOnceTest, ErrorResponsesAreNeverRetried) {
  // Application errors ride a successful transport exchange; retrying them
  // would be wrong (and would mask bugs). Produce to a missing topic: one
  // clean NotFound, no duplicates possible, no retries consumed.
  ps::Broker broker;
  BrokerServer server(&broker);
  server.Start().OrDie();

  obs::MetricsRegistry registry;
  RemoteOptions remote;
  remote.host = "127.0.0.1";
  remote.port = server.port();
  remote.max_retries = 3;
  remote.backoff_initial = 5ms;
  remote.metrics = &registry;
  RemoteBroker client(remote);
  auto producer = client.NewProducer();
  ASSERT_TRUE(producer.ok());

  auto sent = (*producer)->Send("missing", "k", "v", 1);
  ASSERT_FALSE(sent.ok());
  for (const auto& sample : registry.Snapshot().samples) {
    if (sample.name == "net.client.retries") {
      EXPECT_EQ(sample.value, 0) << "app error must not be retried";
    }
  }

  server.Stop();
}

}  // namespace
}  // namespace strata::net
