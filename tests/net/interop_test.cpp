// Protocol edge and failure-surface interop tests:
//
//   * a server that answers Hello with a different protocol version, or
//     with an error, gives the client a final error naming both versions —
//     no retries;
//   * a response echoing the wrong correlation id is a transport fault: the
//     call fails and the client closes the connection;
//   * pipelined correlated produces across a connection the server severs
//     mid-stream (net.server.dispatch failpoint) must recover with
//     at-least-once semantics and matching correlation ids;
//   * broker disk failures must reach remote producers as *distinct*,
//     non-retried application errors: fail-stop -> StorageFailed (sticky),
//     degrade -> acks keep flowing with the shard flagged in BrokerStats.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.hpp"
#include "fault/failpoint.hpp"
#include "net/frame.hpp"
#include "net/remote.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "pubsub/broker.hpp"

namespace strata::net {
namespace {

using namespace std::chrono_literals;

class InteropTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DeactivateAll(); }
};

/// A fake broker on a ListenSocket: accepts one connection and hands it to
/// `serve` on its own thread.
class FakeServer {
 public:
  explicit FakeServer(std::function<void(Socket*)> serve)
      : listener_(std::move(ListenSocket::Listen("127.0.0.1", 0)).value()),
        port_(listener_.port()),
        thread_([this, serve = std::move(serve)] {
          auto socket = listener_.Accept(After(5s));
          if (socket.ok()) serve(&*socket);
        }) {}
  ~FakeServer() { Join(); }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  ListenSocket listener_;
  std::uint16_t port_;
  std::thread thread_;
};

/// Reads one request frame and answers it with `status` + `body`, echoing
/// the request's correlation id plus `correlation_skew`.
void Answer(Socket* socket, const Status& status, std::string_view body,
            std::uint64_t correlation_skew = 0) {
  std::string request;
  std::uint64_t correlation = 0;
  ASSERT_TRUE(
      ReadFrame(socket, &request, After(5s), nullptr, &correlation).ok());
  std::string payload;
  EncodeResponse(status, body, &payload);
  ASSERT_TRUE(WriteFrame(socket, payload, After(5s), {},
                         correlation + correlation_skew)
                  .ok());
}

double CounterValue(obs::MetricsRegistry& registry, const std::string& name) {
  return registry.Snapshot().Value(name).value_or(0);
}

TEST_F(InteropTest, VersionMismatchIsFinalAndNamesBothVersions) {
  const std::string theirs = "v" + std::to_string(kProtocolVersion + 1);
  const std::string ours = "v" + std::to_string(kProtocolVersion);
  // A server speaking another version either says so in an error response
  // (what BrokerServer does) or answers Hello with its own version.
  std::string other_hello;
  EncodeHelloResponse(HelloResponse{kProtocolVersion + 1}, &other_hello);
  const std::vector<std::pair<Status, std::string>> answers = {
      {Status::InvalidArgument("protocol version mismatch: client speaks " +
                               ours + ", server speaks " + theirs),
       ""},
      {Status::Ok(), other_hello},
  };
  for (const auto& [status, body] : answers) {
    FakeServer fake([&](Socket* socket) { Answer(socket, status, body); });

    obs::MetricsRegistry registry;
    RemoteOptions remote;
    remote.port = fake.port();
    remote.max_retries = 3;
    remote.backoff_initial = 1ms;
    remote.metrics = &registry;
    ClientConnection conn(remote);
    std::string request_body;
    EncodeMetadataRequest({}, &request_body);
    ps::Bytes response;
    const Status called = conn.Call(ApiKey::kMetadata, request_body, &response);
    fake.Join();

    EXPECT_EQ(called.code(), StatusCode::kInvalidArgument)
        << called.ToString();
    EXPECT_NE(called.message().find(ours), std::string::npos)
        << called.ToString();
    EXPECT_NE(called.message().find(theirs), std::string::npos)
        << called.ToString();
    EXPECT_EQ(CounterValue(registry, "net.client.retries"), 0);
    EXPECT_EQ(CounterValue(registry, "net.client.connects"), 1);
  }
}

TEST_F(InteropTest, WrongCorrelationIdIsATransportFault) {
  Status after_bad_answer = Status::Ok();
  FakeServer fake([&](Socket* socket) {
    std::string hello;
    EncodeHelloResponse(HelloResponse{}, &hello);
    Answer(socket, Status::Ok(), hello);
    std::string metadata;
    EncodeMetadataResponse({}, &metadata);
    Answer(socket, Status::Ok(), metadata, /*correlation_skew=*/1);
    // The client must drop the connection rather than read on.
    std::string next;
    after_bad_answer = ReadFrame(socket, &next, After(5s));
  });

  RemoteOptions remote;
  remote.port = fake.port();
  remote.max_retries = 0;
  ClientConnection conn(remote);
  std::string request_body;
  EncodeMetadataRequest({}, &request_body);
  ps::Bytes response;
  const Status called = conn.Call(ApiKey::kMetadata, request_body, &response);
  fake.Join();

  EXPECT_TRUE(called.IsCorruption()) << called.ToString();
  EXPECT_EQ(called.message().rfind("server: ", 0), std::string::npos)
      << "a correlation mismatch is a transport fault, not a server answer";
  EXPECT_EQ(after_bad_answer.code(), StatusCode::kUnavailable)
      << after_bad_answer.ToString();
}

TEST_F(InteropTest, PipelinedProducesSurviveMidStreamDisconnect) {
  ps::Broker broker;
  BrokerServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(broker.CreateTopic("events", {.partitions = 1}).ok());

  constexpr int kPipelined = 8;
  const auto deadline = After(5s);

  // Raw connection with explicit correlation ids, so requests can be
  // pipelined and responses matched out of band of the client library.
  auto connect = [&]() -> Socket {
    auto socket = Socket::Connect("127.0.0.1", server.port(), After(2s));
    EXPECT_TRUE(socket.ok());
    EXPECT_TRUE(Handshake(&*socket, deadline).ok());
    return std::move(*socket);
  };

  auto frame_for = [](std::uint64_t correlation, int i) {
    ProduceRequest req;
    req.topic = "events";
    req.record = ps::Record{"k", "v" + std::to_string(i), 0};
    Pieces body;
    EncodeProduceRequest(req, &body);
    std::string payload;
    EncodeRequest(ApiKey::kProduce, body.Flatten(), &payload);
    std::string frame;
    EncodeFrame(payload, {}, correlation, &frame);
    return frame;
  };

  Socket socket = connect();
  // Sever the connection at the first produce dispatch — after the append
  // is applied, before its response is written (the at-least-once window).
  fault::SeedRng(7);
  fault::Activate("net.server.dispatch",
                  fault::Action{fault::ActionKind::kDisconnect, 0, 1.0, 1});

  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    burst += frame_for(static_cast<std::uint64_t>(i) + 1, i);
  }
  ASSERT_TRUE(socket.WriteAll(burst, deadline).ok());

  // The server drops the connection without answering anything.
  std::string response;
  EXPECT_FALSE(ReadFrame(&socket, &response, deadline).ok());

  // A real client re-sends every unacknowledged request on a fresh
  // connection; all of them must be answered with matching correlations.
  socket = connect();
  ASSERT_TRUE(socket.WriteAll(burst, deadline).ok());
  std::set<std::uint64_t> answered;
  for (int i = 0; i < kPipelined; ++i) {
    std::uint64_t correlation = 0;
    ASSERT_TRUE(ReadFrame(&socket, &response, deadline, nullptr, &correlation)
                    .ok());
    std::string_view out;
    ASSERT_TRUE(DecodeResponse(response, &out).ok());
    answered.insert(correlation);
  }
  EXPECT_EQ(answered.size(), static_cast<std::size_t>(kPipelined));

  // At-least-once: every value present; the one applied before the sever
  // was applied again on the retry, so exactly one duplicate.
  auto log = broker.GetLog("events", 0);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->EndOffset(), kPipelined + 1);
  std::vector<ps::Record> stored;
  std::int64_t next = 0;
  ASSERT_TRUE((*log)->ReadFrom(0, 64, &stored, &next).ok());
  std::set<std::string> values;
  for (const ps::Record& record : stored) values.emplace(record.value);
  for (int i = 0; i < kPipelined; ++i) {
    EXPECT_TRUE(values.contains("v" + std::to_string(i)));
  }

  server.Stop();
}

TEST_F(InteropTest, FailStopDiskErrorReachesClientAsStorageFailed) {
  strata::fs::ScopedTempDir dir("interop-failstop");
  ps::BrokerOptions broker_options;
  broker_options.data_dir = dir.path();
  broker_options.disk_failure_policy = ps::DiskFailurePolicy::kFailStop;
  ps::Broker broker(broker_options);
  BrokerServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(broker.CreateTopic("events", {.partitions = 1}).ok());

  obs::MetricsRegistry registry;
  RemoteOptions remote;
  remote.port = server.port();
  remote.metrics = &registry;
  RemoteProducer producer(remote);
  ASSERT_TRUE(producer.Send("events", "k", "healthy", 0).ok());

  fault::Activate("segment.append",
                  fault::Action{fault::ActionKind::kError, 0, 1.0, -1});
  auto sent = producer.Send("events", "k", "doomed", 0);
  ASSERT_FALSE(sent.ok());
  EXPECT_TRUE(sent.status().IsStorageFailed()) << sent.status().ToString();

  // Sticky: the disk error outlives the failpoint, and the distinct error
  // keeps the client from burning retries on a dead partition.
  fault::DeactivateAll();
  auto again = producer.Send("events", "k", "still-doomed", 0);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsStorageFailed()) << again.status().ToString();
  for (const auto& sample : registry.Snapshot().samples) {
    if (sample.name == "net.client.retries") {
      EXPECT_EQ(sample.value, 0) << "storage failure must not be retried";
    }
  }
  auto stats = broker.Stats();
  bool failed_shard = false;
  for (const auto& shard : stats.shards) failed_shard |= shard.fail_stopped;
  EXPECT_TRUE(failed_shard);

  server.Stop();
}

TEST_F(InteropTest, DegradedDiskKeepsAckingAndFlagsTheShard) {
  strata::fs::ScopedTempDir dir("interop-degrade");
  ps::BrokerOptions broker_options;
  broker_options.data_dir = dir.path();
  broker_options.disk_failure_policy = ps::DiskFailurePolicy::kDegrade;
  ps::Broker broker(broker_options);
  BrokerServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(broker.CreateTopic("events", {.partitions = 1}).ok());

  RemoteOptions remote;
  remote.port = server.port();
  RemoteProducer producer(remote);
  ASSERT_TRUE(producer.Send("events", "k", "on-disk", 0).ok());

  fault::Activate("segment.append",
                  fault::Action{fault::ActionKind::kError, 0, 1.0, -1});
  // kDegrade absorbs the disk failure: produces keep acking from memory.
  auto sent = producer.Send("events", "k", "memory-only", 0);
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  fault::DeactivateAll();

  auto stats = broker.Stats();
  bool degraded_shard = false;
  std::uint64_t disk_errors = 0;
  for (const auto& shard : stats.shards) {
    degraded_shard |= shard.degraded;
    disk_errors += shard.disk_errors;
  }
  EXPECT_TRUE(degraded_shard);
  EXPECT_GE(disk_errors, 1u);
  EXPECT_EQ(stats.shards.size(), 8u);  // default shard count, all reported

  server.Stop();
}

}  // namespace
}  // namespace strata::net
