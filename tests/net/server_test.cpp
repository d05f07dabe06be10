#include "net/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "net/frame.hpp"
#include "net/remote.hpp"
#include "pubsub/broker.hpp"

namespace strata::net {
namespace {

using namespace std::chrono_literals;

/// Broker + running server on an ephemeral loopback port.
struct TestServer {
  TestServer() : server(&broker) { server.Start().OrDie(); }
  ~TestServer() { server.Stop(); }

  [[nodiscard]] RemoteOptions Remote() const {
    RemoteOptions opts;
    opts.host = "127.0.0.1";
    opts.port = server.port();
    opts.max_retries = 2;
    opts.backoff_initial = 5ms;
    return opts;
  }

  ps::Broker broker;
  BrokerServer server;
};

TEST(BrokerServer, StartStopIsIdempotent) {
  ps::Broker broker;
  BrokerServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  server.Stop();
}

TEST(BrokerServer, ProduceAndFetchRoundTrip) {
  TestServer ts;
  RemoteBroker broker(ts.Remote());
  ASSERT_TRUE(broker.CreateTopic("events", {.partitions = 2}).ok());

  auto producer = broker.NewProducer();
  ASSERT_TRUE(producer.ok());
  for (int i = 0; i < 20; ++i) {
    auto sent = (*producer)->Send("events", "key" + std::to_string(i),
                                  "value" + std::to_string(i), i);
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  }

  auto consumer = broker.NewConsumer("events", {.group = "readers"});
  ASSERT_TRUE(consumer.ok()) << consumer.status().ToString();
  std::vector<ps::ConsumedRecord> records;
  while (records.size() < 20) {
    auto batch = (*consumer)->Poll(2s);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    records.insert(records.end(), batch->begin(), batch->end());
  }
  EXPECT_EQ(records.size(), 20u);
  bool found = false;
  for (const auto& r : records) {
    if (r.key == "key7") {
      EXPECT_EQ(r.value, "value7");
      EXPECT_EQ(r.timestamp, 7);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(BrokerServer, MetadataListsTopicsAndOffsets) {
  TestServer ts;
  ts.broker.CreateTopic("a", {.partitions = 1}).OrDie();
  ts.broker.CreateTopic("b", {.partitions = 3}).OrDie();
  (void)ts.broker.Produce("a", {.key = "", .value = "x", .timestamp = 0});

  RemoteBroker remote(ts.Remote());
  auto all = remote.Metadata("");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->topics.size(), 2u);

  auto one = remote.Metadata("b");
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->topics.size(), 1u);
  EXPECT_EQ(one->topics[0].topic, "b");
  EXPECT_EQ(one->topics[0].partitions.size(), 3u);

  auto a = remote.Metadata("a");
  ASSERT_TRUE(a.ok());
  std::int64_t total = 0;
  for (const auto& [start, end] : a->topics[0].partitions) total += end - start;
  EXPECT_EQ(total, 1);

  EXPECT_TRUE(remote.Metadata("missing").status().IsNotFound());
}

TEST(BrokerServer, ApplicationErrorsAreNotRetried) {
  TestServer ts;
  RemoteProducer producer(ts.Remote());
  auto sent = producer.Send("no-such-topic", "k", "v", 0);
  ASSERT_FALSE(sent.ok());
  EXPECT_TRUE(sent.status().IsNotFound()) << sent.status().ToString();
  // The message marks the error as server-side, not transport.
  EXPECT_EQ(sent.status().message().rfind("server: ", 0), 0u)
      << sent.status().message();
}

TEST(BrokerServer, LongPollWakesOnProduce) {
  TestServer ts;
  ts.broker.CreateTopic("wake", {.partitions = 1}).OrDie();

  auto consumer = NewRemoteConsumer(ts.Remote(), "wake");
  ASSERT_TRUE(consumer.ok());

  std::thread producer([&] {
    std::this_thread::sleep_for(100ms);
    ASSERT_TRUE(
        ts.broker.Produce("wake", {.key = "", .value = "ping", .timestamp = 0})
            .ok());
  });

  const auto start = std::chrono::steady_clock::now();
  auto batch = (*consumer)->Poll(5s);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  producer.join();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].value, "ping");
  // Long poll returned on the data signal, well before the 5s budget.
  EXPECT_LT(elapsed, 3s);
}

TEST(BrokerServer, PollTimesOutCleanlyWhenIdle) {
  TestServer ts;
  ts.broker.CreateTopic("idle", {.partitions = 1}).OrDie();
  auto consumer = NewRemoteConsumer(ts.Remote(), "idle");
  ASSERT_TRUE(consumer.ok());

  auto batch = (*consumer)->Poll(100ms);
  EXPECT_TRUE(batch.status().IsTimeout()) << batch.status().ToString();

  // Zero-timeout probe: empty Ok batch, same as the embedded consumer.
  auto probe = (*consumer)->Poll(0us);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_TRUE(probe->empty());
}

TEST(BrokerServer, StopMidLongPollFailsFast) {
  TestServer ts;
  ts.broker.CreateTopic("stall", {.partitions = 1}).OrDie();
  RemoteOptions opts = ts.Remote();
  opts.max_retries = 1;
  auto consumer = NewRemoteConsumer(opts, "stall");
  ASSERT_TRUE(consumer.ok());

  std::thread stopper([&] {
    std::this_thread::sleep_for(100ms);
    ts.server.Stop();
  });
  const auto start = std::chrono::steady_clock::now();
  auto batch = (*consumer)->Poll(30s);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stopper.join();
  EXPECT_FALSE(batch.ok());
  EXPECT_FALSE(batch.status().IsTimeout()) << batch.status().ToString();
  // The poll must not ride out its 30s budget against a dead server.
  EXPECT_LT(elapsed, 10s);
}

TEST(BrokerServer, ClientReconnectsAfterServerRestart) {
  ps::Broker broker;
  broker.CreateTopic("durable", {.partitions = 1}).OrDie();
  auto server = std::make_unique<BrokerServer>(&broker);
  ASSERT_TRUE(server->Start().ok());
  const std::uint16_t port = server->port();

  RemoteOptions opts;
  opts.port = port;
  opts.max_retries = 6;
  opts.backoff_initial = 5ms;
  RemoteProducer producer(opts);
  ASSERT_TRUE(producer.Send("durable", "k", "before", 0).ok());

  // Bounce the server; the broker (and its data) stays up.
  server->Stop();
  server.reset();
  BrokerServerOptions bind_same;
  bind_same.port = port;
  BrokerServer replacement(&broker, bind_same);
  ASSERT_TRUE(replacement.Start().ok());

  // The producer's socket is stale; Send must reconnect and succeed.
  auto sent = producer.Send("durable", "k", "after", 1);
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  EXPECT_EQ(sent->second, 1);  // second record in the same partition log
  replacement.Stop();
}

TEST(BrokerServer, ConnectionRefusedSurfacesAsCleanError) {
  ps::Broker broker;
  BrokerServer server(&broker);
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();
  server.Stop();  // port is now closed

  RemoteOptions opts;
  opts.port = port;
  opts.max_retries = 1;
  opts.backoff_initial = 1ms;
  RemoteProducer producer(opts);
  auto sent = producer.Send("t", "k", "v", 0);
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.status().code(), StatusCode::kUnavailable)
      << sent.status().ToString();
}

TEST(BrokerServer, CommittedOffsetsResumeAcrossConsumers) {
  TestServer ts;
  ts.broker.CreateTopic("resume", {.partitions = 1}).OrDie();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ts.broker
                    .Produce("resume", {.key = "k",
                                        .value = std::to_string(i),
                                        .timestamp = i})
                    .ok());
  }

  ps::ConsumerOptions copts;
  copts.group = "g";
  copts.auto_commit = false;
  copts.max_poll_records = 4;
  {
    auto first = NewRemoteConsumer(ts.Remote(), "resume", copts);
    ASSERT_TRUE(first.ok());
    auto batch = (*first)->Poll(2s);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), 4u);
    ASSERT_TRUE((*first)->Commit().ok());
    // Destroyed without committing anything further: offsets 4.. stay owed.
  }

  auto second = NewRemoteConsumer(ts.Remote(), "resume", copts);
  ASSERT_TRUE(second.ok());
  auto batch = (*second)->Poll(2s);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->empty());
  EXPECT_EQ((*batch)[0].offset, 4) << "must resume at the committed offset";
  EXPECT_EQ((*batch)[0].value, "4");
}

TEST(BrokerServer, LatestResetSkipsBacklogOverTheWire) {
  TestServer ts;
  ts.broker.CreateTopic("tail", {.partitions = 1}).OrDie();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        ts.broker.Produce("tail", {.key = "", .value = "old", .timestamp = 0})
            .ok());
  }
  ps::ConsumerOptions copts;
  copts.group = "tailer";
  copts.reset = ps::ConsumerOptions::AutoOffsetReset::kLatest;
  auto consumer = NewRemoteConsumer(ts.Remote(), "tail", copts);
  ASSERT_TRUE(consumer.ok());

  EXPECT_TRUE((*consumer)->Poll(50ms).status().IsTimeout());
  ASSERT_TRUE(
      ts.broker.Produce("tail", {.key = "", .value = "new", .timestamp = 1})
          .ok());
  auto batch = (*consumer)->Poll(2s);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].value, "new");
}

TEST(BrokerServer, DroppedConnectionTriggersRebalance) {
  TestServer ts;
  ts.broker.CreateTopic("shared", {.partitions = 2}).OrDie();

  ps::ConsumerOptions copts;
  copts.group = "g";
  auto survivor = NewRemoteConsumer(ts.Remote(), "shared", copts);
  ASSERT_TRUE(survivor.ok());
  (void)(*survivor)->Poll(0us);  // refresh assignment
  ASSERT_EQ((*survivor)->assignment().size(), 2u);

  // A second member joins through a raw connection, then drops it without
  // LeaveGroup — as a crashed process would.
  {
    ClientConnection raw(ts.Remote());
    GroupRequest join;
    join.group = "g";
    join.topic = "shared";
    std::string body;
    ps::Bytes response;
    EncodeGroupRequest(join, &body);
    ASSERT_TRUE(raw.Call(ApiKey::kJoinGroup, body, &response).ok());
    JoinGroupResponse joined;
    ASSERT_TRUE(DecodeJoinGroupResponse(response, &joined).ok());
    EXPECT_GT(joined.member, 0u);

    // The survivor's next heartbeat sees half the partitions.
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while ((*survivor)->assignment().size() != 1u &&
           std::chrono::steady_clock::now() < deadline) {
      (void)(*survivor)->Poll(10ms);
    }
    ASSERT_EQ((*survivor)->assignment().size(), 1u);
  }  // connection dropped here; the server must auto-LeaveGroup the member

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while ((*survivor)->assignment().size() != 2u &&
         std::chrono::steady_clock::now() < deadline) {
    (void)(*survivor)->Poll(10ms);
  }
  EXPECT_EQ((*survivor)->assignment().size(), 2u)
      << "partitions of the dropped member were not reassigned";
}

TEST(BrokerServer, CorruptFrameIsAnsweredThenSevered) {
  TestServer ts;
  auto socket = Socket::Connect("127.0.0.1", ts.server.port(), After(5s));
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(Handshake(&*socket, After(5s)).ok());

  // A valid request envelope carrying a garbage Produce body.
  std::string payload;
  EncodeRequest(ApiKey::kProduce, "\x01 not a produce body", &payload);
  ASSERT_TRUE(WriteFrame(&*socket, payload, After(5s)).ok());
  std::string response;
  ASSERT_TRUE(ReadFrame(&*socket, &response, After(5s)).ok());
  std::string_view body;
  EXPECT_TRUE(DecodeResponse(response, &body).IsCorruption());

  // The server severs after answering: the next read sees peer close.
  std::string next;
  Status read = ReadFrame(&*socket, &next, After(5s));
  EXPECT_FALSE(read.ok());
  EXPECT_FALSE(read.IsTimeout()) << read.ToString();
}

TEST(BrokerServer, ServerMetricsAreRecorded) {
  obs::MetricsRegistry registry;
  ps::Broker broker;
  BrokerServerOptions opts;
  opts.metrics = &registry;
  BrokerServer server(&broker, opts);
  ASSERT_TRUE(server.Start().ok());

  RemoteOptions ropts;
  ropts.port = server.port();
  RemoteBroker remote(ropts);
  ASSERT_TRUE(remote.CreateTopic("m", {.partitions = 1}).ok());
  ASSERT_TRUE((*remote.NewProducer())->Send("m", "k", "v", 0).ok());

  auto snapshot = registry.Snapshot();
  EXPECT_GE(snapshot.Value("net.server.requests", {{"api", "create_topic"}})
                .value_or(0),
            1.0);
  EXPECT_GE(
      snapshot.Value("net.server.requests", {{"api", "produce"}}).value_or(0),
      1.0);
  EXPECT_GT(snapshot.Value("net.server.bytes_in").value_or(0), 0.0);
  EXPECT_GT(snapshot.Value("net.server.bytes_out").value_or(0), 0.0);

  // The byte counters cover whole frames, fixed header included: a raw
  // client's Hello plus N requests add exactly the bytes it wrote, and the
  // responses exactly the bytes it read.
  const double in_before = snapshot.Value("net.server.bytes_in").value_or(0);
  const double out_before = snapshot.Value("net.server.bytes_out").value_or(0);
  // Per-api request counts and latency samples, by api label.
  auto requests = [](const obs::MetricsSnapshot& s, const char* api) {
    return s.Value("net.server.requests", {{"api", api}}).value_or(0);
  };
  auto latency_samples = [](const obs::MetricsSnapshot& s, const char* api) {
    for (const obs::HistogramSample& h : s.histograms) {
      if (h.name == "net.server.request_latency_us" &&
          h.labels == obs::Labels{{"api", api}}) {
        return h.stats.count;
      }
    }
    return std::uint64_t{0};
  };
  const double hello_before = requests(snapshot, "hello");
  const double metadata_before = requests(snapshot, "metadata");
  const std::uint64_t metadata_latency_before =
      latency_samples(snapshot, "metadata");
  constexpr int kRequests = 5;
  std::string hello_body;
  EncodeHelloRequest(HelloRequest{}, &hello_body);
  std::string payload;
  EncodeRequest(ApiKey::kHello, hello_body, &payload);
  std::string written;
  EncodeFrame(payload, {}, 0, &written);
  std::string metadata_body;
  EncodeMetadataRequest(MetadataRequest{"m"}, &metadata_body);
  payload.clear();
  EncodeRequest(ApiKey::kMetadata, metadata_body, &payload);
  for (int i = 1; i <= kRequests; ++i) {
    EncodeFrame(payload, {}, static_cast<std::uint64_t>(i), &written);
  }
  auto socket = Socket::Connect("127.0.0.1", server.port(), After(5s));
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket->WriteAll(written, After(5s)).ok());
  std::size_t read_bytes = 0;
  for (int i = 0; i <= kRequests; ++i) {
    std::string response;
    ASSERT_TRUE(ReadFrame(&*socket, &response, After(5s)).ok());
    std::string_view body;
    ASSERT_TRUE(DecodeResponse(response, &body).ok());
    read_bytes += kFrameHeaderBytes + response.size();
  }
  snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Value("net.server.bytes_in").value_or(0) - in_before,
            static_cast<double>(written.size()));
  EXPECT_EQ(snapshot.Value("net.server.bytes_out").value_or(0) - out_before,
            static_cast<double>(read_bytes));
  EXPECT_EQ(requests(snapshot, "hello") - hello_before, 1.0);
  EXPECT_EQ(requests(snapshot, "metadata") - metadata_before,
            static_cast<double>(kRequests));
  EXPECT_EQ(latency_samples(snapshot, "metadata") - metadata_latency_before,
            static_cast<std::uint64_t>(kRequests));
  server.Stop();
}

}  // namespace
}  // namespace strata::net
