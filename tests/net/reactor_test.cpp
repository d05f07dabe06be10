// Tests for the epoll reactor front-end: the EventLoop itself, the
// mandatory Hello, request pipelining with correlation ids, long-poll
// parking (and the regressions the reactor rewrite fixed: accept stalled
// behind joined handler threads, long-polls spinning on below-retention
// offsets), and connection churn under concurrency.
#include "net/reactor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/remote.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "pubsub/broker.hpp"

namespace strata::net {
namespace {

using namespace std::chrono_literals;

ps::Record MakeRecord(const std::string& key, const std::string& value) {
  ps::Record r;
  r.key = key;
  r.value = value;
  return r;
}

/// Raw framed client speaking directly to the server socket, so tests can
/// pipeline requests and observe per-frame correlation ids — things the
/// strict request/response ClientConnection never does.
struct RawClient {
  /// Connects and, unless `hello` is false, runs the Hello handshake.
  explicit RawClient(std::uint16_t port, bool hello = true) {
    auto s = Socket::Connect("127.0.0.1", port, After(5s));
    s.status().OrDie();
    socket = std::move(*s);
    if (hello) Handshake(&socket, After(5s)).OrDie();
  }

  /// Send one request frame tagged with a correlation id.
  [[nodiscard]] Status Send(ApiKey api, const std::string& body,
                            std::uint64_t correlation = 0) {
    std::string payload;
    EncodeRequest(api, body, &payload);
    return WriteFrame(&socket, payload, After(5s), {}, correlation);
  }

  /// Read one response frame; fills the echoed correlation id and returns
  /// the transported Status with `*body` set on Ok.
  [[nodiscard]] Status Recv(std::string* body, std::uint64_t* correlation,
                            Deadline deadline) {
    std::string payload;
    if (Status s = ReadFrame(&socket, &payload, deadline, nullptr, correlation);
        !s.ok()) {
      return s;
    }
    std::string_view view;
    Status s = DecodeResponse(payload, &view);
    if (body != nullptr) body->assign(view);
    return s;
  }

  /// Strict request/response round trip.
  [[nodiscard]] Status Call(ApiKey api, const std::string& body,
                            std::string* response) {
    const std::uint64_t sent = ++last_correlation;
    if (Status s = Send(api, body, sent); !s.ok()) return s;
    std::uint64_t correlation = 0;
    Status s = Recv(response, &correlation, After(5s));
    EXPECT_EQ(correlation, sent);
    return s;
  }

  /// Send a Hello carrying `version`; the transported Status, with the
  /// server's version in `*answered` on Ok.
  [[nodiscard]] Status Hello(std::uint32_t version,
                             std::uint32_t* answered = nullptr) {
    std::string body;
    EncodeHelloRequest(HelloRequest{version}, &body);
    std::string resp;
    STRATA_RETURN_IF_ERROR(Call(ApiKey::kHello, body, &resp));
    HelloResponse hello;
    STRATA_RETURN_IF_ERROR(DecodeHelloResponse(resp, &hello));
    if (answered != nullptr) *answered = hello.version;
    return Status::Ok();
  }

  /// True when the server has closed the connection: the next read ends
  /// in something other than a timeout.
  [[nodiscard]] bool Severed() {
    std::string payload;
    const Status read = ReadFrame(&socket, &payload, After(5s));
    return !read.ok() && !read.IsTimeout();
  }

  Socket socket;
  std::uint64_t last_correlation = 0;
};

std::string FetchBody(const std::string& topic, std::int64_t offset,
                      std::uint64_t max_wait_us) {
  FetchRequest req;
  req.entries.push_back({.tp = {topic, 0}, .offset = offset});
  req.max_wait_us = max_wait_us;
  std::string body;
  EncodeFetchRequest(req, &body);
  return body;
}

std::string ProduceBody(const std::string& topic, const std::string& key,
                        const std::string& value) {
  ProduceRequest req;
  req.topic = topic;
  req.record = MakeRecord(key, value);
  Pieces body;
  EncodeProduceRequest(req, &body);
  return body.Flatten();
}

// --- EventLoop --------------------------------------------------------------

TEST(EventLoop, PostRunsTasksOnLoopThread) {
  EventLoop loop;
  ASSERT_TRUE(loop.Start().ok());
  EXPECT_FALSE(loop.InLoopThread());

  std::atomic<bool> on_loop{false};
  loop.PostAndWait([&] { on_loop.store(loop.InLoopThread()); });
  EXPECT_TRUE(on_loop.load());

  // Tasks posted from the loop thread run in a later iteration, not inline.
  std::atomic<int> order{0};
  loop.PostAndWait([&] {
    loop.Post([&] { order.store(order.load() * 10 + 2); });
    order.store(1);
  });
  loop.PostAndWait([] {});  // barrier: the nested task has run
  EXPECT_EQ(order.load(), 12);
  loop.Stop();
}

TEST(EventLoop, PostAndWaitRunsInlineWhenStopped) {
  EventLoop loop;
  bool ran = false;
  loop.PostAndWait([&] { ran = true; });  // never started
  EXPECT_TRUE(ran);

  ASSERT_TRUE(loop.Start().ok());
  loop.Stop();
  ran = false;
  loop.PostAndWait([&] { ran = true; });  // stopped
  EXPECT_TRUE(ran);
}

TEST(EventLoop, TimersFireInDeadlineOrderAndCancel) {
  EventLoop loop;
  ASSERT_TRUE(loop.Start().ok());

  std::mutex mu;
  std::vector<int> fired;
  std::condition_variable cv;
  loop.PostAndWait([&] {
    const auto now = std::chrono::steady_clock::now();
    loop.AddTimer(now + 60ms, [&] {
      std::lock_guard lock(mu);
      fired.push_back(2);
      cv.notify_all();
    });
    loop.AddTimer(now + 20ms, [&] {
      std::lock_guard lock(mu);
      fired.push_back(1);
    });
    const auto cancelled = loop.AddTimer(now + 1ms, [&] {
      std::lock_guard lock(mu);
      fired.push_back(99);
    });
    loop.CancelTimer(cancelled);
  });

  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return fired.size() >= 2; }));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  loop.Stop();
}

// --- Hello and pipelining ----------------------------------------------------

struct TestServer {
  explicit TestServer(BrokerServerOptions options = {},
                      ps::BrokerOptions broker_options = {})
      : broker(std::move(broker_options)), server(&broker, std::move(options)) {
    server.Start().OrDie();
  }
  ~TestServer() { server.Stop(); }

  ps::Broker broker;
  BrokerServer server;
};

TEST(Reactor, HelloNegotiatesPipeliningVersion) {
  TestServer ts;
  RawClient client(ts.server.port(), /*hello=*/false);
  std::uint32_t answered = 0;
  ASSERT_TRUE(client.Hello(kProtocolVersion, &answered).ok());
  EXPECT_EQ(answered, kProtocolVersion);
  // The connection is open for business after the Hello.
  CreateTopicRequest create;
  create.topic = "t";
  create.config = {.partitions = 1};
  std::string body;
  EncodeCreateTopic(create, &body);
  std::string resp;
  EXPECT_TRUE(client.Call(ApiKey::kCreateTopic, body, &resp).ok());

  // Any other version is refused with an error naming both, then severed.
  RawClient old_client(ts.server.port(), /*hello=*/false);
  const Status hello = old_client.Hello(kProtocolVersion - 1);
  EXPECT_EQ(hello.code(), StatusCode::kInvalidArgument) << hello.ToString();
  EXPECT_NE(hello.message().find("v" + std::to_string(kProtocolVersion - 1)),
            std::string::npos)
      << hello.ToString();
  EXPECT_NE(hello.message().find("v" + std::to_string(kProtocolVersion)),
            std::string::npos)
      << hello.ToString();
  EXPECT_TRUE(old_client.Severed());
}

TEST(Reactor, RequestBeforeHelloIsRefusedThenSevered) {
  TestServer ts;
  ASSERT_TRUE(ts.broker.CreateTopic("t", {.partitions = 1}).ok());
  RawClient client(ts.server.port(), /*hello=*/false);

  const std::uint64_t produce_id = 5;
  ASSERT_TRUE(
      client.Send(ApiKey::kProduce, ProduceBody("t", "k", "v"), produce_id)
          .ok());
  std::string body;
  std::uint64_t correlation = 0;
  const Status refused = client.Recv(&body, &correlation, After(5s));
  EXPECT_EQ(correlation, produce_id);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
      << refused.ToString();
  EXPECT_NE(refused.message().find("Hello required"), std::string::npos)
      << refused.ToString();
  EXPECT_TRUE(client.Severed());

  // The refused request was never applied.
  auto log = ts.broker.GetLog("t", 0);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->EndOffset(), 0);
}

// The point of the reactor rewrite, end to end: a long-poll Fetch parked on
// an empty partition does not block a Produce pipelined behind it on the
// same connection — the Produce completes first (out of order, by
// correlation id) and its append then wakes the parked Fetch.
TEST(Reactor, ParkedFetchDoesNotBlockPipelinedProduce) {
  TestServer ts;
  ASSERT_TRUE(ts.broker.CreateTopic("t", {.partitions = 1}).ok());

  RawClient client(ts.server.port());

  const std::uint64_t fetch_id = 7;
  const std::uint64_t produce_id = 9;
  ASSERT_TRUE(
      client.Send(ApiKey::kFetch, FetchBody("t", 0, 2'000'000), fetch_id)
          .ok());
  ASSERT_TRUE(
      client.Send(ApiKey::kProduce, ProduceBody("t", "k", "v"), produce_id)
          .ok());

  // The produce response overtakes the parked fetch.
  std::string body;
  std::uint64_t correlation = 0;
  ASSERT_TRUE(client.Recv(&body, &correlation, After(5s)).ok());
  ASSERT_EQ(correlation, produce_id);
  ProduceResponse produced;
  ASSERT_TRUE(DecodeProduceResponse(body, &produced).ok());
  EXPECT_EQ(produced.offset, 0);

  // The append wakes the parked fetch, which completes with the record.
  ASSERT_TRUE(client.Recv(&body, &correlation, After(5s)).ok());
  ASSERT_EQ(correlation, fetch_id);
  FetchResponse fetched;
  ASSERT_TRUE(DecodeFetchResponse(body, &fetched).ok());
  ASSERT_EQ(fetched.entries.size(), 1u);
  ASSERT_EQ(fetched.entries[0].records.size(), 1u);
  EXPECT_EQ(fetched.entries[0].records[0].value, "v");
}

// Regression (thread-per-connection bug): ReapFinishedLocked joined handler
// threads while holding the accept-path mutex, so one parked long-poll
// could stall every new connection. With the reactor, fresh connections
// must connect and round-trip promptly while a long-poll sits parked.
TEST(Reactor, AcceptAndDispatchNotStalledBehindParkedLongPoll) {
  TestServer ts;
  ASSERT_TRUE(ts.broker.CreateTopic("t", {.partitions = 1}).ok());

  RawClient parked(ts.server.port());
  ASSERT_TRUE(
      parked.Send(ApiKey::kFetch, FetchBody("t", 0, 3'000'000)).ok());
  // Give the server a beat to actually park the fetch.
  std::this_thread::sleep_for(50ms);

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 16; ++i) {
    RawClient fresh(ts.server.port());
    std::string resp;
    // Produce on a missing topic: a cheap full round trip through accept,
    // dispatch, and response writing.
    ASSERT_TRUE(
        fresh.Call(ApiKey::kProduce, ProduceBody("missing", "k", "v"), &resp)
            .IsNotFound());
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Far below the 3s long-poll budget the parked fetch is sitting out.
  EXPECT_LT(elapsed, 2s);

  // The parked fetch still completes once its topic gets data.
  ASSERT_TRUE(ts.broker.Produce("t", MakeRecord("k", "woken")).ok());
  std::string body;
  std::uint64_t correlation = 0;
  ASSERT_TRUE(parked.Recv(&body, &correlation, After(5s)).ok());
  FetchResponse fetched;
  ASSERT_TRUE(DecodeFetchResponse(body, &fetched).ok());
  ASSERT_FALSE(fetched.empty());
  EXPECT_EQ(fetched.entries[0].records[0].value, "woken");
}

// Regression (long-poll offset-healing bug): HandleFetch used to wait on
// the client's raw offsets while fetch_once healed below-retention offsets
// upward, so a stale offset made "data available" permanently true and the
// long-poll spun instead of parking. The reactor parks on healed offsets:
// a below-retention fetch returns the surviving records immediately, a
// caught-up fetch parks and is woken a bounded number of times.
TEST(Reactor, ParkedFetchWaitsOnHealedOffsets) {
  obs::MetricsRegistry metrics;
  BrokerServerOptions options;
  options.metrics = &metrics;
  TestServer ts(options);
  ASSERT_TRUE(
      ts.broker
          .CreateTopic("t", {.partitions = 1, .retention_records = 4})
          .ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ts.broker.Produce("t", MakeRecord("", "v")).ok());
  }
  // Retention trimmed offsets [0, 4); a stale offset 0 heals upward and
  // returns the surviving records without parking.
  RawClient client(ts.server.port());
  std::string resp;
  ASSERT_TRUE(
      client.Call(ApiKey::kFetch, FetchBody("t", 0, 2'000'000), &resp).ok());
  FetchResponse fetched;
  ASSERT_TRUE(DecodeFetchResponse(resp, &fetched).ok());
  ASSERT_EQ(fetched.entries.size(), 1u);
  ASSERT_EQ(fetched.entries[0].records.size(), 4u);
  EXPECT_EQ(fetched.entries[0].records[0].offset, 4);
  EXPECT_EQ(fetched.entries[0].next_offset, 8);

  // Caught up now: the next long-poll parks (no data) and completes on the
  // producing append.
  ASSERT_TRUE(
      client.Send(ApiKey::kFetch, FetchBody("t", 8, 3'000'000)).ok());
  std::this_thread::sleep_for(50ms);
  ASSERT_TRUE(ts.broker.Produce("t", MakeRecord("", "fresh")).ok());
  std::uint64_t correlation = 0;
  ASSERT_TRUE(client.Recv(&resp, &correlation, After(5s)).ok());
  ASSERT_TRUE(DecodeFetchResponse(resp, &fetched).ok());
  ASSERT_FALSE(fetched.empty());
  EXPECT_EQ(fetched.entries[0].records[0].value, "fresh");

  // A spinning long-poll would re-wake continuously for its whole budget;
  // a parked one is woken once per append (plus scheduling slack).
  const auto wakeups = metrics.Snapshot().Value("net.server.fetch_wakeups");
  ASSERT_TRUE(wakeups.has_value());
  EXPECT_LE(*wakeups, 8.0);
}

// A connection severed for a corrupt request body mid-pipeline still
// answers what it can: the corrupt request gets its error response and the
// previously parked fetch is completed with current data before the server
// drops the connection.
TEST(Reactor, SeveredConnectionCompletesParkedFetches) {
  TestServer ts;
  ASSERT_TRUE(ts.broker.CreateTopic("t", {.partitions = 1}).ok());

  RawClient client(ts.server.port());

  const std::uint64_t fetch_id = 1;
  const std::uint64_t bad_id = 2;
  ASSERT_TRUE(
      client.Send(ApiKey::kFetch, FetchBody("t", 0, 5'000'000), fetch_id)
          .ok());
  std::this_thread::sleep_for(50ms);
  ASSERT_TRUE(client.Send(ApiKey::kProduce, "garbage", bad_id).ok());

  bool saw_fetch = false;
  bool saw_error = false;
  for (int i = 0; i < 2; ++i) {
    std::string body;
    std::uint64_t correlation = 0;
    Status s = client.Recv(&body, &correlation, After(5s));
    if (correlation == fetch_id) {
      ASSERT_TRUE(s.ok());
      saw_fetch = true;  // completed early (empty) instead of waiting 5s
    } else {
      ASSERT_EQ(correlation, bad_id);
      EXPECT_TRUE(s.IsCorruption());
      saw_error = true;
    }
  }
  EXPECT_TRUE(saw_fetch);
  EXPECT_TRUE(saw_error);

  // ... and then the connection is gone.
  EXPECT_TRUE(client.Severed());
}

// Stop() while clients are mid-connect and mid-long-poll: no hangs, no
// crashes, and parked clients fail fast instead of waiting out budgets.
TEST(Reactor, StopDuringAcceptAndParkedFetchChurn) {
  auto ts = std::make_unique<TestServer>();
  ASSERT_TRUE(ts->broker.CreateTopic("t", {.partitions = 2}).ok());
  const std::uint16_t port = ts->server.port();

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      while (!done.load(std::memory_order_relaxed)) {
        auto socket = Socket::Connect("127.0.0.1", port, After(200ms));
        if (!socket.ok()) continue;
        std::string payload;
        EncodeRequest(ApiKey::kFetch, FetchBody("t", 0, 2'000'000), &payload);
        if (i % 2 == 0) {
          // Half the clients long-poll; Stop() must sever them promptly.
          if (!Handshake(&*socket, After(200ms)).ok() ||
              !WriteFrame(&*socket, payload, After(200ms)).ok()) {
            continue;
          }
          std::string response;
          (void)ReadFrame(&*socket, &response, After(3s));
        }
        // The rest connect and drop immediately (churn during accept).
      }
    });
  }

  std::this_thread::sleep_for(100ms);
  const auto stop_start = std::chrono::steady_clock::now();
  ts->server.Stop();
  // Stop must not wait out the 2s long-poll budgets of parked fetches.
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start, 1500ms);
  done.store(true);
  for (auto& t : threads) t.join();
  ts.reset();
}

// 500 connections churned through the server from 8 threads, each doing a
// full produce + fetch round trip. Runs under TSan via the tsan_smoke
// label, which is what makes the reactor's cross-thread choreography
// (accept -> adoption post -> loop-pinned I/O -> shard waiter wake-ups)
// race-checked rather than just exercised.
TEST(Reactor, ConnectionChurnRoundTrips) {
  BrokerServerOptions options;
  options.event_loop_workers = 4;
  TestServer ts(options);
  ASSERT_TRUE(ts.broker.CreateTopic("t", {.partitions = 4}).ok());

  constexpr int kThreads = 8;
  constexpr int kConnsPerThread = 63;  // ~500 total
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kConnsPerThread; ++i) {
        RawClient client(ts.server.port());
        std::string resp;
        const std::string key = std::to_string(t * kConnsPerThread + i);
        if (!client.Call(ApiKey::kProduce, ProduceBody("t", key, "v"), &resp)
                 .ok()) {
          failures.fetch_add(1);
          continue;
        }
        ProduceResponse produced;
        if (!DecodeProduceResponse(resp, &produced).ok() ||
            !client
                 .Call(ApiKey::kFetch,
                       FetchBody("t", 0, 0),  // partition 0 snapshot
                       &resp)
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto produced = ts.broker.GetLog("t", 0);
  ASSERT_TRUE(produced.ok());
}

// --- Client backoff (decorrelated jitter + cancellation) --------------------

// Regression: the retry backoff used to be a non-abortable sleep_for, so a
// closing client sat out the full backoff before noticing. Cancel() must
// abort the sleep promptly and fail subsequent calls fast.
TEST(ClientBackoff, CancelAbortsRetrySleepPromptly) {
  // A port with no listener: every attempt fails and backs off.
  auto listener = ListenSocket::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t dead_port = listener->port();
  listener->Close();

  RemoteOptions options;
  options.host = "127.0.0.1";
  options.port = dead_port;
  options.connect_timeout = 100ms;
  options.max_retries = 50;
  options.backoff_initial = 300ms;
  options.backoff_max = 2s;
  ClientConnection connection(options);

  std::string body;
  EncodeMetadataRequest({}, &body);
  Status call_status = Status::Ok();
  const auto start = std::chrono::steady_clock::now();
  std::thread caller([&] {
    ps::Bytes resp;
    call_status = connection.Call(ApiKey::kMetadata, body, &resp);
  });
  std::this_thread::sleep_for(150ms);
  connection.Cancel();
  caller.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // Without cancellation, 50 retries at >= 300ms each would take >= 15s.
  EXPECT_LT(elapsed, 5s);
  EXPECT_FALSE(call_status.ok());

  // Subsequent calls fail fast without touching the network.
  const auto again = std::chrono::steady_clock::now();
  ps::Bytes resp;
  EXPECT_TRUE(connection.Call(ApiKey::kMetadata, body, &resp).IsClosed());
  EXPECT_LT(std::chrono::steady_clock::now() - again, 1s);
}

// The decorrelated-jitter backoff stays within [backoff_initial,
// backoff_max] per sleep: a capped retry budget completes within the
// worst-case sum (and the call still fails cleanly).
TEST(ClientBackoff, RetryBudgetIsBoundedByBackoffMax) {
  auto listener = ListenSocket::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t dead_port = listener->port();
  listener->Close();

  RemoteOptions options;
  options.host = "127.0.0.1";
  options.port = dead_port;
  options.connect_timeout = 100ms;
  options.max_retries = 4;
  options.backoff_initial = 1ms;
  options.backoff_max = 50ms;
  ClientConnection connection(options);

  std::string body;
  EncodeMetadataRequest({}, &body);
  ps::Bytes resp;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(connection.Call(ApiKey::kMetadata, body, &resp).ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // 4 sleeps capped at 50ms plus 5 fast connect failures, with slack.
  EXPECT_LT(elapsed, 2s);
}

}  // namespace
}  // namespace strata::net
