// In-process replicated cluster tests: three brokers, each a ps::Broker +
// net::BrokerServer + repl::ReplicationManager, wired over real sockets.
// Covers follower catch-up, the quorum commit rule (acks=quorum blocking,
// consumer high-watermark clamping), NotLeader gating, leader failover with
// client re-routing, and divergent-tail truncation on promotion.
#include "repl/manager.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "net/remote.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "pubsub/broker.hpp"

namespace strata::repl {
namespace {

using namespace std::chrono_literals;

constexpr auto kClusterDeadline = 10s;

/// Spin until `pred` holds or `deadline` elapses.
template <typename Pred>
bool Eventually(Pred pred, std::chrono::milliseconds deadline =
                               std::chrono::duration_cast<
                                   std::chrono::milliseconds>(kClusterDeadline)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

struct Node {
  std::unique_ptr<ps::Broker> broker;
  std::unique_ptr<ReplicationManager> manager;
  std::unique_ptr<net::BrokerServer> server;
  bool up = false;
};

/// N brokers on pre-probed localhost ports. Nodes can be stopped and the
/// survivors keep replicating / elect a new leader.
class MiniCluster {
 public:
  explicit MiniCluster(int n,
                       std::chrono::microseconds quorum_ack_timeout = 5s) {
    // Reserve ports first: every manager needs the full peer list before
    // any server starts.
    {
      std::vector<net::ListenSocket> probes;
      for (int i = 0; i < n; ++i) {
        auto probe = net::ListenSocket::Listen("127.0.0.1", 0);
        EXPECT_TRUE(probe.ok());
        endpoints_.push_back(BrokerEndpoint{static_cast<std::uint32_t>(i + 1),
                                            "127.0.0.1", probe->port()});
        probes.push_back(std::move(*probe));
      }
    }  // probes closed; the real servers bind the same ports below
    nodes_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) StartNode(i, quorum_ack_timeout);
  }

  ~MiniCluster() {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      StopNode(static_cast<int>(i));
    }
  }

  void StartNode(int i, std::chrono::microseconds quorum_ack_timeout = 5s) {
    Node& node = nodes_[static_cast<std::size_t>(i)];
    node.broker = std::make_unique<ps::Broker>();
    ReplicaOptions repl;
    repl.self = endpoints_[static_cast<std::size_t>(i)];
    repl.brokers = endpoints_;
    repl.fetch_interval = 1ms;
    repl.leader_timeout = 200ms;
    repl.isr_timeout = 150ms;
    repl.peer_connect_timeout = 100ms;
    repl.peer_request_timeout = 500ms;
    node.manager = std::make_unique<ReplicationManager>(node.broker.get(),
                                                        repl);
    net::BrokerServerOptions server;
    server.host = "127.0.0.1";
    server.port = endpoints_[static_cast<std::size_t>(i)].port;
    server.repl = node.manager.get();
    server.quorum_ack_timeout = quorum_ack_timeout;
    node.server = std::make_unique<net::BrokerServer>(node.broker.get(),
                                                      server);
    ASSERT_TRUE(node.server->Start().ok());
    ASSERT_TRUE(node.manager->Start().ok());
    node.up = true;
  }

  void StopNode(int i) {
    Node& node = nodes_[static_cast<std::size_t>(i)];
    if (!node.up) return;
    node.up = false;
    node.manager->Stop();
    node.server->Stop();
    node.broker->Close();
  }

  /// Register `topic` on every *running* node with broker `leader` leading.
  void AddTopic(const std::string& topic, int partitions,
                std::uint32_t leader) {
    for (Node& node : nodes_) {
      if (!node.up) continue;
      ASSERT_TRUE(node.manager
                      ->AddTopic(topic, ps::TopicConfig{partitions}, leader)
                      .ok());
    }
  }

  [[nodiscard]] net::RemoteOptions ClientOptions(net::ProduceAcks acks) const {
    net::RemoteOptions remote;
    for (const BrokerEndpoint& endpoint : endpoints_) {
      remote.bootstrap.emplace_back(endpoint.host, endpoint.port);
    }
    remote.acks = acks;
    remote.connect_timeout = 500ms;
    remote.request_timeout = 8s;
    remote.max_retries = 2;
    remote.backoff_initial = 5ms;
    remote.cluster_refresh_rounds = 12;
    remote.cluster_refresh_backoff = 50ms;
    return remote;
  }

  [[nodiscard]] Node& node(int i) { return nodes_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] std::uint16_t port(int i) const {
    return endpoints_[static_cast<std::size_t>(i)].port;
  }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }

  [[nodiscard]] std::int64_t LogEnd(int i, const std::string& topic,
                                    int partition) {
    auto log = node(i).broker->GetLog(topic, partition);
    return log.ok() ? (*log)->EndOffset() : -1;
  }

  /// Index of the node whose manager currently claims leadership, -1 if
  /// none (or several — leadership must be unique among the running nodes).
  [[nodiscard]] int LeaderOf(const std::string& topic) {
    int leader = -1;
    for (int i = 0; i < size(); ++i) {
      if (!node(i).up) continue;
      if (node(i).manager->IsLeader(topic)) {
        if (leader != -1) return -1;
        leader = i;
      }
    }
    return leader;
  }

 private:
  std::vector<BrokerEndpoint> endpoints_;
  std::vector<Node> nodes_;
};

TEST(ReplCluster, FollowersCatchUpAndHwAdvances) {
  MiniCluster cluster(3);
  cluster.AddTopic("events", 1, 1);

  net::RemoteProducer producer(cluster.ClientOptions(net::ProduceAcks::kQuorum));
  for (int i = 0; i < 50; ++i) {
    const std::string n = std::to_string(i);
    auto sent = producer.Send("events", "k", "v" + n, 0);
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  }

  // Every copy converges on the full log.
  EXPECT_TRUE(Eventually([&] {
    return cluster.LogEnd(0, "events", 0) == 50 &&
           cluster.LogEnd(1, "events", 0) == 50 &&
           cluster.LogEnd(2, "events", 0) == 50;
  }));
  // The leader's high watermark covers everything acked, and the view
  // reports a full ISR with no lag once the acks drain.
  EXPECT_TRUE(Eventually([&] {
    auto view = cluster.node(0).manager->View("events");
    return view.ok() && view->partitions[0].high_watermark == 50 &&
           view->partitions[0].lag == 0 && view->isr.size() == 3;
  }));
  auto view = cluster.node(0).manager->View("events");
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->is_leader);
  EXPECT_EQ(view->epoch, 1u);
}

TEST(ReplCluster, QuorumAckBlocksUntilMajorityReplicates) {
  MiniCluster cluster(3, /*quorum_ack_timeout=*/300ms);
  // Only the leader runs: a quorum of 2 is unreachable.
  cluster.StopNode(1);
  cluster.StopNode(2);
  cluster.AddTopic("events", 1, 1);

  net::RemoteOptions remote = cluster.ClientOptions(net::ProduceAcks::kQuorum);
  remote.cluster_refresh_rounds = 1;  // no point re-routing: no other leader
  net::RemoteProducer producer(remote);
  auto sent = producer.Send("events", "k", "lonely", 0);
  ASSERT_FALSE(sent.ok());
  EXPECT_TRUE(sent.status().IsTimeout()) << sent.status().ToString();
  // The append itself happened (at-least-once on ack timeout)...
  EXPECT_EQ(cluster.LogEnd(0, "events", 0), 1);
  // ...but it is not committed: nothing is consumer-visible.
  auto consumer = net::NewRemoteConsumer(
      cluster.ClientOptions(net::ProduceAcks::kLeader), "events");
  ASSERT_TRUE(consumer.ok());
  auto records = (*consumer)->Poll(50ms);
  EXPECT_FALSE(records.ok());  // Timeout: hw still 0

  // A majority appears: the same produce now commits.
  cluster.StartNode(1, 300ms);
  ASSERT_TRUE(cluster.node(1)
                  .manager->AddTopic("events", ps::TopicConfig{1}, 1)
                  .ok());
  EXPECT_TRUE(Eventually([&] {
    auto again = producer.Send("events", "k", "quorate", 0);
    return again.ok();
  }));
  EXPECT_TRUE(Eventually([&] {
    auto polled = (*consumer)->Poll(100ms);
    return polled.ok() && !polled->empty();
  }));
}

TEST(ReplCluster, ConsumersNeverReadPastHighWatermark) {
  MiniCluster cluster(3, /*quorum_ack_timeout=*/200ms);
  cluster.StopNode(1);
  cluster.StopNode(2);
  cluster.AddTopic("events", 1, 1);

  // acks=leader: the produce succeeds immediately even with no quorum...
  net::RemoteProducer producer(cluster.ClientOptions(net::ProduceAcks::kLeader));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(producer.Send("events", "k", std::to_string(i), 0).ok());
  }
  ASSERT_EQ(cluster.LogEnd(0, "events", 0), 5);

  // ...but consumers are clamped to the (zero) high watermark.
  auto consumer = net::NewRemoteConsumer(
      cluster.ClientOptions(net::ProduceAcks::kLeader), "events");
  ASSERT_TRUE(consumer.ok());
  auto records = (*consumer)->Poll(50ms);
  EXPECT_FALSE(records.ok()) << "uncommitted records leaked to a consumer";

  // A follower joins, replication commits the backlog, the poll drains it.
  cluster.StartNode(1, 200ms);
  ASSERT_TRUE(cluster.node(1)
                  .manager->AddTopic("events", ps::TopicConfig{1}, 1)
                  .ok());
  std::size_t seen = 0;
  EXPECT_TRUE(Eventually([&] {
    auto polled = (*consumer)->Poll(100ms);
    if (polled.ok()) seen += polled->size();
    return seen == 5;
  }));
}

TEST(ReplCluster, DirectProduceAtFollowerAnswersNotLeader) {
  MiniCluster cluster(3);
  cluster.AddTopic("events", 1, 1);

  // A raw connection (no router) pointed straight at a follower.
  net::RemoteOptions remote;
  remote.host = "127.0.0.1";
  remote.port = cluster.port(1);
  remote.max_retries = 0;
  net::ClientConnection conn(remote);
  net::ProduceRequest req;
  req.topic = "events";
  req.record = ps::Record{"k", "v", 0};
  net::Pieces body;
  net::EncodeProduceRequest(req, &body);
  ps::Bytes response;
  Status status = conn.Call(net::ApiKey::kProduce, body, &response);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsNotLeader()) << status.ToString();

  // The routed producer pointed at the same follower chases the leader.
  net::RemoteOptions routed = cluster.ClientOptions(net::ProduceAcks::kQuorum);
  routed.bootstrap = {{"127.0.0.1", cluster.port(1)}};
  net::RemoteProducer producer(routed);
  auto sent = producer.Send("events", "k", "routed", 0);
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
}

TEST(ReplCluster, LeaderStopPromotesFollowerAndClientsResume) {
  MiniCluster cluster(3);
  cluster.AddTopic("events", 1, 1);

  net::RemoteProducer producer(cluster.ClientOptions(net::ProduceAcks::kQuorum));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(producer.Send("events", "k", "pre" + std::to_string(i), 0)
                    .ok());
  }
  auto consumer = net::NewRemoteConsumer(
      cluster.ClientOptions(net::ProduceAcks::kLeader), "events");
  ASSERT_TRUE(consumer.ok());

  cluster.StopNode(0);

  // A survivor promotes itself (unique leadership, higher epoch).
  EXPECT_TRUE(Eventually([&] { return cluster.LeaderOf("events") > 0; }));
  const int leader = cluster.LeaderOf("events");
  ASSERT_GT(leader, 0);
  auto view = cluster.node(leader).manager->View("events");
  ASSERT_TRUE(view.ok());
  EXPECT_GE(view->epoch, 2u);

  // The same producer keeps working through the failover (the router
  // discovers the new leader from the surviving bootstrap endpoints).
  for (int i = 0; i < 10; ++i) {
    auto sent = producer.Send("events", "k", "post" + std::to_string(i), 0);
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  }

  // The consumer drains everything that was ever acked, in one group
  // session spanning the failover — no manual intervention.
  std::vector<std::string> values;
  EXPECT_TRUE(Eventually([&] {
    auto polled = (*consumer)->Poll(100ms);
    if (polled.ok()) {
      for (const auto& record : *polled) values.emplace_back(record.value);
    }
    return values.size() >= 20;
  }));
  EXPECT_EQ(values.size(), 20u);
  EXPECT_EQ(values.front(), "pre0");
  EXPECT_EQ(values.back(), "post9");
}

TEST(ReplCluster, RetentionGapSurfacesStalledPartition) {
  MiniCluster cluster(3);
  // Tiny retention: the leader's in-memory log keeps only the last few
  // records. With one follower down, produce past the window, then bring
  // it back empty — the leader can no longer serve contiguously from the
  // follower's end, and the follower must say so instead of stalling
  // silently.
  const ps::TopicConfig config{1, /*retention_records=*/4};
  for (int i = 0; i < cluster.size(); ++i) {
    ASSERT_TRUE(cluster.node(i).manager->AddTopic("events", config, 1).ok());
  }
  cluster.StopNode(2);
  net::RemoteProducer producer(cluster.ClientOptions(net::ProduceAcks::kQuorum));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(producer.Send("events", "k", "v" + std::to_string(i), 0).ok());
  }
  cluster.StartNode(2);
  ASSERT_TRUE(cluster.node(2).manager->AddTopic("events", config, 1).ok());
  EXPECT_TRUE(Eventually([&] {
    auto view = cluster.node(2).manager->View("events");
    return view.ok() && view->partitions[0].stalled;
  }));
  // The flag reaches operators through the /healthz json.
  EXPECT_NE(cluster.node(2).manager->HealthJson().find("\"stalled\":true"),
            std::string::npos);
  // The healthy copies never raise it.
  auto view = cluster.node(1).manager->View("events");
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(view->partitions[0].stalled);
}

TEST(ReplManager, PhantomFetchAckDoesNotAdvanceHwPastLeaderEnd) {
  // Followers fetching beyond the leader's end (a diverged log) must not
  // earn ack credit for records the leader never served: the high
  // watermark may only cover offsets a real quorum identically holds.
  ps::Broker broker;
  ReplicaOptions options;
  options.self = BrokerEndpoint{1, "127.0.0.1", 1};
  options.brokers = {BrokerEndpoint{1, "127.0.0.1", 1},
                     BrokerEndpoint{2, "127.0.0.1", 2},
                     BrokerEndpoint{3, "127.0.0.1", 3}};
  ReplicationManager manager(&broker, options);
  ASSERT_TRUE(manager.AddTopic("events", ps::TopicConfig{1}, 1).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(broker.Produce("events", ps::Record{"k", "v", 0}).ok());
  }

  for (const std::uint32_t follower : {2u, 3u}) {
    net::ReplicaFetchRequest fetch;
    fetch.follower = follower;
    fetch.epoch = 1;
    fetch.topic = "events";
    fetch.entries.push_back(net::ReplicaFetchRequest::Entry{0, 100, 512});
    net::ReplicaFetchResponse response;
    ASSERT_TRUE(manager.HandleReplicaFetch(fetch, &response).ok());
  }
  auto view = manager.View("events");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->partitions[0].high_watermark, 5);  // clamped, not 100
}

TEST(ReplManager, PromoteNeverTruncatesBelowHighWatermark) {
  // A promote announcement whose log end sits below our quorum-committed
  // high watermark must not cut committed (possibly consumed) records.
  ps::Broker broker;
  ReplicaOptions options;
  options.self = BrokerEndpoint{1, "127.0.0.1", 1};
  options.brokers = {BrokerEndpoint{1, "127.0.0.1", 1},
                     BrokerEndpoint{2, "127.0.0.1", 2},
                     BrokerEndpoint{3, "127.0.0.1", 3}};
  ReplicationManager manager(&broker, options);
  ASSERT_TRUE(manager.AddTopic("events", ps::TopicConfig{1}, 1).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(broker.Produce("events", ps::Record{"k", "v", 0}).ok());
  }
  // Both followers catch up to the end: hw reaches 5.
  for (const std::uint32_t follower : {2u, 3u}) {
    net::ReplicaFetchRequest fetch;
    fetch.follower = follower;
    fetch.epoch = 1;
    fetch.topic = "events";
    fetch.entries.push_back(net::ReplicaFetchRequest::Entry{0, 5, 512});
    net::ReplicaFetchResponse response;
    ASSERT_TRUE(manager.HandleReplicaFetch(fetch, &response).ok());
  }
  auto view = manager.View("events");
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->partitions[0].high_watermark, 5);

  net::PromoteLeaderRequest promote;
  promote.leader = 2;
  promote.epoch = 2;
  promote.topic = "events";
  promote.entries.push_back(net::PromoteLeaderRequest::Entry{0, 2});
  net::PromoteLeaderResponse response;
  ASSERT_TRUE(manager.HandlePromoteLeader(promote, &response).ok());

  auto log = broker.GetLog("events", 0);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->EndOffset(), 5);  // committed prefix survives
  EXPECT_FALSE(manager.IsLeader("events"));
}

TEST(ReplManager, StaleEpochFetchEarnsNoCreditAndReturnsEpoch) {
  // A fetch carrying an older epoch gets an epoch-only answer: no records,
  // no ack credit. The follower adopts the epoch and refetches cleanly.
  ps::Broker broker;
  ReplicaOptions options;
  options.self = BrokerEndpoint{1, "127.0.0.1", 1};
  options.brokers = {BrokerEndpoint{1, "127.0.0.1", 1},
                     BrokerEndpoint{2, "127.0.0.1", 2},
                     BrokerEndpoint{3, "127.0.0.1", 3}};
  ReplicationManager manager(&broker, options);
  ASSERT_TRUE(manager.AddTopic("events", ps::TopicConfig{1}, 1).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(broker.Produce("events", ps::Record{"k", "v", 0}).ok());
  }
  // Re-promote self at a higher epoch (as after winning an election).
  net::PromoteLeaderRequest promote;
  promote.leader = 1;
  promote.epoch = 3;
  promote.topic = "events";
  promote.entries.push_back(net::PromoteLeaderRequest::Entry{0, 5});
  net::PromoteLeaderResponse promote_response;
  ASSERT_TRUE(manager.HandlePromoteLeader(promote, &promote_response).ok());
  ASSERT_TRUE(manager.IsLeader("events"));

  for (const std::uint32_t follower : {2u, 3u}) {
    net::ReplicaFetchRequest stale;
    stale.follower = follower;
    stale.epoch = 1;
    stale.topic = "events";
    stale.entries.push_back(net::ReplicaFetchRequest::Entry{0, 5, 512});
    net::ReplicaFetchResponse response;
    ASSERT_TRUE(manager.HandleReplicaFetch(stale, &response).ok());
    EXPECT_EQ(response.epoch, 3u);
    EXPECT_TRUE(response.entries.empty());
  }
  auto view = manager.View("events");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->partitions[0].high_watermark, 0);  // no phantom quorum

  // The same fetch under the current epoch is served and credited.
  for (const std::uint32_t follower : {2u, 3u}) {
    net::ReplicaFetchRequest current;
    current.follower = follower;
    current.epoch = 3;
    current.topic = "events";
    current.entries.push_back(net::ReplicaFetchRequest::Entry{0, 5, 512});
    net::ReplicaFetchResponse response;
    ASSERT_TRUE(manager.HandleReplicaFetch(current, &response).ok());
    ASSERT_EQ(response.entries.size(), 1u);
  }
  view = manager.View("events");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->partitions[0].high_watermark, 5);

  // A stale-epoch explicit ack is refused the same way.
  net::ReplicaAckRequest stale_ack;
  stale_ack.follower = 2;
  stale_ack.epoch = 1;
  stale_ack.topic = "events";
  stale_ack.entries.push_back(net::ReplicaAckRequest::Entry{0, 100});
  net::ReplicaAckResponse ack_response;
  EXPECT_TRUE(manager.HandleReplicaAck(stale_ack, &ack_response).IsNotLeader());
}

TEST(ReplManager, PromoteTruncatesDivergedTail) {
  // Single manager driven directly through the hook interface: a new
  // leader's announcement with a shorter log must truncate the local tail
  // (it was never quorum-committed) and depose the local leader.
  ps::Broker broker;
  ReplicaOptions options;
  options.self = BrokerEndpoint{1, "127.0.0.1", 1};
  options.brokers = {BrokerEndpoint{1, "127.0.0.1", 1},
                     BrokerEndpoint{2, "127.0.0.1", 2},
                     BrokerEndpoint{3, "127.0.0.1", 3}};
  ReplicationManager manager(&broker, options);
  ASSERT_TRUE(manager.AddTopic("events", ps::TopicConfig{1}, 1).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(broker.Produce("events", ps::Record{"k", "v", 0}).ok());
  }
  ASSERT_TRUE(manager.IsLeader("events"));

  net::PromoteLeaderRequest promote;
  promote.leader = 2;
  promote.epoch = 2;
  promote.topic = "events";
  promote.entries.push_back(net::PromoteLeaderRequest::Entry{0, 2});
  net::PromoteLeaderResponse response;
  ASSERT_TRUE(manager.HandlePromoteLeader(promote, &response).ok());

  auto log = broker.GetLog("events", 0);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->EndOffset(), 2);  // offsets [2,5) dropped
  ASSERT_EQ(response.entries.size(), 1u);
  EXPECT_EQ(response.entries[0].log_end, 2);
  EXPECT_FALSE(manager.IsLeader("events"));
  EXPECT_TRUE(manager.CheckProduce("events").IsNotLeader());

  // A stale re-announcement of the deposed epoch is refused.
  net::PromoteLeaderRequest stale;
  stale.leader = 1;
  stale.epoch = 1;
  stale.topic = "events";
  net::PromoteLeaderResponse stale_response;
  EXPECT_FALSE(manager.HandlePromoteLeader(stale, &stale_response).ok());
}

}  // namespace
}  // namespace strata::repl
