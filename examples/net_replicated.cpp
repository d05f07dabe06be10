// Replicated broker cluster demo (DESIGN.md "Replication & failover"): three
// in-process brokers, one topic replicated leader -> followers, a producer
// publishing with acks=quorum, and a mid-run leader kill that the cluster
// absorbs by electing the most-caught-up in-sync follower. The same producer
// and consumer handles ride through the failover: the client library refreshes
// its cached cluster metadata on NotLeader / transport errors and re-routes.
//
//   build/examples/net_replicated [records]
//
// Every record the producer saw acked is read back after the failover — the
// quorum commit rule means an acked record lives on a majority of brokers, so
// losing the leader cannot lose it.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/remote.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "pubsub/broker.hpp"
#include "repl/manager.hpp"

using namespace strata;  // NOLINT
using namespace std::chrono_literals;

namespace {

constexpr int kBrokers = 3;

struct Node {
  std::unique_ptr<ps::Broker> broker;
  std::unique_ptr<repl::ReplicationManager> manager;
  std::unique_ptr<net::BrokerServer> server;
  bool up = false;
};

struct Cluster {
  std::vector<repl::BrokerEndpoint> endpoints;
  std::vector<Node> nodes;

  void StartNode(int i) {
    Node& node = nodes[static_cast<std::size_t>(i)];
    node.broker = std::make_unique<ps::Broker>();
    repl::ReplicaOptions repl;
    repl.self = endpoints[static_cast<std::size_t>(i)];
    repl.brokers = endpoints;
    repl.fetch_interval = 1ms;
    repl.leader_timeout = 200ms;
    repl.isr_timeout = 150ms;
    net::BrokerServerOptions server;
    server.host = "127.0.0.1";
    server.port = endpoints[static_cast<std::size_t>(i)].port;
    node.manager =
        std::make_unique<repl::ReplicationManager>(node.broker.get(), repl);
    server.repl = node.manager.get();
    server.quorum_ack_timeout = 2s;
    node.server =
        std::make_unique<net::BrokerServer>(node.broker.get(), server);
    node.server->Start().OrDie();
    node.manager->Start().OrDie();
    node.up = true;
  }

  void StopNode(int i) {
    Node& node = nodes[static_cast<std::size_t>(i)];
    if (!node.up) return;
    node.up = false;
    node.manager->Stop();
    node.server->Stop();
    node.broker->Close();
  }

  int LeaderOf(const std::string& topic) {
    for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
      const Node& node = nodes[static_cast<std::size_t>(i)];
      if (node.up && node.manager->IsLeader(topic)) return i;
    }
    return -1;
  }
};

void PrintView(Cluster& cluster, const char* when) {
  const int leader = cluster.LeaderOf("events");
  if (leader < 0) {
    std::printf("[%s] no leader\n", when);
    return;
  }
  const auto view = cluster.nodes[static_cast<std::size_t>(leader)]
                        .manager->View("events");
  if (!view.ok()) return;
  std::string isr;
  for (const std::uint32_t id : view->isr) {
    isr.append(isr.empty() ? "" : ",").append(std::to_string(id));
  }
  std::printf("[%s] leader=broker%u epoch=%llu isr={%s} log_end=%lld hw=%lld\n",
              when, view->leader,
              static_cast<unsigned long long>(view->epoch), isr.c_str(),
              static_cast<long long>(view->partitions[0].log_end),
              static_cast<long long>(view->partitions[0].high_watermark));
}

}  // namespace

int main(int argc, char** argv) {
  const int records = argc > 1 ? std::atoi(argv[1]) : 20;
  const int pre_kill = records / 2;

  // Reserve three localhost ports, then bring up broker + replication
  // manager + server on each (every manager needs the full peer list).
  Cluster cluster;
  {
    std::vector<net::ListenSocket> probes;
    for (int i = 0; i < kBrokers; ++i) {
      auto probe = net::ListenSocket::Listen("127.0.0.1", 0);
      probe.status().OrDie();
      cluster.endpoints.push_back(repl::BrokerEndpoint{
          static_cast<std::uint32_t>(i + 1), "127.0.0.1", probe->port()});
      probes.push_back(std::move(*probe));
    }
  }
  cluster.nodes.resize(kBrokers);
  for (int i = 0; i < kBrokers; ++i) cluster.StartNode(i);
  for (Node& node : cluster.nodes) {
    node.manager->AddTopic("events", ps::TopicConfig{1}, /*leader=*/1).OrDie();
  }
  std::printf("three brokers up on ports %u %u %u, topic \"events\" led by "
              "broker 1\n",
              cluster.endpoints[0].port, cluster.endpoints[1].port,
              cluster.endpoints[2].port);

  // One producer and one consumer, both configured with the full bootstrap
  // list and quorum acks; both survive the leader kill below.
  net::RemoteOptions remote;
  for (const repl::BrokerEndpoint& endpoint : cluster.endpoints) {
    remote.bootstrap.emplace_back(endpoint.host, endpoint.port);
  }
  remote.acks = net::ProduceAcks::kQuorum;
  remote.request_timeout = 4s;
  remote.max_retries = 2;
  remote.cluster_refresh_rounds = 12;
  remote.cluster_refresh_backoff = 50ms;
  net::RemoteProducer producer(remote);
  auto consumer = net::NewRemoteConsumer(remote, "events");
  consumer.status().OrDie();

  for (int i = 0; i < pre_kill; ++i) {
    producer.Send("events", "k", "r" + std::to_string(i), 0).status().OrDie();
  }
  std::printf("produced %d records with acks=quorum\n", pre_kill);
  PrintView(cluster, "before kill");

  const int old_leader = cluster.LeaderOf("events");
  std::printf("stopping leader broker %d...\n", old_leader + 1);
  cluster.StopNode(old_leader);

  // The survivors detect the dead leader via missed heartbeats and promote
  // the most-caught-up in-sync follower; the producer's next sends re-route.
  for (int i = pre_kill; i < records; ++i) {
    const auto deadline = std::chrono::steady_clock::now() + 15s;
    while (true) {
      auto sent = producer.Send("events", "k", "r" + std::to_string(i), 0);
      if (sent.ok()) break;
      if (std::chrono::steady_clock::now() > deadline) {
        std::printf("FAILED: produce never recovered: %s\n",
                    sent.status().ToString().c_str());
        return 1;
      }
      std::this_thread::sleep_for(20ms);
    }
  }
  std::printf("produced %d more records through the failover\n",
              records - pre_kill);
  PrintView(cluster, "after failover");

  // Drain with the original consumer handle: every acked record must come
  // back, in order, despite the leader change mid-stream.
  std::vector<std::string> seen;
  const auto drain_deadline = std::chrono::steady_clock::now() + 15s;
  while (static_cast<int>(seen.size()) < records &&
         std::chrono::steady_clock::now() < drain_deadline) {
    auto polled = (*consumer)->Poll(500ms);
    if (!polled.ok()) continue;
    for (const ps::ConsumedRecord& record : *polled) {
      seen.emplace_back(record.value);
    }
  }
  bool ordered = static_cast<int>(seen.size()) == records;
  for (int i = 0; ordered && i < records; ++i) {
    ordered = seen[static_cast<std::size_t>(i)] == "r" + std::to_string(i);
  }
  std::printf("consumer drained %zu/%d records, order %s\n", seen.size(),
              records, ordered ? "intact" : "BROKEN");

  for (int i = 0; i < kBrokers; ++i) cluster.StopNode(i);
  if (!ordered) {
    std::printf("MISMATCH\n");
    return 1;
  }
  std::printf("OK: no acked record lost across the leader kill\n");
  return 0;
}
