// Kill-the-leader failover torture harness (chaos label).
//
// Each iteration forks a child that runs the leader broker of a 3-node
// replicated cluster; the parent runs the two followers plus a quorum-acks
// producer and a committing consumer, then SIGKILLs the child mid-produce —
// a real process death, not a polite shutdown. The invariants asserted
// every iteration are the ones that make acks=quorum worth paying for:
//
//   * a surviving follower promotes itself automatically (no operator),
//   * every record the producer saw acked is served by the new leader,
//   * consumers never read past the committed high watermark, and the
//     committed watermark never runs past the recovered log end,
//   * the same producer and consumer handles keep working through the
//     failover — rerouting is the client library's job.
//
// Iterations default to 50; override with STRATA_TORTURE_ITERS. The child
// also arms a low-probability disconnect failpoint on the replication fetch
// path so some iterations exercise retry-after-severed-fetch before dying.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/failpoint.hpp"
#include "net/remote.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "pubsub/broker.hpp"
#include "repl/manager.hpp"

namespace strata::repl {
namespace {

using namespace std::chrono_literals;

int TortureIterations() {
  if (const char* env = std::getenv("STRATA_TORTURE_ITERS"); env != nullptr) {
    return std::max(1, std::atoi(env));
  }
  return 50;
}

constexpr int kRecordsPerIteration = 30;

/// One broker node (broker + manager + server) of the replica set.
struct Node {
  std::unique_ptr<ps::Broker> broker;
  std::unique_ptr<ReplicationManager> manager;
  std::unique_ptr<net::BrokerServer> server;
};

/// Start node `index` (0-based) of `endpoints`; returns nullptr on failure.
std::unique_ptr<Node> StartNode(const std::vector<BrokerEndpoint>& endpoints,
                                int index) {
  auto node = std::make_unique<Node>();
  node->broker = std::make_unique<ps::Broker>();
  ReplicaOptions repl;
  repl.self = endpoints[static_cast<std::size_t>(index)];
  repl.brokers = endpoints;
  repl.fetch_interval = 1ms;
  repl.leader_timeout = 200ms;
  repl.isr_timeout = 150ms;
  repl.peer_connect_timeout = 100ms;
  repl.peer_request_timeout = 500ms;
  node->manager =
      std::make_unique<ReplicationManager>(node->broker.get(), repl);
  net::BrokerServerOptions server;
  server.host = "127.0.0.1";
  server.port = endpoints[static_cast<std::size_t>(index)].port;
  server.repl = node->manager.get();
  server.quorum_ack_timeout = 2s;
  node->server =
      std::make_unique<net::BrokerServer>(node->broker.get(), server);
  if (!node->server->Start().ok()) return nullptr;
  if (!node->manager->Start().ok()) return nullptr;
  if (!node->manager->AddTopic("torture", ps::TopicConfig{1}, 1).ok()) {
    return nullptr;
  }
  return node;
}

void StopNode(Node* node) {
  if (node == nullptr) return;
  node->manager->Stop();
  node->server->Stop();
  node->broker->Close();
}

/// Child body: run the leader broker until SIGKILLed by the parent. Never
/// returns into gtest.
[[noreturn]] void RunLeaderChild(const std::vector<BrokerEndpoint>& endpoints,
                                 int ready_fd, int iteration) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // die with the parent, never linger
  fault::SeedRng(static_cast<std::uint64_t>(iteration) * 6271u + 11u);
  // A little pre-death chaos: some fetches sever mid-flight, so followers
  // exercise the reconnect path before the real kill lands.
  fault::Activate("repl.fetch.serve",
                  fault::Action{fault::ActionKind::kDisconnect, 0, 0.05, -1});
  auto node = StartNode(endpoints, 0);
  if (node == nullptr) ::_exit(2);
  const char byte = 'r';
  if (::write(ready_fd, &byte, 1) != 1) ::_exit(2);
  while (true) ::pause();  // SIGKILL from the parent is the only exit
}

TEST(ReplFailoverTorture, AckedRecordsSurviveLeaderKill) {
  const int iterations = TortureIterations();
  for (int iteration = 0; iteration < iterations; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));

    // Reserve the cluster's ports up front: every process needs the full
    // peer list before any server starts.
    std::vector<BrokerEndpoint> endpoints;
    {
      std::vector<net::ListenSocket> probes;
      for (int i = 0; i < 3; ++i) {
        auto probe = net::ListenSocket::Listen("127.0.0.1", 0);
        ASSERT_TRUE(probe.ok());
        endpoints.push_back(BrokerEndpoint{static_cast<std::uint32_t>(i + 1),
                                           "127.0.0.1", probe->port()});
        probes.push_back(std::move(*probe));
      }
    }

    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      ::close(ready[0]);
      RunLeaderChild(endpoints, ready[1], iteration);
    }
    ::close(ready[1]);

    auto follower1 = StartNode(endpoints, 1);
    auto follower2 = StartNode(endpoints, 2);
    ASSERT_NE(follower1, nullptr);
    ASSERT_NE(follower2, nullptr);
    char byte = 0;
    ASSERT_EQ(::read(ready[0], &byte, 1), 1) << "leader child never came up";
    ::close(ready[0]);

    net::RemoteOptions remote;
    for (const BrokerEndpoint& endpoint : endpoints) {
      remote.bootstrap.emplace_back(endpoint.host, endpoint.port);
    }
    remote.acks = net::ProduceAcks::kQuorum;
    remote.connect_timeout = 300ms;
    remote.request_timeout = 4s;
    remote.max_retries = 1;
    remote.backoff_initial = 5ms;
    remote.cluster_refresh_rounds = 12;
    remote.cluster_refresh_backoff = 50ms;
    net::RemoteProducer producer(remote);
    auto consumer = net::NewRemoteConsumer(remote, "torture");
    ASSERT_TRUE(consumer.ok());

    // Produce through the kill. The kill lands after a varying number of
    // acked records so it hits the leader in different states (fresh,
    // mid-replication, parked quorum produce in flight).
    const int kill_after = 3 + iteration % 7;
    std::set<std::string> acked;
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    bool killed = false;
    for (int i = 0; i < kRecordsPerIteration;) {
      if (!killed && static_cast<int>(acked.size()) >= kill_after) {
        ASSERT_EQ(::kill(child, SIGKILL), 0);
        killed = true;
      }
      const std::string value =
          "it" + std::to_string(iteration) + "-v" + std::to_string(i);
      auto sent = producer.Send("torture", "k", value, 0);
      if (sent.ok()) {
        acked.insert(value);
        ++i;
        continue;
      }
      // Mid-failover sends may time out or bounce; the record may or may
      // not have landed (at-least-once) — only *acked* sends join the
      // must-survive set. Retry the same value until the deadline.
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "producer never recovered: " << sent.status().ToString();
    }
    ASSERT_TRUE(killed);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    // A survivor must hold the lease now (auto-promotion, no operator).
    Node* new_leader = nullptr;
    const auto promote_deadline = std::chrono::steady_clock::now() + 10s;
    while (new_leader == nullptr &&
           std::chrono::steady_clock::now() < promote_deadline) {
      if (follower1->manager->IsLeader("torture")) {
        new_leader = follower1.get();
      } else if (follower2->manager->IsLeader("torture")) {
        new_leader = follower2.get();
      } else {
        std::this_thread::sleep_for(5ms);
      }
    }
    ASSERT_NE(new_leader, nullptr) << "no follower promoted itself";
    auto view = new_leader->manager->View("torture");
    ASSERT_TRUE(view.ok());
    EXPECT_GE(view->epoch, 2u);
    // Committed never runs past recovered: hw <= log end on the new leader.
    EXPECT_LE(view->partitions[0].high_watermark, view->partitions[0].log_end);

    // The same consumer handle drains everything that was ever acked
    // (duplicates from producer retries are fine; losses are not).
    std::set<std::string> consumed;
    const auto consume_deadline = std::chrono::steady_clock::now() + 15s;
    while (std::chrono::steady_clock::now() < consume_deadline) {
      auto polled = (*consumer)->Poll(100ms);
      if (polled.ok()) {
        for (const auto& record : *polled) consumed.emplace(record.value);
      }
      bool all = true;
      for (const std::string& value : acked) {
        if (!consumed.contains(value)) {
          all = false;
          break;
        }
      }
      if (all) break;
    }
    for (const std::string& value : acked) {
      EXPECT_TRUE(consumed.contains(value))
          << "acked record lost in failover: " << value;
    }
    EXPECT_TRUE((*consumer)->Commit().ok());

    consumer->reset();
    StopNode(follower1.get());
    StopNode(follower2.get());
  }
}

}  // namespace
}  // namespace strata::repl
