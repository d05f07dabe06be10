// /healthz surface tests: the admin endpoint must expose per-shard broker
// storage state (degraded / fail-stopped / disk error counts) and, when a
// replication manager is wired in via SetHealthzAugmenter, the per-topic
// leadership and per-partition replication lag — so one scrape answers both
// "is my data durable" and "how far behind are the replicas".
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "common/fs.hpp"
#include "fault/failpoint.hpp"
#include "net/socket.hpp"
#include "repl/manager.hpp"
#include "strata/strata.hpp"

namespace strata::core {
namespace {

using namespace std::chrono_literals;

std::string Get(std::uint16_t port, const std::string& path) {
  auto socket = net::Socket::Connect("127.0.0.1", port, net::After(2s));
  if (!socket.ok()) return {};
  if (!socket->WriteAll("GET " + path + " HTTP/1.0\r\n\r\n", net::After(2s))
           .ok()) {
    return {};
  }
  std::string response;
  char c = 0;
  while (socket->ReadFully(&c, 1, net::After(2s)).ok()) response.push_back(c);
  return response;
}

std::uint16_t AdminPort(const Strata& strata) {
  const std::string addr = strata.admin_addr();
  EXPECT_FALSE(addr.empty());
  return static_cast<std::uint16_t>(std::stoi(addr.substr(addr.rfind(':') + 1)));
}

// A malformed admin_addr disables the endpoint instead of binding whatever
// port a lenient parse produced ("h:abc" used to bind an ephemeral port,
// "h:99999" port 34463).
TEST(Healthz, AdminAddrNeedsAWholePortInRange) {
  struct Case {
    const char* addr;
    bool enabled;
  };
  const Case cases[] = {
      {"127.0.0.1:0", true},      {"127.0.0.1:99999", false},
      {"127.0.0.1:65536", false}, {"127.0.0.1:abc", false},
      {"127.0.0.1:", false},      {"127.0.0.1:80x", false},
      {"127.0.0.1:-1", false},    {"127.0.0.1", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.addr);
    StrataOptions options;
    options.admin_addr = c.addr;
    Strata strata(options);
    EXPECT_EQ(!strata.admin_addr().empty(), c.enabled) << strata.admin_addr();
    strata.Shutdown();
  }
}

TEST(Healthz, ReportsPerShardStorageState) {
  StrataOptions options;
  options.admin_addr = "127.0.0.1:0";
  Strata strata(options);

  const std::string body = Get(AdminPort(strata), "/healthz");
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"shards\":["), std::string::npos) << body;
  EXPECT_NE(body.find("\"degraded\":false"), std::string::npos) << body;
  EXPECT_NE(body.find("\"fail_stopped\":false"), std::string::npos) << body;
  strata.Shutdown();
}

TEST(Healthz, SurfacesDegradedShard) {
  strata::fs::ScopedTempDir dir("healthz-degrade");
  StrataOptions options;
  options.data_dir = dir.path();
  options.persistent_connectors = true;
  options.admin_addr = "127.0.0.1:0";
  Strata strata(options);

  ASSERT_TRUE(strata.broker().CreateTopic("events", ps::TopicConfig{1}).ok());
  fault::Activate("segment.append",
                  fault::Action{fault::ActionKind::kError, 0, 1.0, 1});
  ps::Record record;
  record.value = "x";
  EXPECT_FALSE(strata.broker().Produce("events", record).ok());
  fault::DeactivateAll();

  const std::string body = Get(AdminPort(strata), "/healthz");
  EXPECT_NE(body.find("\"fail_stopped\":true"), std::string::npos) << body;
  EXPECT_NE(body.find("\"disk_errors\":1"), std::string::npos) << body;
  strata.Shutdown();
}

TEST(Healthz, AugmenterAddsReplicationLag) {
  StrataOptions options;
  options.admin_addr = "127.0.0.1:0";
  Strata strata(options);

  // A single-broker "cluster" (quorum of 1) over the facade's own broker:
  // enough to exercise the whole reporting path end to end.
  repl::ReplicaOptions repl_options;
  repl_options.self = repl::BrokerEndpoint{1, "127.0.0.1", 1};
  repl_options.brokers = {repl_options.self};
  repl::ReplicationManager manager(&strata.broker(), repl_options);
  ASSERT_TRUE(manager.AddTopic("events", ps::TopicConfig{2}, 1).ok());
  ASSERT_TRUE(manager.Start().ok());
  ps::Record record;
  record.value = "x";
  ASSERT_TRUE(strata.broker().Produce("events", record).ok());
  strata.SetHealthzAugmenter([&manager] { return manager.HealthJson(); });

  // A quorum of one commits on the next manager tick; wait for the watermark
  // to catch up so the lag assertion below is deterministic.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (manager.HealthJson().find("\"lag\":0") == std::string::npos) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }

  const std::string body = Get(AdminPort(strata), "/healthz");
  EXPECT_NE(body.find("\"replication\":{\"broker\":1"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"topic\":\"events\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"is_leader\":true"), std::string::npos) << body;
  EXPECT_NE(body.find("\"lag\":0"), std::string::npos) << body;

  // Removing the augmenter removes the key; the endpoint stays valid JSON.
  strata.SetHealthzAugmenter(nullptr);
  const std::string plain = Get(AdminPort(strata), "/healthz");
  EXPECT_EQ(plain.find("\"replication\""), std::string::npos) << plain;
  EXPECT_NE(plain.find("\"status\":\"ok\""), std::string::npos) << plain;
  strata.Shutdown();
}

}  // namespace
}  // namespace strata::core
