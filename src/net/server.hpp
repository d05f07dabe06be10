// BrokerServer: exposes an embedded ps::Broker over TCP.
//
// Epoll reactor front-end: a small pool of event-loop workers
// (net/reactor.hpp), each owning a set of non-blocking connections
// (net/server_conn.hpp). The accept handler lives on the first loop and
// deals new connections round-robin across the pool; from then on all of a
// connection's I/O, dispatch, and long-poll parking happen on its loop
// thread. No thread ever blocks per-connection: long-poll Fetches park on
// the broker's per-shard waiter lists and are resumed by the reactor when
// data arrives (see ps::Broker::AddDataWaiter), so thousands of idle
// long-polling consumers cost a few fds each, not a thread.
//
// Requests may be pipelined: every response echoes its request's frame
// correlation id and is written the moment it completes, so completions
// may arrive out of request order (see server_conn.hpp).
//
// Consumer-group sessions are tied to the connection: every (group, member)
// joined through a connection is left automatically when that connection
// drops, so a crashed remote consumer triggers a rebalance instead of
// holding its partitions forever.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "pubsub/broker.hpp"

namespace strata::net {

struct ServerContext;
class ServerConnection;
class ReplicationHooks;

struct BrokerServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; the chosen one is available via port().
  std::uint16_t port = 0;
  /// Cap on the server-side long-poll budget a Fetch may request.
  std::chrono::microseconds max_fetch_wait = std::chrono::seconds(5);
  /// A connection whose outbound buffer makes no progress for this long
  /// (client alive but not reading) is dropped.
  std::chrono::microseconds write_timeout = std::chrono::seconds(30);
  /// Optional registry for net.server.* metrics (connections gauge, request
  /// counters by api, bytes in/out, request latency histograms, parked
  /// fetch wake-ups).
  obs::MetricsRegistry* metrics = nullptr;
  /// Epoll event-loop workers serving connections; each connection is
  /// pinned to one loop for its lifetime. Clamped to >= 1. Pair with
  /// ps::BrokerOptions::shards — loops scale the front-end, shards scale
  /// the data plane behind it.
  std::size_t event_loop_workers = 2;
  /// Replication hooks (a repl::ReplicationManager) gating produces on
  /// leadership, clamping fetches to the high watermark, and serving the
  /// replication api keys. Must outlive the server. nullptr = standalone
  /// broker.
  ReplicationHooks* repl = nullptr;
  /// How long an acks=quorum produce may wait for the majority before the
  /// server answers Timeout (the append itself already happened, so clients
  /// retrying on it get at-least-once semantics, like any lost response).
  std::chrono::microseconds quorum_ack_timeout = std::chrono::seconds(5);
};

class BrokerServer {
 public:
  /// Serves `broker`, which must outlive the server and stay open while the
  /// server runs (Stop the server before closing the broker).
  explicit BrokerServer(ps::Broker* broker, BrokerServerOptions options = {});
  ~BrokerServer();
  BrokerServer(const BrokerServer&) = delete;
  BrokerServer& operator=(const BrokerServer&) = delete;

  /// Bind, listen, start the event-loop pool, and arm the accept handler.
  [[nodiscard]] Status Start();

  /// Stop accepting, close every connection, stop and join all loops.
  /// Idempotent.
  void Stop();

  /// Port actually bound (resolves an ephemeral bind). Valid after Start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const std::string& host() const noexcept {
    return options_.host;
  }

 private:
  /// Accept handler, run on loops_[0]: drains the listener and deals
  /// connections round-robin across the pool.
  void OnAcceptReady();

  ps::Broker* broker_;
  BrokerServerOptions options_;
  std::unique_ptr<ServerContext> ctx_;
  ListenSocket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::size_t next_loop_ = 0;  // touched only by the accept handler

  /// Connection registry: inserted by the accept handler, erased (on the
  /// connection's loop thread) via ServerContext::on_closed.
  std::mutex conns_mu_;
  std::unordered_map<ServerConnection*, std::shared_ptr<ServerConnection>>
      conns_;
};

}  // namespace strata::net
