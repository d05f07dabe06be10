// Remote pub/sub clients: RemoteBroker and RemoteProducer speak the framed
// protocol (net/protocol.hpp) to a BrokerServer and implement the same
// ps::BrokerClient / ProducerClient interfaces as the embedded transport,
// and NewRemoteConsumer hands out the one ps::Consumer over a wire
// transport, so STRATA pipelines switch between in-process and networked
// brokers without code changes.
//
// Each producer and consumer owns its own connection: this client speaks
// strict request/response (it does not pipeline), so a consumer's long-poll
// Fetch would otherwise block every producer sharing the socket.
// Connections reconnect transparently with decorrelated-jitter backoff —
// randomized per connection so a fleet severed by one broker restart fans
// back in instead of reconnecting in lockstep — and a request that exhausts
// its retries surfaces the last transport error as a clean Status. Produce
// retries after a connection drop may duplicate a record (at-least-once) —
// the ack may have been lost, not the write.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "pubsub/client.hpp"
#include "pubsub/consumer.hpp"

namespace strata::net {

struct RemoteOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::chrono::microseconds connect_timeout = std::chrono::seconds(2);
  /// Transport deadline for one request/response round trip, *excluding* any
  /// server-side long-poll budget (which is added on top for Fetch).
  std::chrono::microseconds request_timeout = std::chrono::seconds(10);
  /// Reconnect + retry budget per call: attempts beyond the first.
  int max_retries = 4;
  std::chrono::microseconds backoff_initial = std::chrono::milliseconds(10);
  std::chrono::microseconds backoff_max = std::chrono::seconds(1);
  /// Optional registry for net.client.* metrics (retry/reconnect counters).
  obs::MetricsRegistry* metrics = nullptr;

  // --- Replicated clusters --------------------------------------------------

  /// Seed endpoints of a replicated cluster. When non-empty, producers and
  /// consumers route through a LeaderRouter: they discover the per-topic
  /// leader via ClusterMeta, re-route on NotLeader responses, and fail over
  /// to surviving brokers when the leader dies. `host`/`port` above are
  /// folded in as an extra seed when set. Empty = single-broker behavior.
  std::vector<std::pair<std::string, std::uint16_t>> bootstrap;
  /// Produce durability: kLeader acks once the leader appended, kQuorum
  /// holds the ack until a majority of the cluster replicated the record.
  /// A broker without replication treats kQuorum as kLeader.
  ProduceAcks acks = ProduceAcks::kLeader;
  /// How many refresh-and-retry rounds a routed call may spend chasing the
  /// leader across failovers before surfacing the last error.
  int cluster_refresh_rounds = 8;
  /// Pause between unsuccessful routing rounds (an election takes a few
  /// leader_timeout ticks to conclude; hammering meanwhile helps nobody).
  std::chrono::microseconds cluster_refresh_backoff =
      std::chrono::milliseconds(200);
};

/// The Hello exchange that opens every connection: sends kProtocolVersion
/// and checks the server answered with the same. A version mismatch, told
/// by the server or seen in its answer, is InvalidArgument naming both
/// versions; errors the server answered carry the "server: " marker.
/// Neither is a transport fault, so ClientConnection never retries them.
[[nodiscard]] Status Handshake(Socket* socket, Deadline deadline);

/// One framed request/response connection with reconnect-and-retry.
/// Not thread-safe: owned by a single producer/consumer/broker handle.
class ClientConnection {
 public:
  explicit ClientConnection(RemoteOptions options);

  /// Round-trip one request. Reconnects and retries (decorrelated-jitter
  /// backoff, capped at backoff_max) on transport errors when `retry`
  /// allows it; application errors from the server, a failed Hello
  /// included, are returned as-is without retry. A response whose
  /// correlation id differs from the request's is a transport fault
  /// (Corruption). `extra_wait` widens the read deadline for server-side
  /// long-polls. The body goes out in one gathered write, record values
  /// straight from their buffers; `*response_body` is a slice of the
  /// response frame's buffer.
  [[nodiscard]] Status Call(ApiKey api, const Pieces& body,
                            ps::Bytes* response_body,
                            std::chrono::microseconds extra_wait = {},
                            bool retry = true);

  /// Re-point the connection at another broker: closes the socket (the next
  /// Call reconnects and says Hello to the new peer).
  void SetEndpoint(const std::string& host, std::uint16_t port);
  [[nodiscard]] const std::string& host() const noexcept {
    return options_.host;
  }
  [[nodiscard]] std::uint16_t port() const noexcept { return options_.port; }

  /// Drop the connection; the next Call reconnects.
  void Disconnect() noexcept { socket_.Close(); }

  /// Count one retry against net.client.retries. LeaderRouter runs its own
  /// retry loop (with retry=false Calls) and uses this so router-level
  /// re-routes stay visible under the same metric as connection-level ones.
  void CountRetry() noexcept;

  /// Abort an in-progress retry backoff sleep and make every subsequent
  /// Call fail fast with Status::Closed. The one thread-safe entry point on
  /// this otherwise single-owner class: a closing client must not sit out a
  /// full backoff (up to backoff_max) before noticing it was asked to stop.
  /// An attempt already blocked on the socket still runs to its deadline.
  void Cancel();

 private:
  [[nodiscard]] Status EnsureConnected();
  /// Next retry sleep: uniform in [backoff_initial, 3 * previous), capped
  /// at backoff_max (decorrelated jitter).
  [[nodiscard]] std::chrono::microseconds NextBackoff();
  [[nodiscard]] Status RoundTrip(ApiKey api, const Pieces& body,
                                 ps::Bytes* response_body,
                                 std::chrono::microseconds extra_wait);

  RemoteOptions options_;
  Socket socket_;
  /// Correlation id of the last request on this connection.
  std::uint64_t last_correlation_ = 0;
  obs::Counter* retries_ = nullptr;
  obs::Counter* reconnects_ = nullptr;

  /// Backoff state. The PRNG is seeded per connection so concurrently
  /// retrying clients spread out instead of thundering back together.
  std::uint64_t rng_state_;
  std::chrono::microseconds prev_backoff_{0};

  /// Cancellation latch: cancelled_ is guarded by cancel_mu_; the cv wakes
  /// a retry sleep early.
  std::mutex cancel_mu_;
  std::condition_variable cancel_cv_;
  bool cancelled_ = false;
};

/// Leader-aware request routing for replicated clusters. Wraps one
/// ClientConnection and re-points it when the cluster's leadership moves:
/// a NotLeader response or a transport failure triggers a ClusterMeta
/// refresh against the known endpoints (bootstrap seeds plus every broker
/// learned from previous refreshes), and the call is retried against the
/// discovered leader — bounded by RemoteOptions::cluster_refresh_rounds.
/// Against a standalone broker the refresh degrades to a no-op (it answers
/// ClusterMeta with an error) and calls behave like a plain connection.
/// Not thread-safe, same single-owner contract as ClientConnection.
class LeaderRouter {
 public:
  explicit LeaderRouter(RemoteOptions options);

  /// Round-trip with leader re-routing. `topic` scopes the leader lookup on
  /// refresh (group traffic follows its topic's leader).
  [[nodiscard]] Status Call(ApiKey api, const std::string& topic,
                            const Pieces& body, ps::Bytes* response_body,
                            std::chrono::microseconds extra_wait = {});

  [[nodiscard]] ClientConnection& connection() noexcept { return connection_; }

 private:
  /// Probe the known endpoints for cluster metadata and re-point the
  /// connection at `topic`'s leader (or at any live broker when the cluster
  /// has no view of the topic / no replication).
  void Refresh(const std::string& topic);

  RemoteOptions options_;
  ClientConnection connection_;
  /// Bootstrap seeds plus endpoints learned from ClusterMeta responses.
  std::vector<std::pair<std::string, std::uint16_t>> endpoints_;
  /// Where the next refresh starts probing (rotates past dead brokers).
  std::size_t probe_from_ = 0;
};

class RemoteProducer final : public ps::ProducerClient {
 public:
  explicit RemoteProducer(RemoteOptions options)
      : options_(options), router_(std::move(options)) {}

  using ps::ProducerClient::Send;
  /// At-least-once: a retry after a lost ack may duplicate the record.
  [[nodiscard]] Result<std::pair<int, std::int64_t>> Send(
      const std::string& topic, ps::Record record) override;

 private:
  RemoteOptions options_;
  LeaderRouter router_;
};

/// A ps::Consumer whose group membership, offsets and fetches go over the
/// wire through a LeaderRouter: Poll sends a Heartbeat, then Fetch
/// long-polls in slices (plus CommitOffset under auto_commit); a newly
/// assigned partition costs an OffsetFetch and, for the reset policy, a
/// Metadata. When a failover leaves the answering broker without the group,
/// the member re-joins there. Fails if the topic does not exist on the
/// server.
[[nodiscard]] Result<std::unique_ptr<ps::Consumer>> NewRemoteConsumer(
    RemoteOptions remote, const std::string& topic,
    ps::ConsumerOptions options = {});

/// Factory + admin client for a BrokerServer; the remote counterpart of
/// ps::EmbeddedBrokerClient. Holds its own control connection for topic
/// admin; producers/consumers it creates open their own.
class RemoteBroker final : public ps::BrokerClient {
 public:
  explicit RemoteBroker(RemoteOptions options)
      : options_(options), control_(std::move(options)) {}

  [[nodiscard]] Status CreateTopic(const std::string& name,
                                   const ps::TopicConfig& config) override;
  [[nodiscard]] Result<std::unique_ptr<ps::ProducerClient>> NewProducer()
      override;
  [[nodiscard]] Result<std::unique_ptr<ps::Consumer>> NewConsumer(
      const std::string& topic, ps::ConsumerOptions options) override {
    return NewRemoteConsumer(options_, topic, std::move(options));
  }

  /// Per-topic partition [start, end) offsets, fetched over the wire.
  [[nodiscard]] Result<MetadataResponse> Metadata(const std::string& topic);

 private:
  RemoteOptions options_;
  ClientConnection control_;
};

}  // namespace strata::net
