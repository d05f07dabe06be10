// Server-side replication hooks (implemented by repl::ReplicationManager).
//
// strata::repl sits above strata::net — it drives ClientConnections to peer
// brokers — yet the BrokerServer must dispatch the replication api keys
// and gate produces/fetches on replication state. This abstract interface
// breaks that cycle: the server calls through it, repl implements it, and a
// server started without hooks (BrokerServerOptions::repl == nullptr)
// behaves exactly like a standalone broker.
//
// Threading: every method may be called concurrently from reactor threads.
// Implementations must not block (the reactor serves all connections) and
// must not call back into the invoking ServerConnection; asynchronous
// completion goes through the callback given to AddCommitWaiter, which may
// fire on any thread (including inline, before AddCommitWaiter returns).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.hpp"
#include "net/protocol.hpp"
#include "pubsub/record.hpp"

namespace strata::net {

class ReplicationHooks {
 public:
  virtual ~ReplicationHooks() = default;

  /// True when `topic` is under replication management on this broker.
  [[nodiscard]] virtual bool ManagesTopic(const std::string& topic) const = 0;

  /// Gate a client produce: Ok when this broker leads `topic` (or does not
  /// manage it), NotLeader otherwise. The message names the current leader
  /// id so clients can log something actionable before refreshing metadata.
  [[nodiscard]] virtual Status CheckProduce(const std::string& topic) const = 0;

  /// Clamp a consumer-visible log end to the quorum-committed high
  /// watermark. `log_end` is the partition's local end; unmanaged topics
  /// pass through unchanged.
  [[nodiscard]] virtual std::int64_t VisibleEnd(const ps::TopicPartition& tp,
                                               std::int64_t log_end) const = 0;

  /// Register interest in `tp` reaching a high watermark > `offset` (i.e.
  /// the record appended at `offset` becoming quorum-committed). `done` is
  /// invoked exactly once — with Ok on commit, NotLeader on leadership loss,
  /// Closed on shutdown — unless the waiter is cancelled first. It may fire
  /// on any thread, inline included. Returns the waiter id for cancellation.
  [[nodiscard]] virtual std::uint64_t AddCommitWaiter(
      const ps::TopicPartition& tp, std::int64_t offset,
      std::function<void(Status)> done) = 0;

  /// Drop a pending commit waiter; a no-op when it already fired.
  virtual void CancelCommitWaiter(std::uint64_t id) = 0;

  // Replication api-key handlers, dispatched by ServerConnection.
  [[nodiscard]] virtual Status HandleReplicaFetch(
      const ReplicaFetchRequest& req, ReplicaFetchResponse* resp) = 0;
  [[nodiscard]] virtual Status HandleReplicaAck(const ReplicaAckRequest& req,
                                                ReplicaAckResponse* resp) = 0;
  [[nodiscard]] virtual Status HandlePromoteLeader(
      const PromoteLeaderRequest& req, PromoteLeaderResponse* resp) = 0;
  [[nodiscard]] virtual Status HandleClusterMeta(const ClusterMetaRequest& req,
                                                 ClusterMetaResponse* resp) = 0;
};

}  // namespace strata::net
