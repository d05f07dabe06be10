// ReplicationManager: leader-based replication of a broker's partition
// logs across a fixed replica set (the tentpole of the repl subsystem; see
// DESIGN.md "Replication & failover").
//
// One manager runs next to each broker. It wears two hats:
//
//   * net::ReplicationHooks for the local BrokerServer — gates produces on
//     leadership (NotLeader re-routes clients), clamps consumer-visible
//     offsets to the quorum-committed high watermark, parks acks=quorum
//     produces on commit waiters, and serves the replication api keys
//     (ReplicaFetch / ReplicaAck / PromoteLeader / ClusterMeta).
//   * an active follower — a background thread pull-replicates every topic
//     this broker does not lead: fetch from the leader at the local log
//     end (the fetch offset is an implicit cumulative ack and the
//     heartbeat), append locally, then explicitly ack so the leader's high
//     watermark advances without waiting a round.
//
// Commit rule (Kafka-style): the high watermark of a partition is the
// quorum-th largest log end among {leader local end} ∪ {follower acked
// ends}, monotonically non-decreasing. A record at offset o is committed
// iff hw > o; consumers never see past the hw, so an uncommitted tail on a
// deposed leader can be truncated away without un-reading anything.
//
// Failover: a follower that cannot reach the leader for leader_timeout
// queries the surviving peers' ClusterMeta. If a quorum of the cluster is
// reachable (split-brain guard) and this broker is the best *eligible*
// candidate, it bumps the epoch, promotes itself, and broadcasts
// PromoteLeader; receivers with longer logs truncate to the new leader's
// ends (never below their own high watermark). Eligibility is per
// partition: a candidate must hold every partition at least to the
// committed floor — the highest high watermark any reachable participant
// reports — so promotion can never truncate quorum-committed records on a
// more-caught-up survivor; among the eligible, most total log wins, ties
// to the lowest id. Epochs are monotonic — stale leaders are refused, and
// a replica that adopts a newer epoch without the PromoteLeader
// announcement in hand (ClusterMeta, or a fetch response carrying a newer
// epoch) first drops its own uncommitted tail: it is the only part of the
// log that can have diverged.
//
// Threading: hook methods run on the server's reactor threads and only
// touch state under mu_ (never block, never RPC). The repl thread owns the
// peer connections exclusively. Commit-waiter callbacks and broker
// notifications always fire *outside* mu_.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/remote.hpp"
#include "net/repl_hooks.hpp"
#include "pubsub/broker.hpp"
#include "repl/cluster.hpp"

namespace strata::repl {

class ReplicationManager final : public net::ReplicationHooks {
 public:
  /// `broker` must outlive the manager. Wire the manager into the broker's
  /// server via BrokerServerOptions::repl, then Start() it.
  ReplicationManager(ps::Broker* broker, ReplicaOptions options);
  ~ReplicationManager() override;
  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  /// Start the follower fetch / failure-detection thread.
  [[nodiscard]] Status Start();
  /// Stop the thread and fail every pending commit waiter with Closed.
  /// Idempotent; called by the destructor.
  void Stop();

  /// Put `topic` under replication with `leader` as its initial leader
  /// (epoch 1). Creates the topic on the local broker. Every broker of the
  /// cluster must call this with the same arguments — topic placement is
  /// static configuration, only leadership moves at runtime.
  [[nodiscard]] Status AddTopic(const std::string& topic,
                                const ps::TopicConfig& config,
                                std::uint32_t leader);

  [[nodiscard]] bool IsLeader(const std::string& topic) const;
  /// NotFound for unmanaged topics.
  [[nodiscard]] Result<TopicView> View(const std::string& topic) const;
  [[nodiscard]] std::vector<TopicView> ViewAll() const;
  /// JSON fragment for /healthz (Strata::SetHealthzAugmenter): broker id
  /// plus per-topic leadership, epoch, and per-partition replication lag.
  [[nodiscard]] std::string HealthJson() const;

  [[nodiscard]] std::uint32_t self_id() const noexcept {
    return options_.self.id;
  }

  // --- net::ReplicationHooks -----------------------------------------------
  [[nodiscard]] bool ManagesTopic(const std::string& topic) const override;
  [[nodiscard]] Status CheckProduce(const std::string& topic) const override;
  [[nodiscard]] std::int64_t VisibleEnd(const ps::TopicPartition& tp,
                                        std::int64_t log_end) const override;
  [[nodiscard]] std::uint64_t AddCommitWaiter(
      const ps::TopicPartition& tp, std::int64_t offset,
      std::function<void(Status)> done) override;
  void CancelCommitWaiter(std::uint64_t id) override;
  [[nodiscard]] Status HandleReplicaFetch(
      const net::ReplicaFetchRequest& req,
      net::ReplicaFetchResponse* resp) override;
  [[nodiscard]] Status HandleReplicaAck(
      const net::ReplicaAckRequest& req,
      net::ReplicaAckResponse* resp) override;
  [[nodiscard]] Status HandlePromoteLeader(
      const net::PromoteLeaderRequest& req,
      net::PromoteLeaderResponse* resp) override;
  [[nodiscard]] Status HandleClusterMeta(
      const net::ClusterMetaRequest& req,
      net::ClusterMetaResponse* resp) override;

 private:
  using Clock = std::chrono::steady_clock;

  /// Leader-side view of one follower.
  struct Follower {
    /// Per-partition acked log ends (fetch offsets and explicit acks).
    std::vector<std::int64_t> acked;
    Clock::time_point last_contact{};
  };

  struct TopicState {
    ps::TopicConfig config;
    std::uint32_t leader = 0;
    std::uint64_t epoch = 1;
    /// Per-partition quorum-committed high watermark (monotone).
    std::vector<std::int64_t> hw;
    /// Follower side: the leader's log end last reported per partition
    /// (drives the lag view while not leading).
    std::vector<std::int64_t> leader_end;
    /// Follower side: per-partition retention-gap flag (the leader's log
    /// starts past our end; see TopicView::Partition::stalled).
    std::vector<bool> stalled;
    /// Leader side only.
    std::map<std::uint32_t, Follower> followers;
    /// Follower side: last successful contact with the leader; elections
    /// start when it ages past leader_timeout.
    Clock::time_point last_leader_contact{};
  };

  struct CommitWaiter {
    std::string topic;
    std::uint32_t partition = 0;
    std::int64_t offset = 0;
    std::function<void(Status)> done;
  };

  /// Deferred side effects collected under mu_, fired after unlock.
  struct PendingWakeups {
    std::vector<std::pair<std::function<void(Status)>, Status>> callbacks;
    std::vector<ps::TopicPartition> advanced;  // hw moved: wake consumers
    void Fire(ps::Broker* broker);
  };

  /// REQUIRES mu_. Recompute the partition's high watermark from the local
  /// end and the followers' acked ends; on advance, collect newly committed
  /// waiters and the consumer wake-up into `pending`.
  void RecomputeHwLocked(const std::string& topic, TopicState& state,
                         std::uint32_t partition, PendingWakeups* pending);
  /// REQUIRES mu_. Fail (and drop) every waiter of `topic` with `status` —
  /// leadership moved or the manager is stopping.
  void FailTopicWaitersLocked(const std::string& topic, const Status& status,
                              PendingWakeups* pending);
  /// REQUIRES mu_. Drop every partition's tail above the quorum-committed
  /// high watermark. Used when adopting a newer leader/epoch without a
  /// PromoteLeader announcement in hand: the uncommitted tail may have
  /// diverged during the missed leadership interval, while everything
  /// at/below the hw is identical on whichever replica won.
  void TruncateUncommittedLocked(const std::string& topic, TopicState& state);
  [[nodiscard]] std::int64_t LocalEnd(const std::string& topic,
                                      std::uint32_t partition) const;
  [[nodiscard]] std::size_t quorum() const noexcept {
    return options_.brokers.size() / 2 + 1;
  }

  /// Repl thread body: fetch rounds, failure detection, elections.
  void Run();
  /// One fetch + ack round against `leader` for `topic`. Returns false on
  /// transport failure (feeds the election timer).
  bool FetchRound(const std::string& topic, std::uint32_t leader);
  /// Leader unreachable past leader_timeout: query the survivors and either
  /// adopt a newer leader or promote self (quorum-guarded).
  void RunElection(const std::string& topic);
  /// Become leader at `epoch` and broadcast PromoteLeader to the peers.
  void PromoteSelf(const std::string& topic, std::uint64_t epoch);
  [[nodiscard]] net::ClientConnection* Peer(std::uint32_t id);

  ps::Broker* broker_;
  ReplicaOptions options_;

  mutable std::mutex mu_;
  std::map<std::string, TopicState> topics_;
  std::map<std::uint64_t, CommitWaiter> waiters_;
  std::uint64_t next_waiter_ = 1;

  /// Peer connections, repl thread only (hook methods never RPC).
  std::map<std::uint32_t, std::unique_ptr<net::ClientConnection>> peers_;

  std::thread thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  bool started_ = false;

  obs::Counter* fetch_rounds_ = nullptr;
  obs::Counter* records_replicated_ = nullptr;
  obs::Counter* elections_ = nullptr;
  obs::Counter* promotions_ = nullptr;
  obs::Counter* truncations_ = nullptr;
  obs::MetricsRegistry::CallbackId metrics_callback_ = 0;
};

}  // namespace strata::repl
