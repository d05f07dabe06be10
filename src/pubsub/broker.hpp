// Embedded pub/sub broker: topics with hash-partitioned append-only logs,
// consumer groups with round-robin partition assignment and committed
// offsets. One Broker instance is shared by all producers/consumers in a
// process (STRATA runs it in-process; the API mirrors a networked broker so
// a remote implementation could be substituted).
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "pubsub/log.hpp"

namespace strata::ps {

struct TopicConfig {
  int partitions = 1;
  std::size_t retention_records = 0;  // 0 = unbounded
};

struct BrokerOptions {
  /// Empty = fully in-memory; otherwise topic logs and group offsets are
  /// persisted under this directory.
  std::filesystem::path data_dir;
  std::size_t segment_bytes = 8u << 20;
  /// fsync every segment append (see LogOptions::sync_each_append).
  bool sync_each_append = false;
  /// fsync segments on roll/close (see LogOptions::sync_on_roll).
  bool sync_on_roll = true;
  /// What partition logs do when the disk stops accepting appends:
  /// fail-stop (sticky produce errors) or degrade to memory-only serving
  /// with a sticky health flag. Surfaced via Stats() and Strata::Health().
  DiskFailurePolicy disk_failure_policy = DiskFailurePolicy::kFailStop;
  /// Data-plane shards: every (topic, partition) hashes onto one shard,
  /// each with its own lock and waiter list, so produce/fetch on disjoint
  /// partitions never contend. Clamped to >= 1.
  std::size_t shards = 8;
};

/// Identifies a consumer group member.
using MemberId = std::uint64_t;

struct TopicPartition {
  std::string topic;
  int partition = 0;

  friend auto operator<=>(const TopicPartition&,
                          const TopicPartition&) = default;
};

/// What one read pass (Broker::Read) took from one partition.
struct PartitionRead {
  TopicPartition tp;
  std::vector<ConsumedRecord> records;
  /// Where the next read continues: past the last record read, or, when
  /// nothing was read, the pass's start offset healed up to the log start.
  std::int64_t next_offset = 0;
};

class Broker {
 public:
  explicit Broker(BrokerOptions options = {});
  ~Broker();
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Idempotent when the existing topic has the same partition count.
  [[nodiscard]] Status CreateTopic(const std::string& name,
                                   const TopicConfig& config = {});
  [[nodiscard]] bool HasTopic(const std::string& name) const;
  [[nodiscard]] Result<int> PartitionCount(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> ListTopics() const;

  struct TopicStats {
    int partitions = 0;
    /// Sum of end offsets: total records ever appended.
    std::int64_t total_records = 0;
    /// Per-partition [start, end) offsets.
    std::vector<std::pair<std::int64_t, std::int64_t>> offsets;
  };
  [[nodiscard]] Result<TopicStats> GetTopicStats(const std::string& name) const;

  /// Broker-wide health/storage summary (sticky flags aggregate across all
  /// partition logs; they never clear until the broker is recreated).
  struct BrokerStats {
    std::size_t topics = 0;
    std::size_t groups = 0;
    /// Segment append/roll/sync failures across all partition logs.
    std::uint64_t disk_append_errors = 0;
    /// Some partition degraded to memory-only (DiskFailurePolicy::kDegrade).
    bool storage_degraded = false;
    /// Some partition fail-stopped (DiskFailurePolicy::kFailStop).
    bool fail_stopped = false;
    /// Per-shard storage health: which data-plane shards carry a degraded or
    /// fail-stopped partition (health endpoints surface this so operators
    /// can see *where* durability was lost, not just that it was).
    struct ShardStats {
      std::size_t partitions = 0;
      std::uint64_t disk_errors = 0;
      bool degraded = false;
      bool fail_stopped = false;
    };
    std::vector<ShardStats> shards;
  };
  [[nodiscard]] BrokerStats Stats() const;

  /// Append a record; partition chosen by key hash (or round-robin when the
  /// key is empty). Returns (partition, offset). The log keeps the record's
  /// value buffer as it is.
  [[nodiscard]] Result<std::pair<int, std::int64_t>> Produce(
      const std::string& topic, Record record);

  /// Direct partition access for consumers/tests.
  [[nodiscard]] Result<PartitionLog*> GetLog(const std::string& topic,
                                             int partition) const;

  /// One non-blocking read pass over `tp`, shared by the in-process consumer
  /// and the server's Fetch: heals `offset` up to the log start (retention
  /// may have dropped it), reads at most `max_records` records that lie
  /// below `limit` (the server passes its replication high watermark), and
  /// stores them as ConsumedRecords in `*out`. Their values share the log's
  /// buffers.
  [[nodiscard]] Status Read(
      const TopicPartition& tp, std::int64_t offset, std::size_t max_records,
      PartitionRead* out,
      std::int64_t limit = std::numeric_limits<std::int64_t>::max()) const;

  /// Block until any of `partitions` has a record at/after its entry in
  /// `positions` (missing entries read as 0), the timeout elapses, or the
  /// broker closes. Returns true when data is available somewhere. It wakes
  /// on appends to *any* of the partitions, so a consumer never waits out
  /// its timeout on one partition while another one has data. Internally
  /// parks one ephemeral waiter on each involved shard, so waits on disjoint
  /// partitions never contend on one signal.
  [[nodiscard]] bool WaitForAnyData(
      const std::vector<TopicPartition>& partitions,
      const std::map<TopicPartition, std::int64_t>& positions,
      std::chrono::microseconds timeout) const;

  // --- Data-plane shards -----------------------------------------------------

  /// Shard owning (topic, partition)'s waiter list. Stable for the broker's
  /// lifetime; in [0, shard_count()).
  [[nodiscard]] std::size_t ShardOf(const std::string& topic,
                                    int partition) const noexcept;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  using WaiterId = std::uint64_t;
  /// Register a callback invoked (outside any broker lock) after every
  /// append to a partition owned by `shard`, and once on Close(). Callbacks
  /// must be cheap and non-blocking — the net reactor uses them to park
  /// long-poll fetches without a blocked thread. A callback may still be in
  /// flight when RemoveDataWaiter returns; keep captured state alive via
  /// shared ownership.
  WaiterId AddDataWaiter(std::size_t shard, std::function<void()> callback) const;
  void RemoveDataWaiter(std::size_t shard, WaiterId id) const;

  /// Wake waiters parked on (topic, partition)'s shard without appending.
  /// Replication uses this when the high watermark advances: records that
  /// were already in the log become consumer-visible, so parked long-poll
  /// fetches must re-check. No-op for unknown topics.
  void NotifyPartition(const std::string& topic, int partition) const;

  /// Expose broker metrics on `registry`: per-topic produce counters
  /// (pubsub.topic.produced{topic}), per-partition start/end offsets, and
  /// per-group consumer lag (pubsub.group.lag{group,topic,partition}, end
  /// offset minus committed offset). The lag gauge exists only for the
  /// (group, partition) pairs with a committed offset: a group that keeps
  /// its cursor elsewhere (a checkpointed connector) never commits, and a
  /// lag measured from the log start would report its whole log.
  /// Rebinding replaces the previous registration; nullptr unbinds. The
  /// callback is unregistered on destruction, so the registry must outlive
  /// the broker.
  void BindMetrics(obs::MetricsRegistry* registry);

  // --- Consumer groups -----------------------------------------------------

  /// Register a member; triggers a rebalance. Returns the member id.
  [[nodiscard]] Result<MemberId> JoinGroup(const std::string& group,
                                           const std::string& topic);
  void LeaveGroup(const std::string& group, MemberId member);

  /// Partitions currently assigned to a member (changes on rebalance).
  /// The returned generation lets the member detect staleness.
  [[nodiscard]] std::vector<TopicPartition> Assignment(
      const std::string& group, MemberId member, std::uint64_t* generation) const;

  [[nodiscard]] Status CommitOffset(const std::string& group,
                                    const TopicPartition& tp,
                                    std::int64_t offset);

  /// Records the group has not yet committed in this partition (end offset
  /// minus committed offset; an uncommitted group lags from the log start).
  [[nodiscard]] Result<std::int64_t> ConsumerLag(const std::string& group,
                                                 const TopicPartition& tp) const;
  /// NotFound when the group never committed for this partition.
  [[nodiscard]] Result<std::int64_t> CommittedOffset(
      const std::string& group, const TopicPartition& tp) const;

  /// Close all logs; unblocks any waiting consumers.
  void Close();

  /// True once Close() ran (consumers use this to turn a wait wake-up into
  /// Status::Closed instead of spinning).
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

 private:
  struct Topic {
    TopicConfig config;
    std::vector<std::unique_ptr<PartitionLog>> logs;
    /// Atomic so keyless produces pick partitions under the shared
    /// (read-side) metadata lock without a data race.
    std::atomic<std::uint64_t> round_robin{0};
    /// Registry-owned; non-null only while metrics are bound.
    obs::Counter* produced = nullptr;

    Topic() = default;
    /// Moved only inside CreateTopic, before the topic is shared.
    Topic(Topic&& other) noexcept
        : config(other.config),
          logs(std::move(other.logs)),
          round_robin(other.round_robin.load(std::memory_order_relaxed)),
          produced(other.produced) {}
  };

  /// One data-plane shard: the waiters of every (topic, partition) hashing
  /// here. Appends invoke the registered callbacks (outside the shard lock).
  struct Shard {
    std::mutex mu;
    std::map<WaiterId, std::function<void()>> waiters;  // guarded by mu
  };

  struct Group {
    std::string topic;
    std::vector<MemberId> members;  // join order
    std::uint64_t generation = 0;
    std::map<TopicPartition, std::int64_t> offsets;
  };

  [[nodiscard]] Status PersistOffsetsLocked() const;  // REQUIRES mu_
  [[nodiscard]] Status LoadOffsets();

  void AppendMetricsLocked(obs::MetricsSnapshot* snapshot) const;  // REQUIRES mu_

  /// Invoke the shard's registered waiter callbacks (outside its lock).
  void NotifyShard(Shard& shard) const;

  BrokerOptions options_;
  /// Control-plane lock over the topic/group maps: shared for lookups
  /// (Produce/GetLog resolve logs under a shared lock, so disjoint
  /// partitions never serialize), exclusive for topic/group mutation.
  mutable std::shared_mutex mu_;
  std::map<std::string, Topic> topics_;
  std::map<std::string, Group> groups_;
  MemberId next_member_ = 1;
  std::atomic<bool> closed_{false};

  /// Data-plane shards (fixed size; see BrokerOptions::shards). Append
  /// listeners notify only the owning shard, so waiters on disjoint
  /// partitions never share a signal.
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<WaiterId> next_waiter_{1};

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::CallbackId metrics_callback_ = 0;
};

}  // namespace strata::ps
