// Poll-based consumer with consumer-group semantics: on construction the
// consumer joins its group and is assigned a share of the topic's partitions
// (round-robin by join order). Poll() fetches from assigned partitions,
// resuming from committed offsets (or the reset position for a fresh group).
// Rebalances are picked up lazily at the next Poll, which re-reads the
// assignment.
//
// One Consumer serves both deployments. It keeps the group-member cursor
// (assignment, positions, uncommitted progress) and talks to the broker
// through a narrow ConsumerTransport: in-process over a Broker (Create with
// a Broker*), or over the wire to a BrokerServer (net::NewRemoteConsumer).
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pubsub/broker.hpp"

namespace strata::ps {

struct ConsumerOptions {
  std::string group = "default";
  /// Start position for partitions with no committed offset.
  enum class AutoOffsetReset { kEarliest, kLatest } reset =
      AutoOffsetReset::kEarliest;
  /// Commit after every Poll automatically.
  bool auto_commit = true;
  /// Start a newly assigned partition at the group's committed offset when
  /// one exists. false ignores committed offsets and starts per `reset`:
  /// for a caller that keeps its own replay cursor (a checkpointed source).
  bool resume_committed = true;
  std::size_t max_poll_records = 256;
};

/// The broker side of one group member: membership, committed offsets,
/// partition bounds and record reads. The destructor leaves the group (best
/// effort). Implementations need not be thread-safe; a Consumer owns one.
class ConsumerTransport {
 public:
  virtual ~ConsumerTransport() = default;

  /// Join `group` as a member consuming `topic`. Called once, first.
  [[nodiscard]] virtual Status Join(const std::string& group,
                                    const std::string& topic) = 0;
  /// The partitions currently assigned to this member.
  [[nodiscard]] virtual Status Assignment(
      std::vector<TopicPartition>* partitions) = 0;
  /// The group's committed offset of each of `partitions`, in order;
  /// nullopt where the group never committed.
  [[nodiscard]] virtual Status Committed(
      const std::vector<TopicPartition>& partitions,
      std::vector<std::optional<std::int64_t>>* offsets) = 0;
  /// [start, end) offsets of every partition of the topic, by partition.
  [[nodiscard]] virtual Status Bounds(
      std::vector<std::pair<std::int64_t, std::int64_t>>* bounds) = 0;
  [[nodiscard]] virtual Status Commit(
      const std::map<TopicPartition, std::int64_t>& offsets) = 0;
  /// Read `partitions` from their `positions`, at most `max_records` records
  /// per partition (the total may exceed it; the consumer keeps what fits).
  /// When nothing is readable, block up to `wait` or until data arrives,
  /// then return the new records or nothing. Returns Closed when the broker
  /// closed during the wait.
  [[nodiscard]] virtual Status Fetch(
      const std::vector<TopicPartition>& partitions,
      const std::map<TopicPartition, std::int64_t>& positions,
      std::size_t max_records, std::chrono::microseconds wait,
      std::vector<PartitionRead>* reads) = 0;
};

class Consumer {
 public:
  /// In-process member; fails if the topic does not exist.
  [[nodiscard]] static Result<std::unique_ptr<Consumer>> Create(
      Broker* broker, const std::string& topic, ConsumerOptions options = {});
  /// Member over any transport (net::NewRemoteConsumer passes the wire one).
  [[nodiscard]] static Result<std::unique_ptr<Consumer>> Create(
      std::unique_ptr<ConsumerTransport> transport, const std::string& topic,
      ConsumerOptions options = {});

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Fetch available records from assigned partitions, blocking up to
  /// `timeout` (measured on the monotonic clock) when none are available.
  /// A non-zero timeout that fully elapses with no data returns
  /// Status::Timeout — distinct from an Ok empty batch, which only a
  /// zero-timeout probe produces — and a broker shutdown while blocked
  /// returns Status::Closed, so long-polling callers (e.g. a networked
  /// fetch) can tell a retryable deadline from a drained partition or a
  /// dead broker. A transport error past its retry budget is returned.
  [[nodiscard]] Result<std::vector<ConsumedRecord>> Poll(
      std::chrono::microseconds timeout);

  /// Commit consumed positions (no-op when auto_commit already did).
  [[nodiscard]] Status Commit();

  /// Force positions of all assigned partitions to the current log end
  /// (skip backlog).
  [[nodiscard]] Status SeekToEnd();

  /// Reposition one assigned partition so the next Poll fetches from
  /// `offset` (checkpoint replay). Validated against the log's current
  /// bounds: an offset below the retention-truncated start or above the end
  /// returns Status::OutOfRange — a clean error, never a silent heal (as
  /// Poll does for positions that fell below the retention horizon) or a
  /// spin. The seek is a position change only; it is not committed (Commit
  /// after the next Poll advances the group offset).
  [[nodiscard]] Status Seek(const TopicPartition& tp, std::int64_t offset);
  [[nodiscard]] Status Seek(const std::string& topic, int partition,
                            std::int64_t offset) {
    return Seek(TopicPartition{topic, partition}, offset);
  }

  [[nodiscard]] const std::vector<TopicPartition>& assignment()
      const noexcept {
    return assigned_;
  }
  /// Offset the next Poll fetches from for assigned partition `tp`; nullopt
  /// when the consumer holds no position for it.
  [[nodiscard]] std::optional<std::int64_t> Position(
      const TopicPartition& tp) const {
    const auto it = positions_.find(tp);
    if (it == positions_.end()) return std::nullopt;
    return it->second;
  }

 private:
  Consumer(std::unique_ptr<ConsumerTransport> transport,
           ConsumerOptions options)
      : transport_(std::move(transport)), options_(std::move(options)) {}

  /// Pick up the current assignment: drop the uncommitted progress of
  /// revoked partitions, keep the positions of retained ones, and start new
  /// ones at the committed offset (resume_committed) or per `reset`.
  [[nodiscard]] Status RefreshAssignment();

  std::unique_ptr<ConsumerTransport> transport_;
  ConsumerOptions options_;
  std::vector<TopicPartition> assigned_;
  std::map<TopicPartition, std::int64_t> positions_;
  std::map<TopicPartition, std::int64_t> uncommitted_;
};

}  // namespace strata::ps
