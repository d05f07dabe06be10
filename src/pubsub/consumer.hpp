// Poll-based consumer with consumer-group semantics: on construction the
// consumer joins its group and is assigned a share of the topic's partitions
// (round-robin by join order). Poll() fetches from assigned partitions,
// resuming from committed offsets (or the log start for a fresh group).
// Rebalances are picked up lazily at the next Poll via the assignment
// generation counter.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "pubsub/broker.hpp"
#include "pubsub/client.hpp"

namespace strata::ps {

// ConsumerOptions lives in pubsub/client.hpp: it is part of the
// transport-neutral client surface shared with net::RemoteConsumer.

class Consumer final : public ConsumerClient {
 public:
  /// Joins the group; fails if the topic does not exist.
  [[nodiscard]] static Result<std::unique_ptr<Consumer>> Create(
      Broker* broker, const std::string& topic, ConsumerOptions options = {});

  ~Consumer() override;
  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Fetch available records from assigned partitions, blocking up to
  /// `timeout` (measured on the monotonic clock) when none are available.
  /// A non-zero timeout that fully elapses with no data returns
  /// Status::Timeout — distinct from an Ok empty batch, which only a
  /// zero-timeout probe produces — and a broker shutdown while blocked
  /// returns Status::Closed, so long-polling callers (e.g. a networked
  /// fetch) can tell a retryable deadline from a drained partition or a
  /// dead broker.
  [[nodiscard]] Result<std::vector<ConsumedRecord>> Poll(
      std::chrono::microseconds timeout) override;

  /// Commit consumed positions (no-op when auto_commit already did).
  [[nodiscard]] Status Commit() override;

  /// Force positions of all assigned partitions to the current log end
  /// (skip backlog).
  [[nodiscard]] Status SeekToEnd() override;

  /// Reposition one assigned partition (see ConsumerClient::Seek). Unlike
  /// Poll — which silently heals positions that fell below the retention
  /// horizon — an explicit seek to a truncated or future offset is a caller
  /// error and returns Status::OutOfRange.
  [[nodiscard]] Status Seek(const TopicPartition& tp,
                            std::int64_t offset) override;
  using ConsumerClient::Seek;

  [[nodiscard]] const std::vector<TopicPartition>& assignment()
      const noexcept override {
    return assigned_;
  }
  [[nodiscard]] std::optional<std::int64_t> Position(
      const TopicPartition& tp) const override {
    const auto it = positions_.find(tp);
    if (it == positions_.end()) return std::nullopt;
    return it->second;
  }

 private:
  Consumer(Broker* broker, std::string topic, ConsumerOptions options,
           MemberId member)
      : broker_(broker),
        topic_(std::move(topic)),
        options_(std::move(options)),
        member_(member) {}

  void RefreshAssignment();

  Broker* broker_;
  std::string topic_;
  ConsumerOptions options_;
  MemberId member_;
  std::uint64_t generation_ = 0;
  std::vector<TopicPartition> assigned_;
  std::map<TopicPartition, std::int64_t> positions_;
  std::map<TopicPartition, std::int64_t> uncommitted_;
};

}  // namespace strata::ps
