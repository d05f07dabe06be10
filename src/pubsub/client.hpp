// Transport-neutral client interfaces over the pub/sub layer.
//
// STRATA's connectors program against these instead of a concrete Broker so
// the same pipeline code runs against the in-process broker (embedded
// deployment) or a BrokerServer reached over TCP (networked deployment, see
// strata::net). Producer and Consumer implement the interfaces directly;
// EmbeddedBrokerClient is the in-process factory, net::RemoteBroker the
// remote one.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
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

/// Synchronous-ack producer handle (mirrors Producer::Send).
class ProducerClient {
 public:
  virtual ~ProducerClient() = default;

  /// Returns (partition, offset) of the appended record.
  [[nodiscard]] virtual Result<std::pair<int, std::int64_t>> Send(
      const std::string& topic, Record record) = 0;

  [[nodiscard]] Result<std::pair<int, std::int64_t>> Send(
      const std::string& topic, std::string key, std::string value,
      Timestamp timestamp) {
    Record record;
    record.key = std::move(key);
    record.value = std::move(value);
    record.timestamp = timestamp;
    return Send(topic, std::move(record));
  }
};

/// Group-member consumer handle (mirrors Consumer's API and its Poll
/// deadline contract: Status::Timeout when a non-zero timeout elapses with
/// no data, so callers can tell a retryable deadline from an empty probe).
class ConsumerClient {
 public:
  virtual ~ConsumerClient() = default;

  [[nodiscard]] virtual Result<std::vector<ConsumedRecord>> Poll(
      std::chrono::microseconds timeout) = 0;
  [[nodiscard]] virtual Status Commit() = 0;
  [[nodiscard]] virtual Status SeekToEnd() = 0;
  /// Reposition one assigned partition so the next Poll fetches from
  /// `offset` (checkpoint replay). Validated against the log's current
  /// bounds: an offset below the retention-truncated start or above the end
  /// returns Status::OutOfRange — a clean error, never a silent heal or a
  /// spin. The seek is a client-side position change only; it is not
  /// committed (Commit after the next Poll advances the group offset).
  [[nodiscard]] virtual Status Seek(const TopicPartition& tp,
                                    std::int64_t offset) = 0;
  [[nodiscard]] Status Seek(const std::string& topic, int partition,
                            std::int64_t offset) {
    return Seek(TopicPartition{topic, partition}, offset);
  }
  [[nodiscard]] virtual const std::vector<TopicPartition>& assignment()
      const noexcept = 0;
  /// Offset the next Poll fetches from for assigned partition `tp`; nullopt
  /// when the consumer holds no position for it.
  [[nodiscard]] virtual std::optional<std::int64_t> Position(
      const TopicPartition& tp) const = 0;
};

/// Factory + admin surface shared by embedded and remote transports.
class BrokerClient {
 public:
  virtual ~BrokerClient() = default;

  [[nodiscard]] virtual Status CreateTopic(const std::string& name,
                                           const TopicConfig& config) = 0;
  [[nodiscard]] virtual Result<std::unique_ptr<ProducerClient>> NewProducer() = 0;
  [[nodiscard]] virtual Result<std::unique_ptr<ConsumerClient>> NewConsumer(
      const std::string& topic, ConsumerOptions options) = 0;
};

/// In-process transport: thin forwarding onto a Broker the caller owns.
class EmbeddedBrokerClient final : public BrokerClient {
 public:
  explicit EmbeddedBrokerClient(Broker* broker) : broker_(broker) {}

  [[nodiscard]] Status CreateTopic(const std::string& name,
                                   const TopicConfig& config) override {
    return broker_->CreateTopic(name, config);
  }
  [[nodiscard]] Result<std::unique_ptr<ProducerClient>> NewProducer() override;
  [[nodiscard]] Result<std::unique_ptr<ConsumerClient>> NewConsumer(
      const std::string& topic, ConsumerOptions options) override;

 private:
  Broker* broker_;
};

}  // namespace strata::ps
