// Pub/sub connectors bridging the SPE and the broker (the Raw Data
// Connector and Event Connector modules of Figure 2).
//
// Publisher side: a SinkFn that serializes each tuple and produces it to a
// topic, plus a finish hook that appends an end-of-stream sentinel once the
// upstream drains (each connector topic has exactly one publisher).
//
// Subscriber side: a BatchSourceFn wrapping a consumer-group member. Each
// call polls the topic and hands over the tuples one poll re-materialized;
// after the EOS sentinel it drains all assigned partitions and ends the
// stream. Stop() aborts the poll loop for non-draining shutdown.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>

#include "pubsub/client.hpp"
#include "pubsub/consumer.hpp"
#include "pubsub/producer.hpp"
#include "spe/functions.hpp"
#include "spe/operator.hpp"
#include "strata/transport.hpp"

namespace strata::core {

/// Key extractor for topic partitioning (per-key order is preserved).
using PartitionKeyFn = std::function<std::string(const spe::Tuple&)>;

class ConnectorPublisher {
 public:
  /// Transport-neutral: `producer` may be embedded or remote.
  ConnectorPublisher(std::unique_ptr<ps::ProducerClient> producer,
                     std::string topic, PartitionKeyFn key_fn)
      : producer_(std::move(producer)),
        topic_(std::move(topic)),
        key_fn_(std::move(key_fn)) {}

  /// Convenience for the embedded broker.
  ConnectorPublisher(ps::Broker* broker, std::string topic,
                     PartitionKeyFn key_fn)
      : ConnectorPublisher(std::make_unique<ps::Producer>(broker),
                           std::move(topic), std::move(key_fn)) {}

  /// SinkFn publishing each tuple.
  [[nodiscard]] spe::SinkFn AsSinkFn();
  /// Finish hook publishing the EOS sentinel (always untagged).
  [[nodiscard]] std::function<void()> AsFinishHook();

  /// Tag every published record with a sequence number for effectively-once
  /// consumption (checkpointing deployments). Call before the query starts.
  void EnableTagging() { tagging_ = true; }

  /// Checkpoint hooks for the publishing sink operator: the snapshot records
  /// the sequence counter at the epoch boundary, so a recovered publisher
  /// re-tags replayed tuples with their original sequence numbers and
  /// subscribers drop them as duplicates.
  [[nodiscard]] spe::SnapshotFn AsSnapshotFn();
  [[nodiscard]] spe::RestoreFn AsRestoreFn();

  /// Tuples the sink could not encode (a payload type without a codec);
  /// each is logged and not published.
  [[nodiscard]] std::uint64_t encode_errors() const noexcept {
    return encode_errors_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<ps::ProducerClient> producer_;
  std::string topic_;
  PartitionKeyFn key_fn_;
  bool tagging_ = false;
  // Tag state. Touched only on the sink operator's thread: the SinkFn and
  // the snapshot hook both run there, and the restore hook runs before the
  // query starts.
  std::uint64_t seq_ = 0;  ///< last assigned sequence number (first tag is 1)
  std::atomic<std::uint64_t> encode_errors_{0};
};

class ConnectorSubscriber {
 public:
  /// Transport-neutral: `client` may be the embedded broker or a remote one.
  /// A `checkpointed` subscriber keeps its replay cursor only in its
  /// snapshots: it never commits the group offset and ignores any the group
  /// has, so a fresh start reads every partition from the log start.
  /// Otherwise it resumes from, and auto-commits, the group offset.
  [[nodiscard]] static Result<std::shared_ptr<ConnectorSubscriber>> Create(
      ps::BrokerClient* client, const std::string& topic,
      const std::string& group, bool checkpointed = false);

  /// Convenience for the embedded broker.
  [[nodiscard]] static Result<std::shared_ptr<ConnectorSubscriber>> Create(
      ps::Broker* broker, const std::string& topic, const std::string& group,
      bool checkpointed = false);

  /// BatchSourceFn yielding everything one broker poll delivered as a
  /// single batch, until EOS-and-drained or Stop(). The SPE emits and
  /// flushes it as a unit, so broker poll boundaries become data-plane batch
  /// boundaries.
  [[nodiscard]] spe::BatchSourceFn AsBatchSourceFn();

  void Stop() { stopped_.store(true, std::memory_order_release); }

  /// Checkpoint hooks for the subscribing source operator (create it
  /// `checkpointed`). The snapshot runs between source calls, when every
  /// polled record has been delivered into the SPE: it is the consumer's
  /// position in every assigned partition (the first un-polled offset) plus
  /// the per-partition sequence floor. Restore seeks the
  /// consumer back to those offsets — a truncated offset surfaces the
  /// broker's OutOfRange instead of silently skipping data — and re-seeds
  /// the floors so replayed records dedupe. A partition the blob does not
  /// name stays at the log start.
  [[nodiscard]] spe::SnapshotFn AsSnapshotFn();
  [[nodiscard]] spe::RestoreFn AsRestoreFn();

  /// Tagged records dropped as already-delivered duplicates (replay).
  [[nodiscard]] std::uint64_t duplicates_dropped() const noexcept {
    return duplicates_dropped_.load(std::memory_order_relaxed);
  }

 private:
  ConnectorSubscriber(std::unique_ptr<ps::Consumer> consumer,
                      std::string topic)
      : consumer_(std::move(consumer)), topic_(std::move(topic)) {}

  /// Polls until a poll delivers at least one tuple; nullopt at end of
  /// stream.
  [[nodiscard]] std::optional<spe::TupleBatch> NextBatch();

  std::unique_ptr<ps::Consumer> consumer_;
  std::string topic_;  ///< span naming only
  std::atomic<bool> stopped_{false};
  bool eos_seen_ = false;
  // Replay/dedupe state, touched only on the source operator's thread (the
  // restore hook runs before the query starts).
  std::map<int, std::uint64_t> seq_floor_;  ///< max seq delivered (dedupe)
  std::atomic<std::uint64_t> duplicates_dropped_{0};
};

}  // namespace strata::core
