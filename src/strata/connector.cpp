#include "strata/connector.hpp"

#include "common/codec.hpp"
#include "common/logging.hpp"
#include "obs/trace.hpp"
#include "strata/api.hpp"

namespace strata::core {

namespace {
constexpr auto kPollTimeout = std::chrono::microseconds(2000);
}

spe::SinkFn ConnectorPublisher::AsSinkFn() {
  return [this](const spe::Tuple& tuple) {
    std::string encoded;
    if (Status s = EncodeTaggedTuple(tagging_ ? seq_ + 1 : 0, tuple, &encoded);
        !s.ok()) {
      encode_errors_.fetch_add(1, std::memory_order_relaxed);
      LOG_ERROR << "connector publish encode failed on topic " << topic_
                << ": " << s.ToString();
      return;
    }
    if (tagging_) ++seq_;
    // Produce-hop span for sampled tuples; while live it also sets the
    // thread's trace slot, so a remote producer tags the wire frame with the
    // same trace. Parent under the enclosing sink span when there is one.
    obs::SpanScope span;
    if (tuple.trace.sampled() && obs::TracingEnabled()) {
      TraceContext parent = tuple.trace;
      if (const TraceContext& current = ThreadTraceSlot();
          current.trace_id == parent.trace_id) {
        parent.parent_span = current.parent_span;
      }
      span = obs::SpanScope(topic_.c_str(), "pubsub.produce", parent, 1);
    }
    auto result = producer_->Send(topic_, key_fn_ ? key_fn_(tuple) : "",
                                  std::move(encoded), tuple.event_time);
    if (!result.ok() && !result.status().IsClosed()) {
      LOG_ERROR << "connector publish failed on topic " << topic_ << ": "
                << result.status().ToString();
    }
  };
}

std::function<void()> ConnectorPublisher::AsFinishHook() {
  return [this] {
    spe::Tuple eos;
    eos.payload.Set(kEosKey, true);
    std::string encoded;
    if (Status s = EncodeTaggedTuple(0, eos, &encoded); !s.ok()) {
      return;
    }
    (void)producer_->Send(topic_, "", std::move(encoded), 0);
  };
}

spe::SnapshotFn ConnectorPublisher::AsSnapshotFn() {
  return [this](std::uint64_t, std::string* out) {
    codec::PutVarint64(out, seq_);
    return Status::Ok();
  };
}

spe::RestoreFn ConnectorPublisher::AsRestoreFn() {
  return [this](std::string_view blob) {
    std::uint64_t seq = 0;
    if (!codec::GetVarint64(&blob, &seq) || !blob.empty()) {
      return Status::Corruption("publisher snapshot unparsable for topic " +
                                topic_);
    }
    // Replayed tuples are re-tagged with the sequence numbers they carried
    // before the crash, which is what lets subscribers drop them.
    seq_ = seq;
    return Status::Ok();
  };
}

Result<std::shared_ptr<ConnectorSubscriber>> ConnectorSubscriber::Create(
    ps::BrokerClient* client, const std::string& topic,
    const std::string& group, bool checkpointed) {
  ps::ConsumerOptions options;
  options.group = group;
  options.reset = ps::ConsumerOptions::AutoOffsetReset::kEarliest;
  // With checkpointing the checkpoint is the only replay cursor: a group
  // offset committed past the last epoch's cut would skip records on
  // restart, so it is neither written nor read.
  options.auto_commit = !checkpointed;
  options.resume_committed = !checkpointed;
  auto consumer = client->NewConsumer(topic, std::move(options));
  if (!consumer.ok()) return consumer.status();
  return std::shared_ptr<ConnectorSubscriber>(
      new ConnectorSubscriber(std::move(consumer).value(), topic));
}

Result<std::shared_ptr<ConnectorSubscriber>> ConnectorSubscriber::Create(
    ps::Broker* broker, const std::string& topic, const std::string& group,
    bool checkpointed) {
  ps::EmbeddedBrokerClient client(broker);
  return Create(&client, topic, group, checkpointed);
}

spe::BatchSourceFn ConnectorSubscriber::AsBatchSourceFn() {
  // The returned function shares `this` via the shared_ptr the caller holds;
  // Strata keeps subscribers alive for the query's lifetime.
  return [this]() { return NextBatch(); };
}

std::optional<spe::TupleBatch> ConnectorSubscriber::NextBatch() {
  spe::TupleBatch out;
  while (out.empty()) {
    if (stopped_.load(std::memory_order_acquire)) return std::nullopt;

    const std::int64_t poll_t0 =
        obs::TracingEnabled() ? obs::TraceNowUs() : 0;
    auto batch = consumer_->Poll(kPollTimeout);
    if (!batch.ok()) {
      if (batch.status().IsTimeout()) {
        // Nothing arrived inside the poll window. If EOS was seen, an empty
        // window means all partitions are drained (the EOS record is
        // globally last): end of stream.
        if (eos_seen_) return std::nullopt;
        continue;
      }
      if (!batch.status().IsClosed()) {
        LOG_ERROR << "connector poll failed: " << batch.status().ToString();
      }
      return std::nullopt;
    }
    if (batch->empty()) {
      if (eos_seen_) return std::nullopt;
      continue;
    }
    out.reserve(batch->size());
    TraceContext sampled;  // first sampled tuple this poll delivered
    for (const ps::ConsumedRecord& record : *batch) {
      std::uint64_t seq = 0;
      auto tuple = DecodeTaggedTuple(record.value, &seq);
      if (!tuple.ok()) {
        LOG_ERROR << "connector decode failed: " << tuple.status().ToString();
        continue;
      }
      if (tuple->payload.Has(kEosKey)) {
        eos_seen_ = true;
        continue;  // sentinel is not delivered downstream
      }
      if (seq != 0) {
        // Tagged record: sequence numbers are monotonic within a partition
        // (per-key ordering), so anything at or below the floor is a replay
        // of a record already delivered before the publisher recovered.
        std::uint64_t& floor = seq_floor_[record.partition];
        if (seq <= floor) {
          duplicates_dropped_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        floor = seq;
      }
      if (!sampled.sampled() && tuple->trace.sampled()) {
        sampled = tuple->trace;
      }
      out.push_back(std::move(tuple).value());
    }
    if (poll_t0 != 0 && sampled.sampled()) {
      // Fetch-hop span: dur covers the poll. Broker + wire transit time is
      // derived at collection from the gap to the producer-side parent span
      // (zero when the producer ran in another process).
      obs::Tracer& tracer = obs::Tracer::Instance();
      obs::Span span;
      span.trace_id = sampled.trace_id;
      span.span_id = tracer.NewSpanId();
      span.parent_span = sampled.parent_span;
      span.start_us = poll_t0;
      span.dur_us = obs::TraceNowUs() - poll_t0;
      span.batch = batch->size();
      span.SetName(topic_.c_str());
      span.SetCategory("pubsub.fetch");
      tracer.Record(span);
    }
  }
  return out;
}

spe::SnapshotFn ConnectorSubscriber::AsSnapshotFn() {
  return [this](std::uint64_t, std::string* out) {
    // Replay cursor for every assigned partition: the next un-polled offset.
    // The source operator snapshots between calls, so every polled record is
    // already in the SPE, covered by downstream snapshots of the same epoch;
    // everything at or after the cursor is re-polled on recovery.
    std::map<int, std::int64_t> resume;
    for (const ps::TopicPartition& tp : consumer_->assignment()) {
      if (const auto position = consumer_->Position(tp)) {
        resume[tp.partition] = *position;
      }
    }
    codec::PutVarint64(out, resume.size());
    for (const auto& [partition, offset] : resume) {
      codec::PutVarint64(out, static_cast<std::uint64_t>(partition));
      codec::PutVarint64Signed(out, offset);
      const auto floor = seq_floor_.find(partition);
      codec::PutVarint64(out, floor == seq_floor_.end() ? 0 : floor->second);
    }
    return Status::Ok();
  };
}

spe::RestoreFn ConnectorSubscriber::AsRestoreFn() {
  return [this](std::string_view blob) {
    std::uint64_t count = 0;
    if (!codec::GetVarint64(&blob, &count)) {
      return Status::Corruption("subscriber snapshot unparsable for topic " +
                                topic_);
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t partition = 0;
      std::int64_t offset = 0;
      std::uint64_t floor = 0;
      if (!codec::GetVarint64(&blob, &partition) ||
          !codec::GetVarint64Signed(&blob, &offset) ||
          !codec::GetVarint64(&blob, &floor)) {
        return Status::Corruption(
            "subscriber snapshot truncated for topic " + topic_);
      }
      // Strict seek: a cursor that fell below the retention horizon (or past
      // the end after a broker tail loss) is surfaced, never healed —
      // silently skipping data would break the recovery guarantee.
      STRATA_RETURN_IF_ERROR(
          consumer_->Seek(topic_, static_cast<int>(partition), offset));
      seq_floor_[static_cast<int>(partition)] = floor;
    }
    if (!blob.empty()) {
      return Status::Corruption("subscriber snapshot trailing bytes for " +
                                topic_);
    }
    eos_seen_ = false;
    return Status::Ok();
  };
}

}  // namespace strata::core
