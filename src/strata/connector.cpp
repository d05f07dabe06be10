#include "strata/connector.hpp"

#include <algorithm>

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
    const TransportTag tag =
        tagging_ ? TransportTag{epoch_, seq_ + 1} : TransportTag{};
    if (Status s = EncodeTaggedTuple(tag, tuple, &encoded); !s.ok()) {
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
    if (Status s = EncodeTaggedTuple(TransportTag{}, eos, &encoded); !s.ok()) {
      return;
    }
    (void)producer_->Send(topic_, "", std::move(encoded), 0);
  };
}

spe::SnapshotFn ConnectorPublisher::AsSnapshotFn() {
  return [this](std::uint64_t epoch, std::string* out) {
    epoch_ = epoch;  // records published after this barrier carry `epoch`
    codec::PutVarint64(out, epoch_);
    codec::PutVarint64(out, seq_);
    return Status::Ok();
  };
}

spe::RestoreFn ConnectorPublisher::AsRestoreFn() {
  return [this](std::string_view blob) {
    std::uint64_t epoch = 0;
    std::uint64_t seq = 0;
    if (!codec::GetVarint64(&blob, &epoch) ||
        !codec::GetVarint64(&blob, &seq) || !blob.empty()) {
      return Status::Corruption("publisher snapshot unparsable for topic " +
                                topic_);
    }
    // Replayed tuples are re-tagged with the sequence numbers they carried
    // before the crash, which is what lets subscribers drop them.
    epoch_ = epoch;
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

spe::SourceFn ConnectorSubscriber::AsSourceFn() {
  // The returned SourceFn shares `this` via the shared_ptr the caller holds;
  // Strata keeps subscribers alive for the query's lifetime.
  return [this]() { return Next(); };
}

spe::BatchSourceFn ConnectorSubscriber::AsBatchSourceFn() {
  return [this]() { return NextBatch(); };
}

bool ConnectorSubscriber::FillBuffer() {
  while (buffered_.empty()) {
    if (stopped_.load(std::memory_order_acquire)) return false;

    const std::int64_t poll_t0 =
        obs::TracingEnabled() ? obs::TraceNowUs() : 0;
    auto batch = consumer_->Poll(kPollTimeout);
    if (!batch.ok()) {
      if (batch.status().IsTimeout()) {
        // Nothing arrived inside the poll window. If EOS was seen, an empty
        // window means all partitions are drained (the EOS record is
        // globally last): end of stream.
        if (eos_seen_) return false;
        continue;
      }
      if (!batch.status().IsClosed()) {
        LOG_ERROR << "connector poll failed: " << batch.status().ToString();
      }
      return false;
    }
    if (batch->empty()) {
      if (eos_seen_) return false;
      continue;
    }
    TraceContext sampled;  // first sampled tuple this poll delivered
    for (const ps::ConsumedRecord& record : *batch) {
      TransportTag tag;
      auto tuple = DecodeTaggedTuple(record.value, &tag);
      if (!tuple.ok()) {
        LOG_ERROR << "connector decode failed: " << tuple.status().ToString();
        continue;
      }
      if (tuple->payload.Has(kEosKey)) {
        eos_seen_ = true;
        continue;  // sentinel is not delivered downstream
      }
      if (tag.seq != 0) {
        // Tagged record: sequence numbers are monotonic within a partition
        // (per-key ordering), so anything at or below the floor is a replay
        // of a record already seen before the publisher recovered.
        std::uint64_t& floor = seen_floor_[record.partition];
        if (tag.seq <= floor) {
          duplicates_dropped_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        floor = tag.seq;
      }
      if (!sampled.sampled() && tuple->trace.sampled()) {
        sampled = tuple->trace;
      }
      Buffered entry;
      entry.tuple = std::move(tuple).value();
      entry.partition = record.partition;
      entry.offset = record.offset;
      entry.seq = tag.seq;
      buffered_.push_back(std::move(entry));
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
  return true;
}

void ConnectorSubscriber::NoteDelivered(const Buffered& entry) {
  if (entry.seq == 0) return;
  std::uint64_t& floor = deliv_floor_[entry.partition];
  floor = std::max(floor, entry.seq);
}

std::optional<spe::Tuple> ConnectorSubscriber::Next() {
  if (!FillBuffer()) return std::nullopt;
  Buffered entry = std::move(buffered_.front());
  buffered_.pop_front();
  NoteDelivered(entry);
  return std::move(entry.tuple);
}

std::optional<spe::TupleBatch> ConnectorSubscriber::NextBatch() {
  if (!FillBuffer()) return std::nullopt;
  spe::TupleBatch out;
  out.reserve(buffered_.size());
  for (Buffered& entry : buffered_) {
    NoteDelivered(entry);
    out.push_back(std::move(entry.tuple));
  }
  buffered_.clear();
  return out;
}

spe::SnapshotFn ConnectorSubscriber::AsSnapshotFn() {
  return [this](std::uint64_t, std::string* out) {
    // Replay cursor for every assigned partition: the first
    // buffered-but-undelivered offset, else the next un-polled one. Tuples
    // already delivered into the SPE are covered by downstream snapshots of
    // the same epoch; everything at or after the cursor is re-polled on
    // recovery.
    std::map<int, std::int64_t> resume;
    for (const ps::TopicPartition& tp : consumer_->assignment()) {
      if (const auto position = consumer_->Position(tp)) {
        resume[tp.partition] = *position;
      }
    }
    for (const Buffered& entry : buffered_) {
      const auto [it, fresh] =
          resume.try_emplace(entry.partition, entry.offset);
      if (!fresh) it->second = std::min(it->second, entry.offset);
    }
    codec::PutVarint64(out, resume.size());
    for (const auto& [partition, offset] : resume) {
      codec::PutVarint64(out, static_cast<std::uint64_t>(partition));
      codec::PutVarint64Signed(out, offset);
      const auto floor = deliv_floor_.find(partition);
      codec::PutVarint64(out,
                         floor == deliv_floor_.end() ? 0 : floor->second);
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
      seen_floor_[static_cast<int>(partition)] = floor;
      deliv_floor_[static_cast<int>(partition)] = floor;
    }
    if (!blob.empty()) {
      return Status::Corruption("subscriber snapshot trailing bytes for " +
                                topic_);
    }
    buffered_.clear();
    eos_seen_ = false;
    return Status::Ok();
  };
}

}  // namespace strata::core
