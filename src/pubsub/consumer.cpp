#include "pubsub/consumer.hpp"

#include <algorithm>
#include <iterator>
#include <thread>

namespace strata::ps {

namespace {

/// Ceiling on one wait inside Poll. Poll loops slices up to its own
/// deadline, re-reading the assignment between them so rebalances are
/// noticed even while blocked on an idle topic.
constexpr std::chrono::microseconds kPollSlice{200'000};

using PartitionBounds = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// [start, end) of `tp` among a topic's partition bounds.
Result<std::pair<std::int64_t, std::int64_t>> BoundsOf(const PartitionBounds& bounds,
                                                       const TopicPartition& tp) {
  if (tp.partition < 0 ||
      static_cast<std::size_t>(tp.partition) >= bounds.size()) {
    return Status::Corruption("metadata: missing partition " +
                              std::to_string(tp.partition));
  }
  return bounds[static_cast<std::size_t>(tp.partition)];
}

/// In-process transport: direct calls on a Broker the caller owns.
class BrokerTransport final : public ConsumerTransport {
 public:
  explicit BrokerTransport(Broker* broker) : broker_(broker) {}
  ~BrokerTransport() override {
    if (member_ != 0) broker_->LeaveGroup(group_, member_);
  }

  Status Join(const std::string& group, const std::string& topic) override {
    auto member = broker_->JoinGroup(group, topic);
    if (!member.ok()) return member.status();
    group_ = group;
    topic_ = topic;
    member_ = *member;
    return Status::Ok();
  }

  Status Assignment(std::vector<TopicPartition>* partitions) override {
    std::uint64_t generation = 0;
    *partitions = broker_->Assignment(group_, member_, &generation);
    return Status::Ok();
  }

  Status Committed(const std::vector<TopicPartition>& partitions,
                   std::vector<std::optional<std::int64_t>>* offsets) override {
    offsets->clear();
    for (const TopicPartition& tp : partitions) {
      auto committed = broker_->CommittedOffset(group_, tp);
      offsets->push_back(committed.ok() ? std::optional(*committed)
                                        : std::nullopt);
    }
    return Status::Ok();
  }

  Status Bounds(PartitionBounds* bounds) override {
    auto stats = broker_->GetTopicStats(topic_);
    if (!stats.ok()) return stats.status();
    *bounds = std::move(stats->offsets);
    return Status::Ok();
  }

  Status Commit(const std::map<TopicPartition, std::int64_t>& offsets) override {
    for (const auto& [tp, offset] : offsets) {
      STRATA_RETURN_IF_ERROR(broker_->CommitOffset(group_, tp, offset));
    }
    return Status::Ok();
  }

  /// The budget is shared across partitions, so nothing read is dropped.
  /// After a wait it returns nothing: the consumer re-reads its assignment
  /// (a rebalance may have happened meanwhile) before reading again.
  Status Fetch(const std::vector<TopicPartition>& partitions,
               const std::map<TopicPartition, std::int64_t>& positions,
               std::size_t max_records, std::chrono::microseconds wait,
               std::vector<PartitionRead>* reads) override {
    reads->clear();
    std::size_t budget = max_records;
    for (const TopicPartition& tp : partitions) {
      if (budget == 0) break;
      const auto it = positions.find(tp);
      PartitionRead& read = reads->emplace_back();
      STRATA_RETURN_IF_ERROR(broker_->Read(
          tp, it == positions.end() ? 0 : it->second, budget, &read));
      budget -= read.records.size();
    }
    if (budget < max_records || wait.count() <= 0) return Status::Ok();

    // Wait on the healed positions: a raw position below the retention
    // horizon would read as "data available" forever.
    std::map<TopicPartition, std::int64_t> healed;
    for (const PartitionRead& read : *reads) healed[read.tp] = read.next_offset;
    (void)broker_->WaitForAnyData(partitions, healed, wait);
    if (broker_->closed()) return Status::Closed("broker closed");
    reads->clear();
    return Status::Ok();
  }

 private:
  Broker* broker_;
  std::string group_;
  std::string topic_;
  MemberId member_ = 0;
};

}  // namespace

Result<std::unique_ptr<Consumer>> Consumer::Create(Broker* broker,
                                                   const std::string& topic,
                                                   ConsumerOptions options) {
  return Create(std::make_unique<BrokerTransport>(broker), topic,
                std::move(options));
}

Result<std::unique_ptr<Consumer>> Consumer::Create(
    std::unique_ptr<ConsumerTransport> transport, const std::string& topic,
    ConsumerOptions options) {
  STRATA_RETURN_IF_ERROR(transport->Join(options.group, topic));
  std::unique_ptr<Consumer> consumer(
      new Consumer(std::move(transport), std::move(options)));
  STRATA_RETURN_IF_ERROR(consumer->RefreshAssignment());
  return consumer;
}

Status Consumer::RefreshAssignment() {
  std::vector<TopicPartition> assigned;
  STRATA_RETURN_IF_ERROR(transport_->Assignment(&assigned));
  if (assigned == assigned_) return Status::Ok();
  assigned_ = std::move(assigned);

  // Drop uncommitted progress for revoked partitions: after a rebalance they
  // belong to another member, and committing our stale offsets would clobber
  // the new owner's progress.
  for (auto it = uncommitted_.begin(); it != uncommitted_.end();) {
    const bool still_assigned =
        std::find(assigned_.begin(), assigned_.end(), it->first) !=
        assigned_.end();
    it = still_assigned ? std::next(it) : uncommitted_.erase(it);
  }

  // Keep in-flight positions of retained partitions; start new ones at the
  // committed offset (when resume_committed), else per the reset policy.
  std::map<TopicPartition, std::int64_t> positions;
  std::vector<TopicPartition> fresh;
  for (const TopicPartition& tp : assigned_) {
    if (const auto it = positions_.find(tp); it != positions_.end()) {
      positions[tp] = it->second;
    } else {
      fresh.push_back(tp);
    }
  }
  std::vector<std::optional<std::int64_t>> committed(fresh.size());
  if (!fresh.empty() && options_.resume_committed) {
    STRATA_RETURN_IF_ERROR(transport_->Committed(fresh, &committed));
  }
  PartitionBounds bounds;  // fetched once, and only when some partition needs it
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (committed[i].has_value()) {
      positions[fresh[i]] = *committed[i];
      continue;
    }
    if (bounds.empty()) STRATA_RETURN_IF_ERROR(transport_->Bounds(&bounds));
    auto range = BoundsOf(bounds, fresh[i]);
    if (!range.ok()) return range.status();
    positions[fresh[i]] =
        options_.reset == ConsumerOptions::AutoOffsetReset::kLatest
            ? range->second
            : range->first;
  }
  positions_ = std::move(positions);
  return Status::Ok();
}

Result<std::vector<ConsumedRecord>> Consumer::Poll(
    std::chrono::microseconds timeout) {
  // Deadline on the monotonic clock: wall-clock jumps must not stretch or
  // shrink a long-poll.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  STRATA_RETURN_IF_ERROR(RefreshAssignment());

  std::vector<ConsumedRecord> out;
  std::vector<PartitionRead> reads;
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    const auto wait = std::min(
        now < deadline ? std::chrono::duration_cast<std::chrono::microseconds>(
                             deadline - now)
                       : std::chrono::microseconds{},
        kPollSlice);
    if (assigned_.empty()) {
      // Nothing assigned (mid-rebalance, or more members than partitions):
      // wait out a slice rather than asking for the assignment in a loop.
      if (wait.count() == 0) break;
      std::this_thread::sleep_for(wait);
    } else {
      STRATA_RETURN_IF_ERROR(transport_->Fetch(
          assigned_, positions_, options_.max_poll_records, wait, &reads));
      for (PartitionRead& read : reads) {
        // Only records from partitions we own count, and only as many as
        // the poll has room for; the rest is read again next time.
        if (std::find(assigned_.begin(), assigned_.end(), read.tp) ==
            assigned_.end()) {
          continue;
        }
        const std::size_t room = options_.max_poll_records > out.size()
                                     ? options_.max_poll_records - out.size()
                                     : 0;
        const std::size_t take = std::min(read.records.size(), room);
        const std::int64_t next = take == read.records.size()
                                      ? read.next_offset
                                      : read.records[take].offset;
        out.insert(out.end(), std::make_move_iterator(read.records.begin()),
                   std::make_move_iterator(read.records.begin() + take));
        positions_[read.tp] = next;
        uncommitted_[read.tp] = next;
      }
    }
    if (!out.empty() || std::chrono::steady_clock::now() >= deadline) break;
    // Between slices, pick up any rebalance that happened while we waited.
    STRATA_RETURN_IF_ERROR(RefreshAssignment());
  }

  if (options_.auto_commit && !out.empty()) STRATA_RETURN_IF_ERROR(Commit());
  if (out.empty() && timeout.count() > 0) {
    // Deadline exceeded is not the same observation as "no data": a
    // zero-timeout probe legitimately returns an empty Ok batch, but a
    // blocking poll that saw nothing for its whole window reports Timeout so
    // retry loops and remote fetches can act on it.
    return Status::Timeout("Poll: no data before deadline");
  }
  return out;
}

Status Consumer::Commit() {
  if (uncommitted_.empty()) return Status::Ok();
  STRATA_RETURN_IF_ERROR(transport_->Commit(uncommitted_));
  uncommitted_.clear();
  return Status::Ok();
}

Status Consumer::Seek(const TopicPartition& tp, std::int64_t offset) {
  STRATA_RETURN_IF_ERROR(RefreshAssignment());
  if (std::find(assigned_.begin(), assigned_.end(), tp) == assigned_.end()) {
    return Status::InvalidArgument("Seek: partition not assigned: " +
                                   tp.topic + "/" +
                                   std::to_string(tp.partition));
  }
  PartitionBounds bounds;
  STRATA_RETURN_IF_ERROR(transport_->Bounds(&bounds));
  auto range = BoundsOf(bounds, tp);
  if (!range.ok()) return range.status();
  const auto [start, end] = *range;
  if (offset < start) {
    return Status::OutOfRange(
        "Seek: offset " + std::to_string(offset) + " below retention start " +
        std::to_string(start) + " for " + tp.topic + "/" +
        std::to_string(tp.partition));
  }
  if (offset > end) {
    return Status::OutOfRange("Seek: offset " + std::to_string(offset) +
                              " past log end " + std::to_string(end) +
                              " for " + tp.topic + "/" +
                              std::to_string(tp.partition));
  }
  positions_[tp] = offset;
  // The seek itself is not progress: nothing to commit until data is
  // consumed from the new position.
  uncommitted_.erase(tp);
  return Status::Ok();
}

Status Consumer::SeekToEnd() {
  STRATA_RETURN_IF_ERROR(RefreshAssignment());
  PartitionBounds bounds;
  STRATA_RETURN_IF_ERROR(transport_->Bounds(&bounds));
  for (const TopicPartition& tp : assigned_) {
    auto range = BoundsOf(bounds, tp);
    if (!range.ok()) return range.status();
    positions_[tp] = range->second;
    uncommitted_[tp] = range->second;
  }
  return Commit();
}

}  // namespace strata::ps
