#include "pubsub/consumer.hpp"

#include <algorithm>

namespace strata::ps {

Result<std::unique_ptr<Consumer>> Consumer::Create(Broker* broker,
                                                   const std::string& topic,
                                                   ConsumerOptions options) {
  auto member = broker->JoinGroup(options.group, topic);
  if (!member.ok()) return member.status();
  std::unique_ptr<Consumer> consumer(
      new Consumer(broker, topic, std::move(options), *member));
  consumer->RefreshAssignment();
  return consumer;
}

Consumer::~Consumer() { broker_->LeaveGroup(options_.group, member_); }

void Consumer::RefreshAssignment() {
  std::uint64_t generation = 0;
  auto assigned = broker_->Assignment(options_.group, member_, &generation);
  if (generation == generation_ && !assigned_.empty()) return;
  generation_ = generation;
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

  // (Re-)establish positions for newly assigned partitions.
  std::map<TopicPartition, std::int64_t> positions;
  for (const TopicPartition& tp : assigned_) {
    if (const auto it = positions_.find(tp); it != positions_.end()) {
      positions[tp] = it->second;  // keep in-flight position
      continue;
    }
    if (options_.resume_committed) {
      auto committed = broker_->CommittedOffset(options_.group, tp);
      if (committed.ok()) {
        positions[tp] = *committed;
        continue;
      }
    }
    auto log = broker_->GetLog(tp.topic, tp.partition);
    if (!log.ok()) continue;
    positions[tp] = options_.reset == ConsumerOptions::AutoOffsetReset::kLatest
                        ? (*log)->EndOffset()
                        : (*log)->StartOffset();
  }
  positions_ = std::move(positions);
}

Result<std::vector<ConsumedRecord>> Consumer::Poll(
    std::chrono::microseconds timeout) {
  // Deadline on the monotonic clock: wall-clock jumps must not stretch or
  // shrink a long-poll (RemoteConsumer turns this timeout into its retry
  // cadence, so the distinction matters).
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  RefreshAssignment();

  std::vector<ConsumedRecord> out;
  auto fetch_available = [&]() -> Status {
    for (const TopicPartition& tp : assigned_) {
      if (out.size() >= options_.max_poll_records) break;
      auto log = broker_->GetLog(tp.topic, tp.partition);
      if (!log.ok()) return log.status();

      std::int64_t& position = positions_[tp];
      // Heal positions that fell below the retention horizon.
      position = std::max(position, (*log)->StartOffset());

      std::vector<Record> records;
      std::int64_t next = position;
      STRATA_RETURN_IF_ERROR((*log)->ReadFrom(
          position, options_.max_poll_records - out.size(), &records, &next));
      std::int64_t offset = position;
      for (Record& record : records) {
        ConsumedRecord consumed;
        consumed.topic = tp.topic;
        consumed.partition = tp.partition;
        consumed.offset = offset++;
        consumed.key = std::move(record.key);
        consumed.value = std::move(record.value);
        consumed.timestamp = record.timestamp;
        out.push_back(std::move(consumed));
      }
      position = next;
      uncommitted_[tp] = next;
    }
    return Status::Ok();
  };

  STRATA_RETURN_IF_ERROR(fetch_available());
  while (out.empty() && !assigned_.empty()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    // Block until *any* assigned partition has new data, then refetch all.
    // Waiting on a single partition's log would sleep through the timeout
    // while records pile up in the others.
    (void)broker_->WaitForAnyData(
        assigned_, positions_,
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now));
    if (broker_->closed()) return Status::Closed("broker closed");
    RefreshAssignment();  // a rebalance may have happened while we slept
    STRATA_RETURN_IF_ERROR(fetch_available());
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
  for (const auto& [tp, offset] : uncommitted_) {
    STRATA_RETURN_IF_ERROR(broker_->CommitOffset(options_.group, tp, offset));
  }
  uncommitted_.clear();
  return Status::Ok();
}

Status Consumer::Seek(const TopicPartition& tp, std::int64_t offset) {
  RefreshAssignment();
  if (std::find(assigned_.begin(), assigned_.end(), tp) == assigned_.end()) {
    return Status::InvalidArgument("Seek: partition not assigned: " +
                                   tp.topic + "/" +
                                   std::to_string(tp.partition));
  }
  auto log = broker_->GetLog(tp.topic, tp.partition);
  if (!log.ok()) return log.status();
  const std::int64_t start = (*log)->StartOffset();
  const std::int64_t end = (*log)->EndOffset();
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
  RefreshAssignment();
  for (const TopicPartition& tp : assigned_) {
    auto log = broker_->GetLog(tp.topic, tp.partition);
    if (!log.ok()) return log.status();
    positions_[tp] = (*log)->EndOffset();
    uncommitted_[tp] = positions_[tp];
  }
  return Commit();
}

}  // namespace strata::ps
