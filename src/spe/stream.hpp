// A stream: the bounded channel connecting two operators, plus flow metrics.
// PushBatch blocks when the channel is full — back-pressure propagates
// upstream to the sources, as in Liebre/StreamCloud.
//
// The transport is one mutex/condvar BlockingQueue, safe for any number of
// producers/consumers, including streams pushed from outside the query.
// Every hand-off is a batch (a lone tuple, such as a barrier, is a batch of
// one). Capacity is counted in tuples; batches amortize the lock over many
// tuples, they are not a storage unit.
#pragma once

#include <atomic>
#include <limits>
#include <memory>
#include <string>

#include "common/histogram.hpp"
#include "common/queue.hpp"
#include "spe/batch.hpp"
#include "spe/tuple.hpp"

namespace strata::spe {

class Stream {
 public:
  Stream(std::string name, std::size_t capacity)
      : name_(std::move(name)), queue_(capacity) {}

  // ----- batch API (one synchronization per batch) -----

  /// Pushes the whole batch in order, blocking for space as needed; delivered
  /// elements are moved out of `*batch` (clear() it to recycle the heap
  /// block). On a closed stream the undelivered remainder is counted as
  /// discarded and `*delivered` reports how many tuples made it in.
  [[nodiscard]] Status PushBatch(TupleBatch* batch,
                                 std::size_t* delivered = nullptr) {
    const std::size_t total = batch->size();
    if (total == 0) return Status::Ok();
    std::size_t done = 0;
    std::int64_t blocked_us = 0;
    const Status s = queue_.PushAll(batch, &done, &blocked_us);
    if (blocked_us > 0) {
      blocked_us_.fetch_add(static_cast<std::uint64_t>(blocked_us),
                            std::memory_order_relaxed);
    }
    if (done > 0) pushed_.fetch_add(done, std::memory_order_relaxed);
    if (done < total) {
      discarded_.fetch_add(total - done, std::memory_order_relaxed);
    }
    if (delivered != nullptr) *delivered = done;
    return s;
  }

  /// Drains up to `max_tuples` of what is queued in one call; blocks until
  /// at least one tuple. nullopt once the stream is closed AND drained.
  /// Consumers pass their batch size so one drain never pulls more than a
  /// batch of tuples into operator memory (bounded run-ahead).
  [[nodiscard]] std::optional<TupleBatch> PopBatch(
      std::size_t max_tuples = kNoLimit) {
    TupleBatch batch;
    const bool got = queue_.PopAll(&batch, max_tuples);
    if (!got) return std::nullopt;
    RecordDrain(batch.size());
    return batch;
  }

  /// PopBatch with a timeout; nullopt on timeout or closed-and-drained.
  [[nodiscard]] std::optional<TupleBatch> PopBatchFor(
      std::chrono::microseconds timeout, std::size_t max_tuples = kNoLimit) {
    TupleBatch batch;
    const bool got = queue_.PopAllFor(timeout, &batch, max_tuples);
    if (!got) return std::nullopt;
    RecordDrain(batch.size());
    return batch;
  }

  /// Non-blocking drain; nullopt when nothing is queued.
  [[nodiscard]] std::optional<TupleBatch> TryPopBatch(
      std::size_t max_tuples = kNoLimit) {
    TupleBatch batch;
    const std::size_t n = queue_.TryPopAll(&batch, max_tuples);
    if (n == 0) return std::nullopt;
    RecordDrain(n);
    return batch;
  }

  // ----- lifecycle + metrics -----

  void Close() { queue_.Close(); }
  [[nodiscard]] bool closed() const { return queue_.closed(); }
  [[nodiscard]] bool drained() const { return closed() && depth() == 0; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return pushed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t popped() const noexcept {
    return popped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return queue_.capacity();
  }
  /// Cumulative microseconds producers spent blocked on a full queue
  /// (the back-pressure signal surfaced by the obs layer).
  [[nodiscard]] std::uint64_t blocked_us() const noexcept {
    return blocked_us_.load(std::memory_order_relaxed);
  }
  /// Tuples dropped because they were pushed at (or flushed into) a closed
  /// stream — downstream exited, nobody will consume them.
  [[nodiscard]] std::uint64_t discarded() const noexcept {
    return discarded_.load(std::memory_order_relaxed);
  }
  /// Distribution of consumer-side drain sizes: how many tuples each
  /// PopBatch amortized its synchronization over.
  [[nodiscard]] Histogram BatchSizeSnapshot() const {
    return batch_sizes_.Snapshot();
  }

  static constexpr std::size_t kNoLimit =
      std::numeric_limits<std::size_t>::max();

 private:
  void RecordDrain(std::size_t n) {
    popped_.fetch_add(n, std::memory_order_relaxed);
    batch_sizes_.Record(static_cast<std::int64_t>(n));
  }

  std::string name_;
  BlockingQueue<Tuple> queue_;
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> popped_{0};
  std::atomic<std::uint64_t> blocked_us_{0};
  std::atomic<std::uint64_t> discarded_{0};
  ConcurrentHistogram batch_sizes_;
};

using StreamPtr = std::shared_ptr<Stream>;

}  // namespace strata::spe
