// Bounded blocking MPMC queue: the back-pressure primitive between SPE
// operators and inside the pub/sub broker. Push blocks when full (flow
// control propagates upstream, as in Liebre/StreamCloud), Pop blocks when
// empty. Close() releases all waiters: producers see Closed, consumers drain
// remaining items then see Closed.
//
// Batch APIs (PushAll / PopAll / TryPopAll) move many items under a single
// lock acquisition with one notify per batch, amortizing the per-hop
// synchronization cost that dominates per-core SPE throughput.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"

namespace strata {

template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) {
      throw std::invalid_argument("BlockingQueue capacity must be > 0");
    }
  }

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Blocks until space is available or the queue is closed.
  Status Push(T item) {
    std::unique_lock lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return Status::Closed("queue closed");
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return Status::Ok();
  }

  /// Non-blocking push; ResourceExhausted when full.
  Status TryPush(T item) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return Status::Closed("queue closed");
      if (items_.size() >= capacity_) {
        return Status::ResourceExhausted("queue full");
      }
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return Status::Ok();
  }

  /// Pushes every item of `batch` in order under one lock acquisition per
  /// contiguous chunk, blocking for space as needed (batches larger than the
  /// capacity are delivered piecewise, waking consumers between chunks). On
  /// close mid-way, `*delivered` reports how many items made it in.
  Status PushAll(std::vector<T>* batch, std::size_t* delivered = nullptr,
                 std::int64_t* blocked_us = nullptr) {
    std::size_t done = 0;
    std::unique_lock lock(mu_);
    while (done < batch->size()) {
      if (!closed_ && items_.size() >= capacity_) {
        // Wake consumers for what we already enqueued before parking.
        if (done > 0) not_empty_.notify_all();
        const auto wait_start = std::chrono::steady_clock::now();
        not_full_.wait(lock,
                       [&] { return closed_ || items_.size() < capacity_; });
        if (blocked_us != nullptr) {
          *blocked_us +=
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - wait_start)
                  .count();
        }
      }
      if (closed_) break;
      const std::size_t room = capacity_ - items_.size();
      const std::size_t n = std::min(room, batch->size() - done);
      for (std::size_t i = 0; i < n; ++i) {
        items_.push_back(std::move((*batch)[done + i]));
      }
      done += n;
    }
    lock.unlock();
    if (delivered != nullptr) *delivered = done;
    if (done > 0) not_empty_.notify_all();
    return done == batch->size() ? Status::Ok()
                                 : Status::Closed("queue closed");
  }

  /// Blocks until an item arrives; nullopt once the queue is closed AND
  /// drained.
  std::optional<T> Pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Pop with a timeout; nullopt on timeout or closed-and-drained. Use
  /// `closed()` to distinguish if needed.
  std::optional<T> PopFor(std::chrono::microseconds timeout) {
    std::unique_lock lock(mu_);
    if (!not_empty_.wait_for(lock, timeout,
                             [&] { return closed_ || !items_.empty(); })) {
      return std::nullopt;
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  std::optional<T> TryPop() {
    std::unique_lock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Drains up to `max_items` of what is queued into `out` (append) under
  /// one lock; blocks until at least one item or closed-and-drained
  /// (returns false).
  bool PopAll(std::vector<T>* out, std::size_t max_items = kNoLimit) {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return DrainLocked(&lock, out, max_items);
  }

  /// PopAll with a timeout; false on timeout or closed-and-drained.
  bool PopAllFor(std::chrono::microseconds timeout, std::vector<T>* out,
                 std::size_t max_items = kNoLimit) {
    std::unique_lock lock(mu_);
    if (!not_empty_.wait_for(lock, timeout,
                             [&] { return closed_ || !items_.empty(); })) {
      return false;
    }
    return DrainLocked(&lock, out, max_items);
  }

  /// Non-blocking drain; returns the number of items appended to `out`.
  std::size_t TryPopAll(std::vector<T>* out, std::size_t max_items = kNoLimit) {
    std::unique_lock lock(mu_);
    if (items_.empty()) return 0;
    const std::size_t n = std::min(items_.size(), max_items);
    (void)DrainLocked(&lock, out, max_items);
    return n;
  }

  /// Close the queue: producers fail immediately; consumers drain remaining
  /// items and then receive nullopt.
  void Close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  static constexpr std::size_t kNoLimit =
      std::numeric_limits<std::size_t>::max();

 private:
  /// Moves up to `max_items` queued items into `out`; unlocks, wakes all
  /// producers (many slots freed at once). Returns false when nothing was
  /// drained.
  bool DrainLocked(std::unique_lock<std::mutex>* lock, std::vector<T>* out,
                   std::size_t max_items) {
    if (items_.empty()) return false;  // closed and drained
    const std::size_t n = std::min(items_.size(), max_items);
    out->reserve(out->size() + n);
    for (std::size_t i = 0; i < n; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    lock->unlock();
    not_full_.notify_all();
    return true;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace strata
