// Append-only partition log. Records live in memory for serving; when a
// data directory is configured they are also appended to segment files
//
//   <dir>/<topic>-<partition>/<base_offset>.seg
//
// where each entry is: masked_crc32c(4) | length(4) | encoded record.
// Segments roll at segment_bytes. On open, existing segments are replayed to
// rebuild the in-memory log (same recovery contract as the WAL).
#pragma once

#include <deque>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "pubsub/record.hpp"

namespace strata::ps {

/// What a persistent log does when the disk stops accepting appends.
enum class DiskFailurePolicy {
  /// Sticky error: every subsequent append fails until the log is reopened.
  /// Nothing is silently acknowledged that the disk did not take.
  kFailStop,
  /// Keep serving and accepting appends from memory only; a sticky
  /// `degraded` flag is raised so operators can see durability was lost.
  kDegrade,
};

struct LogOptions {
  /// Empty = in-memory only (no persistence).
  std::filesystem::path dir;
  std::size_t segment_bytes = 8u << 20;
  /// Oldest in-memory records are dropped beyond this count (0 = unbounded).
  /// Retention only trims memory, not segments on disk.
  std::size_t retention_records = 0;
  /// fsync the segment after every append (durability vs throughput) —
  /// mirrors kvstore DbOptions::sync_writes.
  bool sync_each_append = false;
  /// fsync a full segment before rolling to the next one, and the open
  /// segment on Close(). Bounds data-at-risk to the active segment.
  bool sync_on_roll = true;
  /// Applies only when `dir` is set; see DiskFailurePolicy.
  DiskFailurePolicy disk_failure_policy = DiskFailurePolicy::kFailStop;
};

class PartitionLog {
 public:
  [[nodiscard]] static Result<std::unique_ptr<PartitionLog>> Open(
      const LogOptions& options);

  ~PartitionLog();
  PartitionLog(const PartitionLog&) = delete;
  PartitionLog& operator=(const PartitionLog&) = delete;

  /// Append one record; returns its assigned offset. The log keeps the
  /// record's value buffer as it is (no copy).
  [[nodiscard]] Result<std::int64_t> Append(Record record);

  /// Read up to max_records starting at `offset`. Returns immediately with
  /// whatever is available (possibly empty). Offsets below the retention
  /// horizon return InvalidArgument. The records share the log's value
  /// buffers, which stay valid after retention trims them from the log.
  [[nodiscard]] Status ReadFrom(std::int64_t offset, std::size_t max_records,
                                std::vector<Record>* out,
                                std::int64_t* next_offset) const;

  /// Offset that will be assigned to the next append.
  [[nodiscard]] std::int64_t EndOffset() const;
  /// Oldest offset still readable from memory.
  [[nodiscard]] std::int64_t StartOffset() const;

  /// Discard every record at/after `offset` (replication uses this when a
  /// freshly promoted leader's log is shorter than ours: the divergent tail
  /// was never quorum-committed). No-op when offset >= EndOffset(). On a
  /// persistent log the segments are rewritten to the surviving prefix when
  /// that prefix is fully in memory; when retention already dropped part of
  /// it the log degrades (sticky) to memory-only rather than persist a log
  /// with a hole.
  [[nodiscard]] Status TruncateTo(std::int64_t offset);

  /// Sticky: the log hit a disk failure under DiskFailurePolicy::kDegrade and
  /// now serves from memory only.
  [[nodiscard]] bool degraded() const;
  /// Sticky: the log hit a disk failure under DiskFailurePolicy::kFailStop
  /// and refuses further appends.
  [[nodiscard]] bool fail_stopped() const;
  /// Segment append/roll/sync failures observed (counts in both policies).
  [[nodiscard]] std::uint64_t disk_errors() const;

  /// Invoked after every successful append, outside the log's lock. The
  /// broker uses this to wake consumers waiting across *all* of their
  /// assigned partitions. Set before the log is shared between threads.
  void SetAppendListener(std::function<void()> listener) {
    append_listener_ = std::move(listener);
  }

  void Close();

 private:
  explicit PartitionLog(LogOptions options) : options_(std::move(options)) {}

  [[nodiscard]] Status LoadSegments();
  [[nodiscard]] Status RollSegmentLocked();  // REQUIRES mu_
  /// REQUIRES mu_. Frame `record` and append it to the active segment,
  /// rolling/syncing per options. Any failure is a disk error.
  [[nodiscard]] Status AppendToSegmentLocked(const Record& record);
  /// REQUIRES mu_. Record a disk failure and apply the configured policy.
  /// Returns Ok when degrading (append proceeds in memory), the error when
  /// fail-stopping.
  [[nodiscard]] Status HandleDiskErrorLocked(Status error);

  LogOptions options_;
  mutable std::mutex mu_;
  std::deque<Record> records_;      // records_[i] has offset base_ + i
  std::int64_t base_ = 0;           // offset of records_.front()
  std::int64_t next_offset_ = 0;
  bool closed_ = false;

  std::FILE* segment_ = nullptr;    // active segment file (may be null)
  std::size_t segment_written_ = 0;
  /// Reused for each segment entry's header and record head (value bytes
  /// are written from the record's own buffer).
  std::string segment_head_;
  bool degraded_ = false;           // sticky (kDegrade)
  bool fail_stopped_ = false;       // sticky (kFailStop)
  Status fail_stop_error_ = Status::Ok();
  std::uint64_t disk_errors_ = 0;
  std::function<void()> append_listener_;
};

}  // namespace strata::ps
