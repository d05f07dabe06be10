#include "pubsub/log.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/codec.hpp"
#include "common/crc32.hpp"
#include "common/fs.hpp"
#include "common/logging.hpp"
#include "fault/failpoint.hpp"

namespace strata::ps {

namespace {

/// A record's encoding up to its value bytes: timestamp, length-prefixed
/// key, value length.
void EncodeRecordHead(const Record& record, std::string* out) {
  codec::PutVarint64Signed(out, record.timestamp);
  codec::PutLengthPrefixed(out, record.key);
  codec::PutVarint64(out, record.value.size());
}

std::string SegmentFileName(std::int64_t base_offset) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012lld.seg",
                static_cast<long long>(base_offset));
  return buf;
}

}  // namespace

void EncodeRecord(const Record& record, std::string* out) {
  EncodeRecordHead(record, out);
  out->append(record.value.data(), record.value.size());
}

Status DecodeRecord(std::string_view* in, Record* out) {
  std::string_view key;
  std::string_view value;
  if (!codec::GetVarint64Signed(in, &out->timestamp) ||
      !codec::GetLengthPrefixed(in, &key) ||
      !codec::GetLengthPrefixed(in, &value)) {
    return Status::Corruption("DecodeRecord: truncated");
  }
  out->key.assign(key.data(), key.size());
  out->value = Bytes::Copy(value);
  return Status::Ok();
}

Result<std::unique_ptr<PartitionLog>> PartitionLog::Open(
    const LogOptions& options) {
  std::unique_ptr<PartitionLog> log(new PartitionLog(options));
  if (!options.dir.empty()) {
    STRATA_RETURN_IF_ERROR(strata::fs::CreateDirs(options.dir));
    STRATA_RETURN_IF_ERROR(log->LoadSegments());
  }
  return log;
}

PartitionLog::~PartitionLog() {
  Close();
  if (segment_ != nullptr) std::fclose(segment_);
}

Status PartitionLog::LoadSegments() {
  std::vector<std::filesystem::path> segments;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    if (entry.path().extension() == ".seg") segments.push_back(entry.path());
  }
  std::sort(segments.begin(), segments.end());

  for (std::size_t seg_index = 0; seg_index < segments.size(); ++seg_index) {
    const auto& path = segments[seg_index];
    STRATA_FAILPOINT("segment.replay");
    auto contents = strata::fs::ReadFile(path);
    if (!contents.ok()) return contents.status();
    std::string_view in(contents.value());
    const std::size_t total = in.size();
    bool damaged = false;
    while (!in.empty()) {
      std::uint32_t masked = 0;
      std::uint32_t length = 0;
      std::string_view at = in;
      if (!codec::GetFixed32(&at, &masked) ||
          !codec::GetFixed32(&at, &length) || at.size() < length) {
        damaged = true;  // torn tail: record runs past EOF
        break;
      }
      const std::string_view body = at.substr(0, length);
      if (Crc32c(body) != UnmaskCrc(masked)) {
        damaged = true;  // CRC failure: treat like the WAL's torn tail
        break;
      }
      in = at.substr(length);

      Record record;
      std::string_view cursor = body;
      STRATA_RETURN_IF_ERROR(DecodeRecord(&cursor, &record));
      records_.push_back(std::move(record));
      ++next_offset_;
    }
    if (damaged) {
      // Physically truncate to the valid prefix (same contract as the
      // kvstore WAL), so a future replay never resurrects torn bytes, and
      // stop — anything in later segments was appended after the damage and
      // would be renumbered if replayed.
      const std::size_t valid = total - in.size();
      LOG_WARN << "pubsub recovery: truncating torn tail of " << path.string()
               << " at byte " << valid;
      std::error_code trunc_ec;
      std::filesystem::resize_file(path, valid, trunc_ec);
      if (trunc_ec) {
        return Status::IoError("segment truncate failed: " + path.string() +
                               ": " + trunc_ec.message());
      }
      // Later segments (rare: damage before the final segment) would be
      // renumbered if replayed past the cut; drop them rather than serve
      // records under the wrong offsets.
      for (std::size_t later = seg_index + 1; later < segments.size();
           ++later) {
        LOG_WARN << "pubsub recovery: removing post-damage segment "
                 << segments[later].string();
        std::error_code rm_ec;
        std::filesystem::remove(segments[later], rm_ec);
      }
      break;
    }
  }
  if (options_.retention_records > 0) {
    while (records_.size() > options_.retention_records) {
      records_.pop_front();
      ++base_;
    }
  }
  return Status::Ok();
}

Status PartitionLog::RollSegmentLocked() {
  STRATA_FAILPOINT("segment.roll");
  if (segment_ != nullptr) {
    if (options_.sync_on_roll && ::fsync(::fileno(segment_)) != 0) {
      std::fclose(segment_);
      segment_ = nullptr;
      return Status::IoError("segment fsync on roll failed: " +
                             std::string(std::strerror(errno)));
    }
    std::fclose(segment_);
    segment_ = nullptr;
  }
  const auto path = options_.dir / SegmentFileName(next_offset_);
  segment_ = std::fopen(path.c_str(), "ab");
  if (segment_ == nullptr) {
    return Status::IoError("segment open failed: " + path.string() + ": " +
                           std::strerror(errno));
  }
  segment_written_ = 0;
  // Make the new directory entry durable so a crash cannot lose the whole
  // segment file while keeping records acked against it.
  STRATA_RETURN_IF_ERROR(strata::fs::SyncDir(options_.dir));
  return Status::Ok();
}

Status PartitionLog::AppendToSegmentLocked(const Record& record) {
  if (segment_ == nullptr || segment_written_ >= options_.segment_bytes) {
    STRATA_RETURN_IF_ERROR(RollSegmentLocked());
  }
  // The entry goes out as two pieces: the 8-byte CRC/length header with the
  // record head after it, then the value straight from the record's buffer.
  // The CRC chains across both, exactly as over the concatenated record.
  constexpr std::size_t kEntryHeaderBytes = 8;
  segment_head_.assign(kEntryHeaderBytes, '\0');
  EncodeRecordHead(record, &segment_head_);
  const std::string_view head =
      std::string_view(segment_head_).substr(kEntryHeaderBytes);
  const std::string_view value = record.value;
  std::string header;
  codec::PutFixed32(&header, MaskCrc(Crc32c(value, Crc32c(head))));
  codec::PutFixed32(&header,
                    static_cast<std::uint32_t>(head.size() + value.size()));
  segment_head_.replace(0, kEntryHeaderBytes, header);

  // Failpoint "segment.append": error drops the entry, torn-write(n)
  // persists only the first n bytes; the injected error is returned after
  // the partial bytes land so recovery sees a genuine torn tail.
  std::size_t limit = segment_head_.size() + value.size();
  Status injected = Status::Ok();
  if (fault::AnyActive()) {
    injected = fault::InjectWrite("segment.append", &limit);
  }
  const std::size_t head_bytes = std::min(limit, segment_head_.size());
  const std::size_t value_bytes = limit - head_bytes;
  if (std::fwrite(segment_head_.data(), 1, head_bytes, segment_) !=
          head_bytes ||
      (value_bytes > 0 &&
       std::fwrite(value.data(), 1, value_bytes, segment_) != value_bytes) ||
      std::fflush(segment_) != 0) {
    return Status::IoError("segment append failed");
  }
  if (injected.ok() && options_.sync_each_append) {
    STRATA_FAILPOINT("segment.sync");
    if (::fsync(::fileno(segment_)) != 0) {
      return Status::IoError("segment fsync failed: " +
                             std::string(std::strerror(errno)));
    }
  }
  segment_written_ += limit;
  return injected;
}

Status PartitionLog::HandleDiskErrorLocked(Status error) {
  ++disk_errors_;
  if (options_.disk_failure_policy == DiskFailurePolicy::kDegrade) {
    if (!degraded_) {
      LOG_WARN << "pubsub log degrading to memory-only after disk error: "
               << error.ToString();
      degraded_ = true;
      if (segment_ != nullptr) {
        std::fclose(segment_);
        segment_ = nullptr;
      }
    }
    return Status::Ok();
  }
  if (!fail_stopped_) {
    LOG_ERROR << "pubsub log fail-stop after disk error: " << error.ToString();
    fail_stopped_ = true;
    fail_stop_error_ = error;
  }
  return error;
}

Result<std::int64_t> PartitionLog::Append(Record record) {
  std::unique_lock lock(mu_);
  if (closed_) return Status::Closed("log closed");
  if (fail_stopped_) return fail_stop_error_;

  if (!options_.dir.empty() && !degraded_) {
    Status disk = AppendToSegmentLocked(record);
    if (!disk.ok()) {
      STRATA_RETURN_IF_ERROR(HandleDiskErrorLocked(std::move(disk)));
    }
  }

  const std::int64_t offset = next_offset_++;
  records_.push_back(std::move(record));
  if (options_.retention_records > 0 &&
      records_.size() > options_.retention_records) {
    records_.pop_front();
    ++base_;
  }
  lock.unlock();
  if (append_listener_) append_listener_();
  return offset;
}

Status PartitionLog::ReadFrom(std::int64_t offset, std::size_t max_records,
                              std::vector<Record>* out,
                              std::int64_t* next_offset) const {
  out->clear();
  std::lock_guard lock(mu_);
  if (offset < base_) {
    return Status::InvalidArgument(
        "offset " + std::to_string(offset) + " below retention horizon " +
        std::to_string(base_));
  }
  std::int64_t cursor = offset;
  while (cursor < next_offset_ && out->size() < max_records) {
    out->push_back(records_[static_cast<std::size_t>(cursor - base_)]);
    ++cursor;
  }
  *next_offset = cursor;
  return Status::Ok();
}

std::int64_t PartitionLog::EndOffset() const {
  std::lock_guard lock(mu_);
  return next_offset_;
}

std::int64_t PartitionLog::StartOffset() const {
  std::lock_guard lock(mu_);
  return base_;
}

Status PartitionLog::TruncateTo(std::int64_t offset) {
  std::lock_guard lock(mu_);
  if (closed_) return Status::Closed("log closed");
  if (offset < 0) return Status::InvalidArgument("negative truncate offset");
  if (offset >= next_offset_) return Status::Ok();

  if (offset > base_) {
    records_.resize(static_cast<std::size_t>(offset - base_));
  } else {
    records_.clear();
    base_ = offset;
  }
  next_offset_ = offset;

  if (options_.dir.empty() || degraded_ || fail_stopped_) return Status::Ok();

  // Rewrite the segments to the surviving prefix. Segment entries carry no
  // offsets (names + order define them), so partial file truncation is only
  // safe when we can rebuild from record 0; retention may have dropped that
  // prefix from memory, in which case rewriting would renumber records.
  if (segment_ != nullptr) {
    std::fclose(segment_);
    segment_ = nullptr;
    segment_written_ = 0;
  }
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    if (entry.path().extension() != ".seg") continue;
    std::error_code rm_ec;
    std::filesystem::remove(entry.path(), rm_ec);
    if (rm_ec) {
      return HandleDiskErrorLocked(Status::IoError(
          "truncate: segment remove failed: " + entry.path().string() + ": " +
          rm_ec.message()));
    }
  }
  if (base_ != 0) {
    LOG_WARN << "pubsub log truncate to " << offset
             << ": prefix below retention horizon " << base_
             << " is gone; degrading to memory-only";
    degraded_ = true;
    ++disk_errors_;
    return Status::Ok();
  }
  // Re-append the surviving records so segment naming (based on the offset
  // at roll time) stays consistent with LoadSegments' renumbering.
  const std::int64_t end = next_offset_;
  next_offset_ = 0;
  for (std::int64_t i = 0; i < end; ++i) {
    Status disk =
        AppendToSegmentLocked(records_[static_cast<std::size_t>(i)]);
    ++next_offset_;
    if (!disk.ok()) {
      next_offset_ = end;
      return HandleDiskErrorLocked(std::move(disk));
    }
  }
  next_offset_ = end;
  return Status::Ok();
}

bool PartitionLog::degraded() const {
  std::lock_guard lock(mu_);
  return degraded_;
}

bool PartitionLog::fail_stopped() const {
  std::lock_guard lock(mu_);
  return fail_stopped_;
}

std::uint64_t PartitionLog::disk_errors() const {
  std::lock_guard lock(mu_);
  return disk_errors_;
}

void PartitionLog::Close() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
    if (segment_ != nullptr) {
      std::fflush(segment_);
      if (options_.sync_on_roll) ::fsync(::fileno(segment_));
    }
  }
}

}  // namespace strata::ps
