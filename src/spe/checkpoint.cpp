#include "spe/checkpoint.hpp"

#include <chrono>

#include "common/codec.hpp"
#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "fault/failpoint.hpp"
#include "obs/trace.hpp"

namespace strata::spe {

// -------------------------------------------------------------- manifest

void CheckpointManifest::EncodeTo(std::string* out) const {
  const std::size_t start = out->size();
  codec::PutVarint64(out, epoch);
  codec::PutVarint64(out, operators.size());
  for (const OperatorSnapshot& snapshot : operators) {
    codec::PutLengthPrefixed(out, snapshot.name);
    codec::PutLengthPrefixed(out, snapshot.blob);
  }
  const std::uint32_t crc = Crc32c(std::string_view(*out).substr(start));
  codec::PutFixed32(out, MaskCrc(crc));
}

Result<CheckpointManifest> CheckpointManifest::Decode(std::string_view in) {
  if (in.size() < 4) {
    return Status::Corruption("checkpoint manifest: missing checksum");
  }
  std::string_view trailer = in.substr(in.size() - 4);
  std::uint32_t masked = 0;
  (void)codec::GetFixed32(&trailer, &masked);
  in.remove_suffix(4);
  if (UnmaskCrc(masked) != Crc32c(in)) {
    return Status::Corruption("checkpoint manifest: checksum mismatch");
  }

  CheckpointManifest manifest;
  std::uint64_t count = 0;
  if (!codec::GetVarint64(&in, &manifest.epoch) ||
      !codec::GetVarint64(&in, &count)) {
    return Status::Corruption("checkpoint manifest: truncated header");
  }
  manifest.operators.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string_view name;
    std::string_view blob;
    if (!codec::GetLengthPrefixed(&in, &name) ||
        !codec::GetLengthPrefixed(&in, &blob)) {
      return Status::Corruption("checkpoint manifest: truncated entry");
    }
    manifest.operators.push_back({std::string(name), std::string(blob)});
  }
  if (!in.empty()) {
    return Status::Corruption("checkpoint manifest: trailing bytes");
  }
  return manifest;
}

// ----------------------------------------------------------- coordinator

namespace {
constexpr std::int64_t kMicrosPerMilli = 1000;

/// Failpoint evaluation that returns the injected Status (the macro form
/// returns from the enclosing function, which is what persist wants too, but
/// keeping it explicit reads better across the two-step commit).
Status EvaluateSite(std::string_view site) {
  if (!fault::AnyActive()) return Status::Ok();
  return fault::Evaluate(site);
}
}  // namespace

Checkpointer::Checkpointer(CheckpointStore* store, CheckpointerOptions options)
    : store_(store), options_(options) {
  if (store_ == nullptr) {
    throw std::invalid_argument("Checkpointer: null store");
  }
  if (options_.interval_ms <= 0) {
    throw std::invalid_argument("Checkpointer: interval_ms must be > 0");
  }
}

Checkpointer::~Checkpointer() { Stop(); }

std::int64_t Checkpointer::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Checkpointer::RegisterOperator(const std::string& name) {
  std::lock_guard lock(mu_);
  for (const std::string& existing : registered_) {
    if (existing == name) {
      throw std::logic_error("Checkpointer: duplicate operator name '" + name +
                             "' (checkpointing requires unique names)");
    }
  }
  registered_.push_back(name);
}

void Checkpointer::SetBaseEpoch(std::uint64_t epoch) {
  std::lock_guard lock(mu_);
  base_epoch_ = epoch;
}

Result<CheckpointManifest> Checkpointer::LoadLatest() {
  STRATA_RETURN_IF_ERROR(EvaluateSite("checkpoint.restore"));
  auto latest = store_->LatestEpoch();
  if (!latest.ok()) return latest.status();
  auto blob = store_->Get(*latest);
  if (!blob.ok()) return blob.status();
  auto manifest = CheckpointManifest::Decode(*blob);
  if (!manifest.ok()) return manifest.status();
  if (manifest->epoch != *latest) {
    return Status::Corruption("checkpoint manifest epoch mismatch");
  }
  return manifest;
}

void Checkpointer::Start() {
  std::lock_guard lock(mu_);
  if (timer_running_) return;
  timer_running_ = true;
  stop_ = false;
  last_initiation_us_ = NowUs();
  timer_ = std::thread([this] { TimerLoop(); });
}

void Checkpointer::Stop() {
  {
    std::lock_guard lock(mu_);
    if (!timer_running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  timer_.join();
  std::lock_guard lock(mu_);
  timer_running_ = false;
}

void Checkpointer::TimerLoop() {
  std::unique_lock lock(mu_);
  const auto interval = std::chrono::milliseconds(options_.interval_ms);
  while (!stop_) {
    cv_.wait_for(lock, interval, [this] { return stop_; });
    if (stop_) break;
    const std::int64_t now = NowUs();
    if (inflight_epoch_ != 0) {
      if (now - inflight_started_us_ >=
          options_.epoch_timeout_ms * kMicrosPerMilli) {
        FailEpoch("epoch " + std::to_string(inflight_epoch_) +
                  " timed out after " +
                  std::to_string(options_.epoch_timeout_ms) + "ms");
      }
      continue;
    }
    if (now - last_initiation_us_ >= options_.interval_ms * kMicrosPerMilli) {
      BeginEpoch(now);
    }
  }
}

void Checkpointer::BeginEpoch(std::int64_t now_us) {
  inflight_epoch_ = ++base_epoch_;
  inflight_started_us_ = now_us;
  last_initiation_us_ = now_us;
  inflight_blobs_.clear();
  inflight_failed_ = false;
  pending_epoch_.store(inflight_epoch_, std::memory_order_release);

  // Operators that already exited are implicitly complete; with none left
  // running the epoch (an empty manifest) completes immediately.
  bool all_done = true;
  for (const std::string& name : registered_) {
    if (!finished_[name]) {
      all_done = false;
      break;
    }
  }
  if (all_done) CompleteEpoch();
}

void Checkpointer::FailEpoch(const std::string& reason) {
  ++epochs_failed_;
  ++consecutive_failures_;
  LOG_WARN << "checkpoint epoch " << inflight_epoch_ << " failed: " << reason;
  if (consecutive_failures_ >=
          static_cast<std::uint64_t>(options_.failure_warn_threshold) &&
      !degraded_) {
    degraded_ = true;  // sticky until the query is rebuilt
    if (!degraded_logged_) {
      degraded_logged_ = true;
      LOG_ERROR << "checkpointing degraded: " << consecutive_failures_
                << " consecutive epochs failed (last: " << reason
                << "); the query keeps running without recovery points";
    }
  }
  inflight_epoch_ = 0;
  inflight_blobs_.clear();
}

void Checkpointer::CompleteEpoch() {
  CheckpointManifest manifest;
  manifest.epoch = inflight_epoch_;
  manifest.operators.reserve(registered_.size());
  for (const std::string& name : registered_) {
    auto it = inflight_blobs_.find(name);
    // Finished operators flushed their state downstream before exiting; an
    // empty blob restores them as fresh, which is their post-exit state.
    manifest.operators.push_back(
        {name, it != inflight_blobs_.end() ? std::move(it->second)
                                           : std::string()});
  }
  std::string blob;
  manifest.EncodeTo(&blob);
  const std::size_t blob_bytes = blob.size();
  const std::int64_t persist_t0 = NowUs();

  // Two-step commit mirroring the kv MANIFEST discipline: the epoch blob
  // first, the latest pointer second. A crash between the two (the
  // checkpoint.rename failpoint emulates it) leaves the previous epoch as
  // the recovery point.
  Status persisted = EvaluateSite("checkpoint.write");
  if (persisted.ok()) persisted = store_->Put(manifest.epoch, std::move(blob));
  if (persisted.ok()) persisted = EvaluateSite("checkpoint.rename");
  if (persisted.ok()) persisted = store_->Commit(manifest.epoch);
  if (!persisted.ok()) {
    FailEpoch("persist: " + persisted.ToString());
    return;
  }

  const std::int64_t now = NowUs();
  ++epochs_completed_;
  bytes_persisted_ += blob_bytes;
  last_duration_us_ = now - inflight_started_us_;
  last_completed_epoch_ = manifest.epoch;
  last_completed_at_us_ = now;
  consecutive_failures_ = 0;
  inflight_epoch_ = 0;
  inflight_blobs_.clear();

  if (obs::TracingEnabled()) {
    obs::Tracer& tracer = obs::Tracer::Instance();
    if (TraceContext ctx = tracer.MaybeStartTrace(); ctx.sampled()) {
      obs::Span span;
      span.trace_id = ctx.trace_id;
      span.span_id = tracer.NewSpanId();
      span.start_us = persist_t0;
      span.dur_us = now - persist_t0;
      span.batch = manifest.operators.size();
      span.SetName("checkpoint");
      span.SetCategory("spe.checkpoint");
      tracer.Record(span);
    }
  }
}

void Checkpointer::ReportSnapshot(const std::string& name, std::uint64_t epoch,
                                  std::string blob) {
  std::lock_guard lock(mu_);
  // Stale reports (for a failed or superseded epoch) are dropped: the
  // coordinator's timeout already accounted for them.
  if (epoch != inflight_epoch_ || inflight_failed_) return;
  inflight_blobs_[name] = std::move(blob);
  for (const std::string& registered : registered_) {
    if (inflight_blobs_.find(registered) == inflight_blobs_.end() &&
        !finished_[registered]) {
      return;  // still waiting on someone
    }
  }
  CompleteEpoch();
}

void Checkpointer::ReportSnapshotFailure(const std::string& name,
                                         std::uint64_t epoch,
                                         const Status& reason) {
  std::lock_guard lock(mu_);
  if (epoch != inflight_epoch_ || inflight_failed_) return;
  FailEpoch("operator '" + name + "': " + reason.ToString());
}

void Checkpointer::OnOperatorFinished(const std::string& name) {
  std::lock_guard lock(mu_);
  ++finish_reports_;
  finished_[name] = true;
  if (inflight_epoch_ == 0 || inflight_failed_) return;
  for (const std::string& registered : registered_) {
    if (inflight_blobs_.find(registered) == inflight_blobs_.end() &&
        !finished_[registered]) {
      return;
    }
  }
  CompleteEpoch();
}

Checkpointer::Stats Checkpointer::stats() const {
  std::lock_guard lock(mu_);
  Stats stats;
  stats.epochs_completed = epochs_completed_;
  stats.epochs_failed = epochs_failed_;
  stats.bytes_persisted = bytes_persisted_;
  stats.last_duration_us = last_duration_us_;
  stats.last_completed_epoch = last_completed_epoch_;
  stats.last_completed_age_us =
      last_completed_at_us_ < 0 ? -1 : NowUs() - last_completed_at_us_;
  stats.consecutive_failures = consecutive_failures_;
  stats.finish_reports = finish_reports_;
  stats.degraded = degraded_;
  return stats;
}

}  // namespace strata::spe
