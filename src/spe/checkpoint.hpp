// Epoch-barrier checkpointing for continuous queries (Chandy–Lamport /
// Flink-style aligned snapshots).
//
// Protocol: a Checkpointer owned by the Query bumps a pending-epoch counter
// on a timer; sources observe the bump between produce calls, snapshot their
// own state, and inject a barrier marker (Tuple::Barrier) into the data
// plane. The barrier flows through every stream like a data tuple; when it
// drains past an operator the operator flushes its emit buffers (so no
// partial batch straddles an epoch), snapshots its state, reports the blob
// here, and forwards the barrier to all outputs. Multi-input operators
// align: an input that has delivered its barrier is parked (tuples behind
// the barrier held back) until every other live input catches up, so the
// snapshot is a consistent cut. When every registered operator has reported
// for an epoch, the manifest — operator blobs keyed by operator name — is
// persisted to the CheckpointStore in two steps: the epoch blob, then the
// latest-epoch pointer. A crash between the two leaves the previous complete
// epoch as the recovery point (same write-then-commit discipline as the kv
// MANIFEST).
//
// Operator snapshot layouts and the tuple codec they use live in
// spe/codec.hpp. Epochs that cannot complete (an operator is stuck, an
// aggregate has no accumulator codec, a buffered payload type has no tuple
// codec, the store write failed) are timed out and counted as failures;
// the query keeps running — checkpointing degrades, data processing never
// stops. After `failure_warn_threshold` consecutive failures a sticky
// degraded flag is raised and surfaced through the spe.checkpoint.* metrics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"

namespace strata::spe {

// -------------------------------------------------------------- manifest

/// One operator's state blob inside a checkpoint.
struct OperatorSnapshot {
  std::string name;
  std::string blob;
};

/// A complete checkpoint: every registered operator's snapshot for `epoch`.
struct CheckpointManifest {
  std::uint64_t epoch = 0;
  std::vector<OperatorSnapshot> operators;

  /// Appends the CRC-protected wire form to *out.
  void EncodeTo(std::string* out) const;
  [[nodiscard]] static Result<CheckpointManifest> Decode(std::string_view in);
};

// ----------------------------------------------------------------- store

/// Durable home of checkpoint manifests. Implementations must make Commit
/// atomic with respect to crashes: after a crash, LatestEpoch returns either
/// the previously committed epoch or the newly committed one, never a
/// half-written state. strata::core::KvCheckpointStore provides this on top
/// of the kv store's WAL; InMemoryCheckpointStore backs unit tests.
class CheckpointStore {
 public:
  virtual ~CheckpointStore() = default;

  /// Persist the manifest blob for `epoch` (not yet recoverable).
  [[nodiscard]] virtual Status Put(std::uint64_t epoch, std::string blob) = 0;
  /// Atomically advance the latest-complete pointer to `epoch`.
  [[nodiscard]] virtual Status Commit(std::uint64_t epoch) = 0;
  /// Latest committed epoch; NotFound when no checkpoint has completed.
  [[nodiscard]] virtual Result<std::uint64_t> LatestEpoch() = 0;
  /// Manifest blob of a committed epoch.
  [[nodiscard]] virtual Result<std::string> Get(std::uint64_t epoch) = 0;
};

class InMemoryCheckpointStore final : public CheckpointStore {
 public:
  [[nodiscard]] Status Put(std::uint64_t epoch, std::string blob) override {
    std::lock_guard lock(mu_);
    staged_[epoch] = std::move(blob);
    return Status::Ok();
  }
  [[nodiscard]] Status Commit(std::uint64_t epoch) override {
    std::lock_guard lock(mu_);
    if (staged_.find(epoch) == staged_.end()) {
      return Status::NotFound("commit of unknown epoch");
    }
    latest_ = epoch;
    return Status::Ok();
  }
  [[nodiscard]] Result<std::uint64_t> LatestEpoch() override {
    std::lock_guard lock(mu_);
    if (latest_ == 0) return Status::NotFound("no checkpoint");
    return latest_;
  }
  [[nodiscard]] Result<std::string> Get(std::uint64_t epoch) override {
    std::lock_guard lock(mu_);
    const auto it = staged_.find(epoch);
    if (it == staged_.end()) return Status::NotFound("unknown epoch");
    return it->second;
  }

 private:
  std::mutex mu_;
  std::map<std::uint64_t, std::string> staged_;
  std::uint64_t latest_ = 0;
};

// ----------------------------------------------------------- coordinator

struct CheckpointerOptions {
  /// Cadence of epoch initiation. The next epoch starts only once the
  /// previous one resolved (completed or failed), so a slow store stretches
  /// the interval instead of stacking epochs.
  std::int64_t interval_ms = 200;
  /// An epoch still incomplete this long after initiation is marked failed
  /// (covers stuck operators and slow-input alignment: the coordinator owns
  /// the timeout so operators never have to guess at alignment deadlines).
  std::int64_t epoch_timeout_ms = 10'000;
  /// Consecutive failures before the sticky degraded flag trips.
  int failure_warn_threshold = 3;
};

class Checkpointer {
 public:
  Checkpointer(CheckpointStore* store, CheckpointerOptions options);
  ~Checkpointer();
  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  // ----- build/recovery time (single-threaded, before Start) -----

  /// Every operator participating in the query must register; an epoch
  /// completes when all registered operators have reported (or finished).
  void RegisterOperator(const std::string& name);

  /// Resume epoch numbering after Query::Recover: the next initiated epoch
  /// is `epoch` + 1.
  void SetBaseEpoch(std::uint64_t epoch);

  /// Load the latest committed manifest (failpoint: checkpoint.restore);
  /// NotFound when the store holds no completed checkpoint.
  [[nodiscard]] Result<CheckpointManifest> LoadLatest();

  // ----- runtime -----

  /// Start the epoch-initiation timer thread.
  void Start();
  /// Stop the timer thread (idempotent).
  void Stop();

  /// Epoch sources should inject next, or 0 when no barrier is pending.
  /// Relaxed atomic read — polled between source produce calls.
  [[nodiscard]] std::uint64_t PendingEpoch() const noexcept {
    return pending_epoch_.load(std::memory_order_acquire);
  }

  /// An operator's snapshot for `epoch`. The final report of an epoch
  /// persists the manifest inline on the reporting operator's thread (one
  /// WAL append — bounded stall).
  void ReportSnapshot(const std::string& name, std::uint64_t epoch,
                      std::string blob);

  /// An operator's snapshot attempt failed (no accumulator codec, a payload
  /// type without a tuple codec): the epoch can never complete, mark it
  /// failed now.
  void ReportSnapshotFailure(const std::string& name, std::uint64_t epoch,
                             const Status& reason);

  /// The operator exited (stream drained / early exit): it is implicitly
  /// complete for the in-flight epoch and every future one.
  void OnOperatorFinished(const std::string& name);

  // ----- introspection -----

  struct Stats {
    std::uint64_t epochs_completed = 0;
    std::uint64_t epochs_failed = 0;
    /// Manifest bytes persisted across all completed epochs.
    std::uint64_t bytes_persisted = 0;
    /// Duration of the last completed epoch, initiation -> commit.
    std::int64_t last_duration_us = 0;
    std::uint64_t last_completed_epoch = 0;
    /// Microseconds since the last epoch committed; -1 before the first.
    std::int64_t last_completed_age_us = -1;
    std::uint64_t consecutive_failures = 0;
    /// OnOperatorFinished calls: one per registered operator that exited.
    std::uint64_t finish_reports = 0;
    /// Sticky: `failure_warn_threshold` consecutive epochs failed.
    bool degraded = false;
  };
  [[nodiscard]] Stats stats() const;

 private:
  void TimerLoop();
  /// Initiate the next epoch (timer thread, lock held).
  void BeginEpoch(std::int64_t now_us);
  /// Mark the in-flight epoch failed (lock held).
  void FailEpoch(const std::string& reason);
  /// All registered operators reported: persist + commit (lock held; the
  /// store write is one WAL append, a bounded stall for concurrent
  /// reporters).
  void CompleteEpoch();
  [[nodiscard]] std::int64_t NowUs() const;

  CheckpointStore* store_;
  const CheckpointerOptions options_;

  std::atomic<std::uint64_t> pending_epoch_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< wakes the timer thread on Stop
  std::vector<std::string> registered_;
  std::map<std::string, bool> finished_;  ///< operators that exited
  std::uint64_t base_epoch_ = 0;          ///< last epoch of a recovered run
  // In-flight epoch state (0 = none in flight).
  std::uint64_t inflight_epoch_ = 0;
  std::int64_t inflight_started_us_ = 0;
  std::map<std::string, std::string> inflight_blobs_;
  bool inflight_failed_ = false;
  std::int64_t last_initiation_us_ = 0;
  // Stats.
  std::uint64_t epochs_completed_ = 0;
  std::uint64_t epochs_failed_ = 0;
  std::uint64_t bytes_persisted_ = 0;
  std::int64_t last_duration_us_ = 0;
  std::uint64_t last_completed_epoch_ = 0;
  std::int64_t last_completed_at_us_ = -1;
  std::uint64_t consecutive_failures_ = 0;
  std::uint64_t finish_reports_ = 0;
  bool degraded_ = false;
  bool degraded_logged_ = false;

  std::thread timer_;
  bool timer_running_ = false;
  bool stop_ = false;
};

}  // namespace strata::spe
