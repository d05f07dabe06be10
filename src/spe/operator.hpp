// Operator base class and the native operator set (paper §2): stateless
// Map/FlatMap and Filter; stateful Aggregate (time windows with group-by)
// and Join (time-bound predicate join); plus Source, Sink, Union, and a
// hash Router used to parallelize stateless stages.
//
// Execution model (Liebre-style scale-up SPE): each operator instance runs
// on its own thread, pulling from bounded input streams and pushing to
// bounded output streams; back-pressure is blocking. Event time is assumed
// non-decreasing per stream (the AM sources are layer-ordered); stateful
// operators tolerate bounded disorder by closing windows only at watermark
// `max event time seen` and counting late drops.
//
// Data plane: operators consume whole drained batches (Stream::PopBatch)
// and emit through per-output buffers that flush on batch-size, linger
// expiry, or input idleness — one queue synchronization per batch instead of
// per tuple. Sources flush each batch their function hands over. Emit
// reports when every downstream has closed so loops (and sources in
// particular) can exit early instead of producing into the void.
//
// Operator loops: every non-source operator runs one of two shared drivers
// (RunSingleInput, RunAligned) and supplies only its per-tuple step plus an
// optional end-of-input step; see DESIGN.md "Operator loops".
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/histogram.hpp"
#include "obs/trace.hpp"
#include "spe/batch.hpp"
#include "spe/codec.hpp"
#include "spe/functions.hpp"
#include "spe/stream.hpp"

namespace strata::spe {

class Checkpointer;

/// Optional per-operator state codec hooks for operators whose state lives
/// outside the operator object (source positions, connector publisher
/// sequence counters). Installed via Operator::SetStateHooks; the base
/// SnapshotState/RestoreState delegate to them.
using SnapshotFn = std::function<Status(std::uint64_t epoch, std::string* out)>;
using RestoreFn = std::function<Status(std::string_view blob)>;

struct OperatorStats {
  std::string name;
  /// Operator class ("source", "flatmap", "router", ...), so consumers can
  /// separate logical stages from the router/union plumbing around them.
  std::string kind;
  std::uint64_t tuples_in = 0;
  std::uint64_t tuples_out = 0;
  std::uint64_t late_drops = 0;
  /// Tuples dropped because a user function threw (logged, never fatal).
  std::uint64_t user_errors = 0;
  /// Tuple-output pairs dropped because the downstream stream had closed
  /// (its consumer exited before this operator finished).
  std::uint64_t discarded = 0;
};

class Operator {
 public:
  Operator(std::string name, const Clock* clock)
      : name_(std::move(name)), clock_(clock) {}
  virtual ~Operator() = default;
  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Body executed on the operator's thread; returns when the operator has
  /// finished (inputs drained or stop requested) and outputs are closed.
  virtual void Run() = 0;

  void AddInput(StreamPtr stream) { inputs_.push_back(std::move(stream)); }
  void AddOutput(StreamPtr stream) { outputs_.push_back(std::move(stream)); }

  [[nodiscard]] const std::vector<StreamPtr>& inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] const std::vector<StreamPtr>& outputs() const noexcept {
    return outputs_;
  }

  /// Cooperative stop: sources exit their loop; other operators finish
  /// naturally when their inputs drain.
  void RequestStop() { stop_requested_.store(true, std::memory_order_release); }

  /// Sets the data-plane granularity: batch_size is both the emit-buffer
  /// flush threshold and the consumer-side drain cap, so `batch_size = 1`
  /// reproduces the per-tuple plane exactly. Called by Query::Start before
  /// the operator thread spawns; the default is per-tuple.
  void ConfigureBatching(const BatchPolicy& policy) {
    batch_size_ = policy.batch_size == 0 ? 1 : policy.batch_size;
    linger_us_ = policy.linger_us;
  }

  /// Wire the query's checkpoint coordinator into this operator (Query::Start
  /// when checkpointing is enabled; before the operator thread spawns).
  /// Sources additionally poll it for pending epochs to inject barriers.
  void SetCheckpointer(Checkpointer* checkpointer) {
    checkpointer_ = checkpointer;
  }

  /// Install external state codec hooks (see SnapshotFn/RestoreFn). Must be
  /// set before Query::Start / Query::Recover.
  void SetStateHooks(SnapshotFn snapshot, RestoreFn restore) {
    snapshot_hook_ = std::move(snapshot);
    restore_hook_ = std::move(restore);
  }

  /// Serialize this operator's state for checkpoint `epoch` into *out
  /// (called on the operator's own thread as a barrier drains past it).
  /// The base implementation delegates to the snapshot hook when installed
  /// and otherwise reports empty state — correct for stateless operators.
  /// A returned error fails the epoch, never the query.
  [[nodiscard]] virtual Status SnapshotState(std::uint64_t epoch,
                                             std::string* out);

  /// Restore state serialized by SnapshotState (called by Query::Recover
  /// before any thread spawns). An empty blob always means "fresh state"
  /// and is accepted without consulting the hook.
  [[nodiscard]] virtual Status RestoreState(std::string_view blob);

  /// Snapshots this operator's state for `epoch` and reports the blob, or
  /// the failure, to `checkpointer` under this operator's name.
  void ReportSnapshotTo(Checkpointer* checkpointer, std::uint64_t epoch);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] virtual const char* kind() const noexcept { return "operator"; }
  [[nodiscard]] OperatorStats stats() const {
    OperatorStats s;
    s.name = name_;
    s.kind = kind();
    s.tuples_in = in_count_.load(std::memory_order_relaxed);
    s.tuples_out = out_count_.load(std::memory_order_relaxed);
    s.late_drops = late_drops_.load(std::memory_order_relaxed);
    s.user_errors = user_errors_.load(std::memory_order_relaxed);
    s.discarded = discarded_.load(std::memory_order_relaxed);
    return s;
  }

 protected:
  [[nodiscard]] bool StopRequested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// Buffered push to every output: copies for all but the last open output,
  /// which takes the tuple by move — single-output chains (the common case)
  /// never copy payloads. Buffers flush downstream at batch_size (see also
  /// MaybeFlush/FlushEmit). Returns false once ALL outputs have closed, so
  /// operator loops can exit early instead of emitting into the void;
  /// tuples bound for a closed output are counted as discarded.
  bool Emit(Tuple tuple) {
    out_count_.fetch_add(1, std::memory_order_relaxed);
    if (outputs_.empty()) return true;
    EnsureEmitState();
    if (open_outputs_ == 0) {
      CountDiscarded(1);
      return false;
    }
    std::size_t last_open = 0;
    for (std::size_t i = outputs_.size(); i-- > 0;) {
      if (!output_closed_[i]) {
        last_open = i;
        break;
      }
    }
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
      if (output_closed_[i]) {
        CountDiscarded(1);  // tuple-output pair lost to a closed downstream
      } else if (i == last_open) {
        Buffer(i, std::move(tuple));  // later indices are all closed
      } else {
        Buffer(i, tuple);
      }
    }
    return open_outputs_ > 0;
  }

  /// Buffered push to one output (Router). Returns false once ALL outputs
  /// have closed; a tuple routed to a closed output is just discarded.
  bool EmitTo(std::size_t output_index, Tuple tuple) {
    out_count_.fetch_add(1, std::memory_order_relaxed);
    EnsureEmitState();
    if (output_closed_[output_index]) {
      CountDiscarded(1);
      return open_outputs_ > 0;
    }
    Buffer(output_index, std::move(tuple));
    return open_outputs_ > 0;
  }

  /// Pushes every buffered tuple downstream now.
  void FlushEmit() {
    if (!emit_ready_) return;
    for (std::size_t i = 0; i < emit_buffers_.size(); ++i) FlushOutput(i);
  }

  /// Batch-boundary flush policy: flush everything when the input went idle
  /// (a batch boundary follows each burst, so batching adds no latency at
  /// low rates), otherwise flush only buffers whose oldest tuple has waited
  /// at least linger_us (bounding latency under saturation).
  void MaybeFlush(bool input_idle) {
    if (!emit_ready_) return;
    if (input_idle) {
      FlushEmit();
      return;
    }
    const Timestamp now = Now();
    for (std::size_t i = 0; i < emit_buffers_.size(); ++i) {
      if (!emit_buffers_[i].empty() &&
          now - buffered_since_[i] >= linger_us_) {
        FlushOutput(i);
      }
    }
  }

  /// True once every output stream has been observed closed (only ever true
  /// for operators that have outputs). Detection is flush-driven, so this is
  /// the early-exit signal, not an instantaneous property.
  [[nodiscard]] bool AllOutputsClosed() const {
    return emit_ready_ && !outputs_.empty() && open_outputs_ == 0;
  }

  /// Close all input streams: used on early exit so upstream producers see
  /// Closed instead of blocking on back-pressure forever.
  void CloseInputs() {
    for (const auto& in : inputs_) in->Close();
  }

  /// Flushes any buffered tuples, then closes every output (close-then-drain:
  /// downstream consumers still drain what was flushed). Also tells the
  /// checkpointer this operator is finished: every Run() body ends with
  /// exactly one CloseOutputs, so in-flight and future epochs stop waiting
  /// for it.
  void CloseOutputs() {
    FlushEmit();
    for (const auto& out : outputs_) out->Close();
    NotifyFinished();
  }

  /// A barrier for `epoch` has drained past this operator: flush the emit
  /// buffers (no partial batch may straddle an epoch), snapshot state,
  /// report to the checkpointer, and forward the barrier to every open
  /// output. No-op data-plane-wise when no checkpointer is wired (the
  /// barrier is still forwarded so downstream operators see it).
  void CompleteBarrier(std::uint64_t epoch);

  /// Default for the optional steps of RunSingleInput.
  struct NoStep {
    void operator()() const noexcept {}
  };

  /// Single-input driver, the consume loop of every one-input operator:
  /// drains batches of up to batch_size, opens one span per batch (category
  /// `category`; none when null), completes barriers in line, and calls
  /// `step(tuple, span)` for every data tuple. It leaves early once every
  /// output has closed (closing the inputs so blocked producers wake up);
  /// otherwise, after the input drains, it runs `at_end()`. Outputs are
  /// flushed and closed last (close-then-drain).
  template <typename Step, typename AtEnd = NoStep>
  void RunSingleInput(const char* category, Step step, AtEnd at_end = {});

  /// Aligned multi-input driver: polls every input in turn and calls
  /// `step(input, tuple, span)` for every data tuple. An input that delivers
  /// a barrier is parked, with the tuples behind the barrier held, until
  /// every live input has delivered the same epoch; then the barrier is
  /// completed and the held tuples are replayed (BarrierAligner). Early exit
  /// and close-then-drain are those of RunSingleInput.
  template <typename Step>
  void RunAligned(const char* category, Step step);

  /// Broadcast Tuple::Barrier(epoch) to every open output — including all
  /// of a Router's outputs, since each parallel instance must observe every
  /// barrier. Bypasses the emit buffers (CompleteBarrier flushed them).
  void ForwardBarrier(std::uint64_t epoch);

  void CountIn() { in_count_.fetch_add(1, std::memory_order_relaxed); }
  void CountIn(std::size_t n) {
    in_count_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Counts the batch's data tuples; barrier markers are not input.
  void CountIn(const TupleBatch& batch) {
    std::size_t data = 0;
    for (const Tuple& tuple : batch) data += tuple.IsBarrier() ? 0 : 1;
    CountIn(data);
  }
  void CountOut(std::size_t n) {
    out_count_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountLateDrop() { late_drops_.fetch_add(1, std::memory_order_relaxed); }
  void CountUserError() {
    user_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountDiscarded(std::size_t n) {
    discarded_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Span covering `batch` (a drained batch, or what a fused stage is
  /// handed): active iff tracing is on, `category` is set and the batch
  /// carries a sampled tuple (the batch's trace is its first sampled tuple's
  /// context — see tuple.hpp). While live, the thread's trace slot points at
  /// it, so kv calls and log lines inside a step attach to this trace.
  [[nodiscard]] obs::SpanScope BatchSpan(const char* category,
                                         const TupleBatch& batch) const;

  /// Invoke a user function; on exception, log + count and return nullopt
  /// (the offending tuple is dropped, the operator keeps running).
  template <typename F>
  auto Guarded(F&& fn) -> std::optional<decltype(fn())> {
    try {
      return fn();
    } catch (const std::exception& e) {
      CountUserError();
      LogUserError(e.what());
      return std::nullopt;
    }
  }

  [[nodiscard]] Timestamp Now() const { return clock_->Now(); }
  [[nodiscard]] std::size_t batch_size() const noexcept { return batch_size_; }
  [[nodiscard]] std::int64_t linger_us() const noexcept { return linger_us_; }

  [[nodiscard]] Checkpointer* checkpointer() const noexcept {
    return checkpointer_;
  }

  std::vector<StreamPtr> inputs_;
  std::vector<StreamPtr> outputs_;

 private:
  /// Poll interval of RunAligned while no input has data.
  static constexpr auto kPollInterval = std::chrono::microseconds(1000);

  void LogUserError(const char* what);
  /// CompleteBarrier's report step. The default reports this operator; a
  /// fused worker, which the checkpointer never registers, overrides it to
  /// report each stage of its chain under the stage's own name.
  virtual void ReportSnapshots(std::uint64_t epoch);
  /// Called exactly once from CloseOutputs as the Run() body exits. The
  /// default reports this operator finished to the checkpointer; a fused
  /// worker overrides it to report each stage of its chain instead.
  virtual void NotifyFinished();

  void EnsureEmitState() {
    if (emit_ready_) return;
    emit_buffers_.resize(outputs_.size());
    buffered_since_.assign(outputs_.size(), 0);
    output_closed_.assign(outputs_.size(), 0);
    // Effective flush threshold per output: clamped to half the downstream
    // capacity so emit buffering never adds more than ~half a queue of
    // in-flight slack on top of the configured back-pressure bound.
    flush_at_.resize(outputs_.size());
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
      flush_at_[i] = std::max<std::size_t>(
          1, std::min(batch_size_, outputs_[i]->capacity() / 2));
    }
    open_outputs_ = outputs_.size();
    emit_ready_ = true;
  }

  void Buffer(std::size_t i, Tuple tuple) {
    TupleBatch& buf = emit_buffers_[i];
    if (buf.empty()) buffered_since_[i] = Now();
    buf.push_back(std::move(tuple));
    if (buf.size() >= flush_at_[i]) FlushOutput(i);
  }

  void FlushOutput(std::size_t i) {
    TupleBatch& buf = emit_buffers_[i];
    if (buf.empty()) return;
    const std::size_t total = buf.size();
    std::size_t delivered = 0;
    const Status s = outputs_[i]->PushBatch(&buf, &delivered);
    buf.clear();  // delivered tuples were moved out; recycle the capacity
    if (!s.ok()) {
      CountDiscarded(total - delivered);
      if (!output_closed_[i]) {
        output_closed_[i] = 1;
        --open_outputs_;
      }
    }
  }

  std::string name_;
  const Clock* clock_;
  Checkpointer* checkpointer_ = nullptr;
  SnapshotFn snapshot_hook_;
  RestoreFn restore_hook_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> in_count_{0};
  std::atomic<std::uint64_t> out_count_{0};
  std::atomic<std::uint64_t> late_drops_{0};
  std::atomic<std::uint64_t> user_errors_{0};
  std::atomic<std::uint64_t> discarded_{0};

  // Emit-buffer state; touched only by the operator's own thread.
  std::size_t batch_size_ = 1;  ///< 1 = flush per tuple (pre-batch behavior)
  std::int64_t linger_us_ = 0;
  bool emit_ready_ = false;
  std::vector<std::size_t> flush_at_;  ///< per-output flush threshold
  std::vector<TupleBatch> emit_buffers_;
  std::vector<Timestamp> buffered_since_;  ///< Now() when buffer became non-empty
  std::vector<char> output_closed_;        ///< sticky per-output closed flags
  std::size_t open_outputs_ = 0;
};

/// Aligns epoch barriers across a multi-input operator's inputs (the
/// Chandy–Lamport / Flink alignment rule): an input that delivered its
/// barrier is *blocked* — the operator must not consume from it, and tuples
/// already drained behind the barrier are held here — until every other
/// live input delivers the same epoch, so the snapshot taken at completion
/// is a consistent cut. Single-threaded: lives on the operator's stack.
///
/// Epoch skew (a slow source skipped a timed-out epoch, so inputs deliver
/// different epoch numbers) resolves toward the highest epoch: lower-epoch
/// inputs are unblocked to catch up, and the skipped epoch — which can
/// never complete — is left to the coordinator's timeout.
class BarrierAligner {
 public:
  explicit BarrierAligner(std::size_t inputs)
      : pending_(inputs, 0), held_(inputs), done_(inputs, 0) {}

  /// Input `i` delivered a barrier for `epoch`; `held` is whatever followed
  /// the barrier in the same drained batch (replayed after alignment).
  void Arrive(std::size_t i, std::uint64_t epoch, TupleBatch held) {
    pending_[i] = epoch;
    held_[i] = std::move(held);
  }

  /// Input `i` closed and fully drained: it no longer gates alignment.
  void MarkDone(std::size_t i) { done_[i] = 1; }

  [[nodiscard]] bool blocked(std::size_t i) const { return pending_[i] != 0; }
  [[nodiscard]] bool done(std::size_t i) const { return done_[i] != 0; }
  [[nodiscard]] bool AllDone() const {
    for (const char d : done_) {
      if (d == 0) return false;
    }
    return true;
  }

  /// Takes (and clears) the tuples held behind input `i`'s barrier. Call
  /// only while the input is unblocked, before polling its stream again.
  [[nodiscard]] TupleBatch TakeHeld(std::size_t i) {
    TupleBatch out = std::move(held_[i]);
    held_[i] = TupleBatch{};
    return out;
  }

  /// When every live input has a pending barrier: all equal -> clears them
  /// and returns the epoch (snapshot now); skewed -> unblocks the
  /// lower-epoch inputs so they can catch up and returns 0. Returns 0 while
  /// any live input has yet to deliver, or when no live inputs remain.
  [[nodiscard]] std::uint64_t TryComplete() {
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t hi = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (done_[i] != 0) continue;
      if (pending_[i] == 0) return 0;
      lo = std::min(lo, pending_[i]);
      hi = std::max(hi, pending_[i]);
    }
    if (hi == 0) return 0;  // no live inputs
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (done_[i] != 0) continue;
      if (lo == hi || pending_[i] < hi) pending_[i] = 0;
    }
    return lo == hi ? hi : 0;
  }

 private:
  std::vector<std::uint64_t> pending_;  ///< delivered epoch; 0 = none
  std::vector<TupleBatch> held_;        ///< tuples parked behind the barrier
  std::vector<char> done_;
};

// ----------------------------------------------------------- loop drivers

template <typename Step, typename AtEnd>
void Operator::RunSingleInput(const char* category, Step step, AtEnd at_end) {
  Stream& input = *inputs_[0];
  bool open = true;
  while (open) {
    auto batch = input.PopBatch(batch_size_);
    if (!batch.has_value()) break;  // input closed and drained
    CountIn(*batch);
    const obs::SpanScope span = BatchSpan(category, *batch);
    for (Tuple& tuple : *batch) {
      if (tuple.IsBarrier()) {
        CompleteBarrier(tuple.barrier_epoch);
        continue;
      }
      step(tuple, span);
      if (AllOutputsClosed()) {
        open = false;
        break;
      }
    }
    if (open && emit_ready_) MaybeFlush(input.depth() == 0);
  }
  if (open) {
    at_end();
  } else {
    CloseInputs();  // early exit: downstream consumers are gone
  }
  CloseOutputs();
}

template <typename Step>
void Operator::RunAligned(const char* category, Step step) {
  const std::size_t n = inputs_.size();
  BarrierAligner aligner(n);
  bool open = true;

  // Processes one drained batch from input `i`, stopping at a barrier: the
  // epoch and the tuples behind it go to the aligner, and the input is
  // blocked (not polled) until every live input aligns.
  auto ingest = [&](std::size_t i, TupleBatch batch) {
    const obs::SpanScope span = BatchSpan(category, batch);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      Tuple& tuple = batch[k];
      if (tuple.IsBarrier()) {
        const auto behind = batch.begin() + static_cast<std::ptrdiff_t>(k + 1);
        aligner.Arrive(i, tuple.barrier_epoch,
                       TupleBatch(std::make_move_iterator(behind),
                                  std::make_move_iterator(batch.end())));
        return;
      }
      step(i, tuple, span);
      if (AllOutputsClosed()) {
        open = false;
        return;
      }
    }
  };
  // Completes aligned epochs and replays tuples held behind barriers, which
  // may themselves contain the next barrier, hence the loop. The barrier
  // completes before the replay: held tuples belong to the next epoch.
  auto settle = [&] {
    for (;;) {
      const std::uint64_t epoch = aligner.TryComplete();
      if (epoch != 0) CompleteBarrier(epoch);
      bool replayed = false;
      for (std::size_t i = 0; i < n && open; ++i) {
        if (aligner.blocked(i)) continue;
        TupleBatch held = aligner.TakeHeld(i);
        if (!held.empty()) {
          ingest(i, std::move(held));
          replayed = true;
        }
      }
      if (!open || (epoch == 0 && !replayed)) return;
    }
  };

  while (!aligner.AllDone() && open) {
    bool progressed = false;
    for (std::size_t i = 0; i < n && open; ++i) {
      if (aligner.done(i) || aligner.blocked(i)) continue;
      // Drain whatever is immediately available from this input.
      while (open && !aligner.blocked(i)) {
        auto batch = inputs_[i]->TryPopBatch(batch_size_);
        if (!batch.has_value()) break;
        CountIn(*batch);
        ingest(i, std::move(*batch));
        progressed = true;
      }
      if (!aligner.blocked(i) && inputs_[i]->drained()) {
        // A blocked input is never marked done here: its barrier still
        // gates alignment, and it is re-examined once unblocked.
        aligner.MarkDone(i);
        progressed = true;
      }
    }
    settle();
    if (!open || aligner.AllDone()) break;
    if (progressed) {
      MaybeFlush(/*input_idle=*/false);
      continue;
    }
    // Nothing available anywhere: flush what we buffered (don't sit on
    // tuples while parked), then block briefly on the first live, unblocked
    // input. One exists — were every live input blocked, settle() would
    // have completed or skew-unblocked the alignment.
    FlushEmit();
    for (std::size_t i = 0; i < n; ++i) {
      if (aligner.done(i) || aligner.blocked(i)) continue;
      if (auto batch = inputs_[i]->PopBatchFor(kPollInterval, batch_size_)) {
        CountIn(*batch);
        ingest(i, std::move(*batch));
        settle();
      }
      break;
    }
  }
  if (!open) CloseInputs();
  CloseOutputs();
}

// --------------------------------------------------------------- stateless

class SourceOperator final : public Operator {
 public:
  [[nodiscard]] const char* kind() const noexcept override {
    return "source";
  }
  /// The function hands over whole batches (everything one broker poll
  /// returned, or a single collected tuple); each is emitted and flushed as
  /// a unit, so nothing waits in an emit buffer while the function blocks.
  SourceOperator(std::string name, const Clock* clock, BatchSourceFn fn)
      : Operator(std::move(name), clock), fn_(std::move(fn)) {}
  void Run() override;

 private:
  /// Polled between produce calls: when the checkpointer published a new
  /// pending epoch, snapshot (via the state hooks) and inject the barrier.
  void MaybeInjectBarrier();

  BatchSourceFn fn_;
  std::uint64_t last_injected_epoch_ = 0;
};

/// FlatMap and Filter: a user function applied tuple by tuple, no state.
/// Step is the one implementation of the stage: a lone stage runs it in its
/// own loop, and a fused worker (plan_rewrite.hpp) runs it through Apply
/// when the stage sits in a chain.
class StatelessOperator : public Operator {
 public:
  void Run() final;

  /// Runs the stage over `in`, data tuples that a fused chain passes down,
  /// and appends its output to *out: one span over `in` under this
  /// operator's name and category, and the in/out counts on this operator.
  void Apply(TupleBatch* in, TupleBatch* out);

 protected:
  StatelessOperator(std::string name, const Clock* clock,
                    const char* category)
      : Operator(std::move(name), clock), category_(category) {}

  /// Runs the user function on `tuple` (Guarded: a throw drops the tuple)
  /// and appends what it passes on to *out, with the input's stimulus
  /// inherited and, under an active span, the span's trace context.
  virtual void Step(Tuple& tuple, const obs::SpanScope& span,
                    TupleBatch* out) = 0;

 private:
  friend class FusedOperator;  // counts the chain's discards on its tail

  const char* category_;  ///< span category, "spe.<kind>"
};

class FlatMapOperator final : public StatelessOperator {
 public:
  [[nodiscard]] const char* kind() const noexcept override {
    return "flatmap";
  }
  FlatMapOperator(std::string name, const Clock* clock, FlatMapFn fn)
      : StatelessOperator(std::move(name), clock, "spe.flatmap"),
        fn_(std::move(fn)) {}

 private:
  void Step(Tuple& tuple, const obs::SpanScope& span,
            TupleBatch* out) override;

  FlatMapFn fn_;
};

class FilterOperator final : public StatelessOperator {
 public:
  [[nodiscard]] const char* kind() const noexcept override {
    return "filter";
  }
  FilterOperator(std::string name, const Clock* clock, FilterFn fn)
      : StatelessOperator(std::move(name), clock, "spe.filter"),
        fn_(std::move(fn)) {}

 private:
  void Step(Tuple& tuple, const obs::SpanScope& span,
            TupleBatch* out) override;

  FilterFn fn_;
};

/// Instance of a keyed-parallel stage with `n` instances that owns `key`.
/// The one bucket function: RouterOperator routes by it and checkpoint
/// re-sharding re-buckets state by it, so restored state lands on the
/// instance that receives its key's future tuples.
[[nodiscard]] inline std::size_t ShardOf(const std::string& key,
                                         std::size_t n) {
  return std::hash<std::string>{}(key) % n;
}

/// Operator name of instance `i` of keyed-parallel stage `base`.
[[nodiscard]] inline std::string InstanceName(const std::string& base, int i) {
  return base + "[" + std::to_string(i) + "]";
}

/// Hash-routes tuples to one of N outputs by ShardOf(key, N) (tuples with
/// equal keys go to the same instance of a keyed-parallel stage).
class RouterOperator final : public Operator {
 public:
  [[nodiscard]] const char* kind() const noexcept override {
    return "router";
  }
  RouterOperator(std::string name, const Clock* clock, KeyFn key)
      : Operator(std::move(name), clock), key_(std::move(key)) {}
  void Run() override;

 private:
  KeyFn key_;
};

/// Merges N inputs into one output in arrival order.
class UnionOperator final : public Operator {
 public:
  [[nodiscard]] const char* kind() const noexcept override {
    return "union";
  }
  UnionOperator(std::string name, const Clock* clock)
      : Operator(std::move(name), clock) {}
  void Run() override;
};

class SinkOperator final : public Operator {
 public:
  [[nodiscard]] const char* kind() const noexcept override {
    return "sink";
  }
  SinkOperator(std::string name, const Clock* clock, SinkFn fn)
      : Operator(std::move(name), clock), fn_(std::move(fn)) {}
  void Run() override;

  /// Invoked once after the input stream drains, before the operator exits.
  /// Used by STRATA's connectors to propagate end-of-stream through the
  /// pub/sub broker. Must be set before Query::Start.
  void SetFinishHook(std::function<void()> hook) {
    finish_hook_ = std::move(hook);
  }

  /// Latency distribution (processing-time now - stimulus) of consumed
  /// tuples, the paper's end-to-end latency metric.
  [[nodiscard]] Histogram LatencySnapshot() const {
    return latency_.Snapshot();
  }
  void ResetLatency() { latency_.Reset(); }

 private:
  SinkFn fn_;
  std::function<void()> finish_hook_;
  ConcurrentHistogram latency_;
};

// ---------------------------------------------------------------- stateful

class AggregateOperator final : public Operator {
 public:
  [[nodiscard]] const char* kind() const noexcept override {
    return "aggregate";
  }
  AggregateOperator(std::string name, const Clock* clock, AggregateSpec spec);
  void Run() override;

  /// Serializes every open window (accumulators via spec_.encode_acc) plus
  /// the closed horizon as an AggregateSnapshot (spe/codec.hpp). Fails — failing the epoch, not the query — when the
  /// spec lacks the accumulator codec pair. Window trace context is
  /// transient and not preserved.
  [[nodiscard]] Status SnapshotState(std::uint64_t epoch,
                                     std::string* out) override;
  [[nodiscard]] Status RestoreState(std::string_view blob) override;

 private:
  struct Window {
    std::any accumulator;
    Timestamp max_stimulus = 0;
    Timestamp max_event_time = 0;
    /// First sampled contributor's context; emitted results continue it.
    TraceContext trace;
  };

  /// Close and emit every window with end <= horizon (event time).
  void CloseWindowsUpTo(Timestamp horizon);
  void Process(const Tuple& tuple);

  AggregateSpec spec_;
  // (window_start, key) -> window; ordered by start so closing is a prefix.
  std::map<std::pair<Timestamp, std::string>, Window> windows_;
  Timestamp closed_horizon_ = std::numeric_limits<Timestamp>::min();
};

struct JoinSpec {
  /// Match when |τ_L - τ_R| <= window (paper §2). 0 = τ equality.
  Timestamp window = 0;
  /// Optional group-by: pairs must agree on key to be tested by `predicate`.
  KeyFn key_left;
  KeyFn key_right;
  /// Optional extra predicate (defaults to always-true).
  JoinPredicate predicate;
  /// Combines payloads of a matched pair; defaults to disjoint merge (the
  /// fuse() contract). Pairs whose payloads collide are dropped + counted.
  JoinCombineFn combine;
};

class JoinOperator final : public Operator {
 public:
  [[nodiscard]] const char* kind() const noexcept override {
    return "join";
  }
  JoinOperator(std::string name, const Clock* clock, JoinSpec spec);
  void Run() override;

  /// Serializes both side buffers and the per-side watermarks (JoinState,
  /// spe/codec.hpp). Buffered OT frames and cluster reports are written
  /// with their contents; a payload type without a codec fails the epoch.
  [[nodiscard]] Status SnapshotState(std::uint64_t epoch,
                                     std::string* out) override;
  [[nodiscard]] Status RestoreState(std::string_view blob) override;

 private:
  void ProcessFrom(std::size_t side, Tuple tuple);
  void Evict();

  JoinSpec spec_;
  JoinState state_;
};

}  // namespace strata::spe
