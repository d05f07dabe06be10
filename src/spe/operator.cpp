#include "spe/operator.hpp"

#include "common/logging.hpp"
#include "obs/trace.hpp"
#include "spe/checkpoint.hpp"

namespace strata::spe {

namespace {
/// Source-side tracing for a handed-over batch: continues the trace already
/// carried by a sampled tuple (e.g. decoded by a connector from the broker),
/// otherwise makes a fresh per-batch sampling decision. `t0` is when the
/// source function was entered, so the span covers the poll/produce call.
void TraceSourceBatch(const std::string& name, std::int64_t t0,
                      TupleBatch* batch) {
  obs::Tracer& tracer = obs::Tracer::Instance();
  const Tuple* carried = nullptr;
  for (const Tuple& tuple : *batch) {
    if (tuple.trace.sampled()) {
      carried = &tuple;
      break;
    }
  }
  TraceContext parent;
  if (carried != nullptr) {
    parent = carried->trace;
  } else {
    parent = tracer.MaybeStartTrace();
    if (!parent.sampled()) return;
  }
  obs::Span span;
  span.trace_id = parent.trace_id;
  span.span_id = tracer.NewSpanId();
  span.parent_span = parent.parent_span;
  span.start_us = t0;
  span.dur_us = obs::TraceNowUs() - t0;
  span.batch = batch->size();
  span.SetName(name.c_str());
  span.SetCategory("spe.source");
  tracer.Record(span);
  const TraceContext emit{parent.trace_id, span.span_id};
  for (Tuple& tuple : *batch) {
    // A fresh decision covers the whole batch; a carried trace re-stamps only
    // its own tuples (other concurrently-sampled traces keep their identity).
    if (carried == nullptr || tuple.trace.trace_id == parent.trace_id) {
      tuple.trace = emit;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------- Operator

void Operator::LogUserError(const char* what) {
  LOG_ERROR << "operator '" << name() << "': user function threw: " << what;
}

void Operator::NotifyFinished() {
  if (checkpointer_ != nullptr) checkpointer_->OnOperatorFinished(name());
}

Status Operator::SnapshotState(std::uint64_t epoch, std::string* out) {
  if (snapshot_hook_) return snapshot_hook_(epoch, out);
  return Status::Ok();  // stateless: empty blob
}

Status Operator::RestoreState(std::string_view blob) {
  if (blob.empty()) return Status::Ok();  // fresh state, nothing to do
  if (restore_hook_) return restore_hook_(blob);
  return Status::InvalidArgument("operator '" + name() +
                                 "': non-empty snapshot but no restore path");
}

obs::SpanScope Operator::BatchSpan(const char* category,
                                   const TupleBatch& batch) const {
  if (category == nullptr || !obs::TracingEnabled()) return {};
  for (const Tuple& tuple : batch) {
    if (tuple.trace.sampled()) {
      return obs::SpanScope(name_.c_str(), category, tuple.trace,
                            batch.size());
    }
  }
  return {};
}

void Operator::ReportSnapshotTo(Checkpointer* checkpointer,
                                std::uint64_t epoch) {
  std::string blob;
  const Status snapshot = SnapshotState(epoch, &blob);
  if (snapshot.ok()) {
    checkpointer->ReportSnapshot(name(), epoch, std::move(blob));
  } else {
    checkpointer->ReportSnapshotFailure(name(), epoch, snapshot);
  }
}

void Operator::ReportSnapshots(std::uint64_t epoch) {
  ReportSnapshotTo(checkpointer_, epoch);
}

void Operator::CompleteBarrier(std::uint64_t epoch) {
  FlushEmit();  // no partial batch may straddle the epoch boundary
  if (checkpointer_ != nullptr) ReportSnapshots(epoch);
  ForwardBarrier(epoch);
}

void Operator::ForwardBarrier(std::uint64_t epoch) {
  if (outputs_.empty()) return;
  EnsureEmitState();
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    if (output_closed_[i]) continue;
    TupleBatch barrier;
    barrier.push_back(Tuple::Barrier(epoch));
    if (!outputs_[i]->PushBatch(&barrier).ok()) {
      output_closed_[i] = 1;
      --open_outputs_;
    }
  }
}

// ------------------------------------------------------------------ Source

void SourceOperator::Run() {
  // Each batch the function hands over (e.g. one broker poll) is emitted
  // and flushed as a unit: the end of a call is a natural flush point, and
  // the source cannot flush while blocked inside the next one.
  while (!StopRequested()) {
    MaybeInjectBarrier();
    const std::int64_t trace_t0 =
        obs::TracingEnabled() ? obs::TraceNowUs() : 0;
    auto guarded = Guarded([&] { return fn_(); });
    if (!guarded.has_value()) break;  // a throwing source ends its stream
    std::optional<TupleBatch>& batch = *guarded;
    if (!batch.has_value()) break;
    if (trace_t0 != 0) TraceSourceBatch(name(), trace_t0, &*batch);
    const Timestamp now = Now();
    bool open = true;
    for (Tuple& tuple : *batch) {
      if (tuple.stimulus == 0) tuple.stimulus = now;
      CountIn();
      if (!(open = Emit(std::move(tuple)))) break;
    }
    if (!open) break;  // every consumer is gone
    FlushEmit();
  }
  CloseOutputs();
}

void SourceOperator::MaybeInjectBarrier() {
  Checkpointer* cp = checkpointer();
  if (cp == nullptr) return;
  const std::uint64_t pending = cp->PendingEpoch();
  if (pending > last_injected_epoch_) {
    // Injection latency is bounded by how long the source function blocks
    // per call (connector polls are a few ms); the coordinator's epoch
    // timeout covers a source stuck in a long produce call.
    last_injected_epoch_ = pending;
    CompleteBarrier(pending);
  }
}

// --------------------------------------------------------------- Stateless

void StatelessOperator::Run() {
  TupleBatch out;
  RunSingleInput(category_, [&](Tuple& tuple, const obs::SpanScope& span) {
    Step(tuple, span, &out);
    for (Tuple& result : out) {
      if (!Emit(std::move(result))) break;
    }
    out.clear();
  });
}

void StatelessOperator::Apply(TupleBatch* in, TupleBatch* out) {
  CountIn(in->size());
  const std::size_t before = out->size();
  const obs::SpanScope span = BatchSpan(category_, *in);
  for (Tuple& tuple : *in) Step(tuple, span, out);
  CountOut(out->size() - before);
}

void FlatMapOperator::Step(Tuple& tuple, const obs::SpanScope& span,
                           TupleBatch* out) {
  auto results = Guarded([&] { return fn_(tuple); });
  if (!results.has_value()) return;  // user error: drop this tuple
  for (Tuple& result : *results) {
    if (result.stimulus == 0) result.stimulus = tuple.stimulus;
    if (span.active()) result.trace = span.EmitContext();
    out->push_back(std::move(result));
  }
}

void FilterOperator::Step(Tuple& tuple, const obs::SpanScope& span,
                          TupleBatch* out) {
  const auto keep = Guarded([&] { return fn_(tuple); });
  if (!keep.value_or(false)) return;
  if (span.active()) tuple.trace = span.EmitContext();
  out->push_back(std::move(tuple));
}

// ------------------------------------------------------------------ Router

void RouterOperator::Run() {
  // Barriers broadcast to every parallel instance (CompleteBarrier), not to
  // one shard.
  const std::size_t n = outputs_.size();
  RunSingleInput("spe.router", [this, n](Tuple& tuple,
                                         const obs::SpanScope& span) {
    const auto key = Guarded([&] { return key_(tuple); });
    if (!key.has_value()) return;
    if (span.active()) tuple.trace = span.EmitContext();
    (void)EmitTo(ShardOf(*key, n), std::move(tuple));
  });
}

// ------------------------------------------------------------------- Union

void UnionOperator::Run() {
  RunAligned("spe.union", [this](std::size_t, Tuple& tuple,
                                 const obs::SpanScope& span) {
    if (span.active()) tuple.trace = span.EmitContext();
    (void)Emit(std::move(tuple));
  });
}

// -------------------------------------------------------------------- Sink

void SinkOperator::Run() {
  RunSingleInput(
      "spe.sink",
      [this](Tuple& tuple, const obs::SpanScope&) {
        latency_.Record(Now() - tuple.stimulus);
        if (fn_) {
          (void)Guarded([&] {
            fn_(tuple);
            return true;
          });
        }
      },
      [this] {
        if (finish_hook_) finish_hook_();
      });
}

// --------------------------------------------------------------- Aggregate

AggregateOperator::AggregateOperator(std::string name, const Clock* clock,
                                     AggregateSpec spec)
    : Operator(std::move(name), clock), spec_(std::move(spec)) {
  if (!spec_.window.valid()) {
    throw std::invalid_argument("AggregateOperator: invalid window spec");
  }
  if (spec_.allowed_lateness < 0) {
    throw std::invalid_argument("AggregateOperator: negative lateness");
  }
  if (!spec_.init || !spec_.add || !spec_.result) {
    throw std::invalid_argument("AggregateOperator: missing functions");
  }
}

void AggregateOperator::CloseWindowsUpTo(Timestamp horizon) {
  // windows_ is keyed by (start, key): once start + size > horizon we can
  // stop, because later starts only end later.
  while (!windows_.empty()) {
    auto it = windows_.begin();
    const Timestamp window_start = it->first.first;
    const Timestamp window_end = window_start + spec_.window.size;
    if (window_end > horizon) break;

    Window& window = it->second;
    auto results = Guarded([&] {
      return spec_.result(window.accumulator, window_start, window_end);
    });
    if (results.has_value()) {
      for (Tuple& out : *results) {
        if (out.event_time == 0) out.event_time = window_end - 1;
        out.stimulus = CombineStimulus(out.stimulus, window.max_stimulus);
        if (window.trace.sampled()) {
          // The window keeps the first sampled contributor's identity; the
          // emitted result continues that trace (window residency shows up
          // as the next hop's queue wait).
          out.trace = window.trace;
        }
        (void)Emit(std::move(out));  // closed downstream counted as discarded
      }
    }
    closed_horizon_ = std::max(closed_horizon_, window_end);
    windows_.erase(it);
  }
}

void AggregateOperator::Process(const Tuple& tuple) {
  const Timestamp t = tuple.event_time;
  // The watermark trails the max event time by the allowed lateness, so
  // bounded disorder still lands in open windows.
  CloseWindowsUpTo(t == std::numeric_limits<Timestamp>::min()
                       ? t
                       : t - spec_.allowed_lateness);

  const Timestamp ws = spec_.window.size;
  const Timestamp wa = spec_.window.advance;
  // Windows [l*wa, l*wa + ws) containing t: (t - ws)/wa < l <= t/wa, l >= 0.
  std::int64_t l_max = t >= 0 ? t / wa : -1;
  std::int64_t l_min = 0;
  if (t - ws >= 0) {
    l_min = (t - ws) / wa + 1;
  }
  const std::string key = spec_.key ? spec_.key(tuple) : std::string();

  bool dropped_somewhere = false;
  for (std::int64_t l = l_min; l <= l_max; ++l) {
    const Timestamp window_start = l * wa;
    const Timestamp window_end = window_start + ws;
    if (window_end <= closed_horizon_) {
      dropped_somewhere = true;  // late: this window already closed
      continue;
    }
    auto [it, inserted] =
        windows_.try_emplace({window_start, key}, Window{});
    if (inserted) it->second.accumulator = spec_.init();
    if (tuple.trace.sampled() && !it->second.trace.sampled()) {
      it->second.trace = tuple.trace;
    }
    spec_.add(it->second.accumulator, tuple);
    it->second.max_stimulus =
        CombineStimulus(it->second.max_stimulus, tuple.stimulus);
    it->second.max_event_time = std::max(it->second.max_event_time, t);
  }
  if (dropped_somewhere) CountLateDrop();
}

void AggregateOperator::Run() {
  RunSingleInput(
      "spe.aggregate",
      [this](Tuple& tuple, const obs::SpanScope&) {
        (void)Guarded([&] {
          Process(tuple);
          return true;
        });
      },
      // End of stream: flush every open window.
      [this] { CloseWindowsUpTo(std::numeric_limits<Timestamp>::max()); });
}

Status AggregateOperator::SnapshotState(std::uint64_t /*epoch*/,
                                        std::string* out) {
  if (!spec_.encode_acc || !spec_.decode_acc) {
    return Status::InvalidArgument(
        "aggregate '" + name() +
        "': AggregateSpec has no accumulator codec (set encode_acc/"
        "decode_acc to make this operator checkpointable)");
  }
  AggregateSnapshot snapshot;
  snapshot.closed_horizon = closed_horizon_;
  for (const auto& [key, window] : windows_) {
    AggregateSnapshot::Window& record = snapshot.windows[key];
    record.max_stimulus = window.max_stimulus;
    record.max_event_time = window.max_event_time;
    STRATA_RETURN_IF_ERROR(spec_.encode_acc(window.accumulator, &record.acc));
  }
  snapshot.EncodeTo(out);
  return Status::Ok();
}

Status AggregateOperator::RestoreState(std::string_view blob) {
  if (blob.empty()) return Status::Ok();
  if (!spec_.decode_acc) {
    return Status::InvalidArgument("aggregate '" + name() +
                                   "': snapshot present but no decode_acc");
  }
  auto snapshot = AggregateSnapshot::Decode(blob);
  if (!snapshot.ok()) return snapshot.status();
  std::map<std::pair<Timestamp, std::string>, Window> windows;
  for (auto& [key, record] : snapshot->windows) {
    auto decoded = spec_.decode_acc(record.acc);
    if (!decoded.ok()) return decoded.status();
    Window& window = windows[key];
    window.accumulator = std::move(*decoded);
    window.max_stimulus = record.max_stimulus;
    window.max_event_time = record.max_event_time;
  }
  windows_ = std::move(windows);
  closed_horizon_ = snapshot->closed_horizon;
  return Status::Ok();
}

// -------------------------------------------------------------------- Join

JoinOperator::JoinOperator(std::string name, const Clock* clock, JoinSpec spec)
    : Operator(std::move(name), clock), spec_(std::move(spec)) {
  if (spec_.window < 0) {
    throw std::invalid_argument("JoinOperator: negative window");
  }
}

void JoinOperator::Evict() {
  // A buffered tuple on side S can only match future arrivals on the other
  // side, whose event times are >= max_time[other] (ordered streams). So a
  // tuple with τ < max_time[other] - window is dead.
  for (int side = 0; side < 2; ++side) {
    const Timestamp other_max = state_.max_time[1 - side];
    if (other_max == std::numeric_limits<Timestamp>::min()) continue;
    auto& buffer = state_.buffers[static_cast<std::size_t>(side)];
    while (!buffer.empty() &&
           buffer.front().second.event_time < other_max - spec_.window) {
      buffer.pop_front();
    }
  }
}

void JoinOperator::ProcessFrom(std::size_t side, Tuple tuple) {
  state_.max_time[side] = std::max(state_.max_time[side], tuple.event_time);

  const KeyFn& my_key_fn = side == 0 ? spec_.key_left : spec_.key_right;
  const auto guarded_key =
      Guarded([&] { return my_key_fn ? my_key_fn(tuple) : std::string(); });
  if (!guarded_key.has_value()) return;  // key fn threw: drop the tuple
  const std::string& key = *guarded_key;

  // Probe the opposite buffer.
  for (const auto& [other_key, other] : state_.buffers[1 - side]) {
    if (key != other_key) continue;
    const Timestamp dt = tuple.event_time - other.event_time;
    if (dt > spec_.window || dt < -spec_.window) continue;
    const Tuple& left = side == 0 ? tuple : other;
    const Tuple& right = side == 0 ? other : tuple;
    if (spec_.predicate) {
      const auto match = Guarded([&] { return spec_.predicate(left, right); });
      if (!match.value_or(false)) continue;
    }

    Tuple joined;
    joined.event_time = std::max(left.event_time, right.event_time);
    joined.job = left.job;
    joined.layer = left.layer;
    joined.specimen = left.specimen;
    joined.portion = left.portion;
    joined.stimulus = CombineStimulus(left.stimulus, right.stimulus);
    if (spec_.combine) {
      auto combined = Guarded([&] { return spec_.combine(left, right); });
      if (!combined.has_value()) continue;
      joined.payload = std::move(*combined);
    } else {
      joined.payload = left.payload;
      // Equal duplicate keys (e.g. shared group-by attributes) merge;
      // conflicting values violate fuse()'s uniqueness assumption -> drop.
      if (Status s = joined.payload.MergeCompatible(right.payload); !s.ok()) {
        CountLateDrop();
        continue;
      }
    }
    joined.trace = left.trace.sampled() ? left.trace : right.trace;
    if (joined.trace.sampled()) {
      // Parent the joined tuple under the active batch span when it belongs
      // to the same trace (the buffered side may carry an older context).
      const TraceContext& current = ThreadTraceSlot();
      if (current.trace_id == joined.trace.trace_id) {
        joined.trace.parent_span = current.parent_span;
      }
    }
    (void)Emit(std::move(joined));
  }

  state_.buffers[side].emplace_back(key, std::move(tuple));
  Evict();
}

void JoinOperator::Run() {
  RunAligned("spe.join", [this](std::size_t side, Tuple& tuple,
                                const obs::SpanScope&) {
    ProcessFrom(side, std::move(tuple));
  });
}

Status JoinOperator::SnapshotState(std::uint64_t /*epoch*/, std::string* out) {
  return state_.EncodeTo(out);
}

Status JoinOperator::RestoreState(std::string_view blob) {
  if (blob.empty()) return Status::Ok();
  auto state = JoinState::Decode(blob);
  if (!state.ok()) return state.status();
  state_ = std::move(state).value();
  return Status::Ok();
}

}  // namespace strata::spe
