// Shared helpers for SPE tests: tuple factories and a collecting sink.
#pragma once

#include <mutex>
#include <optional>
#include <vector>

#include "spe/query.hpp"

namespace strata::spe::testutil {

inline Tuple MakeTuple(Timestamp event_time, std::int64_t job = 0,
                       std::int64_t layer = 0) {
  Tuple t;
  t.event_time = event_time;
  t.job = job;
  t.layer = layer;
  return t;
}

inline Tuple MakeValueTuple(Timestamp event_time, double value,
                            std::int64_t job = 0, std::int64_t layer = 0) {
  Tuple t = MakeTuple(event_time, job, layer);
  t.payload.Set("value", value);
  return t;
}

/// Pushes one tuple as a batch of one (streams move batches only).
[[nodiscard]] inline Status PushOne(Stream& stream, Tuple tuple) {
  TupleBatch batch;
  batch.push_back(std::move(tuple));
  return stream.PushBatch(&batch);
}

/// Pops one tuple (a drain of at most one); nullopt once the stream is
/// closed and drained.
[[nodiscard]] inline std::optional<Tuple> PopOne(Stream& stream) {
  auto batch = stream.PopBatch(/*max_tuples=*/1);
  if (!batch.has_value()) return std::nullopt;
  return std::move(batch->front());
}

/// Thread-safe tuple collector usable as a SinkFn.
class Collector {
 public:
  SinkFn AsSink() {
    return [this](const Tuple& t) {
      std::lock_guard lock(mu_);
      tuples_.push_back(t);
    };
  }

  [[nodiscard]] std::vector<Tuple> tuples() const {
    std::lock_guard lock(mu_);
    return tuples_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return tuples_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Tuple> tuples_;
};

/// Count-based aggregate spec (counts tuples per window/group into payload
/// key "count"; group key copied into "group" when a key fn is set).
inline AggregateSpec CountAggregate(Timestamp size, Timestamp advance,
                                    KeyFn key = nullptr) {
  AggregateSpec spec;
  spec.window = {size, advance};
  spec.key = std::move(key);
  spec.init = [] { return std::any(std::int64_t{0}); };
  spec.add = [](std::any& acc, const Tuple&) {
    ++std::any_cast<std::int64_t&>(acc);
  };
  spec.result = [](std::any& acc, Timestamp start,
                   Timestamp end) -> std::vector<Tuple> {
    Tuple out;
    out.event_time = end - 1;
    out.payload.Set("count", std::any_cast<std::int64_t>(acc));
    out.payload.Set("window_start", start);
    out.payload.Set("window_end", end);
    return {out};
  };
  return spec;
}

}  // namespace strata::spe::testutil
