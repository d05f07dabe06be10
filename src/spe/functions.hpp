// User-function signatures accepted by the native operators.
#pragma once

#include <any>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "spe/batch.hpp"
#include "spe/tuple.hpp"

namespace strata::spe {

/// Produces the next tuple, blocking as needed; nullopt = end of stream.
/// Query::AddSource runs it as a BatchSourceFn of one-tuple batches.
using SourceFn = std::function<std::optional<Tuple>()>;

/// What a source operator runs: produces whatever is ready as one batch
/// (possibly empty — the source just polls again), blocking as needed;
/// nullopt = end of stream. Each batch is flushed downstream when the call
/// returns, so ingest paths that receive data in chunks (e.g. broker polls)
/// keep the upstream batching and no tuple waits out the next call.
using BatchSourceFn = std::function<std::optional<TupleBatch>()>;

/// 1 input -> N outputs (N may be 0). The Map/FlatMap operator.
using FlatMapFn = std::function<std::vector<Tuple>(const Tuple&)>;

/// Keep or drop.
using FilterFn = std::function<bool(const Tuple&)>;

/// Group-by key extractor. Empty string = single global group.
using KeyFn = std::function<std::string(const Tuple&)>;

/// Terminal consumer.
using SinkFn = std::function<void(const Tuple&)>;

/// Join predicate over one left and one right tuple.
using JoinPredicate = std::function<bool(const Tuple&, const Tuple&)>;

/// Combines a matched pair into the joined output tuple's payload; the
/// operator fills metadata (τ = max, stimulus = max).
using JoinCombineFn = std::function<Payload(const Tuple&, const Tuple&)>;

/// Time window description for Aggregate (and the optional windowed fuse).
/// Windows cover [l*advance, l*advance + size) per group, l in N (paper §2).
struct WindowSpec {
  Timestamp size = 0;
  Timestamp advance = 0;

  [[nodiscard]] bool valid() const noexcept {
    return size > 0 && advance > 0 && advance <= size;
  }
};

/// Incremental aggregation of one window's worth of tuples.
struct AggregateSpec {
  WindowSpec window;
  /// Bounded-disorder tolerance: a window [s, s+WS) closes only once a
  /// tuple with event time >= s + WS + allowed_lateness arrives, so tuples
  /// up to `allowed_lateness` out of order still land in their window
  /// (at the cost of added result delay). 0 = in-order streams.
  Timestamp allowed_lateness = 0;
  /// Optional group-by; tuples with different keys aggregate separately.
  KeyFn key;
  /// Fresh accumulator for a new window.
  std::function<std::any()> init;
  /// Fold one tuple into the accumulator.
  std::function<void(std::any&, const Tuple&)> add;
  /// Emit output tuples when the window [start, end) closes. `window_start`
  /// and `window_end` are event times; the operator assigns τ = window_end-1
  /// (the greatest event time covered) unless the function sets it.
  std::function<std::vector<Tuple>(std::any&, Timestamp window_start,
                                   Timestamp window_end)>
      result;
  /// Optional accumulator codec pair used by checkpointing: without them an
  /// Aggregate cannot serialize its open windows and every checkpoint epoch
  /// the operator participates in is reported failed (graceful degradation —
  /// the query keeps running, recovery is just unavailable). The prebuilt
  /// builders in aggregates.hpp provide both.
  std::function<Status(const std::any&, std::string*)> encode_acc;
  std::function<Result<std::any>(std::string_view)> decode_acc;
};

}  // namespace strata::spe
