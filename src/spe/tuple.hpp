// SPE tuple model, following the paper's schema (§2): metadata carries the
// event timestamp τ plus AM-specific identifiers (job, layer, and — after
// partition() — specimen, portion); the payload carries arbitrary key-value
// sub-attributes.
//
// In addition to event time, each tuple carries a *stimulus* timestamp: the
// processing-time moment the newest input contributing to this tuple entered
// the system. The paper's latency metric (§3: "time interval between the
// output of a result and the time when all the data that led to such a
// result were made available") is exactly `now - stimulus` at the sink;
// operators combine stimuli with max when fusing/aggregating tuples.
#pragma once

#include <cstdint>
#include <string>

#include "common/clock.hpp"
#include "common/trace_context.hpp"
#include "common/value.hpp"

namespace strata::spe {

/// Sentinel for unset metadata identifiers.
constexpr std::int64_t kUnsetId = -1;

struct Tuple {
  Timestamp event_time = 0;  // τ (event time, microseconds)
  std::int64_t job = kUnsetId;
  std::int64_t layer = kUnsetId;
  std::int64_t specimen = kUnsetId;
  std::int64_t portion = kUnsetId;
  Timestamp stimulus = 0;  // processing-time arrival of newest contributor
  // Sampled-trace identity (zero = unsampled, the overwhelmingly common
  // case). Trace context rides on the tuple — not the batch — because
  // batches are re-formed at every queue hop while tuples survive them; a
  // batch's trace is the context of its first sampled tuple (obs/trace.hpp).
  TraceContext trace;
  /// Non-zero marks this tuple as an epoch-barrier marker (Chandy–Lamport /
  /// Flink style): it carries no data, flows through the data plane like any
  /// other tuple through the same stream queue, and triggers a state
  /// snapshot as it drains past each operator. Zero — the default and the
  /// only value data tuples ever carry — costs one branch per tuple in the
  /// operator loops.
  std::uint64_t barrier_epoch = 0;
  Payload payload;

  [[nodiscard]] bool IsBarrier() const noexcept { return barrier_epoch != 0; }

  /// A barrier marker for checkpoint epoch `epoch` (must be >= 1).
  [[nodiscard]] static Tuple Barrier(std::uint64_t epoch) {
    Tuple t;
    t.barrier_epoch = epoch;
    return t;
  }

  [[nodiscard]] std::size_t ApproxBytes() const noexcept {
    return sizeof(Tuple) + payload.ApproxBytes();
  }

  [[nodiscard]] std::string ToString() const {
    if (IsBarrier()) {
      return "<barrier epoch=" + std::to_string(barrier_epoch) + ">";
    }
    std::string out = "<t=" + std::to_string(event_time);
    out += " job=" + std::to_string(job);
    out += " layer=" + std::to_string(layer);
    if (specimen != kUnsetId) out += " spec=" + std::to_string(specimen);
    if (portion != kUnsetId) out += " portion=" + std::to_string(portion);
    // Appended piecewise: GCC 12 -O3 raises a false -Wrestrict on
    // `"literal" + std::string&&` (GCC bug 105651).
    out.append(" ").append(payload.ToString()).append(">");
    return out;
  }
};

/// Combine stimulus clocks when an output depends on multiple inputs.
constexpr Timestamp CombineStimulus(Timestamp a, Timestamp b) noexcept {
  return a > b ? a : b;
}

}  // namespace strata::spe
