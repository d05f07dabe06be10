// Trace context: the identity a sampled tuple batch carries from an SPE
// source through operator hops, connectors, the broker wire protocol, and
// into KV store() calls, so one trace id reconstructs the batch's full path.
//
// Lives in common (not obs) because the logger tags lines with the active
// trace id and common cannot depend on obs. The span machinery itself —
// Tracer, rings, exporters — is in obs/trace.hpp; this header is only the
// 16-byte POD plus the thread-local "current trace" slot that connects
// nested layers (operator scope -> kv store -> log line) without threading
// a parameter through every call.
//
// Deliberately two words and no more: the context rides on EVERY tuple
// (zeroed in the unsampled common case), so each extra field is paid in
// queue-slot memory traffic by untraced pipelines — growing the tuple from
// 72 to 96 bytes cost ~10% on the batched queue microbenchmark. It is also
// exactly the 16-byte trace field every wire frame carries, so tuple,
// record, and frame agree on what trace identity is. Queue-wait time is
// NOT carried here: collection derives it from the gap between a span's
// start and its parent span's end (obs::Tracer::CollectSpans).
#pragma once

#include <cstdint>

namespace strata {

/// Identity of one sampled trace as it rides on a tuple. trace_id == 0 means
/// "not sampled" — the single branch hot paths pay when tracing is enabled.
struct TraceContext {
  /// Process-unique (statistically: cluster-unique) id minted at the source.
  std::uint64_t trace_id = 0;
  /// Span id of the hop that last emitted this tuple (the parent of the next
  /// hop's span).
  std::uint64_t parent_span = 0;

  [[nodiscard]] bool sampled() const noexcept { return trace_id != 0; }
};

/// The trace context active on this thread (zero when none): set by
/// obs::SpanScope for the duration of a traced batch, read by the logger
/// (trace= line prefix) and by nested layers starting child spans.
inline TraceContext& ThreadTraceSlot() noexcept {
  thread_local TraceContext slot;
  return slot;
}

}  // namespace strata
