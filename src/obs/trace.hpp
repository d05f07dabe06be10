// strata::obs tracing: sampled per-batch spans across the whole pipeline.
//
// Design goals, in priority order:
//   1. Near-zero cost when disabled: every instrumentation point is one
//      relaxed atomic load + one predictable branch.
//   2. Lock-free recording: a sampled span is written into a fixed-size
//      per-thread ring of seqlock-protected slots; writers never block and
//      never allocate on the hot path.
//   3. Whole-pipeline reconstruction: spans carry the TraceContext minted at
//      an SPE source, so one trace id stitches source -> operators ->
//      connector produce/fetch -> net frames -> kv store across threads and
//      (on one machine) across processes.
//
// Export: Chrome trace-event JSON (load in Perfetto / chrome://tracing) and
// a human-readable recent-spans table with per-stage latency percentiles
// (served at the admin endpoint's /tracez).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/trace_context.hpp"

namespace strata::obs {

class MetricsRegistry;

/// One completed unit of traced work. POD with fixed-size strings so a span
/// can be copied in and out of the lock-free ring as plain 8-byte words.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  std::int64_t start_us = 0;   // monotonic clock, microseconds
  std::int64_t dur_us = 0;     // execute time inside the hop
  std::int64_t queue_us = 0;   // derived at collection: start - parent span end
  std::uint64_t batch = 0;     // tuples covered by this span (0 = n/a)
  std::uint32_t tid = 0;
  std::uint32_t pid = 0;
  char name[48] = {};          // operator / site name, truncated
  char category[16] = {};      // layer: spe.*, pubsub, net, kv

  void SetName(const char* s) noexcept;
  void SetCategory(const char* s) noexcept;
};
static_assert(sizeof(Span) % sizeof(std::uint64_t) == 0,
              "Span must copy as whole 8-byte words");

/// Fixed-capacity ring of spans with a per-slot seqlock. Exactly one thread
/// writes at a time (the owning thread; ownership may move between threads
/// through the Tracer's mutex-guarded free list, which synchronizes the
/// hand-off); any number of threads may snapshot concurrently. Overwrites
/// the oldest span when full — the ring always holds the most recent spans.
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity);

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  /// Owner thread only. Wait-free: ~16 release word stores, no fence.
  void Push(const Span& span) noexcept;

  /// Any thread. Copies out every consistent, fully-written span not hidden
  /// by Clear(). Spans being overwritten during the scan are skipped, never
  /// torn.
  void Snapshot(std::vector<Span>* out) const;

  /// Any thread. Hides every span pushed so far from future snapshots
  /// without touching slot storage, so concurrent writers stay safe.
  void Clear() noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t pushed() const noexcept {
    return pushed_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kWordsPerSpan = sizeof(Span) / sizeof(std::uint64_t);

  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // odd while a write is in progress
    std::atomic<std::uint64_t> words[kWordsPerSpan];
  };

  const std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  // pushed_ doubles as the write index (slot = pushed_ % capacity); only the
  // owner thread advances it. cleared_ is the snapshot floor set by Clear().
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> cleared_{0};
};

/// Latency summary for one (category, name) stage, derived from a span set.
struct StageStats {
  std::string category;
  std::string name;
  std::uint64_t count = 0;
  std::int64_t exec_p50_us = 0;
  std::int64_t exec_p95_us = 0;
  std::int64_t exec_p99_us = 0;
  std::int64_t queue_p50_us = 0;
  std::int64_t queue_p95_us = 0;
  std::int64_t total_exec_us = 0;
};

/// Process-wide tracer: sampling decisions, span-id minting, the registry of
/// per-thread rings, and exporters. Obtain via Tracer::Instance().
class Tracer {
 public:
  /// The process singleton (intentionally leaked, like the default metrics
  /// registry, so thread-local ring handles may outlive static teardown).
  static Tracer& Instance();

  /// sample_every: a source starts a trace on every Nth batch; 0 disables
  /// tracing entirely (the default). ring_capacity (spans per thread ring,
  /// 2048 until set) applies to rings created after the call; omitting it
  /// keeps the current capacity, so a rate change never shrinks the rings.
  /// Safe to call while the pipeline runs.
  void Configure(std::uint32_t sample_every,
                 std::optional<std::size_t> ring_capacity = std::nullopt);

  /// Applies STRATA_TRACE_SAMPLE from the environment if set (integer,
  /// 0 disables). Returns true when the variable was present.
  bool ConfigureFromEnv();

  /// True when sampling is configured; one relaxed load. Instrumentation
  /// points gate on this before touching anything else.
  bool enabled() const noexcept {
    return sample_every_.load(std::memory_order_relaxed) != 0;
  }
  std::uint32_t sample_every() const noexcept {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Source-side sampling decision: returns a fresh sampled context on every
  /// Nth call per thread, a zero context otherwise (or when disabled).
  TraceContext MaybeStartTrace() noexcept;

  /// Mints a process-unique span id (never 0).
  std::uint64_t NewSpanId() noexcept;

  /// Records a completed span into this thread's ring.
  void Record(const Span& span) noexcept;

  /// Copies every span currently held in any thread's ring, oldest first.
  std::vector<Span> CollectSpans() const;

  /// Hides all spans recorded so far from future CollectSpans() calls and
  /// zeroes the trace counters. Safe to call while threads are recording
  /// (their rings stay valid); a span pushed concurrently with Clear may
  /// land on either side of the cut.
  void Clear();

  std::uint64_t traces_started() const noexcept {
    return traces_started_.load(std::memory_order_relaxed);
  }
  std::uint64_t spans_recorded() const noexcept {
    return spans_recorded_.load(std::memory_order_relaxed);
  }

  /// Exports obs.trace.* counters through `registry` pull callbacks. A second
  /// call rebinds to the new registry (mirrors fault::BindMetrics).
  void BindMetrics(MetricsRegistry* registry);

  /// Per-(category, name) latency percentiles, sorted by total execute time
  /// descending.
  static std::vector<StageStats> Summarize(const std::vector<Span>& spans);

  /// Chrome trace-event JSON ("traceEvents" array of ph:"X" slices, ts/dur in
  /// microseconds). Loadable in Perfetto or chrome://tracing; traces from two
  /// processes on one machine can be concatenated by merging the arrays.
  static std::string ToChromeTrace(const std::vector<Span>& spans);

  /// Human-readable /tracez payload: stage percentile table + the most recent
  /// `max_spans` spans.
  static std::string ToTracezText(const std::vector<Span>& spans,
                                  std::size_t max_spans = 64);

 private:
  Tracer() = default;

  SpanRing* ThreadRing();
  void ReleaseRing(SpanRing* ring);

  std::atomic<std::uint32_t> sample_every_{0};
  std::atomic<std::uint64_t> next_trace_id_{1};
  std::atomic<std::uint64_t> next_span_id_{1};
  std::atomic<std::uint64_t> traces_started_{0};
  std::atomic<std::uint64_t> spans_recorded_{0};

  mutable std::mutex mu_;
  std::size_t ring_capacity_ = 2048;
  std::vector<std::unique_ptr<SpanRing>> rings_;  // never shrinks
  std::vector<SpanRing*> free_rings_;  // rings whose owner thread exited
  MetricsRegistry* bound_registry_ = nullptr;

  friend struct TracerTlsHandle;
};

/// One relaxed load + branch; the canonical gate for instrumentation points.
inline bool TracingEnabled() noexcept { return Tracer::Instance().enabled(); }

/// RAII span covering one hop's processing of a sampled batch. Inactive
/// instances (default-constructed, or built from an unsampled context) cost
/// one branch in the destructor and record nothing.
///
/// While active, the thread's TraceContext slot (common/trace_context.hpp)
/// points at this span, so nested layers — kv store() under a sink, log
/// lines, net frames written downstream — attach to it automatically; the
/// previous slot value is restored on destruction, preserving nesting.
class SpanScope {
 public:
  SpanScope() = default;
  /// Starts a span iff `parent.sampled()`. queue_us stays zero here; the
  /// wait behind this hop is derived at CollectSpans() time from the gap to
  /// the parent span's end.
  SpanScope(const char* name, const char* category, const TraceContext& parent,
            std::uint64_t batch = 0) noexcept;
  ~SpanScope();

  SpanScope(SpanScope&& other) noexcept;
  SpanScope& operator=(SpanScope&& other) noexcept;
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool active() const noexcept { return active_; }

  /// Context for tuples this hop emits: same trace, parent = this span —
  /// which is how the next hop's queue wait becomes derivable at collection.
  TraceContext EmitContext() const noexcept;

  /// Updates the tuple count attributed to this span.
  void SetBatch(std::uint64_t batch) noexcept { span_.batch = batch; }

 private:
  void Finish() noexcept;

  Span span_;
  TraceContext saved_;
  bool active_ = false;
};

/// Monotonic-clock microseconds (same epoch as SystemClock / span fields).
std::int64_t TraceNowUs() noexcept;

}  // namespace strata::obs
