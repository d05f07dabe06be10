#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "common/histogram.hpp"
#include "obs/metrics.hpp"

namespace strata::obs {
namespace {

void CopyTruncated(char* dst, std::size_t cap, const char* src) noexcept {
  std::size_t i = 0;
  for (; src[i] != '\0' && i + 1 < cap; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

// splitmix64 finalizer: turns a sequential counter into well-spread ids so
// trace ids from two processes (seeded differently) collide only by chance.
std::uint64_t Mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint32_t ThisThreadId() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::uint32_t ThisProcessId() noexcept {
  return static_cast<std::uint32_t>(::getpid());
}

void AppendJsonEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

std::string HexId(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

void Span::SetName(const char* s) noexcept {
  CopyTruncated(name, sizeof(name), s);
}
void Span::SetCategory(const char* s) noexcept {
  CopyTruncated(category, sizeof(category), s);
}

std::int64_t TraceNowUs() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// SpanRing: per-slot seqlock over atomic words (the Boehm seqlock idiom, so
// the race between a writer overwriting the oldest slot and a reader
// snapshotting it is defined behavior and TSan-clean). Ordering comes from
// release word stores and acquire word loads rather than fences, which
// ThreadSanitizer does not model.
// ---------------------------------------------------------------------------

SpanRing::SpanRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(new Slot[capacity == 0 ? 1 : capacity]) {}

void SpanRing::Push(const Span& span) noexcept {
  const std::uint64_t index = pushed_.load(std::memory_order_relaxed);
  Slot& slot = slots_[index % capacity_];

  std::uint64_t words[kWordsPerSpan];
  std::memcpy(words, &span, sizeof(span));

  const std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  // Release orders the odd seq before each payload word, so a reader that
  // observes new payload also observes the write-in-progress marker.
  for (std::size_t i = 0; i < kWordsPerSpan; ++i) {
    slot.words[i].store(words[i], std::memory_order_release);
  }
  slot.seq.store(seq + 2, std::memory_order_release);
  pushed_.store(index + 1, std::memory_order_release);
}

void SpanRing::Clear() noexcept {
  cleared_.store(pushed_.load(std::memory_order_acquire),
                 std::memory_order_release);
}

void SpanRing::Snapshot(std::vector<Span>* out) const {
  const std::uint64_t total = pushed_.load(std::memory_order_acquire);
  std::uint64_t first = total > capacity_ ? total - capacity_ : 0;
  first = std::max(first, cleared_.load(std::memory_order_acquire));
  for (std::uint64_t i = first; i < total; ++i) {
    const Slot& slot = slots_[i % capacity_];
    std::uint64_t words[kWordsPerSpan];
    const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before % 2 != 0 || before == 0) continue;  // mid-write or never written
    // Acquire keeps the seq re-check below after every payload load.
    for (std::size_t w = 0; w < kWordsPerSpan; ++w) {
      words[w] = slot.words[w].load(std::memory_order_acquire);
    }
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;  // torn
    Span span;
    std::memcpy(&span, words, sizeof(span));
    if (span.trace_id != 0) out->push_back(span);
  }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer& Tracer::Instance() {
  static Tracer* tracer = [] {
    auto* t = new Tracer();
    // Seed id spaces per process so traces from a two-process pipeline do
    // not collide when merged.
    const std::uint64_t seed =
        Mix64(static_cast<std::uint64_t>(TraceNowUs()) ^
              (static_cast<std::uint64_t>(ThisProcessId()) << 32));
    t->next_trace_id_.store(seed | 1, std::memory_order_relaxed);
    t->next_span_id_.store(Mix64(seed) | 1, std::memory_order_relaxed);
    return t;
  }();
  return *tracer;
}

void Tracer::Configure(std::uint32_t sample_every,
                       std::optional<std::size_t> ring_capacity) {
  if (ring_capacity.has_value()) {
    std::lock_guard lock(mu_);
    ring_capacity_ = *ring_capacity == 0 ? 1 : *ring_capacity;
  }
  sample_every_.store(sample_every, std::memory_order_relaxed);
}

bool Tracer::ConfigureFromEnv() {
  const char* spec = std::getenv("STRATA_TRACE_SAMPLE");
  if (spec == nullptr || *spec == '\0') return false;
  const long value = std::strtol(spec, nullptr, 10);
  Configure(value <= 0 ? 0u : static_cast<std::uint32_t>(value));
  return true;
}

TraceContext Tracer::MaybeStartTrace() noexcept {
  const std::uint32_t every = sample_every_.load(std::memory_order_relaxed);
  if (every == 0) return {};
  thread_local std::uint32_t counter = 0;
  if (++counter < every) return {};
  counter = 0;
  traces_started_.fetch_add(1, std::memory_order_relaxed);
  TraceContext ctx;
  ctx.trace_id =
      Mix64(next_trace_id_.fetch_add(1, std::memory_order_relaxed));
  if (ctx.trace_id == 0) ctx.trace_id = 1;
  return ctx;
}

std::uint64_t Tracer::NewSpanId() noexcept {
  const std::uint64_t id =
      Mix64(next_span_id_.fetch_add(1, std::memory_order_relaxed));
  return id == 0 ? 1 : id;
}

// Thread-local handle that returns the ring to the tracer's free list when
// the thread exits, so short-lived operator threads (one set per query run)
// reuse rings instead of growing the registry without bound.
struct TracerTlsHandle {
  Tracer* tracer = nullptr;
  SpanRing* ring = nullptr;
  ~TracerTlsHandle() {
    if (tracer != nullptr && ring != nullptr) tracer->ReleaseRing(ring);
  }
};

SpanRing* Tracer::ThreadRing() {
  thread_local TracerTlsHandle handle;
  if (handle.ring == nullptr) {
    std::lock_guard lock(mu_);
    if (!free_rings_.empty()) {
      handle.ring = free_rings_.back();
      free_rings_.pop_back();
    } else {
      rings_.push_back(std::make_unique<SpanRing>(ring_capacity_));
      handle.ring = rings_.back().get();
    }
    handle.tracer = this;
  }
  return handle.ring;
}

void Tracer::ReleaseRing(SpanRing* ring) {
  std::lock_guard lock(mu_);
  free_rings_.push_back(ring);
}

void Tracer::Record(const Span& span) noexcept {
  if (span.trace_id == 0) return;
  Span stamped = span;
  if (stamped.tid == 0) stamped.tid = ThisThreadId();
  if (stamped.pid == 0) stamped.pid = ThisProcessId();
  ThreadRing()->Push(stamped);
  spans_recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Span> Tracer::CollectSpans() const {
  std::vector<Span> out;
  {
    std::lock_guard lock(mu_);
    for (const auto& ring : rings_) ring->Snapshot(&out);
  }
  std::stable_sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_us < b.start_us;
  });
  // Queue-wait derivation: the gap between a span's start and its parent
  // span's end is time the batch sat in a stream between hops. Done here —
  // not on the data plane — so tuples carry only the 16-byte identity.
  // Nested scopes (a kv.store inside a still-open sink span) start before
  // their parent ends and correctly derive zero; a parent recorded in
  // another process is simply absent and leaves queue_us at zero.
  std::unordered_map<std::uint64_t, std::int64_t> end_by_span;
  end_by_span.reserve(out.size());
  for (const Span& span : out) {
    end_by_span[span.span_id] = span.start_us + span.dur_us;
  }
  for (Span& span : out) {
    if (span.parent_span == 0 || span.queue_us != 0) continue;
    const auto parent = end_by_span.find(span.parent_span);
    if (parent != end_by_span.end() && span.start_us > parent->second) {
      span.queue_us = span.start_us - parent->second;
    }
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard lock(mu_);
  for (const auto& ring : rings_) ring->Clear();
  traces_started_.store(0, std::memory_order_relaxed);
  spans_recorded_.store(0, std::memory_order_relaxed);
}

void Tracer::BindMetrics(MetricsRegistry* registry) {
  static std::mutex bind_mu;
  static MetricsRegistry* bound = nullptr;
  static MetricsRegistry::CallbackId callback_id = 0;

  std::lock_guard lock(bind_mu);
  if (bound != nullptr) {
    bound->Unregister(callback_id);
    bound = nullptr;
  }
  if (registry == nullptr) return;
  callback_id = registry->RegisterCallback([this](MetricsSnapshot* snap) {
    snap->AddCounter("obs.trace.started", {}, traces_started());
    snap->AddCounter("obs.trace.spans", {}, spans_recorded());
    snap->AddGauge("obs.trace.sample_every", {}, sample_every());
  });
  bound = registry;
}

std::vector<StageStats> Tracer::Summarize(const std::vector<Span>& spans) {
  struct Acc {
    Histogram exec;
    Histogram queue;
    std::int64_t total_exec = 0;
  };
  std::map<std::pair<std::string, std::string>, Acc> stages;
  for (const Span& span : spans) {
    Acc& acc = stages[{span.category, span.name}];
    acc.exec.Record(span.dur_us);
    acc.queue.Record(span.queue_us);
    acc.total_exec += span.dur_us;
  }
  std::vector<StageStats> out;
  out.reserve(stages.size());
  for (const auto& [key, acc] : stages) {
    StageStats s;
    s.category = key.first;
    s.name = key.second;
    s.count = acc.exec.count();
    s.exec_p50_us = acc.exec.Quantile(0.5);
    s.exec_p95_us = acc.exec.Quantile(0.95);
    s.exec_p99_us = acc.exec.Quantile(0.99);
    s.queue_p50_us = acc.queue.Quantile(0.5);
    s.queue_p95_us = acc.queue.Quantile(0.95);
    s.total_exec_us = acc.total_exec;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const StageStats& a, const StageStats& b) {
    return a.total_exec_us > b.total_exec_us;
  });
  return out;
}

std::string Tracer::ToChromeTrace(const std::vector<Span>& spans) {
  std::string out;
  out.reserve(128 + spans.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, span.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(&out, span.category);
    out += "\",\"ph\":\"X\",\"ts\":" + std::to_string(span.start_us);
    out += ",\"dur\":" + std::to_string(span.dur_us < 1 ? 1 : span.dur_us);
    out += ",\"pid\":" + std::to_string(span.pid);
    out += ",\"tid\":" + std::to_string(span.tid);
    out += ",\"args\":{\"trace\":\"" + HexId(span.trace_id) + "\"";
    out += ",\"span\":\"" + HexId(span.span_id) + "\"";
    if (span.parent_span != 0) {
      out += ",\"parent\":\"" + HexId(span.parent_span) + "\"";
    }
    out += ",\"queue_us\":" + std::to_string(span.queue_us);
    out += ",\"batch\":" + std::to_string(span.batch);
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string Tracer::ToTracezText(const std::vector<Span>& spans,
                                 std::size_t max_spans) {
  std::ostringstream os;
  os << "spans collected: " << spans.size() << "\n\n";
  os << "per-stage latency (microseconds)\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-14s %-28s %10s %9s %9s %9s %9s %9s\n",
                "category", "name", "count", "exec_p50", "exec_p95",
                "exec_p99", "queue_p50", "queue_p95");
  os << line;
  for (const StageStats& s : Summarize(spans)) {
    std::snprintf(line, sizeof(line),
                  "%-14s %-28s %10llu %9lld %9lld %9lld %9lld %9lld\n",
                  s.category.c_str(), s.name.c_str(),
                  static_cast<unsigned long long>(s.count),
                  static_cast<long long>(s.exec_p50_us),
                  static_cast<long long>(s.exec_p95_us),
                  static_cast<long long>(s.exec_p99_us),
                  static_cast<long long>(s.queue_p50_us),
                  static_cast<long long>(s.queue_p95_us));
    os << line;
  }
  os << "\nrecent spans (newest last)\n";
  const std::size_t begin =
      spans.size() > max_spans ? spans.size() - max_spans : 0;
  for (std::size_t i = begin; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "trace=%016llx span=%016llx %-12s %-24s start=%lld dur=%lld "
                  "queue=%lld batch=%llu pid=%u tid=%u\n",
                  static_cast<unsigned long long>(s.trace_id),
                  static_cast<unsigned long long>(s.span_id), s.category,
                  s.name, static_cast<long long>(s.start_us),
                  static_cast<long long>(s.dur_us),
                  static_cast<long long>(s.queue_us),
                  static_cast<unsigned long long>(s.batch), s.pid, s.tid);
    os << line;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// SpanScope
// ---------------------------------------------------------------------------

SpanScope::SpanScope(const char* name, const char* category,
                     const TraceContext& parent, std::uint64_t batch) noexcept {
  if (!parent.sampled()) return;
  Tracer& tracer = Tracer::Instance();
  span_.trace_id = parent.trace_id;
  span_.span_id = tracer.NewSpanId();
  span_.parent_span = parent.parent_span;
  span_.start_us = TraceNowUs();
  span_.batch = batch;
  span_.SetName(name);
  span_.SetCategory(category);
  saved_ = ThreadTraceSlot();
  ThreadTraceSlot() = TraceContext{span_.trace_id, span_.span_id};
  active_ = true;
}

SpanScope::~SpanScope() { Finish(); }

SpanScope::SpanScope(SpanScope&& other) noexcept
    : span_(other.span_), saved_(other.saved_), active_(other.active_) {
  other.active_ = false;
}

SpanScope& SpanScope::operator=(SpanScope&& other) noexcept {
  if (this != &other) {
    Finish();
    span_ = other.span_;
    saved_ = other.saved_;
    active_ = other.active_;
    other.active_ = false;
  }
  return *this;
}

void SpanScope::Finish() noexcept {
  if (!active_) return;
  active_ = false;
  span_.dur_us = TraceNowUs() - span_.start_us;
  ThreadTraceSlot() = saved_;
  Tracer::Instance().Record(span_);
}

TraceContext SpanScope::EmitContext() const noexcept {
  if (!active_) return {};
  return TraceContext{span_.trace_id, span_.span_id};
}

}  // namespace strata::obs
