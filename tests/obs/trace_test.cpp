#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace strata::obs {
namespace {

Span MakeSpan(std::uint64_t trace_id, std::uint64_t span_id, const char* name,
              const char* category, std::int64_t dur_us = 10) {
  Span span;
  span.trace_id = trace_id;
  span.span_id = span_id;
  span.start_us = static_cast<std::int64_t>(span_id) * 100;
  span.dur_us = dur_us;
  span.SetName(name);
  span.SetCategory(category);
  return span;
}

/// The tracer is a process singleton; every test must leave it disabled and
/// empty so tests stay order-independent.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Instance().Configure(0);
    Tracer::Instance().Clear();
  }
  void TearDown() override {
    Tracer::Instance().Configure(0);
    Tracer::Instance().Clear();
  }
};

// --- SpanRing ----------------------------------------------------------------

TEST(SpanRingTest, SnapshotReturnsPushedSpansInOrder) {
  SpanRing ring(8);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ring.Push(MakeSpan(7, i, "op", "spe.source"));
  }
  std::vector<Span> out;
  ring.Snapshot(&out);
  ASSERT_EQ(out.size(), 3u);
  for (std::uint64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].span_id, i + 1);
    EXPECT_EQ(out[i].trace_id, 7u);
    EXPECT_STREQ(out[i].name, "op");
    EXPECT_STREQ(out[i].category, "spe.source");
  }
}

TEST(SpanRingTest, OverwriteKeepsMostRecentSpans) {
  SpanRing ring(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    ring.Push(MakeSpan(1, i, "op", "spe.filter"));
  }
  std::vector<Span> out;
  ring.Snapshot(&out);
  ASSERT_EQ(out.size(), 4u);
  // The ring always holds the most recent spans, oldest first.
  EXPECT_EQ(out.front().span_id, 7u);
  EXPECT_EQ(out.back().span_id, 10u);
}

TEST(SpanRingTest, ClearHidesOldSpansButNotNewOnes) {
  SpanRing ring(8);
  ring.Push(MakeSpan(1, 1, "before", "spe.sink"));
  ring.Clear();
  std::vector<Span> out;
  ring.Snapshot(&out);
  EXPECT_TRUE(out.empty());

  ring.Push(MakeSpan(1, 2, "after", "spe.sink"));
  ring.Snapshot(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_STREQ(out.front().name, "after");
}

TEST(SpanRingTest, ConcurrentSnapshotsNeverObserveTornSpans) {
  SpanRing ring(16);
  std::atomic<bool> stop{false};

  // Writer: span_id always equals trace_id, so a torn read (half of one
  // span, half of another) is detectable.
  std::thread writer([&] {
    std::uint64_t i = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      ring.Push(MakeSpan(i, i, "op", "spe.router"));
      ++i;
    }
  });

  std::vector<Span> out;
  for (int iter = 0; iter < 2000; ++iter) {
    ring.Snapshot(&out);
    for (const Span& span : out) {
      ASSERT_EQ(span.trace_id, span.span_id);
      ASSERT_STREQ(span.name, "op");
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// --- Tracer ------------------------------------------------------------------

TEST_F(TracerTest, DisabledTracerNeverSamples) {
  EXPECT_FALSE(TracingEnabled());
  // A fresh thread gets a fresh sampling counter: deterministic.
  std::thread([&] {
    for (int i = 0; i < 100; ++i) {
      EXPECT_FALSE(Tracer::Instance().MaybeStartTrace().sampled());
    }
  }).join();
  EXPECT_EQ(Tracer::Instance().traces_started(), 0u);
}

TEST_F(TracerTest, SampleEveryControlsTraceRate) {
  Tracer::Instance().Configure(4);
  std::thread([&] {
    int sampled = 0;
    for (int i = 0; i < 16; ++i) {
      if (Tracer::Instance().MaybeStartTrace().sampled()) ++sampled;
    }
    EXPECT_EQ(sampled, 4);
  }).join();
  EXPECT_EQ(Tracer::Instance().traces_started(), 4u);
}

// An embedding program sizes the rings first; a later rate change (the
// Strata constructor, STRATA_TRACE_SAMPLE) must not shrink them back to the
// 2048-span default and drop spans.
TEST_F(TracerTest, RateChangeKeepsRingCapacity) {
  constexpr std::size_t kSpans = 3000;
  Tracer::Instance().Configure(1, 4096);
  Tracer::Instance().Configure(2);
  ASSERT_EQ(::setenv("STRATA_TRACE_SAMPLE", "1", 1), 0);
  EXPECT_TRUE(Tracer::Instance().ConfigureFromEnv());
  ASSERT_EQ(::unsetenv("STRATA_TRACE_SAMPLE"), 0);
  EXPECT_EQ(Tracer::Instance().sample_every(), 1u);

  // A fresh thread gets a ring created after both rate changes.
  std::thread([] {
    for (std::uint64_t i = 1; i <= kSpans; ++i) {
      Tracer::Instance().Record(MakeSpan(9, i, "op", "spe.source"));
    }
  }).join();
  EXPECT_EQ(Tracer::Instance().CollectSpans().size(), kSpans);
}

TEST_F(TracerTest, SpanScopeRecordsSpanAndRestoresThreadSlot) {
  Tracer::Instance().Configure(1);
  std::thread([&] {
    const TraceContext root = Tracer::Instance().MaybeStartTrace();
    ASSERT_TRUE(root.sampled());
    EXPECT_EQ(ThreadTraceSlot().trace_id, 0u);
    {
      SpanScope outer("sink", "spe.sink", root, 5);
      ASSERT_TRUE(outer.active());
      // While active, nested layers see this span as their parent.
      EXPECT_EQ(ThreadTraceSlot().trace_id, root.trace_id);
      const std::uint64_t outer_span = ThreadTraceSlot().parent_span;
      EXPECT_NE(outer_span, 0u);
      {
        SpanScope inner("kv.store", "kv", ThreadTraceSlot());
        ASSERT_TRUE(inner.active());
        EXPECT_NE(ThreadTraceSlot().parent_span, outer_span);
      }
      // Inner scope restored the outer slot.
      EXPECT_EQ(ThreadTraceSlot().parent_span, outer_span);
    }
    EXPECT_EQ(ThreadTraceSlot().trace_id, 0u);
  }).join();

  const std::vector<Span> spans = Tracer::Instance().CollectSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Both spans start within the same microsecond, so don't assume an order;
  // look them up by category. Both belong to the same trace, and the inner
  // span's parent is the outer span.
  const Span& outer = std::string_view(spans[0].category) == "spe.sink"
                          ? spans[0]
                          : spans[1];
  const Span& inner = &outer == &spans[0] ? spans[1] : spans[0];
  EXPECT_STREQ(outer.category, "spe.sink");
  EXPECT_STREQ(inner.category, "kv");
  EXPECT_EQ(outer.trace_id, inner.trace_id);
  EXPECT_EQ(inner.parent_span, outer.span_id);
  EXPECT_EQ(outer.batch, 5u);
}

TEST_F(TracerTest, CollectSpansDerivesQueueWaitFromParentGap) {
  Tracer::Instance().Configure(1);
  std::thread([&] {
    TraceContext upstream = Tracer::Instance().MaybeStartTrace();
    ASSERT_TRUE(upstream.sampled());
    TraceContext emitted;
    {
      SpanScope hop("flatmap", "spe.flatmap", upstream);
      emitted = hop.EmitContext();
    }
    EXPECT_EQ(emitted.trace_id, upstream.trace_id);
    EXPECT_NE(emitted.parent_span, upstream.parent_span);

    // The batch "sits in a queue" between the hops: the gap between the
    // flatmap span's end and the sink span's start.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    SpanScope next("sink", "spe.sink", emitted);
    EXPECT_TRUE(next.active());
  }).join();

  const std::vector<Span> spans = Tracer::Instance().CollectSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Collection derives the sink hop's queue wait from the gap to its parent
  // (the flatmap span): at least the 5ms sleep, and consistent with the
  // recorded timestamps. The root hop has no parent span, so no queue wait.
  EXPECT_EQ(spans[1].parent_span, spans[0].span_id);
  EXPECT_GE(spans[1].queue_us, 5000);
  EXPECT_EQ(spans[1].queue_us,
            spans[1].start_us - (spans[0].start_us + spans[0].dur_us));
  EXPECT_EQ(spans[0].queue_us, 0);
}

TEST_F(TracerTest, CollectSpansMergesRingsFromManyThreads) {
  Tracer::Instance().Configure(1);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const TraceContext ctx = Tracer::Instance().MaybeStartTrace();
        SpanScope span("worker", "spe.source", ctx);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(Tracer::Instance().CollectSpans().size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(Tracer::Instance().spans_recorded(),
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread);

  Tracer::Instance().Clear();
  EXPECT_TRUE(Tracer::Instance().CollectSpans().empty());
  EXPECT_EQ(Tracer::Instance().spans_recorded(), 0u);
}

TEST_F(TracerTest, BindMetricsExportsTraceCounters) {
  MetricsRegistry registry;
  Tracer::Instance().BindMetrics(&registry);
  Tracer::Instance().Configure(2);

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.Value("obs.trace.sample_every"), 2.0);
  EXPECT_EQ(snapshot.Value("obs.trace.started"), 0.0);
  EXPECT_EQ(snapshot.Value("obs.trace.spans"), 0.0);
  Tracer::Instance().BindMetrics(nullptr);
}

// --- exporters ---------------------------------------------------------------

TEST(TraceExportTest, ChromeTraceContainsCompleteEvents) {
  std::vector<Span> spans;
  spans.push_back(MakeSpan(0xabc, 1, "collector", "spe.source", 42));
  spans.push_back(MakeSpan(0xabc, 2, "raw.topic", "pubsub.produce", 7));

  const std::string json = Tracer::ToChromeTrace(spans);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"collector\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"pubsub.produce\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":42"), std::string::npos);
  EXPECT_NE(json.find("abc"), std::string::npos);  // hex trace id in args
}

TEST(TraceExportTest, SummarizeAggregatesPerStage) {
  std::vector<Span> spans;
  for (int i = 0; i < 10; ++i) {
    spans.push_back(MakeSpan(1, static_cast<std::uint64_t>(i + 1), "detect",
                             "spe.flatmap", 100));
  }
  spans.push_back(MakeSpan(1, 99, "store", "kv", 5));

  const std::vector<StageStats> stages = Tracer::Summarize(spans);
  ASSERT_EQ(stages.size(), 2u);
  // Sorted by total execute time descending.
  EXPECT_EQ(stages[0].name, "detect");
  EXPECT_EQ(stages[0].count, 10u);
  EXPECT_EQ(stages[0].total_exec_us, 1000);
  EXPECT_EQ(stages[0].exec_p50_us, 100);
  EXPECT_EQ(stages[1].category, "kv");
}

TEST(TraceExportTest, TracezTextListsStagesAndRecentSpans) {
  std::vector<Span> spans;
  spans.push_back(MakeSpan(0x123, 1, "collector", "spe.source", 10));
  const std::string text = Tracer::ToTracezText(spans);
  EXPECT_NE(text.find("collector"), std::string::npos);
  EXPECT_NE(text.find("spe.source"), std::string::npos);
}

}  // namespace
}  // namespace strata::obs
