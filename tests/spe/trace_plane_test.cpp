// Trace-plane tests: with sampling at 1/1, every hop of a pipeline records
// a span continuing the trace its source started, and the queue/execute
// split is visible per hop.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "spe/query.hpp"

namespace strata::spe {
namespace {

using obs::Span;
using obs::Tracer;

class TracePlaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Instance().Configure(1);
    Tracer::Instance().Clear();
  }
  void TearDown() override {
    Tracer::Instance().Configure(0);
    Tracer::Instance().Clear();
  }
};

SourceFn FiniteSource(int total) {
  auto next = std::make_shared<int>(0);
  return [total, next]() -> std::optional<Tuple> {
    if (*next >= total) return std::nullopt;
    Tuple t;
    t.layer = (*next)++;
    t.job = 1;
    t.payload.Set("v", t.layer);
    return t;
  };
}

std::set<std::string> Categories(const std::vector<Span>& spans) {
  std::set<std::string> out;
  for (const Span& span : spans) out.insert(span.category);
  return out;
}

TEST_F(TracePlaneTest, EveryHopContinuesTheSourceTrace) {
  Query query;
  StreamPtr source = query.AddSource("collector", FiniteSource(8));
  StreamPtr mapped = query.AddFlatMap(
      "detect", source, [](const Tuple& t) { return std::vector<Tuple>{t}; });
  StreamPtr filtered =
      query.AddFilter("threshold", mapped, [](const Tuple&) { return true; });
  query.AddSink("deliver", filtered, [](const Tuple&) {});
  query.Run();

  const std::vector<Span> spans = Tracer::Instance().CollectSpans();
  ASSERT_FALSE(spans.empty());
  const std::set<std::string> categories = Categories(spans);
  EXPECT_TRUE(categories.count("spe.source")) << "missing source spans";
  EXPECT_TRUE(categories.count("spe.flatmap")) << "missing flatmap spans";
  EXPECT_TRUE(categories.count("spe.filter")) << "missing filter spans";
  EXPECT_TRUE(categories.count("spe.sink")) << "missing sink spans";

  // Group spans by trace: at 1/1 sampling each source tuple starts a trace
  // that must resurface at every downstream hop.
  std::map<std::uint64_t, std::set<std::string>> by_trace;
  for (const Span& span : spans) {
    by_trace[span.trace_id].insert(span.category);
  }
  int complete = 0;
  for (const auto& [trace_id, stages] : by_trace) {
    EXPECT_NE(trace_id, 0u);
    if (stages.count("spe.source") && stages.count("spe.flatmap") &&
        stages.count("spe.filter") && stages.count("spe.sink")) {
      ++complete;
    }
  }
  EXPECT_GT(complete, 0) << "no trace crossed all four hops";
}

TEST_F(TracePlaneTest, SpansFormAParentChainWithQueueSplit) {
  Query query;
  StreamPtr source = query.AddSource("collector", FiniteSource(4));
  query.AddSink("deliver", source, [](const Tuple&) {});
  query.Run();

  const std::vector<Span> spans = Tracer::Instance().CollectSpans();
  std::map<std::uint64_t, std::vector<Span>> by_trace;
  for (const Span& span : spans) by_trace[span.trace_id].push_back(span);

  int chains = 0;
  for (auto& [trace_id, trace_spans] : by_trace) {
    const auto source_it = std::find_if(
        trace_spans.begin(), trace_spans.end(),
        [](const Span& s) { return std::string(s.category) == "spe.source"; });
    const auto sink_it = std::find_if(
        trace_spans.begin(), trace_spans.end(),
        [](const Span& s) { return std::string(s.category) == "spe.sink"; });
    if (source_it == trace_spans.end() || sink_it == trace_spans.end()) {
      continue;
    }
    ++chains;
    // The sink span's parent is the span the source emitted under, and its
    // queue time (wait between source emit and sink pickup) is non-negative.
    EXPECT_EQ(sink_it->parent_span, source_it->span_id);
    EXPECT_GE(sink_it->queue_us, 0);
    EXPECT_GE(sink_it->dur_us, 0);
  }
  EXPECT_GT(chains, 0);
}

TEST_F(TracePlaneTest, DisabledSamplingRecordsNothing) {
  Tracer::Instance().Configure(0);
  Query query;
  StreamPtr source = query.AddSource("collector", FiniteSource(16));
  query.AddSink("deliver", source, [](const Tuple&) {});
  query.Run();
  EXPECT_TRUE(Tracer::Instance().CollectSpans().empty());
  EXPECT_EQ(Tracer::Instance().traces_started(), 0u);
}

TEST_F(TracePlaneTest, ParallelFlatMapKeepsTraceAcrossRouterAndUnion) {
  Query query;
  StreamPtr source = query.AddSource("collector", FiniteSource(12));
  StreamPtr mapped = query.AddFlatMap(
      "detect", source, [](const Tuple& t) { return std::vector<Tuple>{t}; },
      /*parallelism=*/3,
      [](const Tuple& t) { return std::to_string(t.layer % 3); });
  query.AddSink("deliver", mapped, [](const Tuple&) {});
  query.Run();

  const std::vector<Span> spans = Tracer::Instance().CollectSpans();
  const std::set<std::string> categories = Categories(spans);
  // The parallelism wrapper adds router (shard) and union (merge) hops; the
  // trace must survive both queue crossings.
  EXPECT_TRUE(categories.count("spe.source"));
  EXPECT_TRUE(categories.count("spe.flatmap"));
  EXPECT_TRUE(categories.count("spe.sink"));

  std::map<std::uint64_t, std::set<std::string>> by_trace;
  for (const Span& span : spans) by_trace[span.trace_id].insert(span.category);
  int complete = 0;
  for (const auto& [trace_id, stages] : by_trace) {
    if (stages.count("spe.source") && stages.count("spe.flatmap") &&
        stages.count("spe.sink")) {
      ++complete;
    }
  }
  EXPECT_GT(complete, 0);
}

TEST_F(TracePlaneTest, FusedChainTracesEachStageUnderItsOwnName) {
  // detect -> threshold is a fusable chain, so one fused worker runs both;
  // each stage must still record its own span, chained like separate hops.
  Query query;
  StreamPtr source = query.AddSource("collector", FiniteSource(8));
  StreamPtr mapped = query.AddFlatMap(
      "detect", source, [](const Tuple& t) { return std::vector<Tuple>{t}; });
  StreamPtr filtered =
      query.AddFilter("threshold", mapped, [](const Tuple&) { return true; });
  query.AddSink("deliver", filtered, [](const Tuple&) {});
  query.Run();

  const std::vector<Span> spans = Tracer::Instance().CollectSpans();
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& span : spans) {
    EXPECT_EQ(std::string(span.name).find('+'), std::string::npos)
        << "span of the fused worker itself: " << span.name;
    by_id[span.span_id] = &span;
  }
  auto parent_of = [&](const Span& span) -> const Span* {
    const auto it = by_id.find(span.parent_span);
    return it == by_id.end() ? nullptr : it->second;
  };
  int chains = 0;
  for (const Span& sink : spans) {
    if (std::string(sink.name) != "deliver") continue;
    const Span* filter = parent_of(sink);
    ASSERT_NE(filter, nullptr);
    EXPECT_STREQ(filter->name, "threshold");
    EXPECT_STREQ(filter->category, "spe.filter");
    const Span* flatmap = parent_of(*filter);
    ASSERT_NE(flatmap, nullptr);
    EXPECT_STREQ(flatmap->name, "detect");
    EXPECT_STREQ(flatmap->category, "spe.flatmap");
    EXPECT_LE(flatmap->start_us + flatmap->dur_us, filter->start_us);
    const Span* root = parent_of(*flatmap);
    ASSERT_NE(root, nullptr);
    EXPECT_STREQ(root->category, "spe.source");
    ++chains;
  }
  EXPECT_GT(chains, 0);

  const std::string tracez = Tracer::ToTracezText(spans);
  EXPECT_NE(tracez.find("detect"), std::string::npos) << tracez;
  EXPECT_NE(tracez.find("threshold"), std::string::npos) << tracez;
}

}  // namespace
}  // namespace strata::spe
