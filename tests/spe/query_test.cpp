#include <gtest/gtest.h>

#include <atomic>

#include "spe/replay_source.hpp"
#include "spe_test_util.hpp"

namespace strata::spe {
namespace {

using testutil::Collector;
using testutil::CountAggregate;
using testutil::MakeTuple;

TEST(QueryLifecycle, RunCompletesWithFiniteSource) {
  Query query;
  auto src = query.AddSource("src", VectorSource({MakeTuple(1)}));
  Collector collector;
  query.AddSink("sink", src, collector.AsSink());
  query.Run();
  EXPECT_EQ(collector.size(), 1u);
}

TEST(QueryLifecycle, StopEndsInfiniteSource) {
  Query query;
  std::atomic<std::int64_t> counter{0};
  auto src = query.AddSource("src", [&]() -> std::optional<Tuple> {
    Tuple t;
    t.event_time = counter++;
    return t;
  });
  std::atomic<std::int64_t> seen{0};
  query.AddSink("sink", src, [&](const Tuple&) { ++seen; });
  query.Start();
  while (seen.load() < 100) std::this_thread::yield();
  query.Stop();
  query.Join();
  EXPECT_GE(seen.load(), 100);
}

TEST(QueryLifecycle, DestructorStopsRunningQuery) {
  std::atomic<std::int64_t> counter{0};
  {
    Query query;
    auto src = query.AddSource("src", [&]() -> std::optional<Tuple> {
      Tuple t;
      t.event_time = counter++;
      return t;
    });
    query.AddSink("sink", src, [](const Tuple&) {});
    query.Start();
    while (counter.load() < 10) std::this_thread::yield();
  }  // must not hang or crash
  SUCCEED();
}

TEST(QueryLifecycle, DoubleStartThrows) {
  Query query;
  auto src = query.AddSource("src", VectorSource({}));
  query.AddSink("sink", src, [](const Tuple&) {});
  query.Start();
  EXPECT_THROW(query.Start(), std::logic_error);
  query.Join();
}

TEST(QueryLifecycle, AddAfterStartThrows) {
  Query query;
  auto src = query.AddSource("src", VectorSource({}));
  query.AddSink("sink", src, [](const Tuple&) {});
  query.Start();
  EXPECT_THROW((void)query.AddSource("late", VectorSource({})),
               std::logic_error);
  query.Join();
}

TEST(QueryValidation, StreamCannotHaveTwoConsumers) {
  Query query;
  auto src = query.AddSource("src", VectorSource({}));
  query.AddSink("sink1", src, [](const Tuple&) {});
  EXPECT_THROW(query.AddSink("sink2", src, [](const Tuple&) {}),
               std::logic_error);
}

TEST(QueryValidation, NullStreamRejected) {
  Query query;
  EXPECT_THROW(query.AddSink("sink", nullptr, [](const Tuple&) {}),
               std::invalid_argument);
}

TEST(QueryValidation, ZeroCapacityRejected) {
  QueryOptions options;
  options.queue_capacity = 0;
  EXPECT_THROW(Query query(options), std::invalid_argument);
}

TEST(QueryBackPressure, SlowSinkThrottlesFastSource) {
  QueryOptions options;
  options.queue_capacity = 4;
  // Pin the per-tuple plane: batching widens the run-ahead bound to
  // capacity + batch-sized emit/drain buffers (covered by the batch-plane
  // tests); this test asserts the strict per-tuple bound.
  options.batch_size = 1;
  Query query(options);
  std::atomic<std::int64_t> produced{0};
  auto src = query.AddSource("fast-src", [&]() -> std::optional<Tuple> {
    if (produced >= 200) return std::nullopt;
    Tuple t;
    t.event_time = produced++;
    return t;
  });
  std::atomic<std::int64_t> consumed{0};
  query.AddSink("slow-sink", src, [&](const Tuple&) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    ++consumed;
  });
  query.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The source cannot run far ahead of the sink: bounded by queue capacity
  // plus in-flight slack.
  EXPECT_LE(produced.load(), consumed.load() + 8);
  query.Join();
  EXPECT_EQ(consumed.load(), 200);
}

TEST(QueryPipeline, MultiStagePipelineProducesExpectedResult) {
  // src -> filter(evens) -> map(x2) -> aggregate(count per window) -> sink
  Query query;
  std::vector<Tuple> input;
  for (int i = 0; i < 100; ++i) {
    Tuple t = MakeTuple(i);
    t.payload.Set("v", i);
    input.push_back(t);
  }
  auto src = query.AddSource("src", VectorSource(input));
  auto evens = query.AddFilter("evens", src, [](const Tuple& t) {
    return t.payload.Get("v").AsInt() % 2 == 0;
  });
  auto doubled = query.AddFlatMap("double", evens, [](const Tuple& t) {
    Tuple out = t;
    out.payload.Set("v", t.payload.Get("v").AsInt() * 2);
    return std::vector<Tuple>{out};
  });
  auto counted = query.AddAggregate("count", doubled, CountAggregate(50, 50));
  Collector collector;
  query.AddSink("sink", counted, collector.AsSink());
  query.Run();

  const auto out = collector.tuples();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].payload.Get("count").AsInt(), 25);
  EXPECT_EQ(out[1].payload.Get("count").AsInt(), 25);
}

TEST(QueryPipeline, DiamondTopology) {
  // src -> split -> (filterA, filterB) -> union -> sink
  Query query;
  std::vector<Tuple> input;
  for (int i = 0; i < 50; ++i) {
    Tuple t = MakeTuple(i);
    t.payload.Set("v", i);
    input.push_back(t);
  }
  auto src = query.AddSource("src", VectorSource(input));
  auto branches = query.AddSplit("split", src, 2);
  auto low = query.AddFilter("low", branches[0], [](const Tuple& t) {
    return t.payload.Get("v").AsInt() < 10;
  });
  auto high = query.AddFilter("high", branches[1], [](const Tuple& t) {
    return t.payload.Get("v").AsInt() >= 40;
  });
  auto merged = query.AddUnion("union", {low, high});
  Collector collector;
  query.AddSink("sink", merged, collector.AsSink());
  query.Run();
  EXPECT_EQ(collector.size(), 20u);
}

TEST(QueryPipeline, ManualClockLatency) {
  // With a manual clock, sink latency = clock delta between source emission
  // and sink consumption; here nothing advances the clock, so latency = 0.
  ManualClock clock(1000);
  QueryOptions options;
  options.clock = &clock;
  Query query(options);
  auto src = query.AddSource("src", VectorSource({MakeTuple(1)}));
  Collector collector;
  auto* sink = query.AddSink("sink", src, collector.AsSink());
  query.Run();
  const Histogram latency = sink->LatencySnapshot();
  ASSERT_EQ(latency.count(), 1u);
  EXPECT_EQ(latency.max(), 0);
}

TEST(QueryIntrospection, ToDotRendersDag) {
  Query query;
  auto src = query.AddSource("src", VectorSource({}));
  auto mapped = query.AddFlatMap(
      "stage", src, [](const Tuple& t) { return std::vector<Tuple>{t}; });
  query.AddSink("out", mapped, [](const Tuple&) {});
  const std::string dot = query.ToDot();
  EXPECT_NE(dot.find("digraph query"), std::string::npos);
  EXPECT_NE(dot.find("src"), std::string::npos);
  EXPECT_NE(dot.find("stage"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

// ------------------------------------------------- golden keyed-plan shapes
//
// ToDot lists operators in creation order with their names and labels every
// edge with its stream name. Checkpoint manifests (operator names),
// spe.stream.* metrics (stream names) and per-layer benchmark lookups
// (`stage[i]`, `stage.router`, `stage.union`) all depend on this shape.

KeyFn LayerKey() {
  return [](const Tuple& t) { return std::to_string(t.layer); };
}

std::string FlatMapPlan(int parallelism) {
  Query query;
  auto src = query.AddSource("src", VectorSource({}));
  auto out = query.AddFlatMap(
      "fm", src, [](const Tuple& t) { return std::vector<Tuple>{t}; },
      parallelism, LayerKey());
  query.AddSink("sink", out, [](const Tuple&) {});
  return query.ToDot();
}

std::string AggregatePlan(int parallelism) {
  Query query;
  auto src = query.AddSource("src", VectorSource({}));
  auto out = query.AddAggregate(
      "agg", src, testutil::CountAggregate(10, 10, LayerKey()), parallelism);
  query.AddSink("sink", out, [](const Tuple&) {});
  return query.ToDot();
}

std::string JoinPlan(int parallelism) {
  Query query;
  auto left = query.AddSource("left", VectorSource({}));
  auto right = query.AddSource("right", VectorSource({}));
  JoinSpec spec;
  spec.key_left = LayerKey();
  spec.key_right = LayerKey();
  auto out = query.AddJoin("join", left, right, spec, parallelism);
  query.AddSink("sink", out, [](const Tuple&) {});
  return query.ToDot();
}

constexpr const char* kDotHeader =
    "digraph query {\n  rankdir=LR;\n  node [shape=box];\n";

TEST(QueryPlanShape, ParallelFlatMap) {
  EXPECT_EQ(FlatMapPlan(3), std::string(kDotHeader) + R"(  op0 [label="src"];
  op1 [label="fm.router"];
  op2 [label="fm.union"];
  op3 [label="fm[0]"];
  op4 [label="fm[1]"];
  op5 [label="fm[2]"];
  op6 [label="sink"];
  op0 -> op1 [label="src.out"];
  op3 -> op2 [label="fm.shard0.out"];
  op4 -> op2 [label="fm.shard1.out"];
  op5 -> op2 [label="fm.shard2.out"];
  op1 -> op3 [label="fm.shard0"];
  op1 -> op4 [label="fm.shard1"];
  op1 -> op5 [label="fm.shard2"];
  op2 -> op6 [label="fm.out"];
}
)");
}

TEST(QueryPlanShape, ShardedAggregate) {
  EXPECT_EQ(AggregatePlan(2), std::string(kDotHeader) + R"(  op0 [label="src"];
  op1 [label="agg.router"];
  op2 [label="agg.union"];
  op3 [label="agg[0]"];
  op4 [label="agg[1]"];
  op5 [label="sink"];
  op0 -> op1 [label="src.out"];
  op3 -> op2 [label="agg.shard0.out"];
  op4 -> op2 [label="agg.shard1.out"];
  op1 -> op3 [label="agg.shard0"];
  op1 -> op4 [label="agg.shard1"];
  op2 -> op5 [label="agg.out"];
}
)");
}

TEST(QueryPlanShape, ShardedJoin) {
  EXPECT_EQ(JoinPlan(2), std::string(kDotHeader) + R"(  op0 [label="left"];
  op1 [label="right"];
  op2 [label="join.router.left"];
  op3 [label="join.router.right"];
  op4 [label="join.union"];
  op5 [label="join[0]"];
  op6 [label="join[1]"];
  op7 [label="sink"];
  op0 -> op2 [label="left.out"];
  op1 -> op3 [label="right.out"];
  op5 -> op4 [label="join.shard0.out"];
  op6 -> op4 [label="join.shard1.out"];
  op2 -> op5 [label="join.left0"];
  op3 -> op5 [label="join.right0"];
  op2 -> op6 [label="join.left1"];
  op3 -> op6 [label="join.right1"];
  op4 -> op7 [label="join.out"];
}
)");
}

TEST(QueryPlanShape, DegreeOneIsASingleDirectlyWiredInstance) {
  EXPECT_EQ(FlatMapPlan(1), std::string(kDotHeader) + R"(  op0 [label="src"];
  op1 [label="fm"];
  op2 [label="sink"];
  op0 -> op1 [label="src.out"];
  op1 -> op2 [label="fm.out"];
}
)");
  EXPECT_EQ(AggregatePlan(1), std::string(kDotHeader) + R"(  op0 [label="src"];
  op1 [label="agg"];
  op2 [label="sink"];
  op0 -> op1 [label="src.out"];
  op1 -> op2 [label="agg.out"];
}
)");
  EXPECT_EQ(JoinPlan(1), std::string(kDotHeader) + R"(  op0 [label="left"];
  op1 [label="right"];
  op2 [label="join"];
  op3 [label="sink"];
  op0 -> op2 [label="left.out"];
  op1 -> op2 [label="right.out"];
  op2 -> op3 [label="join.out"];
}
)");
}

TEST(QueryStats, OperatorCountsAllInstances) {
  Query query;
  auto src = query.AddSource("src", VectorSource({}));
  auto mapped = query.AddFlatMap(
      "m", src, [](const Tuple& t) { return std::vector<Tuple>{t}; }, 3,
      [](const Tuple& t) { return std::to_string(t.layer); });
  query.AddSink("sink", mapped, [](const Tuple&) {});
  // source + router + 3 workers + union + sink = 7
  EXPECT_EQ(query.operator_count(), 7u);
}

}  // namespace
}  // namespace strata::spe
