#include <gtest/gtest.h>

#include "spe/replay_source.hpp"
#include "spe_test_util.hpp"

namespace strata::spe {
namespace {

using testutil::Collector;
using testutil::MakeTuple;

Tuple KeyedTuple(Timestamp t, std::int64_t job, std::int64_t layer,
                 const std::string& payload_key, double value) {
  Tuple tuple = MakeTuple(t, job, layer);
  tuple.payload.Set(payload_key, value);
  return tuple;
}

KeyFn JobLayerKey() {
  return [](const Tuple& t) {
    return std::to_string(t.job) + "|" + std::to_string(t.layer);
  };
}

TEST(Join, EqualTimestampEquiJoin) {
  // window = 0: only τ-equal pairs match (the fuse() default).
  Query query;
  auto left = query.AddSource(
      "L", VectorSource({KeyedTuple(10, 1, 1, "a", 1.0),
                         KeyedTuple(20, 1, 2, "a", 2.0)}));
  auto right = query.AddSource(
      "R", VectorSource({KeyedTuple(10, 1, 1, "b", 10.0),
                         KeyedTuple(30, 1, 3, "b", 30.0)}));
  JoinSpec spec;
  spec.window = 0;
  spec.key_left = JobLayerKey();
  spec.key_right = JobLayerKey();
  auto joined = query.AddJoin("join", left, right, spec);
  Collector collector;
  query.AddSink("sink", joined, collector.AsSink());
  query.Run();

  const auto out = collector.tuples();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].event_time, 10);
  EXPECT_DOUBLE_EQ(out[0].payload.Get("a").AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(out[0].payload.Get("b").AsDouble(), 10.0);
}

TEST(Join, TimeWindowBound) {
  Query query;
  auto left = query.AddSource("L", VectorSource({KeyedTuple(100, 0, 0, "a", 1)}));
  auto right = query.AddSource(
      "R", VectorSource({KeyedTuple(95, 0, 0, "b", 1),     // |dt|=5 <= 10
                         KeyedTuple(109, 0, 0, "c", 1),    // |dt|=9 <= 10
                         KeyedTuple(111, 0, 0, "d", 1)})); // |dt|=11 > 10
  JoinSpec spec;
  spec.window = 10;
  auto joined = query.AddJoin("join", left, right, spec);
  Collector collector;
  query.AddSink("sink", joined, collector.AsSink());
  query.Run();
  EXPECT_EQ(collector.size(), 2u);
}

TEST(Join, PredicateFilters) {
  Query query;
  auto left = query.AddSource(
      "L", VectorSource({KeyedTuple(1, 0, 0, "lv", 5.0),
                         KeyedTuple(2, 0, 0, "lv", 50.0)}));
  auto right = query.AddSource(
      "R", VectorSource({KeyedTuple(1, 0, 0, "rv", 10.0),
                         KeyedTuple(2, 0, 0, "rv", 10.0)}));
  JoinSpec spec;
  spec.window = 0;
  spec.predicate = [](const Tuple& l, const Tuple& r) {
    return l.payload.Get("lv").AsDouble() < r.payload.Get("rv").AsDouble();
  };
  auto joined = query.AddJoin("join", left, right, spec);
  Collector collector;
  query.AddSink("sink", joined, collector.AsSink());
  query.Run();
  ASSERT_EQ(collector.size(), 1u);
  EXPECT_DOUBLE_EQ(collector.tuples()[0].payload.Get("lv").AsDouble(), 5.0);
}

TEST(Join, GroupByPreventsCrossKeyMatches) {
  Query query;
  auto left = query.AddSource(
      "L", VectorSource({KeyedTuple(10, 1, 1, "a", 1),
                         KeyedTuple(10, 2, 1, "a", 2)}));
  auto right = query.AddSource(
      "R", VectorSource({KeyedTuple(10, 1, 1, "b", 3),
                         KeyedTuple(10, 2, 1, "b", 4)}));
  JoinSpec spec;
  spec.window = 0;
  spec.key_left = JobLayerKey();
  spec.key_right = JobLayerKey();
  auto joined = query.AddJoin("join", left, right, spec);
  Collector collector;
  query.AddSink("sink", joined, collector.AsSink());
  query.Run();

  const auto out = collector.tuples();
  ASSERT_EQ(out.size(), 2u);  // only same-job pairs, not 4 cross products
  for (const Tuple& t : out) {
    const double a = t.payload.Get("a").AsDouble();
    const double b = t.payload.Get("b").AsDouble();
    EXPECT_EQ(b - a, 2.0);  // (1,3) and (2,4)
  }
}

TEST(Join, DefaultCombineMergesPayloadsDisjointly) {
  Query query;
  auto left = query.AddSource("L", VectorSource({KeyedTuple(1, 0, 0, "x", 1)}));
  auto right = query.AddSource("R", VectorSource({KeyedTuple(1, 0, 0, "y", 2)}));
  JoinSpec spec;
  spec.window = 0;
  auto joined = query.AddJoin("join", left, right, spec);
  Collector collector;
  query.AddSink("sink", joined, collector.AsSink());
  query.Run();
  ASSERT_EQ(collector.size(), 1u);
  EXPECT_TRUE(collector.tuples()[0].payload.Has("x"));
  EXPECT_TRUE(collector.tuples()[0].payload.Has("y"));
}

TEST(Join, PayloadKeyCollisionDropsPair) {
  // The paper's fuse() assumes unique keys across fused tuples; violations
  // are dropped (and counted) rather than silently overwriting.
  Query query;
  auto left = query.AddSource("L", VectorSource({KeyedTuple(1, 0, 0, "x", 1)}));
  auto right = query.AddSource("R", VectorSource({KeyedTuple(1, 0, 0, "x", 2)}));
  JoinSpec spec;
  spec.window = 0;
  auto joined = query.AddJoin("join", left, right, spec);
  Collector collector;
  query.AddSink("sink", joined, collector.AsSink());
  query.Run();
  EXPECT_EQ(collector.size(), 0u);
  for (const auto& stats : query.Stats()) {
    if (stats.name == "join") {
      EXPECT_EQ(stats.late_drops, 1u);
    }
  }
}

TEST(Join, CustomCombine) {
  Query query;
  auto left = query.AddSource("L", VectorSource({KeyedTuple(1, 0, 0, "v", 3)}));
  auto right = query.AddSource("R", VectorSource({KeyedTuple(1, 0, 0, "v", 4)}));
  JoinSpec spec;
  spec.window = 0;
  spec.combine = [](const Tuple& l, const Tuple& r) {
    Payload p;
    p.Set("product", l.payload.Get("v").AsDouble() *
                         r.payload.Get("v").AsDouble());
    return p;
  };
  auto joined = query.AddJoin("join", left, right, spec);
  Collector collector;
  query.AddSink("sink", joined, collector.AsSink());
  query.Run();
  ASSERT_EQ(collector.size(), 1u);
  EXPECT_DOUBLE_EQ(collector.tuples()[0].payload.Get("product").AsDouble(), 12.0);
}

TEST(Join, JoinedStimulusIsMax) {
  Query query;
  Tuple l = KeyedTuple(1, 0, 0, "a", 1);
  l.stimulus = 111;
  Tuple r = KeyedTuple(1, 0, 0, "b", 2);
  r.stimulus = 999;
  auto left = query.AddSource("L", VectorSource({l}));
  auto right = query.AddSource("R", VectorSource({r}));
  JoinSpec spec;
  spec.window = 0;
  auto joined = query.AddJoin("join", left, right, spec);
  Collector collector;
  query.AddSink("sink", joined, collector.AsSink());
  query.Run();
  ASSERT_EQ(collector.size(), 1u);
  EXPECT_EQ(collector.tuples()[0].stimulus, 999);
}

TEST(Join, ManyToManyWithinWindow) {
  Query query;
  std::vector<Tuple> lefts;
  std::vector<Tuple> rights;
  for (int i = 0; i < 3; ++i) lefts.push_back(KeyedTuple(10 + i, 0, 0, "l", i));
  for (int i = 0; i < 3; ++i) rights.push_back(KeyedTuple(10 + i, 0, 0, "r", i));
  auto left = query.AddSource("L", VectorSource(lefts));
  auto right = query.AddSource("R", VectorSource(rights));
  JoinSpec spec;
  spec.window = 100;  // everything matches everything
  auto joined = query.AddJoin("join", left, right, spec);
  Collector collector;
  query.AddSink("sink", joined, collector.AsSink());
  query.Run();
  EXPECT_EQ(collector.size(), 9u);
}

TEST(Join, EvictionBoundsBufferGrowth) {
  // Long streams with a small window: matched pairs only near in time, and
  // the join must not retain the whole history (indirectly verified by
  // completing quickly and producing the exact expected pair count).
  Query query;
  constexpr int kCount = 20'000;
  std::vector<Tuple> lefts;
  std::vector<Tuple> rights;
  for (int i = 0; i < kCount; ++i) {
    lefts.push_back(KeyedTuple(i * 10, 0, 0, "l", i));
    rights.push_back(KeyedTuple(i * 10, 0, 0, "r", i));
  }
  auto left = query.AddSource("L", VectorSource(lefts));
  auto right = query.AddSource("R", VectorSource(rights));
  JoinSpec spec;
  spec.window = 0;
  auto joined = query.AddJoin("join", left, right, spec);
  std::atomic<int> count{0};
  query.AddSink("sink", joined, [&](const Tuple&) { ++count; });
  query.Run();
  EXPECT_EQ(count.load(), kCount);
}

TEST(Join, NegativeWindowRejected) {
  Query query;
  auto left = query.AddSource("L", VectorSource({}));
  auto right = query.AddSource("R", VectorSource({}));
  JoinSpec spec;
  spec.window = -1;
  EXPECT_THROW((void)query.AddJoin("join", left, right, spec),
               std::invalid_argument);
}

}  // namespace
}  // namespace strata::spe
