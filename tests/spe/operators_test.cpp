#include <gtest/gtest.h>

#include <atomic>

#include "spe/replay_source.hpp"
#include "spe_test_util.hpp"

namespace strata::spe {
namespace {

using testutil::Collector;
using testutil::MakeTuple;
using testutil::MakeValueTuple;

TEST(SourceSink, TuplesFlowEndToEnd) {
  Query query;
  std::vector<Tuple> input;
  for (int i = 0; i < 10; ++i) input.push_back(MakeTuple(i * 100, 1, i));
  auto src = query.AddSource("src", VectorSource(input));
  Collector collector;
  query.AddSink("sink", src, collector.AsSink());
  query.Run();

  const auto out = collector.tuples();
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].event_time, i * 100);
    EXPECT_EQ(out[static_cast<std::size_t>(i)].layer, i);
  }
}

TEST(SourceSink, SourceAssignsStimulus) {
  Query query;
  auto src = query.AddSource("src", VectorSource({MakeTuple(1)}));
  Collector collector;
  query.AddSink("sink", src, collector.AsSink());
  query.Run();
  ASSERT_EQ(collector.size(), 1u);
  EXPECT_GT(collector.tuples()[0].stimulus, 0);
}

TEST(SourceSink, SinkRecordsLatency) {
  Query query;
  auto src = query.AddSource("src", VectorSource({MakeTuple(1), MakeTuple(2)}));
  Collector collector;
  auto* sink = query.AddSink("sink", src, collector.AsSink());
  query.Run();
  const Histogram latency = sink->LatencySnapshot();
  EXPECT_EQ(latency.count(), 2u);
  EXPECT_GE(latency.min(), 0);
}

TEST(FlatMap, OneToMany) {
  Query query;
  auto src = query.AddSource("src", VectorSource({MakeTuple(10), MakeTuple(20)}));
  auto mapped = query.AddFlatMap("triple", src, [](const Tuple& t) {
    std::vector<Tuple> out;
    for (int i = 0; i < 3; ++i) {
      Tuple copy = t;
      copy.payload.Set("i", i);
      out.push_back(copy);
    }
    return out;
  });
  Collector collector;
  query.AddSink("sink", mapped, collector.AsSink());
  query.Run();
  EXPECT_EQ(collector.size(), 6u);
}

TEST(FlatMap, OneToZeroDropsTuple) {
  Query query;
  auto src = query.AddSource("src", VectorSource({MakeTuple(1), MakeTuple(2)}));
  auto mapped = query.AddFlatMap("drop-odd", src, [](const Tuple& t) {
    return t.event_time % 2 == 0 ? std::vector<Tuple>{t} : std::vector<Tuple>{};
  });
  Collector collector;
  query.AddSink("sink", mapped, collector.AsSink());
  query.Run();
  ASSERT_EQ(collector.size(), 1u);
  EXPECT_EQ(collector.tuples()[0].event_time, 2);
}

TEST(FlatMap, PropagatesStimulusToDerivedTuples) {
  Query query;
  auto src = query.AddSource("src", VectorSource({MakeTuple(1)}));
  auto mapped = query.AddFlatMap("derive", src, [](const Tuple&) {
    Tuple fresh;  // no stimulus set by the user function
    fresh.event_time = 99;
    return std::vector<Tuple>{fresh};
  });
  Collector collector;
  query.AddSink("sink", mapped, collector.AsSink());
  query.Run();
  ASSERT_EQ(collector.size(), 1u);
  EXPECT_GT(collector.tuples()[0].stimulus, 0) << "stimulus must be inherited";
}

TEST(Filter, KeepsMatching) {
  Query query;
  std::vector<Tuple> input;
  for (int i = 0; i < 100; ++i) input.push_back(MakeValueTuple(i, i));
  auto src = query.AddSource("src", VectorSource(input));
  auto filtered = query.AddFilter("keep-big", src, [](const Tuple& t) {
    return t.payload.Get("value").AsDouble() >= 90;
  });
  Collector collector;
  query.AddSink("sink", filtered, collector.AsSink());
  query.Run();
  EXPECT_EQ(collector.size(), 10u);
}

TEST(ParallelFlatMap, AllTuplesProcessedOnce) {
  Query query;
  std::vector<Tuple> input;
  for (int i = 0; i < 1000; ++i) {
    Tuple t = MakeTuple(i, /*job=*/0, /*layer=*/i % 7);
    t.payload.Set("id", i);
    input.push_back(t);
  }
  auto src = query.AddSource("src", VectorSource(input));
  auto mapped = query.AddFlatMap(
      "parallel", src,
      [](const Tuple& t) { return std::vector<Tuple>{t}; },
      /*parallelism=*/4,
      [](const Tuple& t) { return std::to_string(t.layer); });
  Collector collector;
  query.AddSink("sink", mapped, collector.AsSink());
  query.Run();

  const auto out = collector.tuples();
  ASSERT_EQ(out.size(), 1000u);
  std::set<std::int64_t> ids;
  for (const Tuple& t : out) ids.insert(t.payload.Get("id").AsInt());
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(ParallelFlatMap, PerKeyOrderPreserved) {
  Query query;
  std::vector<Tuple> input;
  for (int i = 0; i < 500; ++i) {
    Tuple t = MakeTuple(i, 0, i % 3);
    t.payload.Set("seq", i);
    input.push_back(t);
  }
  auto src = query.AddSource("src", VectorSource(input));
  auto mapped = query.AddFlatMap(
      "parallel", src, [](const Tuple& t) { return std::vector<Tuple>{t}; },
      3, [](const Tuple& t) { return std::to_string(t.layer); });
  Collector collector;
  query.AddSink("sink", mapped, collector.AsSink());
  query.Run();

  std::map<std::int64_t, std::int64_t> last_seq;
  for (const Tuple& t : collector.tuples()) {
    const std::int64_t seq = t.payload.Get("seq").AsInt();
    if (last_seq.contains(t.layer)) {
      EXPECT_GT(seq, last_seq[t.layer]) << "layer " << t.layer;
    }
    last_seq[t.layer] = seq;
  }
}

TEST(ParallelFlatMap, RequiresShardKey) {
  Query query;
  auto src = query.AddSource("src", VectorSource({}));
  EXPECT_THROW(
      (void)query.AddFlatMap(
          "p", src, [](const Tuple& t) { return std::vector<Tuple>{t}; }, 2),
      std::invalid_argument);
}

TEST(Split, FansOutToTwoConsumers) {
  Query query;
  auto src = query.AddSource(
      "src", VectorSource({MakeTuple(1), MakeTuple(2), MakeTuple(3)}));
  auto branches = query.AddSplit("split", src, 2);
  ASSERT_EQ(branches.size(), 2u);
  Collector a;
  Collector b;
  query.AddSink("sink-a", branches[0], a.AsSink());
  query.AddSink("sink-b", branches[1], b.AsSink());
  query.Run();
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(b.size(), 3u);
}

TEST(Union, MergesAllInputs) {
  Query query;
  auto s1 = query.AddSource("s1", VectorSource({MakeTuple(1), MakeTuple(3)}));
  auto s2 = query.AddSource("s2", VectorSource({MakeTuple(2), MakeTuple(4)}));
  auto merged = query.AddUnion("union", {s1, s2});
  Collector collector;
  query.AddSink("sink", merged, collector.AsSink());
  query.Run();
  EXPECT_EQ(collector.size(), 4u);
}

TEST(RateControlledSource, PacesEmission) {
  const Clock& clock = Clock::System();
  Query query;
  std::vector<Tuple> input;
  for (int i = 0; i < 20; ++i) input.push_back(MakeTuple(i));
  // 200 tuples/s -> 20 tuples take ~100 ms (first releases immediately).
  auto src = query.AddSource(
      "src", RateControlledSource(VectorSource(input), 200.0, &clock));
  Collector collector;
  query.AddSink("sink", src, collector.AsSink());
  const Timestamp t0 = clock.Now();
  query.Run();
  const double elapsed_ms = MicrosToMillis(clock.Now() - t0);
  EXPECT_EQ(collector.size(), 20u);
  EXPECT_GE(elapsed_ms, 80.0);
  EXPECT_LE(elapsed_ms, 500.0);
}

TEST(RateControlledSource, MaxTuplesTruncates) {
  const Clock& clock = Clock::System();
  Query query;
  std::vector<Tuple> input;
  for (int i = 0; i < 100; ++i) input.push_back(MakeTuple(i));
  auto src = query.AddSource(
      "src", RateControlledSource(VectorSource(input), 1e6, &clock, 7));
  Collector collector;
  query.AddSink("sink", src, collector.AsSink());
  query.Run();
  EXPECT_EQ(collector.size(), 7u);
}

TEST(OperatorStats, CountsInAndOut) {
  Query query;
  auto src = query.AddSource(
      "src", VectorSource({MakeTuple(1), MakeTuple(2), MakeTuple(3)}));
  auto filtered =
      query.AddFilter("f", src, [](const Tuple& t) { return t.event_time > 1; });
  Collector collector;
  query.AddSink("sink", filtered, collector.AsSink());
  query.Run();

  for (const OperatorStats& stats : query.Stats()) {
    if (stats.name == "f") {
      EXPECT_EQ(stats.tuples_in, 3u);
      EXPECT_EQ(stats.tuples_out, 2u);
    }
    if (stats.name == "src") {
      EXPECT_EQ(stats.tuples_out, 3u);
    }
  }
}

}  // namespace
}  // namespace strata::spe
