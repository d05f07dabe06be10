#include "spe/stream.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/rng.hpp"
#include "spe_test_util.hpp"

namespace strata::spe {
namespace {

using testutil::PopOne;
using testutil::PushOne;

Tuple TupleAt(Timestamp t) {
  Tuple tuple;
  tuple.event_time = t;
  return tuple;
}

TEST(Stream, PushPopCountsFlow) {
  Stream stream("s", 8);
  ASSERT_TRUE(PushOne(stream, TupleAt(1)).ok());
  ASSERT_TRUE(PushOne(stream, TupleAt(2)).ok());
  EXPECT_EQ(stream.pushed(), 2u);
  EXPECT_EQ(stream.popped(), 0u);
  EXPECT_EQ(stream.depth(), 2u);

  auto t = PopOne(stream);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->event_time, 1);
  EXPECT_EQ(stream.popped(), 1u);
  EXPECT_EQ(stream.depth(), 1u);
}

TEST(Stream, CapacityReported) {
  Stream stream("s", 16);
  EXPECT_EQ(stream.capacity(), 16u);
  EXPECT_EQ(stream.name(), "s");
}

TEST(Stream, DrainedSemantics) {
  Stream stream("s", 4);
  ASSERT_TRUE(PushOne(stream, TupleAt(1)).ok());
  EXPECT_FALSE(stream.closed());
  EXPECT_FALSE(stream.drained());
  stream.Close();
  EXPECT_TRUE(stream.closed());
  EXPECT_FALSE(stream.drained());  // still holds a tuple
  EXPECT_TRUE(PopOne(stream).has_value());
  EXPECT_TRUE(stream.drained());
  EXPECT_FALSE(PopOne(stream).has_value());
}

TEST(Stream, PushAfterCloseFails) {
  Stream stream("s", 4);
  stream.Close();
  EXPECT_TRUE(PushOne(stream, TupleAt(1)).IsClosed());
  EXPECT_EQ(stream.pushed(), 0u);  // failed pushes do not count
}

TEST(Stream, PopForTimesOutOnEmpty) {
  Stream stream("s", 4);
  EXPECT_FALSE(
      stream.PopBatchFor(std::chrono::microseconds(5'000)).has_value());
}

TEST(Stream, TupleApproxBytesIncludesPayload) {
  Tuple t;
  EXPECT_GE(t.ApproxBytes(), sizeof(Tuple));
  t.payload.Set("key", std::string(1000, 'x'));
  EXPECT_GT(t.ApproxBytes(), 1000u);
}

TEST(Stream, TupleToStringMentionsMetadata) {
  Tuple t;
  t.event_time = 5;
  t.job = 2;
  t.layer = 3;
  t.specimen = 4;
  const std::string s = t.ToString();
  EXPECT_NE(s.find("t=5"), std::string::npos);
  EXPECT_NE(s.find("job=2"), std::string::npos);
  EXPECT_NE(s.find("layer=3"), std::string::npos);
  EXPECT_NE(s.find("spec=4"), std::string::npos);
}

TEST(Stream, CombineStimulusTakesMax) {
  EXPECT_EQ(CombineStimulus(5, 9), 9);
  EXPECT_EQ(CombineStimulus(9, 5), 9);
  EXPECT_EQ(CombineStimulus(0, 0), 0);
}

TEST(Stream, BatchApiCountsFlowPerTuple) {
  Stream stream("s", 8);
  TupleBatch batch;
  for (Timestamp t = 1; t <= 5; ++t) batch.push_back(TupleAt(t));
  std::size_t delivered = 0;
  ASSERT_TRUE(stream.PushBatch(&batch, &delivered).ok());
  EXPECT_EQ(delivered, 5u);
  EXPECT_EQ(stream.pushed(), 5u);
  EXPECT_EQ(stream.depth(), 5u);

  auto out = stream.PopBatch();
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->size(), 5u);
  for (Timestamp t = 1; t <= 5; ++t) {
    EXPECT_EQ((*out)[static_cast<std::size_t>(t - 1)].event_time, t);
  }
  EXPECT_EQ(stream.popped(), 5u);

  // The consumer-side drain size feeds the batch-size histogram.
  const Histogram sizes = stream.BatchSizeSnapshot();
  EXPECT_EQ(sizes.count(), 1u);
  EXPECT_EQ(sizes.max(), 5);
}

TEST(Stream, PopBatchRespectsMaxTuples) {
  Stream stream("s", 8);
  TupleBatch batch;
  for (Timestamp t = 1; t <= 6; ++t) batch.push_back(TupleAt(t));
  ASSERT_TRUE(stream.PushBatch(&batch).ok());
  auto out = stream.PopBatch(/*max_tuples=*/4);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), 4u);
  EXPECT_EQ(stream.depth(), 2u);
}

TEST(Stream, PushBatchIntoClosedCountsDiscarded) {
  Stream stream("s", 4);
  stream.Close();
  TupleBatch batch;
  for (Timestamp t = 1; t <= 3; ++t) batch.push_back(TupleAt(t));
  std::size_t delivered = 99;
  EXPECT_TRUE(stream.PushBatch(&batch, &delivered).IsClosed());
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(stream.pushed(), 0u);
  EXPECT_EQ(stream.discarded(), 3u);
  EXPECT_TRUE(PushOne(stream, TupleAt(9)).IsClosed());
  EXPECT_EQ(stream.discarded(), 4u);
}

// A seeded 1P1C workload mixing one-tuple and multi-tuple batches on both
// ends: order, counters, and close-then-drain behavior must hold exactly.
TEST(Stream, SeededStressPreservesOrderAndCounters) {
  constexpr int kTotal = 20'000;
  Stream stream("s", 16);

  std::thread producer([&] {
    Rng rng(42);
    int next = 0;
    while (next < kTotal) {
      if (rng.UniformInt(0, 1) == 0) {
        ASSERT_TRUE(PushOne(stream, TupleAt(next++)).ok());
      } else {
        const int n = static_cast<int>(rng.UniformInt(1, 40));
        TupleBatch batch;
        for (int i = 0; i < n && next < kTotal; ++i) {
          batch.push_back(TupleAt(next++));
        }
        ASSERT_TRUE(stream.PushBatch(&batch).ok());
      }
    }
    stream.Close();
  });

  Rng rng(7);
  Timestamp expected = 0;
  while (true) {
    if (rng.UniformInt(0, 1) == 0) {
      auto t = PopOne(stream);
      if (!t.has_value()) break;
      ASSERT_EQ(t->event_time, expected++);
    } else {
      auto batch = stream.PopBatch(static_cast<std::size_t>(
          rng.UniformInt(1, 64)));
      if (!batch.has_value()) break;
      for (const Tuple& t : *batch) ASSERT_EQ(t.event_time, expected++);
    }
  }
  producer.join();
  EXPECT_EQ(expected, kTotal);
  EXPECT_EQ(stream.pushed(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stream.popped(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stream.discarded(), 0u);
  EXPECT_TRUE(stream.drained());
}

// Same seeded workload with checkpoint barriers interleaved: the stream must
// deliver barriers in exactly the position the producer wove them into it
// (a reordered or dropped barrier would corrupt the epoch cut).
TEST(Stream, SeededBarrierStreamPreservesPositions) {
  constexpr int kTotal = 20'000;
  Stream stream("s", 16);

  std::thread producer([&] {
    Rng rng(42);
    int next = 0;
    std::uint64_t epoch = 0;
    while (next < kTotal) {
      const std::uint64_t roll = rng.UniformInt(0, 9);
      if (roll == 0) {
        // Inject a barrier; data tuples record which epoch they follow.
        ASSERT_TRUE(PushOne(stream, Tuple::Barrier(++epoch)).ok());
      } else if (roll <= 5) {
        Tuple t = TupleAt(next++);
        t.job = static_cast<std::int64_t>(epoch);
        ASSERT_TRUE(PushOne(stream, std::move(t)).ok());
      } else {
        const int n = static_cast<int>(rng.UniformInt(1, 40));
        TupleBatch batch;
        for (int i = 0; i < n && next < kTotal; ++i) {
          Tuple t = TupleAt(next++);
          t.job = static_cast<std::int64_t>(epoch);
          batch.push_back(std::move(t));
        }
        ASSERT_TRUE(stream.PushBatch(&batch).ok());
      }
    }
    stream.Close();
  });

  Rng rng(7);
  Timestamp expected = 0;
  std::uint64_t current_epoch = 0;
  std::uint64_t barriers_seen = 0;
  auto consume = [&](const Tuple& t) {
    if (t.IsBarrier()) {
      // Epochs arrive strictly ascending, never skipped, never duplicated.
      ASSERT_EQ(t.barrier_epoch, current_epoch + 1);
      current_epoch = t.barrier_epoch;
      ++barriers_seen;
      return;
    }
    ASSERT_EQ(t.event_time, expected++);
    // Position is preserved: a data tuple still belongs to the epoch the
    // producer emitted it under.
    ASSERT_EQ(static_cast<std::uint64_t>(t.job), current_epoch);
  };
  while (true) {
    if (rng.UniformInt(0, 1) == 0) {
      auto t = PopOne(stream);
      if (!t.has_value()) break;
      consume(*t);
    } else {
      auto batch =
          stream.PopBatch(static_cast<std::size_t>(rng.UniformInt(1, 64)));
      if (!batch.has_value()) break;
      for (const Tuple& t : *batch) consume(t);
    }
  }
  producer.join();
  EXPECT_EQ(expected, kTotal);
  EXPECT_GT(barriers_seen, 0u);
  EXPECT_EQ(barriers_seen, current_epoch);
  EXPECT_EQ(stream.pushed(),
            static_cast<std::uint64_t>(kTotal) + barriers_seen);
  EXPECT_EQ(stream.popped(), stream.pushed());
  EXPECT_EQ(stream.discarded(), 0u);
  EXPECT_TRUE(stream.drained());
}

TEST(Stream, ConcurrentProducerConsumer) {
  Stream stream("s", 16);
  constexpr int kCount = 10'000;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      ASSERT_TRUE(PushOne(stream, TupleAt(i)).ok());
    }
    stream.Close();
  });
  Timestamp expected = 0;
  while (auto t = PopOne(stream)) {
    EXPECT_EQ(t->event_time, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
  EXPECT_EQ(stream.pushed(), static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(stream.popped(), static_cast<std::uint64_t>(kCount));
}

}  // namespace
}  // namespace strata::spe
