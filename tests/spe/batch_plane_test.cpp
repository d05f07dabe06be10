// Batched data-plane semantics: flush-on-close delivery, per-call source
// flushes, back-pressure accounting through the batch APIs, and the
// all-outputs-closed early exit with discarded-tuple accounting, and the
// consume-loop contract every non-source operator kind shares.
#include <gtest/gtest.h>

#include <any>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "spe/checkpoint.hpp"
#include "spe/plan_rewrite.hpp"
#include "spe/query.hpp"
#include "spe/replay_source.hpp"
#include "spe_test_util.hpp"

namespace strata::spe {
namespace {

using namespace std::chrono_literals;
using testutil::PopOne;
using testutil::PushOne;

Tuple MakeTuple(Timestamp t) {
  Tuple tuple;
  tuple.event_time = t;
  return tuple;
}

template <typename Pred>
bool WaitUntil(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// An aggregate whose windows all close only at end of input, with
// batch_size larger than its whole output and an effectively-infinite
// linger: nothing can flush on size, time or idleness, so every result the
// sink sees was delivered by the close-then-drain flush.
TEST(BatchPlane, FlushOnCloseDeliversBufferedTuples) {
  QueryOptions options;
  options.batch_size = 1000;
  options.batch_linger_us = 10'000'000;
  Query query(options);

  std::vector<Tuple> input;
  for (Timestamp t = 0; t < 100; ++t) input.push_back(MakeTuple(t));
  auto src = query.AddSource("src", VectorSource(input));
  // One group per tuple: 100 results, all emitted at end of input.
  auto counts = query.AddAggregate(
      "count", src,
      testutil::CountAggregate(1'000'000, 1'000'000, [](const Tuple& t) {
        return std::to_string(t.event_time);
      }));
  std::vector<std::int64_t> seen;
  query.AddSink("sink", counts, [&](const Tuple& t) {
    seen.push_back(t.payload.Get("count").AsInt());
  });
  query.Run();

  ASSERT_EQ(seen.size(), 100u);
  for (const std::int64_t count : seen) EXPECT_EQ(count, 1);
}

// A per-tuple source that emits a burst and then blocks in its next call
// must not sit on the tail of the burst: each call's tuple is flushed when
// the call returns, whatever the linger. The blocked call gives up after
// 2 s so that a source holding the tail fails instead of hanging.
TEST(BatchPlane, SourceBurstReachesSinkWhileSourceBlocks) {
  Query query;  // default batch_size and linger
  std::atomic<int> seen{0};
  int calls = 0;
  int seen_while_blocked = 0;
  auto src = query.AddSource("src", [&]() -> std::optional<Tuple> {
    if (calls < 3) return MakeTuple(calls++);
    (void)WaitUntil([&] { return seen.load() == 3; }, 2000ms);
    seen_while_blocked = seen.load();
    return std::nullopt;
  });
  query.AddSink("sink", src, [&](const Tuple&) { ++seen; });
  query.Run();

  EXPECT_EQ(seen_while_blocked, 3) << "tuples sat in the emit buffer while "
                                      "the source blocked";
  EXPECT_EQ(seen.load(), 3);
}

TEST(BatchPlane, BatchSourceFlushesEachUpstreamBatch) {
  QueryOptions options;
  options.batch_size = 1000;
  options.batch_linger_us = 10'000'000;
  Query query(options);

  std::vector<Tuple> input;
  for (Timestamp t = 0; t < 100; ++t) input.push_back(MakeTuple(t));
  auto src = query.AddBatchSource("src", VectorBatchSource(input, 7));
  std::vector<Timestamp> seen;
  query.AddSink("sink", src, [&](const Tuple& t) {
    seen.push_back(t.event_time);
  });
  query.Run();

  ASSERT_EQ(seen.size(), 100u);
  for (Timestamp t = 0; t < 100; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], t);
  }
}

// A source steadily faster than the linger never reaches batch_size=1000,
// yet the sink must receive tuples while the query is live: no tuple may
// sit in an emit buffer until a size or close flush.
TEST(BatchPlane, LingerFlushDeliversWhileRunning) {
  QueryOptions options;
  options.batch_size = 1000;
  options.batch_linger_us = 2'000;
  Query query(options);

  std::atomic<bool> done{false};
  std::atomic<int> produced{0};
  auto src = query.AddSource("src", [&]() -> std::optional<Tuple> {
    if (done.load()) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return MakeTuple(produced++);
  });
  std::atomic<int> consumed{0};
  query.AddSink("sink", src, [&](const Tuple&) { ++consumed; });
  query.Start();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (consumed.load() < 50 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(consumed.load(), 50);  // flushed while live, not by size/close
  done = true;
  query.Join();
  EXPECT_EQ(consumed.load(), produced.load());
}

// MaybeFlush's linger branch: a FlatMap whose input never goes idle (the
// source hands over bursts faster than the map drains them) must still
// flush once its oldest buffered tuple has waited linger_us. The whole run
// is smaller than the size-flush threshold, and the input stays busy while
// the source is live, so only a linger flush can reach the sink that early.
// A lone FlatMap is not a fusable chain: the operator's own loop runs.
TEST(BatchPlane, LingerFlushDeliversWhileInputBusy) {
  constexpr int kBursts = 40;
  constexpr int kBurst = 50;
  QueryOptions options;
  options.batch_size = 8192;
  options.queue_capacity = 1 << 14;  // size flushes at 8192 > 40 * 50
  options.batch_linger_us = 1'000;
  Query query(options);

  std::atomic<bool> source_live{true};
  auto bursts = std::make_shared<int>(0);
  auto src = query.AddBatchSource(
      "src", [&source_live, bursts]() -> std::optional<TupleBatch> {
        if (*bursts == kBursts) {
          source_live = false;
          return std::nullopt;
        }
        std::this_thread::sleep_for(1ms);
        TupleBatch batch;
        for (int i = 0; i < kBurst; ++i) {
          batch.push_back(MakeTuple(*bursts * kBurst + i));
        }
        ++*bursts;
        return batch;
      });
  // Slower per tuple than the source, so its input is never drained.
  auto mapped = query.AddFlatMap("slow", src, [](const Tuple& t) {
    std::this_thread::sleep_for(100us);
    return std::vector<Tuple>{t};
  });
  std::atomic<int> while_live{0};
  std::atomic<int> consumed{0};
  query.AddSink("sink", mapped, [&](const Tuple&) {
    if (source_live) ++while_live;
    ++consumed;
  });
  query.Run();
  EXPECT_GT(while_live.load(), 0);  // flushed while busy, not by size/close
  EXPECT_EQ(consumed.load(), kBursts * kBurst);
}

// Back-pressure through PushBatch: a slow sink behind a tiny queue must
// block the source, and the blocked time must surface on the stream.
TEST(BatchPlane, BatchedPushAccumulatesBlockedTime) {
  QueryOptions options;
  options.queue_capacity = 4;
  options.batch_size = 16;
  Query query(options);

  std::atomic<int> produced{0};
  auto src = query.AddSource("src", [&]() -> std::optional<Tuple> {
    if (produced >= 300) return std::nullopt;
    return MakeTuple(produced++);
  });
  query.AddSink("sink", src, [&](const Tuple&) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  });
  query.Run();
  EXPECT_GT(src->blocked_us(), 0u);
  EXPECT_EQ(src->pushed(), 300u);
  EXPECT_EQ(src->popped(), 300u);
}

// Even with batching, a fast source cannot run unboundedly ahead of a slow
// sink: the run-ahead is capped by the queue capacity plus batch-sized
// emit/drain buffers.
TEST(BatchPlane, RunAheadBoundedUnderBatching) {
  QueryOptions options;
  options.queue_capacity = 8;
  options.batch_size = 8;
  Query query(options);

  std::atomic<std::int64_t> produced{0};
  auto src = query.AddSource("src", [&]() -> std::optional<Tuple> {
    if (produced >= 500) return std::nullopt;
    return MakeTuple(produced++);
  });
  std::atomic<std::int64_t> consumed{0};
  query.AddSink("sink", src, [&](const Tuple&) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    ++consumed;
  });
  query.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_LE(produced.load(),
            consumed.load() + 8 /*queue*/ + 2 * 8 /*emit+drain*/ + 4);
  query.Join();
  EXPECT_EQ(consumed.load(), 500);
}

// A source whose only output closed underneath it must notice at the first
// flush, count the lost tuples, and exit instead of producing forever.
TEST(BatchPlane, SourceExitsEarlyWhenOutputClosed) {
  auto out = std::make_shared<Stream>("out", 4);
  out->Close();

  std::atomic<int> produced{0};
  SourceOperator source("src", &Clock::System(),
                        BatchSourceFn([&]() -> std::optional<TupleBatch> {
                          return TupleBatch{MakeTuple(produced++)};  // endless
                        }));
  source.AddOutput(out);
  source.Run();  // must return: Emit reports all outputs closed

  EXPECT_GE(produced.load(), 1);
  EXPECT_LE(produced.load(), 4);  // noticed at the first flush
  EXPECT_GE(source.stats().discarded, 1u);
}

// A mid-pipeline operator whose consumer is gone must close its own inputs
// on the way out, releasing any producer blocked on back-pressure. The
// OperatorLoop cases below check the same for every other operator kind.
TEST(BatchPlane, OperatorEarlyExitReleasesBlockedProducer) {
  auto in = std::make_shared<Stream>("in", 4);
  auto out = std::make_shared<Stream>("out", 4);
  out->Close();  // downstream consumer already gone

  FlatMapOperator op("fm", &Clock::System(),
                     FlatMapFn([](const Tuple& t) {
                       return std::vector<Tuple>{t};
                     }));
  op.AddInput(in);
  op.AddOutput(out);

  std::thread producer([&] {
    for (Timestamp t = 0;; ++t) {
      if (!PushOne(*in, MakeTuple(t)).ok()) break;  // released by CloseInputs
    }
  });

  op.Run();  // must return and close `in`
  producer.join();
  EXPECT_TRUE(in->closed());
  EXPECT_GE(op.stats().discarded, 1u);
}

// ------------------------------------------------ shared operator loops
//
// Every non-source operator kind runs the same consume loop (one driver per
// input shape). The cases below pin its contract per kind: early exit when
// every downstream is gone, and the barrier rules of an aligned snapshot.

/// Tuples ahead of / behind the barrier on each input of the barrier case.
constexpr std::int64_t kAhead = 3;
constexpr std::int64_t kBehind = 2;

/// One operator under test, wired to fresh streams. For the fused chain
/// `op` is the fused worker and `owned` also holds its absorbed stages.
struct Rig {
  std::vector<std::unique_ptr<Operator>> owned;
  Operator* op = nullptr;
  std::vector<StreamPtr> inputs;
  std::vector<StreamPtr> outputs;
  /// Names the checkpointer knows: the operator, or each fused constituent.
  std::vector<std::string> reporters;
  /// Tuples the reporter's step had taken in when it wrote snapshot `blob`.
  std::function<std::int64_t(const std::string& blob)> taken_at_snapshot;
  /// Data tuples the outputs carry ahead of the barrier, and in total, for
  /// kAhead/kBehind tuples around the barrier on every input.
  std::int64_t out_ahead = 0;
  std::int64_t out_total = 0;
};

/// Snapshot hooks that write the value of `counter` as the state blob.
void SnapshotCounter(Operator* op,
                     std::shared_ptr<std::atomic<std::int64_t>> counter) {
  op->SetStateHooks(
      [counter](std::uint64_t, std::string* out) {
        *out = std::to_string(counter->load());
        return Status::Ok();
      },
      nullptr);
}

std::int64_t ParseCount(const std::string& blob) {
  return blob.empty() ? -1 : std::stoll(blob);
}

/// Builds operator `kind` with its streams. `aggregate_window` is the
/// aggregate's tumbling window: 1 makes every tuple close (and emit) the
/// previous window, a huge one keeps every tuple in one open window.
Rig Build(const std::string& kind, std::size_t capacity,
          Timestamp aggregate_window) {
  Rig rig;
  const Clock* clock = &Clock::System();
  auto take = [&](std::unique_ptr<Operator> op) {
    rig.op = op.get();
    rig.owned.push_back(std::move(op));
  };
  auto counter = std::make_shared<std::atomic<std::int64_t>>(0);
  std::size_t inputs = 1;
  std::size_t outputs = 1;
  const std::int64_t ahead_in = kAhead;
  const std::int64_t all_in = kAhead + kBehind;
  rig.out_ahead = ahead_in;
  rig.out_total = all_in;
  rig.taken_at_snapshot = ParseCount;

  if (kind == "flatmap") {
    take(std::make_unique<FlatMapOperator>(
        kind, clock, FlatMapFn([counter](const Tuple& t) {
          ++*counter;
          return std::vector<Tuple>{t};
        })));
    SnapshotCounter(rig.op, counter);
  } else if (kind == "filter") {
    take(std::make_unique<FilterOperator>(kind, clock,
                                          FilterFn([counter](const Tuple&) {
                                            ++*counter;
                                            return true;
                                          })));
    SnapshotCounter(rig.op, counter);
  } else if (kind == "router") {
    outputs = 2;
    take(std::make_unique<RouterOperator>(
        kind, clock, KeyFn([counter](const Tuple& t) {
          ++*counter;
          return std::to_string(t.event_time);
        })));
    SnapshotCounter(rig.op, counter);
  } else if (kind == "union") {
    inputs = 2;
    take(std::make_unique<UnionOperator>(kind, clock));
    Operator* op = rig.op;
    op->SetStateHooks(
        [op](std::uint64_t, std::string* out) {
          *out = std::to_string(op->stats().tuples_out);
          return Status::Ok();
        },
        nullptr);
    rig.out_ahead = 2 * ahead_in;
    rig.out_total = 2 * all_in;
  } else if (kind == "aggregate") {
    AggregateSpec spec;
    spec.window = {aggregate_window, aggregate_window};
    spec.init = [] { return std::any(std::int64_t{0}); };
    spec.add = [](std::any& acc, const Tuple&) {
      ++std::any_cast<std::int64_t&>(acc);
    };
    spec.result = [](std::any& acc, Timestamp, Timestamp) {
      Tuple out;
      out.payload.Set("count", std::any_cast<std::int64_t>(acc));
      return std::vector<Tuple>{out};
    };
    spec.encode_acc = [](const std::any& acc, std::string* out) {
      *out = std::to_string(std::any_cast<std::int64_t>(acc));
      return Status::Ok();
    };
    spec.decode_acc = [](std::string_view in) -> Result<std::any> {
      return std::any(std::stoll(std::string(in)));
    };
    take(std::make_unique<AggregateOperator>(kind, clock, std::move(spec)));
    rig.taken_at_snapshot = [](const std::string& blob) {
      auto snapshot = AggregateSnapshot::Decode(blob);
      if (!snapshot.ok()) return std::int64_t{-1};
      std::int64_t taken = 0;
      for (const auto& [key, window] : snapshot->windows) {
        taken += std::stoll(window.acc);
      }
      return taken;
    };
    rig.out_ahead = 0;  // the one window closes at end of input
    rig.out_total = 1;
  } else if (kind == "join") {
    inputs = 2;
    JoinSpec spec;
    spec.window = 1'000'000;  // every pair matches, nothing is evicted
    take(std::make_unique<JoinOperator>(kind, clock, std::move(spec)));
    rig.taken_at_snapshot = [](const std::string& blob) {
      auto state = JoinState::Decode(blob);
      if (!state.ok()) return std::int64_t{-1};
      return static_cast<std::int64_t>(state->buffers[0].size() +
                                       state->buffers[1].size());
    };
    rig.out_ahead = ahead_in * ahead_in;
    rig.out_total = all_in * all_in;
  } else if (kind == "fused") {
    auto head_counter = counter;
    auto tail_counter = std::make_shared<std::atomic<std::int64_t>>(0);
    auto head = std::make_unique<FlatMapOperator>(
        "fm", clock, FlatMapFn([head_counter](const Tuple& t) {
          ++*head_counter;
          return std::vector<Tuple>{t};
        }));
    auto tail = std::make_unique<FilterOperator>(
        "keep", clock, FilterFn([tail_counter](const Tuple&) {
          ++*tail_counter;
          return true;
        }));
    SnapshotCounter(head.get(), head_counter);
    SnapshotCounter(tail.get(), tail_counter);
    auto in = std::make_shared<Stream>("in0", capacity);
    auto mid = std::make_shared<Stream>("mid", capacity);
    auto out = std::make_shared<Stream>("out0", capacity);
    head->AddInput(in);
    head->AddOutput(mid);
    tail->AddInput(mid);
    tail->AddOutput(out);
    rig.owned.push_back(std::move(head));
    rig.owned.push_back(std::move(tail));
    FusionPlan plan = FuseStatelessChains(rig.owned, clock);
    if (plan.fused.size() != 1) {
      ADD_FAILURE() << "expected one fused chain";
      return rig;
    }
    rig.op = plan.fused.front().get();
    rig.owned.push_back(std::move(plan.fused.front()));
    rig.inputs = {in};
    rig.outputs = {out};
    rig.reporters = {"fm", "keep"};
    return rig;
  } else {
    ADD_FAILURE() << "unknown kind " << kind;
    return rig;
  }

  for (std::size_t i = 0; i < inputs; ++i) {
    rig.inputs.push_back(
        std::make_shared<Stream>("in" + std::to_string(i), capacity));
    rig.op->AddInput(rig.inputs.back());
  }
  for (std::size_t i = 0; i < outputs; ++i) {
    rig.outputs.push_back(
        std::make_shared<Stream>("out" + std::to_string(i), capacity));
    rig.op->AddOutput(rig.outputs.back());
  }
  rig.reporters = {kind};
  return rig;
}

class OperatorLoop : public ::testing::TestWithParam<std::string> {};

// An operator whose consumers are all gone must close its own inputs on the
// way out, releasing every producer blocked on back-pressure.
TEST_P(OperatorLoop, EarlyExitReleasesBlockedProducers) {
  Rig rig = Build(GetParam(), 4, /*aggregate_window=*/1);
  ASSERT_NE(rig.op, nullptr);
  for (const StreamPtr& out : rig.outputs) out->Close();  // consumers gone

  std::vector<std::thread> producers;
  for (const StreamPtr& in : rig.inputs) {
    producers.emplace_back([in] {
      for (Timestamp t = 0;; ++t) {
        if (!PushOne(*in, MakeTuple(t)).ok()) break;  // released by CloseInputs
      }
    });
  }

  rig.op->Run();  // must return and close every input
  for (std::thread& producer : producers) producer.join();
  for (const StreamPtr& in : rig.inputs) EXPECT_TRUE(in->closed());
  EXPECT_GE(rig.op->stats().discarded, 1u);
}

// A barrier in the middle of one drained batch: the snapshot is taken
// before any tuple behind the barrier is processed, the barrier goes out
// exactly once on every output (behind exactly the tuples ahead of it), and
// the checkpointer sees each reporter finish exactly once.
TEST_P(OperatorLoop, MidBatchBarrierSnapshotsBeforeLaterTuples) {
  Rig rig = Build(GetParam(), 64, /*aggregate_window=*/1'000'000);
  ASSERT_NE(rig.op, nullptr);

  InMemoryCheckpointStore store;
  CheckpointerOptions options;
  options.interval_ms = 1;
  options.epoch_timeout_ms = 60'000;
  Checkpointer cp(&store, options);
  for (const std::string& name : rig.reporters) cp.RegisterOperator(name);
  cp.Start();
  ASSERT_TRUE(WaitUntil([&] { return cp.PendingEpoch() != 0; }));
  const std::uint64_t epoch = cp.PendingEpoch();

  // The whole input fits one drained batch: the barrier is mid-batch.
  for (const StreamPtr& in : rig.inputs) {
    Timestamp t = 0;
    for (std::int64_t k = 0; k < kAhead; ++k) {
      ASSERT_TRUE(PushOne(*in, MakeTuple(t++)).ok());
    }
    ASSERT_TRUE(PushOne(*in, Tuple::Barrier(epoch)).ok());
    for (std::int64_t k = 0; k < kBehind; ++k) {
      ASSERT_TRUE(PushOne(*in, MakeTuple(t++)).ok());
    }
    in->Close();
  }
  rig.op->SetCheckpointer(&cp);
  rig.op->ConfigureBatching(BatchPolicy{64, 10'000'000});
  rig.op->Run();

  // Each reporter finished exactly once: the epoch after the barrier
  // completes with nobody left to report, and no reporter finished twice.
  EXPECT_TRUE(WaitUntil([&] { return cp.stats().epochs_completed >= 2; }));
  cp.Stop();
  EXPECT_EQ(cp.stats().finish_reports, rig.reporters.size());

  auto blob = store.Get(epoch);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto manifest = CheckpointManifest::Decode(*blob);
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->operators.size(), rig.reporters.size());
  const std::int64_t taken_ahead =
      kAhead * static_cast<std::int64_t>(rig.inputs.size());
  for (const OperatorSnapshot& snapshot : manifest->operators) {
    EXPECT_EQ(rig.taken_at_snapshot(snapshot.blob), taken_ahead)
        << snapshot.name;
  }

  std::int64_t ahead = 0;
  std::int64_t total = 0;
  for (const StreamPtr& out : rig.outputs) {
    int barriers = 0;
    while (auto tuple = PopOne(*out)) {
      if (tuple->IsBarrier()) {
        EXPECT_EQ(tuple->barrier_epoch, epoch);
        ++barriers;
        continue;
      }
      if (barriers == 0) ++ahead;
      ++total;
    }
    EXPECT_EQ(barriers, 1) << out->name();
  }
  EXPECT_EQ(ahead, rig.out_ahead);
  EXPECT_EQ(total, rig.out_total);
}

INSTANTIATE_TEST_SUITE_P(OperatorKinds, OperatorLoop,
                         ::testing::Values("flatmap", "filter", "router",
                                           "union", "aggregate", "join",
                                           "fused"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace strata::spe
