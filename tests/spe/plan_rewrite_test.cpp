// Plan-rewrite equivalence: a fused stateless chain must match a serial
// fold of its stage functions, and keyed-sharded stateful stages their
// unsharded runs, on seeded inputs, including across checkpoint/restore and
// restore onto a different shard count (tsan_smoke: routers, fused workers,
// and shard unions all run concurrently here).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/codec.hpp"
#include "spe/checkpoint.hpp"
#include "spe/plan_rewrite.hpp"
#include "spe/query.hpp"
#include "spe_test_util.hpp"

namespace strata::spe {
namespace {

using namespace std::chrono_literals;

template <typename Pred>
bool WaitUntil(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Deterministic value for tuple i (splitmix-style, fixed seed).
std::int64_t SeededValue(std::int64_t i) {
  std::uint64_t x = static_cast<std::uint64_t>(i) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::int64_t>((x ^ (x >> 31)) % 1000);
}

// -------------------------------------------- fused chain vs serial fold

constexpr std::int64_t kChainTuples = 400;

Tuple ChainInput(std::int64_t i) {
  Tuple t = testutil::MakeTuple(i);
  t.stimulus = i + 1;
  t.payload.Set("v", SeededValue(i));
  return t;
}

/// The chain's stages: expand (1-2 tuples; throws when v % 50 == 7) -> keep
/// (drops odd v) -> scale (v*3). In a query they form one fusable chain;
/// the serial fold calls the same functions directly.
std::vector<Tuple> Expand(const Tuple& t) {
  const std::int64_t v = t.payload.Get("v").AsInt();
  if (v % 50 == 7) throw std::runtime_error("expand: seeded failure");
  std::vector<Tuple> out{t};
  if (v % 3 == 0) {
    Tuple extra = t;
    extra.payload.Set("v", v + 1000);
    out.push_back(std::move(extra));
  }
  return out;
}

bool Keep(const Tuple& t) { return t.payload.Get("v").AsInt() % 2 == 0; }

std::vector<Tuple> Scale(const Tuple& t) {
  Tuple out = t;
  out.payload.Set("v", t.payload.Get("v").AsInt() * 3);
  return {out};
}

/// gen -> expand -> keep -> scale -> sink.
void BuildChainPipeline(Query* query, std::int64_t tuples,
                        testutil::Collector* sink) {
  auto position = std::make_shared<std::int64_t>(0);
  auto gen = query->AddSource(
      "gen", [position, tuples]() -> std::optional<Tuple> {
        if (*position >= tuples) return std::nullopt;
        return ChainInput((*position)++);
      });
  auto expanded = query->AddFlatMap("expand", std::move(gen), Expand);
  auto kept = query->AddFilter("keep", std::move(expanded), Keep);
  auto scaled = query->AddFlatMap("scale", std::move(kept), Scale);
  query->AddSink("sink", std::move(scaled), sink->AsSink());
}

/// What a chain run delivered, and its per-stage counts by operator name.
struct ChainRun {
  std::vector<std::pair<Timestamp, std::int64_t>> output;
  std::map<std::string, OperatorStats> stats;
};

ChainRun RunChain(std::int64_t tuples) {
  Query query;
  testutil::Collector sink;
  BuildChainPipeline(&query, tuples, &sink);
  query.Run();
  ChainRun run;
  for (const Tuple& t : sink.tuples()) {
    run.output.emplace_back(t.event_time, t.payload.Get("v").AsInt());
  }
  for (const OperatorStats& s : query.Stats()) run.stats[s.name] = s;
  return run;
}

/// The reference: each input folded through the stage functions in order
/// on this thread, a throw dropping the tuple and counting on its stage.
ChainRun SerialFold(std::int64_t tuples) {
  const std::vector<std::pair<std::string, FlatMapFn>> stages = {
      {"expand", Expand},
      {"keep",
       [](const Tuple& t) {
         return Keep(t) ? std::vector<Tuple>{t} : std::vector<Tuple>{};
       }},
      {"scale", Scale},
  };
  ChainRun run;
  for (std::int64_t i = 0; i < tuples; ++i) {
    std::vector<Tuple> cur{ChainInput(i)};
    for (const auto& [name, fn] : stages) {
      OperatorStats& s = run.stats[name];
      std::vector<Tuple> next;
      for (const Tuple& t : cur) {
        ++s.tuples_in;
        try {
          for (Tuple& out : fn(t)) next.push_back(std::move(out));
        } catch (const std::exception&) {
          ++s.user_errors;
        }
      }
      s.tuples_out += next.size();
      cur = std::move(next);
    }
    for (const Tuple& t : cur) {
      run.output.emplace_back(t.event_time, t.payload.Get("v").AsInt());
    }
  }
  return run;
}

TEST(OperatorFusion, FusedChainMatchesUnfusedOutputExactly) {
  const ChainRun reference = SerialFold(kChainTuples);
  const ChainRun fused = RunChain(kChainTuples);
  ASSERT_FALSE(reference.output.empty());
  // A single chain preserves total order, so the sequences are identical,
  // not just equal as multisets.
  EXPECT_EQ(fused.output, reference.output);
}

TEST(OperatorFusion, PerStageStatsSurviveFusion) {
  const ChainRun reference = SerialFold(kChainTuples);
  const ChainRun fused = RunChain(kChainTuples);
  for (const auto& [name, expected] : reference.stats) {
    ASSERT_TRUE(fused.stats.count(name)) << "fused run lost operator " << name;
    const OperatorStats& got = fused.stats.at(name);
    EXPECT_EQ(got.tuples_in, expected.tuples_in) << name;
    EXPECT_EQ(got.tuples_out, expected.tuples_out) << name;
    EXPECT_EQ(got.user_errors, expected.user_errors) << name;
  }
  // Fusion leaves the logical operator set alone: Stats() lists every
  // stage under its own name and kind, and no fused worker (`a+b`).
  std::map<std::string, std::string> kinds;
  for (const auto& [name, s] : fused.stats) kinds[name] = s.kind;
  EXPECT_EQ(kinds, (std::map<std::string, std::string>{{"gen", "source"},
                                                       {"expand", "flatmap"},
                                                       {"keep", "filter"},
                                                       {"scale", "flatmap"},
                                                       {"sink", "sink"}}));
  // The seeded failure fires for every v % 50 == 7 input; make sure the
  // test exercised the error path at all.
  std::uint64_t expected_errors = 0;
  for (std::int64_t i = 0; i < kChainTuples; ++i) {
    if (SeededValue(i) % 50 == 7) ++expected_errors;
  }
  ASSERT_GT(expected_errors, 0u);
  EXPECT_EQ(reference.stats.at("expand").user_errors, expected_errors);
}

TEST(OperatorFusion, ThrowingStageIsCountedLoggedAndSkipped) {
  // gen -> pass -> judge (throws on layer 3) -> sink: one fused chain. The
  // error is the judge's own: counted on it and logged under its name, and
  // only the offending tuple is lost.
  Query query;
  auto position = std::make_shared<std::int64_t>(0);
  auto gen = query.AddSource("gen", [position]() -> std::optional<Tuple> {
    if (*position >= 10) return std::nullopt;
    const std::int64_t layer = (*position)++;
    return testutil::MakeTuple(layer, 0, layer);
  });
  auto passed = query.AddFlatMap(
      "pass", std::move(gen),
      [](const Tuple& t) { return std::vector<Tuple>{t}; });
  auto judged = query.AddFilter("judge", std::move(passed), [](const Tuple& t) {
    if (t.layer == 3) throw std::runtime_error("judge: bad layer");
    return true;
  });
  testutil::Collector sink;
  query.AddSink("sink", std::move(judged), sink.AsSink());

  testing::internal::CaptureStderr();
  query.Run();
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("operator 'judge': user function threw: judge: bad layer"),
            std::string::npos)
      << log;

  std::vector<std::int64_t> layers;
  for (const Tuple& t : sink.tuples()) layers.push_back(t.layer);
  EXPECT_EQ(layers, (std::vector<std::int64_t>{0, 1, 2, 4, 5, 6, 7, 8, 9}));
  std::map<std::string, OperatorStats> stats;
  for (const OperatorStats& s : query.Stats()) stats[s.name] = s;
  EXPECT_EQ(stats.at("pass").user_errors, 0u);
  EXPECT_EQ(stats.at("judge").user_errors, 1u);
  EXPECT_EQ(stats.at("judge").tuples_in, 10u);
  EXPECT_EQ(stats.at("judge").tuples_out, 9u);
}

TEST(OperatorFusion, FusionPassFindsTheChain) {
  // Hand-built operator list (the same shape Query::Start hands the pass):
  // expand -> keep -> scale over private 1:1 streams.
  const Clock* clock = &Clock::System();
  auto s_in = std::make_shared<Stream>("in", 16);
  auto s_a = std::make_shared<Stream>("a", 16);
  auto s_b = std::make_shared<Stream>("b", 16);
  auto s_out = std::make_shared<Stream>("out", 16);
  std::vector<std::unique_ptr<Operator>> ops;
  auto expand = std::make_unique<FlatMapOperator>(
      "expand", clock, [](const Tuple& t) { return std::vector<Tuple>{t}; });
  expand->AddInput(s_in);
  expand->AddOutput(s_a);
  auto keep = std::make_unique<FilterOperator>(
      "keep", clock, [](const Tuple&) { return true; });
  keep->AddInput(s_a);
  keep->AddOutput(s_b);
  auto scale = std::make_unique<FlatMapOperator>(
      "scale", clock, [](const Tuple& t) { return std::vector<Tuple>{t}; });
  scale->AddInput(s_b);
  scale->AddOutput(s_out);
  ops.push_back(std::move(expand));
  ops.push_back(std::move(keep));
  ops.push_back(std::move(scale));

  FusionPlan plan = FuseStatelessChains(ops, clock);
  ASSERT_EQ(plan.fused.size(), 1u);
  EXPECT_EQ(plan.fused[0]->name(), "expand+keep+scale");
  EXPECT_EQ(plan.absorbed.size(), 3u);
  EXPECT_EQ(plan.fused[0]->stages().size(), 3u);
  // The fused worker adopted the chain's endpoints.
  ASSERT_EQ(plan.fused[0]->inputs().size(), 1u);
  ASSERT_EQ(plan.fused[0]->outputs().size(), 1u);
  EXPECT_EQ(plan.fused[0]->inputs()[0].get(), s_in.get());
  EXPECT_EQ(plan.fused[0]->outputs()[0].get(), s_out.get());
}

TEST(OperatorFusion, ChainDiscardsCountOnItsTail) {
  // head -> tail fused, downstream already gone: what the worker could not
  // deliver is the tail's loss in Stats(), not the head's.
  const Clock* clock = &Clock::System();
  auto s_in = std::make_shared<Stream>("in", 16);
  auto s_mid = std::make_shared<Stream>("mid", 16);
  auto s_out = std::make_shared<Stream>("out", 16);
  std::vector<std::unique_ptr<Operator>> ops;
  ops.push_back(std::make_unique<FlatMapOperator>(
      "head", clock, [](const Tuple& t) { return std::vector<Tuple>{t}; }));
  ops.back()->AddInput(s_in);
  ops.back()->AddOutput(s_mid);
  ops.push_back(std::make_unique<FilterOperator>(
      "tail", clock, [](const Tuple&) { return true; }));
  ops.back()->AddInput(s_mid);
  ops.back()->AddOutput(s_out);
  FusionPlan plan = FuseStatelessChains(ops, clock);
  ASSERT_EQ(plan.fused.size(), 1u);

  s_out->Close();
  ASSERT_TRUE(testutil::PushOne(*s_in, testutil::MakeTuple(1)).ok());
  s_in->Close();
  plan.fused[0]->Run();

  const std::uint64_t lost = plan.fused[0]->stats().discarded;
  EXPECT_GE(lost, 1u);
  EXPECT_EQ(ops[1]->stats().discarded, lost);
  EXPECT_EQ(ops[0]->stats().discarded, 0u);
}

// ------------------------------------------- sharded-vs-unsharded stateful

/// Keyed sum with codecs; the output carries its group so shard merges can
/// be checked per key.
AggregateSpec KeyedSumSpec(Timestamp size, Timestamp advance) {
  using Acc = std::pair<std::string, std::int64_t>;  // (group, sum)
  AggregateSpec spec;
  spec.window = {size, advance};
  spec.key = [](const Tuple& t) { return t.payload.Get("k").AsString(); };
  spec.init = [] { return std::any(Acc{}); };
  spec.add = [](std::any& acc, const Tuple& t) {
    auto& a = std::any_cast<Acc&>(acc);
    a.first = t.payload.Get("k").AsString();
    a.second += t.payload.Get("v").AsInt();
  };
  spec.result = [](std::any& acc, Timestamp start,
                   Timestamp /*end*/) -> std::vector<Tuple> {
    const auto& a = std::any_cast<const Acc&>(acc);
    Tuple out;
    out.payload.Set("group", a.first);
    out.payload.Set("sum", a.second);
    out.payload.Set("window_start", start);
    return {out};
  };
  spec.encode_acc = [](const std::any& acc, std::string* out) {
    const auto& a = std::any_cast<const Acc&>(acc);
    codec::PutLengthPrefixed(out, a.first);
    codec::PutVarint64Signed(out, a.second);
    return Status::Ok();
  };
  spec.decode_acc = [](std::string_view in) -> Result<std::any> {
    Acc a;
    std::string_view group;
    std::int64_t sum = 0;
    if (!codec::GetLengthPrefixed(&in, &group) ||
        !codec::GetVarint64Signed(&in, &sum) || !in.empty()) {
      return Status::Corruption("keyed sum accumulator");
    }
    a.first = std::string(group);
    a.second = sum;
    return std::any(a);
  };
  return spec;
}

void BuildShardedAggPipeline(Query* query, std::int64_t tuples, int shards,
                             testutil::Collector* sink,
                             std::shared_ptr<std::int64_t> position = nullptr) {
  if (!position) position = std::make_shared<std::int64_t>(0);
  auto gen = query->AddSource(
      "gen", [position, tuples]() -> std::optional<Tuple> {
        if (*position >= tuples) return std::nullopt;
        Tuple t = testutil::MakeTuple(*position + 1);
        t.stimulus = *position + 1;
        t.payload.Set("k", "k" + std::to_string(SeededValue(*position) % 7));
        t.payload.Set("v", SeededValue(*position));
        ++*position;
        return t;
      });
  auto summed =
      query->AddAggregate("agg", std::move(gen), KeyedSumSpec(50, 50), shards);
  query->AddSink("sink", std::move(summed), sink->AsSink());
}

/// Per-group sequence of (window_start, sum) in arrival order at the sink.
std::map<std::string, std::vector<std::pair<Timestamp, std::int64_t>>>
GroupSequences(const testutil::Collector& sink) {
  std::map<std::string, std::vector<std::pair<Timestamp, std::int64_t>>> by;
  for (const Tuple& t : sink.tuples()) {
    by[t.payload.Get("group").AsString()].emplace_back(
        t.payload.Get("window_start").AsInt(), t.payload.Get("sum").AsInt());
  }
  return by;
}

TEST(KeyedSharding, ShardedAggregateMatchesUnsharded) {
  std::map<std::string, std::vector<std::pair<Timestamp, std::int64_t>>>
      results[2];
  const int shard_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    Query query;
    testutil::Collector sink;
    BuildShardedAggPipeline(&query, 600, shard_counts[run], &sink);
    query.Run();
    results[run] = GroupSequences(sink);
  }
  ASSERT_FALSE(results[0].empty());
  // Same windows, same sums, and the same per-key emission order (a key
  // lives on exactly one shard, and the union keeps per-input order).
  EXPECT_EQ(results[1], results[0]);
}

TEST(KeyedSharding, RejectedBuilderCallLeavesInputsUnconsumed) {
  // Each bad call gets the two source streams; it must throw before it
  // touches the query, so both streams still accept a sink afterwards.
  using BadCall = std::function<void(Query*, StreamPtr, StreamPtr)>;
  const auto identity = [](const Tuple& t) { return std::vector<Tuple>{t}; };
  const auto key = [](const Tuple& t) { return std::to_string(t.job); };
  const std::vector<std::pair<std::string, BadCall>> cases = {
      {"flatmap without shard_key",
       [&](Query* q, StreamPtr a, StreamPtr) {
         (void)q->AddFlatMap("fm", std::move(a), identity, 2);
       }},
      {"aggregate without key",
       [](Query* q, StreamPtr a, StreamPtr) {
         AggregateSpec spec = KeyedSumSpec(10, 10);
         spec.key = nullptr;
         (void)q->AddAggregate("agg", std::move(a), std::move(spec), 2);
       }},
      {"aggregate without functions",
       [](Query* q, StreamPtr a, StreamPtr) {
         AggregateSpec spec = KeyedSumSpec(10, 10);
         spec.add = nullptr;
         (void)q->AddAggregate("agg", std::move(a), std::move(spec), 2);
       }},
      {"join without key_right",
       [&](Query* q, StreamPtr a, StreamPtr b) {
         JoinSpec spec;
         spec.key_left = key;
         (void)q->AddJoin("join", std::move(a), std::move(b), spec, 2);
       }},
      {"join with null right",
       [&](Query* q, StreamPtr a, StreamPtr) {
         JoinSpec spec;
         spec.key_left = key;
         spec.key_right = key;
         (void)q->AddJoin("join", std::move(a), nullptr, spec, 2);
       }},
      {"parallelism 0",
       [](Query* q, StreamPtr a, StreamPtr) {
         (void)q->AddAggregate("agg", std::move(a), KeyedSumSpec(10, 10), 0);
       }},
  };
  for (const auto& [label, bad_call] : cases) {
    SCOPED_TRACE(label);
    Query query;
    auto empty = []() -> std::optional<Tuple> { return std::nullopt; };
    auto a = query.AddSource("a", empty);
    auto b = query.AddSource("b", empty);
    const std::size_t operators = query.operator_count();
    EXPECT_THROW(bad_call(&query, a, b), std::invalid_argument);
    EXPECT_EQ(query.operator_count(), operators);
    EXPECT_NO_THROW(query.AddSink("sink_a", a, [](const Tuple&) {}));
    EXPECT_NO_THROW(query.AddSink("sink_b", b, [](const Tuple&) {}));
  }
}

TEST(KeyedSharding, ShardedJoinMatchesUnsharded) {
  auto build = [](Query* query, int shards, testutil::Collector* sink) {
    auto left_pos = std::make_shared<std::int64_t>(0);
    auto left = query->AddSource(
        "left", [left_pos]() -> std::optional<Tuple> {
          if (*left_pos >= 300) return std::nullopt;
          Tuple t = testutil::MakeTuple(*left_pos, SeededValue(*left_pos) % 5);
          t.stimulus = 1;
          t.payload.Set("l", *left_pos);
          ++*left_pos;
          return t;
        });
    auto right_pos = std::make_shared<std::int64_t>(0);
    auto right = query->AddSource(
        "right", [right_pos]() -> std::optional<Tuple> {
          if (*right_pos >= 300) return std::nullopt;
          Tuple t =
              testutil::MakeTuple(*right_pos, SeededValue(*right_pos + 7) % 5);
          t.stimulus = 1;
          t.payload.Set("r", *right_pos);
          ++*right_pos;
          return t;
        });
    JoinSpec spec;
    spec.window = 2;
    spec.key_left = [](const Tuple& t) { return std::to_string(t.job); };
    spec.key_right = [](const Tuple& t) { return std::to_string(t.job); };
    auto joined = query->AddJoin("join", std::move(left), std::move(right),
                                 std::move(spec), shards);
    query->AddSink("sink", std::move(joined), sink->AsSink());
  };
  // Joined pairs keyed (job | l | r); sequence per key must match.
  std::map<std::string, std::vector<Timestamp>> results[2];
  const int shard_counts[2] = {1, 3};
  for (int run = 0; run < 2; ++run) {
    Query query;
    testutil::Collector sink;
    build(&query, shard_counts[run], &sink);
    query.Run();
    for (const Tuple& t : sink.tuples()) {
      const std::string key = std::to_string(t.job) + "|" +
                              std::to_string(t.payload.Get("l").AsInt()) +
                              "|" +
                              std::to_string(t.payload.Get("r").AsInt());
      results[run][key].push_back(t.event_time);
    }
  }
  ASSERT_FALSE(results[0].empty());
  EXPECT_EQ(results[1], results[0]);
}

// ------------------------------------------------ checkpoint composition

void InstallPositionHooks(Query* query, const std::string& name,
                          std::shared_ptr<std::int64_t> position) {
  query->FindOperator(name)->SetStateHooks(
      [position](std::uint64_t, std::string* out) {
        codec::PutVarint64Signed(out, *position);
        return Status::Ok();
      },
      [position](std::string_view blob) {
        std::int64_t value = 0;
        if (!codec::GetVarint64Signed(&blob, &value)) {
          return Status::Corruption("gen snapshot");
        }
        *position = value;
        return Status::Ok();
      });
}

/// gen -> (pass -> tag: fusable chain) -> agg[shards] -> sink, with the
/// source pausing at `pause_at` until one epoch commits so run A always
/// checkpoints mid-stream.
void BuildCheckpointedPipeline(Query* query, int shards,
                               std::shared_ptr<std::int64_t> position,
                               std::int64_t tuples,
                               testutil::Collector* sink) {
  auto gen = query->AddSource(
      "gen", [position, tuples]() -> std::optional<Tuple> {
        if (*position >= tuples) return std::nullopt;
        Tuple t = testutil::MakeTuple(*position + 1);
        t.stimulus = *position + 1;
        t.payload.Set("k", "k" + std::to_string(SeededValue(*position) % 7));
        t.payload.Set("v", SeededValue(*position));
        ++*position;
        return t;
      });
  auto passed = query->AddFlatMap(
      "pass", std::move(gen),
      [](const Tuple& t) { return std::vector<Tuple>{t}; });
  auto tagged = query->AddFilter("tag", std::move(passed),
                                 [](const Tuple&) { return true; });
  auto summed = query->AddAggregate("agg", std::move(tagged),
                                    KeyedSumSpec(50, 50), shards);
  query->AddSink("sink", std::move(summed), sink->AsSink());
  InstallPositionHooks(query, "gen", position);
}

/// Uninterrupted reference for `tuples` seeded tuples through the
/// checkpointed pipeline shape.
std::map<std::string, std::vector<std::pair<Timestamp, std::int64_t>>>
CheckpointReference(std::int64_t tuples) {
  Query query;
  testutil::Collector sink;
  BuildCheckpointedPipeline(&query, 1, std::make_shared<std::int64_t>(0),
                            tuples, &sink);
  query.Run();
  return GroupSequences(sink);
}

/// Run A: emit `pause_at` tuples through `shards_a` (pass -> tag fused),
/// force one epoch through mid-stream, end. Run B: rebuild with `shards_b`,
/// recover, emit the rest. Returns run B's output.
std::map<std::string, std::vector<std::pair<Timestamp, std::int64_t>>>
CheckpointRoundTrip(InMemoryCheckpointStore* store, int shards_a, int shards_b,
                    std::int64_t pause_at, std::int64_t tuples) {
  CheckpointerOptions cp_options;
  cp_options.interval_ms = 50;
  {
    Query a;
    testutil::Collector sink_a;
    auto position = std::make_shared<std::int64_t>(0);
    std::atomic<bool> saw_epoch{false};
    auto gen = a.AddSource(
        "gen", [position, pause_at, &a, &saw_epoch]() -> std::optional<Tuple> {
          if (*position == pause_at) {
            // Barriers are injected by the source loop between calls, so
            // block here until the timer *requests* an epoch, then emit one
            // releasing tuple; the barrier follows it into the stream.
            if (!WaitUntil(
                    [&] { return a.checkpointer()->PendingEpoch() != 0; })) {
              return std::nullopt;
            }
          } else if (*position > pause_at) {
            // One tuple past the barrier: wait for the epoch to commit,
            // then end run A.
            saw_epoch = WaitUntil([&] {
              return a.checkpointer()->stats().epochs_completed >= 1;
            });
            return std::nullopt;
          }
          Tuple t = testutil::MakeTuple(*position + 1);
          t.stimulus = *position + 1;
          t.payload.Set("k", "k" + std::to_string(SeededValue(*position) % 7));
          t.payload.Set("v", SeededValue(*position));
          ++*position;
          return t;
        });
    auto passed = a.AddFlatMap(
        "pass", std::move(gen),
        [](const Tuple& t) { return std::vector<Tuple>{t}; });
    auto tagged = a.AddFilter("tag", std::move(passed),
                              [](const Tuple&) { return true; });
    auto summed = a.AddAggregate("agg", std::move(tagged), KeyedSumSpec(50, 50),
                                 shards_a);
    a.AddSink("sink", std::move(summed), sink_a.AsSink());
    InstallPositionHooks(&a, "gen", position);
    a.EnableCheckpointing(store, cp_options);
    a.Run();
    EXPECT_TRUE(saw_epoch) << "no checkpoint epoch completed in run A";
  }

  Query b;
  testutil::Collector sink_b;
  auto position = std::make_shared<std::int64_t>(0);
  BuildCheckpointedPipeline(&b, shards_b, position, tuples, &sink_b);
  b.EnableCheckpointing(store, cp_options);
  const Status recovered = b.Recover();
  EXPECT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_GT(b.recovered_epoch(), 0u);
  EXPECT_GE(*position, 0);  // restored by the gen hook
  b.Run();
  return GroupSequences(sink_b);
}

/// Run B re-emits every window still open at the barrier plus everything
/// from replayed tuples; only windows fully closed (and emitted) by run A
/// before the barrier may be missing. So per group, run B's sequence must
/// be an exact suffix of the uninterrupted reference, and every skipped
/// window must end at or before the barrier's watermark (`pause_at` + 1
/// releasing tuple).
void ExpectRestoredSuffix(
    const std::map<std::string,
                   std::vector<std::pair<Timestamp, std::int64_t>>>& restored,
    const std::map<std::string,
                   std::vector<std::pair<Timestamp, std::int64_t>>>& reference,
    Timestamp barrier_watermark) {
  ASSERT_FALSE(reference.empty());
  ASSERT_EQ(restored.size(), reference.size());
  for (const auto& [group, ref_seq] : reference) {
    const auto it = restored.find(group);
    ASSERT_TRUE(it != restored.end()) << "group " << group << " lost";
    const auto& got = it->second;
    ASSERT_LE(got.size(), ref_seq.size()) << "group " << group;
    const std::size_t skip = ref_seq.size() - got.size();
    for (std::size_t i = 0; i < skip; ++i) {
      // Window [start, start+50) was closed pre-barrier.
      EXPECT_LE(ref_seq[i].first + 50, barrier_watermark)
          << "group " << group << ": window not emitted by either run";
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], ref_seq[skip + i]) << "group " << group;
    }
  }
}

TEST(PlanRewriteCheckpoint, FusedAndShardedRestoreMidStream) {
  InMemoryCheckpointStore store;
  const auto reference = CheckpointReference(600);
  const auto restored = CheckpointRoundTrip(&store, 2, 2, 300, 600);
  ExpectRestoredSuffix(restored, reference, 301);
}

TEST(PlanRewriteCheckpoint, RestoreOntoMoreShardsRehashes) {
  InMemoryCheckpointStore store;
  const auto reference = CheckpointReference(600);
  const auto restored = CheckpointRoundTrip(&store, 2, 3, 300, 600);
  ExpectRestoredSuffix(restored, reference, 301);
}

TEST(PlanRewriteCheckpoint, RestoreOntoFewerShardsRehashes) {
  InMemoryCheckpointStore store;
  const auto reference = CheckpointReference(600);
  const auto restored = CheckpointRoundTrip(&store, 4, 1, 300, 600);
  ExpectRestoredSuffix(restored, reference, 301);
}

TEST(PlanRewriteCheckpoint, UnshardedSnapshotRestoresOntoShards) {
  InMemoryCheckpointStore store;
  const auto reference = CheckpointReference(600);
  const auto restored = CheckpointRoundTrip(&store, 1, 4, 300, 600);
  ExpectRestoredSuffix(restored, reference, 301);
}

// --------------------------------------------------- reshard helper units

TEST(ReshardSnapshots, AggregateWindowsRehashAndHorizonMerges) {
  // Two old shard blobs, hand-built in the aggregate wire format.
  auto encode = [](Timestamp horizon,
                   std::vector<std::tuple<Timestamp, std::string, std::string>>
                       windows) {
    std::string blob;
    codec::PutVarint64Signed(&blob, horizon);
    codec::PutVarint64(&blob, windows.size());
    for (const auto& [start, key, acc] : windows) {
      codec::PutVarint64Signed(&blob, start);
      codec::PutLengthPrefixed(&blob, key);
      codec::PutVarint64Signed(&blob, 11);  // max_stimulus
      codec::PutVarint64Signed(&blob, 12);  // max_event_time
      codec::PutLengthPrefixed(&blob, acc);
    }
    return blob;
  };
  const std::vector<std::string> old_blobs{
      encode(100, {{0, "a", "accA"}, {50, "c", "accC"}}),
      encode(150, {{0, "b", "accB"}}),
  };
  std::vector<std::string> new_blobs;
  ASSERT_TRUE(ReshardAggregateSnapshots(old_blobs, 3, &new_blobs).ok());
  ASSERT_EQ(new_blobs.size(), 3u);

  std::hash<std::string> hasher;
  std::map<std::string, std::pair<Timestamp, std::string>> windows_seen;
  for (std::size_t s = 0; s < 3; ++s) {
    std::string_view in = new_blobs[s];
    Timestamp horizon = 0;
    std::uint64_t count = 0;
    ASSERT_TRUE(codec::GetVarint64Signed(&in, &horizon));
    ASSERT_TRUE(codec::GetVarint64(&in, &count));
    // Every new shard carries the max old horizon (duplicate-emission
    // protection must survive the re-hash).
    EXPECT_EQ(horizon, 150);
    for (std::uint64_t i = 0; i < count; ++i) {
      Timestamp start = 0;
      std::string_view key, acc;
      Timestamp ms = 0, met = 0;
      ASSERT_TRUE(codec::GetVarint64Signed(&in, &start));
      ASSERT_TRUE(codec::GetLengthPrefixed(&in, &key));
      ASSERT_TRUE(codec::GetVarint64Signed(&in, &ms));
      ASSERT_TRUE(codec::GetVarint64Signed(&in, &met));
      ASSERT_TRUE(codec::GetLengthPrefixed(&in, &acc));
      // The window landed on the shard its key hashes to.
      EXPECT_EQ(s, hasher(std::string(key)) % 3);
      windows_seen[std::string(key)] = {start, std::string(acc)};
    }
    EXPECT_TRUE(in.empty());
  }
  ASSERT_EQ(windows_seen.size(), 3u);  // nothing lost, nothing duplicated
  EXPECT_EQ(windows_seen["a"], (std::pair<Timestamp, std::string>{0, "accA"}));
  EXPECT_EQ(windows_seen["b"], (std::pair<Timestamp, std::string>{0, "accB"}));
  EXPECT_EQ(windows_seen["c"], (std::pair<Timestamp, std::string>{50, "accC"}));
}

TEST(ReshardSnapshots, DuplicateWindowAcrossShardsIsCorruption) {
  std::string blob;
  codec::PutVarint64Signed(&blob, 0);
  codec::PutVarint64(&blob, 1);
  codec::PutVarint64Signed(&blob, 0);
  codec::PutLengthPrefixed(&blob, "dup");
  codec::PutVarint64Signed(&blob, 0);
  codec::PutVarint64Signed(&blob, 0);
  codec::PutLengthPrefixed(&blob, "acc");
  std::vector<std::string> new_blobs;
  const Status s = ReshardAggregateSnapshots({blob, blob}, 2, &new_blobs);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(ReshardSnapshots, JoinBuffersRehashSortAndKeepMinWatermark) {
  auto encode = [](std::vector<std::pair<std::string, Timestamp>> left,
                   Timestamp max_left, Timestamp max_right) {
    std::string blob;
    codec::PutVarint64(&blob, left.size());
    for (const auto& [key, event_time] : left) {
      codec::PutLengthPrefixed(&blob, key);
      std::string record;
      EXPECT_TRUE(EncodeTuple(testutil::MakeTuple(event_time), &record).ok());
      codec::PutLengthPrefixed(&blob, record);
    }
    codec::PutVarint64(&blob, 0);  // right side empty
    codec::PutVarint64Signed(&blob, max_left);
    codec::PutVarint64Signed(&blob, max_right);
    return blob;
  };
  const std::vector<std::string> old_blobs{
      encode({{"a", 30}, {"a", 40}}, 40, 90),
      encode({{"b", 10}}, 10, 70),
  };
  std::vector<std::string> new_blobs;
  ASSERT_TRUE(ReshardJoinSnapshots(old_blobs, 1, &new_blobs).ok());
  ASSERT_EQ(new_blobs.size(), 1u);

  std::string_view in = new_blobs[0];
  std::uint64_t count = 0;
  ASSERT_TRUE(codec::GetVarint64(&in, &count));
  ASSERT_EQ(count, 3u);
  Timestamp last = std::numeric_limits<Timestamp>::min();
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string_view key;
    ASSERT_TRUE(codec::GetLengthPrefixed(&in, &key));
    std::string_view record;
    ASSERT_TRUE(codec::GetLengthPrefixed(&in, &record));
    auto t = DecodeTuple(record);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    // Merged buffer must be event-time ordered (the deque's front-oldest
    // invariant that Evict relies on).
    EXPECT_GE(t->event_time, last);
    last = t->event_time;
  }
  ASSERT_TRUE(codec::GetVarint64(&in, &count));
  EXPECT_EQ(count, 0u);
  Timestamp max_left = 0, max_right = 0;
  ASSERT_TRUE(codec::GetVarint64Signed(&in, &max_left));
  ASSERT_TRUE(codec::GetVarint64Signed(&in, &max_right));
  EXPECT_TRUE(in.empty());
  // Min over old shards: conservative eviction can never drop a match.
  EXPECT_EQ(max_left, 10);
  EXPECT_EQ(max_right, 70);
}

}  // namespace
}  // namespace strata::spe
