// Epoch-barrier checkpointing: snapshot codec round-trips, coordinator state
// machine, barrier alignment, and full query checkpoint -> crash -> recover
// flows.
#include "spe/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "am/image.hpp"
#include "common/codec.hpp"
#include "common/crc32.hpp"
#include "spe/aggregates.hpp"
#include "spe/query.hpp"
#include "spe_test_util.hpp"

namespace strata::spe {
namespace {

using namespace std::chrono_literals;

/// Spin until `pred` holds or `timeout` elapses; returns the predicate.
template <typename Pred>
bool WaitUntil(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// ------------------------------------------------ tuples inside snapshots

TEST(TupleSnapshotCodec, RoundTripPreservesFieldsAndCursor) {
  Tuple a = testutil::MakeTuple(123, 7, 9);
  a.specimen = 3;
  a.portion = 2;
  a.stimulus = 456;
  a.payload.Set("count", std::int64_t{42});
  a.payload.Set("mean", 1.5);
  a.payload.Set("tag", "porosity");
  a.payload.Set("ok", true);
  a.trace = TraceContext{0xabc, 0xdef};

  Tuple b = testutil::MakeTuple(-10, 1, 0);  // negative times survive zigzag
  am::GrayImage frame(6, 4);
  frame.set(5, 3, 200);
  b.payload.Set("ot_image", am::MakeImageValue(frame));

  JoinState state;
  state.buffers[0].emplace_back("ka", a);
  state.buffers[0].emplace_back("kb", b);
  state.buffers[1].emplace_back("kb", b);
  state.max_time = {123, -10};
  std::string blob;
  ASSERT_TRUE(state.EncodeTo(&blob).ok());

  auto decoded = JoinState::Decode(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->buffers[0].size(), 2u);
  ASSERT_EQ(decoded->buffers[1].size(), 1u);
  EXPECT_EQ(decoded->max_time, state.max_time);
  const auto& [ka, da] = decoded->buffers[0][0];
  const auto& [kb, db] = decoded->buffers[0][1];
  EXPECT_EQ(ka, "ka");
  EXPECT_EQ(kb, "kb");
  EXPECT_EQ(da.event_time, a.event_time);
  EXPECT_EQ(da.job, a.job);
  EXPECT_EQ(da.layer, a.layer);
  EXPECT_EQ(da.specimen, a.specimen);
  EXPECT_EQ(da.portion, a.portion);
  EXPECT_EQ(da.stimulus, a.stimulus);
  EXPECT_EQ(da.payload, a.payload);
  EXPECT_EQ(da.trace.trace_id, a.trace.trace_id);
  EXPECT_EQ(da.trace.parent_span, a.trace.parent_span);
  EXPECT_EQ(db.event_time, b.event_time);
  // Opaque == is pointer identity: compare the restored pixels.
  EXPECT_EQ(db.payload.Get("ot_image").AsOpaque<am::ImageValue>()->image(),
            frame);
}

struct FakeImage final : OpaqueValue {
  [[nodiscard]] const char* TypeName() const noexcept override {
    return "fake-image";
  }
  [[nodiscard]] std::size_t ApproxBytes() const noexcept override { return 64; }
};

TEST(TupleSnapshotCodec, UnregisteredOpaqueTypeIsInvalidArgument) {
  Tuple t = testutil::MakeTuple(1);
  t.payload.Set("image", OpaqueRef(std::make_shared<FakeImage>()));
  std::string bytes;
  const Status encoded = EncodeTuple(t, &bytes);
  EXPECT_EQ(encoded.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(encoded.message().find("fake-image"), std::string::npos)
      << encoded.ToString();

  // A join buffering it fails the snapshot (and so the epoch), not the query.
  JoinState state;
  state.buffers[1].emplace_back("k", t);
  std::string blob;
  EXPECT_EQ(state.EncodeTo(&blob).code(), StatusCode::kInvalidArgument);
}

TEST(TupleSnapshotCodec, UnknownOpaqueTagIsCorruption) {
  Tuple t = testutil::MakeTuple(1);
  t.payload.Set("k", am::MakeImageValue(am::GrayImage(2, 2)));
  std::string bytes;
  ASSERT_TRUE(EncodeTuple(t, &bytes).ok());
  // Key "k" (length-prefixed), then the opaque kind byte and the type tag.
  const std::size_t entry = bytes.find(std::string("\x01k\x06", 3));
  ASSERT_NE(entry, std::string::npos);
  bytes[entry + 3] = 'Z';
  // Re-seal the trailer so the tag, not the checksum, is what decoding sees.
  bytes.resize(bytes.size() - 4);
  codec::PutFixed32(&bytes, MaskCrc(Crc32c(bytes)));
  const auto decoded = DecodeTuple(bytes);
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

TEST(TupleSnapshotCodec, TruncatedInputIsCorruption) {
  JoinState state;
  state.buffers[0].emplace_back("k", testutil::MakeValueTuple(5, 2.5));
  std::string blob;
  ASSERT_TRUE(state.EncodeTo(&blob).ok());
  for (std::size_t cut = 1; cut <= blob.size(); ++cut) {
    const auto decoded =
        JoinState::Decode(std::string_view(blob).substr(0, blob.size() - cut));
    EXPECT_TRUE(decoded.status().IsCorruption()) << "cut=" << cut;
  }
}

// -------------------------------------------------------------- manifest

TEST(CheckpointManifest, RoundTrip) {
  CheckpointManifest manifest;
  manifest.epoch = 7;
  manifest.operators.push_back({"source", "pos=42"});
  manifest.operators.push_back({"agg", std::string("\x00\x01raw", 5)});
  manifest.operators.push_back({"sink", ""});  // finished/stateless operator

  std::string blob;
  manifest.EncodeTo(&blob);
  auto decoded = CheckpointManifest::Decode(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch, 7u);
  ASSERT_EQ(decoded->operators.size(), 3u);
  EXPECT_EQ(decoded->operators[0].name, "source");
  EXPECT_EQ(decoded->operators[0].blob, "pos=42");
  EXPECT_EQ(decoded->operators[1].blob, std::string("\x00\x01raw", 5));
  EXPECT_EQ(decoded->operators[2].blob, "");
}

TEST(CheckpointManifest, CorruptionIsRejected) {
  CheckpointManifest manifest;
  manifest.epoch = 3;
  manifest.operators.push_back({"op", "state"});
  std::string blob;
  manifest.EncodeTo(&blob);

  for (std::size_t i = 0; i < blob.size(); ++i) {
    std::string bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_FALSE(CheckpointManifest::Decode(bad).ok())
        << "bit flip at byte " << i << " went undetected";
  }
  EXPECT_FALSE(CheckpointManifest::Decode("").ok());
  EXPECT_FALSE(
      CheckpointManifest::Decode(std::string_view(blob).substr(0, 3)).ok());
}

// ----------------------------------------------------------- coordinator

TEST(Checkpointer, EpochCompletesWhenAllOperatorsReport) {
  InMemoryCheckpointStore store;
  CheckpointerOptions options;
  options.interval_ms = 5;
  Checkpointer cp(&store, options);
  cp.RegisterOperator("a");
  cp.RegisterOperator("b");
  cp.Start();

  ASSERT_TRUE(WaitUntil([&] { return cp.PendingEpoch() != 0; }));
  const std::uint64_t epoch = cp.PendingEpoch();
  cp.ReportSnapshot("a", epoch, "A");
  EXPECT_EQ(cp.stats().epochs_completed, 0u);  // still waiting on b
  cp.ReportSnapshot("b", epoch, "B");
  ASSERT_TRUE(WaitUntil([&] { return cp.stats().epochs_completed >= 1; }));
  cp.Stop();

  const Checkpointer::Stats stats = cp.stats();
  EXPECT_EQ(stats.last_completed_epoch, epoch);
  EXPECT_EQ(stats.consecutive_failures, 0u);
  EXPECT_FALSE(stats.degraded);
  EXPECT_GT(stats.bytes_persisted, 0u);
  EXPECT_GE(stats.last_completed_age_us, 0);

  auto latest = store.LatestEpoch();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, epoch);
  auto blob = store.Get(*latest);
  ASSERT_TRUE(blob.ok());
  auto manifest = CheckpointManifest::Decode(*blob);
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->operators.size(), 2u);
  EXPECT_EQ(manifest->operators[0].blob, "A");
  EXPECT_EQ(manifest->operators[1].blob, "B");
}

TEST(Checkpointer, SilentOperatorTimesOutAndTripsDegraded) {
  InMemoryCheckpointStore store;
  CheckpointerOptions options;
  options.interval_ms = 5;
  options.epoch_timeout_ms = 20;
  options.failure_warn_threshold = 1;
  Checkpointer cp(&store, options);
  cp.RegisterOperator("a");
  cp.RegisterOperator("stuck");
  cp.Start();

  ASSERT_TRUE(WaitUntil([&] { return cp.PendingEpoch() != 0; }));
  cp.ReportSnapshot("a", cp.PendingEpoch(), "A");  // "stuck" never reports
  ASSERT_TRUE(WaitUntil([&] {
    const Checkpointer::Stats s = cp.stats();
    return s.epochs_failed >= 1 && s.degraded;
  }));
  cp.Stop();

  EXPECT_EQ(cp.stats().epochs_completed, 0u);
  EXPECT_TRUE(store.LatestEpoch().status().IsNotFound());
}

TEST(Checkpointer, DegradedFlagIsSticky) {
  InMemoryCheckpointStore store;
  CheckpointerOptions options;
  options.interval_ms = 5;
  options.epoch_timeout_ms = 10;
  options.failure_warn_threshold = 1;
  Checkpointer cp(&store, options);
  cp.RegisterOperator("a");
  cp.Start();

  // Let one epoch fail, then complete the next: degraded must stay up.
  ASSERT_TRUE(WaitUntil([&] { return cp.stats().epochs_failed >= 1; }));
  ASSERT_TRUE(WaitUntil([&] {
    const std::uint64_t epoch = cp.PendingEpoch();
    if (epoch == 0 || cp.stats().epochs_failed == 0) return false;
    cp.ReportSnapshot("a", epoch, "A");
    return cp.stats().epochs_completed >= 1;
  }));
  cp.Stop();

  const Checkpointer::Stats stats = cp.stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.consecutive_failures, 0u);  // reset by the success
}

TEST(Checkpointer, SnapshotFailureFailsEpochImmediately) {
  InMemoryCheckpointStore store;
  CheckpointerOptions options;
  options.interval_ms = 5;
  options.epoch_timeout_ms = 60'000;  // only an explicit failure can fail it
  Checkpointer cp(&store, options);
  cp.RegisterOperator("a");
  cp.RegisterOperator("b");
  cp.Start();

  ASSERT_TRUE(WaitUntil([&] { return cp.PendingEpoch() != 0; }));
  cp.ReportSnapshotFailure("b", cp.PendingEpoch(),
                           Status::InvalidArgument("opaque payload"));
  ASSERT_TRUE(WaitUntil([&] { return cp.stats().epochs_failed >= 1; }));
  cp.Stop();
  EXPECT_EQ(cp.stats().epochs_completed, 0u);
}

TEST(Checkpointer, FinishedOperatorDoesNotGateEpochs) {
  InMemoryCheckpointStore store;
  CheckpointerOptions options;
  options.interval_ms = 5;
  Checkpointer cp(&store, options);
  cp.RegisterOperator("live");
  cp.RegisterOperator("gone");
  cp.OnOperatorFinished("gone");
  cp.Start();

  ASSERT_TRUE(WaitUntil([&] { return cp.PendingEpoch() != 0; }));
  cp.ReportSnapshot("live", cp.PendingEpoch(), "L");
  ASSERT_TRUE(WaitUntil([&] { return cp.stats().epochs_completed >= 1; }));
  cp.Stop();

  auto blob = store.Get(cp.stats().last_completed_epoch);
  ASSERT_TRUE(blob.ok());
  auto manifest = CheckpointManifest::Decode(*blob);
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->operators.size(), 2u);
  EXPECT_EQ(manifest->operators[1].name, "gone");
  EXPECT_TRUE(manifest->operators[1].blob.empty());  // restores as fresh
}

TEST(Checkpointer, StaleReportsAreDropped) {
  InMemoryCheckpointStore store;
  CheckpointerOptions options;
  options.interval_ms = 5;
  Checkpointer cp(&store, options);
  cp.RegisterOperator("a");
  cp.Start();
  ASSERT_TRUE(WaitUntil([&] { return cp.PendingEpoch() != 0; }));
  const std::uint64_t epoch = cp.PendingEpoch();
  cp.ReportSnapshot("a", epoch + 17, "wrong epoch");  // dropped
  EXPECT_EQ(cp.stats().epochs_completed, 0u);
  cp.ReportSnapshot("a", epoch, "right epoch");
  ASSERT_TRUE(WaitUntil([&] { return cp.stats().epochs_completed >= 1; }));
  cp.Stop();
}

TEST(Checkpointer, SetBaseEpochResumesNumbering) {
  InMemoryCheckpointStore store;
  CheckpointerOptions options;
  options.interval_ms = 5;
  Checkpointer cp(&store, options);
  cp.RegisterOperator("a");
  cp.SetBaseEpoch(41);
  cp.Start();
  ASSERT_TRUE(WaitUntil([&] { return cp.PendingEpoch() != 0; }));
  EXPECT_EQ(cp.PendingEpoch(), 42u);
  cp.Stop();
}

// -------------------------------------------------------- barrier aligner

TEST(BarrierAligner, AlignsEqualEpochsAndReplaysHeldTuples) {
  BarrierAligner aligner(2);
  TupleBatch held;
  held.push_back(testutil::MakeTuple(10));
  held.push_back(testutil::MakeTuple(11));

  aligner.Arrive(0, 1, std::move(held));
  EXPECT_TRUE(aligner.blocked(0));
  EXPECT_FALSE(aligner.blocked(1));
  EXPECT_EQ(aligner.TryComplete(), 0u);  // waiting on input 1

  aligner.Arrive(1, 1, TupleBatch{});
  EXPECT_EQ(aligner.TryComplete(), 1u);
  EXPECT_FALSE(aligner.blocked(0));
  EXPECT_FALSE(aligner.blocked(1));

  const TupleBatch replay = aligner.TakeHeld(0);
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_EQ(replay[0].event_time, 10);
  EXPECT_EQ(replay[1].event_time, 11);
  EXPECT_TRUE(aligner.TakeHeld(0).empty());  // consumed
}

TEST(BarrierAligner, SkewResolvesTowardHighestEpoch) {
  BarrierAligner aligner(2);
  aligner.Arrive(0, 2, TupleBatch{});
  aligner.Arrive(1, 1, TupleBatch{});
  // Input 1 is behind: it gets unblocked to catch up, nothing completes.
  EXPECT_EQ(aligner.TryComplete(), 0u);
  EXPECT_TRUE(aligner.blocked(0));
  EXPECT_FALSE(aligner.blocked(1));

  aligner.Arrive(1, 2, TupleBatch{});
  EXPECT_EQ(aligner.TryComplete(), 2u);
}

TEST(BarrierAligner, ClosedInputStopsGatingAlignment) {
  BarrierAligner aligner(2);
  aligner.Arrive(0, 3, TupleBatch{});
  EXPECT_EQ(aligner.TryComplete(), 0u);

  aligner.MarkDone(1);
  EXPECT_TRUE(aligner.done(1));
  EXPECT_FALSE(aligner.AllDone());
  EXPECT_EQ(aligner.TryComplete(), 3u);  // only live input has the barrier

  aligner.MarkDone(0);
  EXPECT_TRUE(aligner.AllDone());
  EXPECT_EQ(aligner.TryComplete(), 0u);  // no live inputs remain
}

// --------------------------------------------------- query-level recovery

/// Shared generator position for the recovery tests: the source snapshot
/// hook encodes the next event time to emit; restore seeks back to it.
struct GeneratorState {
  std::int64_t next = 0;
};

void InstallGeneratorHooks(Query* query, const std::string& name,
                           std::shared_ptr<GeneratorState> state) {
  Operator* op = query->FindOperator(name);
  ASSERT_NE(op, nullptr);
  op->SetStateHooks(
      [state](std::uint64_t, std::string* out) {
        codec::PutVarint64(out, static_cast<std::uint64_t>(state->next));
        return Status::Ok();
      },
      [state](std::string_view blob) {
        std::uint64_t next = 0;
        if (!codec::GetVarint64(&blob, &next) || !blob.empty()) {
          return Status::Corruption("generator snapshot");
        }
        state->next = static_cast<std::int64_t>(next);
        return Status::Ok();
      });
}

/// source("gen") -> tumbling count(100) -> sink; the shape both halves of
/// the checkpoint/recover pair rebuild.
StreamPtr BuildCountPipeline(Query* query, SourceFn source,
                             testutil::Collector* sink) {
  StreamPtr src = query->AddSource("gen", std::move(source));
  StreamPtr counts =
      query->AddAggregate("count", src, CountAggregate(WindowSpec{100, 100}));
  query->AddSink("collect", counts, sink->AsSink());
  return counts;
}

TEST(QueryCheckpoint, RecoverResumesSourceAndWindowState) {
  InMemoryCheckpointStore store;
  CheckpointerOptions cp_options;
  cp_options.interval_ms = 200;  // one forced epoch; no trailing epoch races

  // --- run A: emit 0..250, force one epoch through, end the query ---
  auto state_a = std::make_shared<GeneratorState>();
  testutil::Collector sink_a;
  Query a;
  std::atomic<bool> saw_epoch{false};
  BuildCountPipeline(
      &a,
      [state_a, &a, &saw_epoch]() -> std::optional<Tuple> {
        if (state_a->next < 250) {
          return testutil::MakeTuple(state_a->next++);
        }
        if (state_a->next == 250) {
          // Wait for a barrier request, emit one tuple past it, and let the
          // source loop inject the barrier behind that tuple.
          if (!WaitUntil(
                  [&] { return a.checkpointer()->PendingEpoch() != 0; })) {
            return std::nullopt;
          }
          return testutil::MakeTuple(state_a->next++);
        }
        // Hold the query open until the epoch commits, then end naturally.
        saw_epoch = WaitUntil(
            [&] { return a.checkpointer()->stats().epochs_completed >= 1; });
        return std::nullopt;
      },
      &sink_a);
  InstallGeneratorHooks(&a, "gen", state_a);
  a.EnableCheckpointing(&store, cp_options);
  a.Run();
  ASSERT_TRUE(saw_epoch) << "no checkpoint epoch completed in run A";
  ASSERT_TRUE(store.LatestEpoch().ok());

  // --- run B: fresh DAG, recover, emit the rest ---
  auto state_b = std::make_shared<GeneratorState>();
  testutil::Collector sink_b;
  Query b;
  std::int64_t first_emitted = -1;
  BuildCountPipeline(
      &b,
      [state_b, &first_emitted]() -> std::optional<Tuple> {
        if (state_b->next >= 500) return std::nullopt;
        if (first_emitted < 0) first_emitted = state_b->next;
        return testutil::MakeTuple(state_b->next++);
      },
      &sink_b);
  InstallGeneratorHooks(&b, "gen", state_b);
  b.EnableCheckpointing(&store, cp_options);
  ASSERT_TRUE(b.Recover().ok());
  ASSERT_GT(b.recovered_epoch(), 0u);
  b.Run();

  // The source resumed exactly where the snapshot left off (A emitted
  // 0..250 and the barrier rode behind the last tuple).
  EXPECT_EQ(first_emitted, 251);

  // Window [200,300) proves the cut is consistent: its count is the
  // restored accumulator (201..250 from A) plus the replayed remainder
  // (251..299) — exactly 100, no loss, no duplication.
  std::map<std::int64_t, std::int64_t> windows;
  for (const Tuple& t : sink_b.tuples()) {
    windows[t.payload.Get("window_start").AsInt()] =
        t.payload.Get("count").AsInt();
  }
  ASSERT_TRUE(windows.count(200)) << "window [200,300) never closed";
  EXPECT_EQ(windows[200], 100);
  EXPECT_EQ(windows[300], 100);
  EXPECT_EQ(windows[400], 100);
  EXPECT_FALSE(windows.count(0)) << "recovery replayed pre-checkpoint data";
  EXPECT_FALSE(windows.count(100));
}

TEST(QueryCheckpoint, RecoverOnEmptyStoreIsFreshStart) {
  InMemoryCheckpointStore store;
  testutil::Collector sink;
  auto state = std::make_shared<GeneratorState>();
  Query query;
  BuildCountPipeline(
      &query,
      [state]() -> std::optional<Tuple> {
        if (state->next >= 100) return std::nullopt;
        return testutil::MakeTuple(state->next++);
      },
      &sink);
  query.EnableCheckpointing(&store);
  ASSERT_TRUE(query.Recover().ok());
  EXPECT_EQ(query.recovered_epoch(), 0u);
  query.Run();
  ASSERT_EQ(sink.size(), 1u);  // [0,100) flushed at end of stream
  EXPECT_EQ(sink.tuples()[0].payload.Get("count").AsInt(), 100);
}

// ------------------------------------------------ fan-in / fan-out flows

TEST(QueryCheckpoint, UnionAlignsBarriersWithoutLossOrDuplication) {
  InMemoryCheckpointStore store;
  CheckpointerOptions cp_options;
  cp_options.interval_ms = 10;

  constexpr std::int64_t kPerSource = 200;
  auto make_source = [](std::int64_t job, std::chrono::microseconds delay) {
    auto next = std::make_shared<std::int64_t>(0);
    return [next, job, delay]() -> std::optional<Tuple> {
      if (*next >= kPerSource) return std::nullopt;
      std::this_thread::sleep_for(delay);  // keep several epochs in flight
      return testutil::MakeTuple((*next)++, job);
    };
  };

  testutil::Collector sink;
  Query query;
  StreamPtr fast = query.AddSource("fast", make_source(1, 100us));
  StreamPtr slow = query.AddSource("slow", make_source(2, 400us));
  StreamPtr merged = query.AddUnion("merge", {fast, slow});
  query.AddSink("collect", merged, sink.AsSink());
  query.EnableCheckpointing(&store, cp_options);
  query.Run();

  // Exactly-once through the aligner: every (source, seq) pair seen once.
  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  for (const Tuple& t : sink.tuples()) {
    EXPECT_TRUE(seen.emplace(t.job, t.event_time).second)
        << "duplicate tuple job=" << t.job << " t=" << t.event_time;
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(2 * kPerSource));
  EXPECT_GE(query.checkpointer()->stats().epochs_completed, 1u)
      << "test never exercised an aligned epoch";
}

TEST(QueryCheckpoint, SlowInputTimesOutEpochButDataKeepsFlowing) {
  InMemoryCheckpointStore store;
  CheckpointerOptions cp_options;
  cp_options.interval_ms = 10;
  cp_options.epoch_timeout_ms = 50;
  cp_options.failure_warn_threshold = 1;

  constexpr std::int64_t kTuples = 100;
  std::atomic<bool> release{false};

  testutil::Collector sink;
  Query query;
  auto emitted = std::make_shared<std::int64_t>(0);
  StreamPtr live = query.AddSource(
      "live", [emitted, &release]() -> std::optional<Tuple> {
        if (*emitted < kTuples) {
          std::this_thread::sleep_for(1ms);  // stay alive across epochs
          return testutil::MakeTuple((*emitted)++, 1);
        }
        // Drained: park (inside the fn, so no further barriers) until the
        // stuck partner is released, then end.
        WaitUntil([&] { return release.load(); }, 30000ms);
        return std::nullopt;
      });
  StreamPtr stuck =
      query.AddSource("stuck", [&release]() -> std::optional<Tuple> {
        // Never emits, never injects a barrier: the union can never align.
        WaitUntil([&] { return release.load(); }, 30000ms);
        return std::nullopt;
      });
  StreamPtr merged = query.AddUnion("merge", {live, stuck});
  query.AddSink("collect", merged, sink.AsSink());
  query.EnableCheckpointing(&store, cp_options);
  query.Start();

  // The stuck input parks the aligner; the coordinator times the epoch out
  // and flags degradation — the query itself must stay up.
  ASSERT_TRUE(WaitUntil([&] {
    const Checkpointer::Stats s = query.checkpointer()->stats();
    return s.epochs_failed >= 1 && s.degraded;
  }));
  EXPECT_EQ(query.checkpointer()->stats().epochs_completed, 0u);

  release = true;
  query.Join();

  // Once the stuck input closed, the aligner stopped waiting on it and the
  // held tuples were replayed: nothing the live source emitted is lost.
  EXPECT_EQ(sink.size(), static_cast<std::size_t>(kTuples));
}

TEST(QueryCheckpoint, TuplesInCountsDataTuplesOnly) {
  // Barrier markers pass every operator once per epoch; they are not input.
  // "lone" runs on its own thread (the union next to it cannot fuse);
  // "head" -> "tail" fuse into one worker; "merge" aligns two inputs.
  InMemoryCheckpointStore store;
  CheckpointerOptions cp_options;
  cp_options.interval_ms = 5;

  constexpr std::int64_t kTuples = 300;
  auto make_source = [](std::int64_t job) {
    auto next = std::make_shared<std::int64_t>(0);
    return [next, job]() -> std::optional<Tuple> {
      if (*next >= kTuples) return std::nullopt;
      std::this_thread::sleep_for(100us);  // keep several epochs in flight
      return testutil::MakeTuple((*next)++, job);
    };
  };
  auto pass = [](const Tuple& t) { return std::vector<Tuple>{t}; };

  testutil::Collector sink;
  Query query;
  StreamPtr lone = query.AddFlatMap(
      "lone", query.AddSource("gen_a", make_source(1)), pass);
  StreamPtr head = query.AddFlatMap(
      "head", query.AddSource("gen_b", make_source(2)), pass);
  StreamPtr tail = query.AddFlatMap("tail", std::move(head), pass);
  query.AddSink("collect", query.AddUnion("merge", {lone, tail}),
                sink.AsSink());
  query.EnableCheckpointing(&store, cp_options);
  query.Run();

  ASSERT_GE(query.checkpointer()->stats().epochs_completed, 2u)
      << "too few epochs to tell a barrier from a tuple";
  ASSERT_EQ(sink.size(), static_cast<std::size_t>(2 * kTuples));
  std::map<std::string, OperatorStats> stats;
  for (const OperatorStats& s : query.Stats()) stats[s.name] = s;
  for (const char* name : {"lone", "head", "tail"}) {
    EXPECT_EQ(stats.at(name).tuples_in, static_cast<std::uint64_t>(kTuples))
        << name;
  }
  EXPECT_EQ(stats.at("merge").tuples_in,
            static_cast<std::uint64_t>(2 * kTuples));
  EXPECT_EQ(stats.at("collect").tuples_in,
            static_cast<std::uint64_t>(2 * kTuples));
}

TEST(QueryCheckpoint, StopWhileCheckpointingFanOutExitsCleanly) {
  InMemoryCheckpointStore store;
  CheckpointerOptions cp_options;
  cp_options.interval_ms = 5;

  testutil::Collector left;
  testutil::Collector right;
  Query query;
  auto next = std::make_shared<std::int64_t>(0);
  StreamPtr src = query.AddSource("gen", [next]() -> std::optional<Tuple> {
    std::this_thread::sleep_for(100us);
    return testutil::MakeTuple((*next)++, (*next) % 4);
  });
  StreamPtr mapped = query.AddFlatMap(
      "widen", src,
      [](const Tuple& t) { return std::vector<Tuple>{t}; },
      /*parallelism=*/2, [](const Tuple& t) { return std::to_string(t.job); });
  std::vector<StreamPtr> copies = query.AddSplit("tee", mapped, 2);
  query.AddSink("left", copies[0], left.AsSink());
  query.AddSink("right", copies[1], right.AsSink());
  query.EnableCheckpointing(&store, cp_options);

  query.Start();
  ASSERT_TRUE(WaitUntil(
      [&] { return query.checkpointer()->stats().epochs_completed >= 2; }));
  query.Stop();  // barriers may be mid-flight through router/union/split
  query.Join();

  // Fan-out delivered identical streams; barriers never leaked into sinks.
  EXPECT_EQ(left.size(), right.size());
  EXPECT_GT(left.size(), 0u);
  for (const Tuple& t : left.tuples()) EXPECT_FALSE(t.IsBarrier());
}

}  // namespace
}  // namespace strata::spe
