// Crash-recovery plumbing above the SPE: the kv-backed checkpoint store,
// the effectively-once durable sink, and facade-level
// checkpoint -> shutdown -> rebuild -> recover round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "am/image.hpp"
#include "clustering/report.hpp"
#include "common/codec.hpp"
#include "common/fs.hpp"
#include "spe/codec.hpp"
#include "strata/checkpoint_store.hpp"
#include "strata/strata.hpp"

namespace strata::core {
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

// --------------------------------------------------- KvCheckpointStore

class KvCheckpointStoreTest : public ::testing::Test {
 protected:
  KvCheckpointStoreTest() : dir_("ckpt-store") {
    db_ = std::move(kv::DB::Open(dir_.path(), {})).value();
  }
  strata::fs::ScopedTempDir dir_;
  std::unique_ptr<kv::DB> db_;
};

TEST_F(KvCheckpointStoreTest, FreshStoreHasNoEpoch) {
  KvCheckpointStore store(db_.get());
  EXPECT_TRUE(store.LatestEpoch().status().IsNotFound());
  EXPECT_FALSE(store.Get(1).ok());
}

TEST_F(KvCheckpointStoreTest, PutCommitGetRoundTrip) {
  KvCheckpointStore store(db_.get());
  ASSERT_TRUE(store.Put(1, "manifest-1").ok());
  // Put alone is staging: not recoverable until the commit pointer moves.
  EXPECT_TRUE(store.LatestEpoch().status().IsNotFound());
  ASSERT_TRUE(store.Commit(1).ok());

  auto latest = store.LatestEpoch();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 1u);
  auto blob = store.Get(1);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, "manifest-1");
}

TEST_F(KvCheckpointStoreTest, GcKeepsTwoNewestEpochs) {
  KvCheckpointStore store(db_.get());
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) {
    const std::string n = std::to_string(epoch);
    ASSERT_TRUE(store.Put(epoch, "m" + n).ok());
    ASSERT_TRUE(store.Commit(epoch).ok());
  }
  EXPECT_EQ(*store.LatestEpoch(), 5u);
  // The previous complete epoch survives as a fallback recovery point;
  // everything older is garbage-collected.
  EXPECT_TRUE(store.Get(5).ok());
  EXPECT_TRUE(store.Get(4).ok());
  EXPECT_FALSE(store.Get(3).ok());
  EXPECT_FALSE(store.Get(2).ok());
  EXPECT_FALSE(store.Get(1).ok());
}

TEST_F(KvCheckpointStoreTest, SurvivesReopen) {
  {
    KvCheckpointStore store(db_.get());
    ASSERT_TRUE(store.Put(7, "persisted").ok());
    ASSERT_TRUE(store.Commit(7).ok());
  }
  db_.reset();
  db_ = std::move(kv::DB::Open(dir_.path(), {})).value();
  KvCheckpointStore store(db_.get());
  ASSERT_TRUE(store.LatestEpoch().ok());
  EXPECT_EQ(*store.LatestEpoch(), 7u);
  EXPECT_EQ(*store.Get(7), "persisted");
}

TEST_F(KvCheckpointStoreTest, DistinctPrefixesAreIndependent) {
  KvCheckpointStore a(db_.get(), "a/");
  KvCheckpointStore b(db_.get(), "b/");
  ASSERT_TRUE(a.Put(1, "for-a").ok());
  ASSERT_TRUE(a.Commit(1).ok());
  EXPECT_TRUE(b.LatestEpoch().status().IsNotFound());
}

// ------------------------------------------------------- DeliverDurable

TEST(DeliverDurable, WritesEachKeyOnceAndCountsDuplicates) {
  Strata strata;
  auto next = std::make_shared<int>(0);
  auto stream = strata.AddSource("src", [next]() -> std::optional<spe::Tuple> {
    if (*next >= 6) return std::nullopt;
    spe::Tuple t;
    t.job = 1;
    t.layer = *next;
    t.event_time = (*next)++ + 1;
    return t;
  });
  // Six tuples, three distinct keys: the second write of each key must be
  // recognized as a duplicate and dropped.
  strata.DeliverDurable("reports", stream, "reports/",
                        [](const spe::Tuple& t) {
                          return std::to_string(t.layer % 3);
                        });
  strata.Deploy();
  strata.WaitForCompletion();

  auto entries = strata.GetByPrefix("reports/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 3u);

  bool found = false;
  for (const auto& sample : strata.MetricsSnapshot().samples) {
    if (sample.name == "strata.deliver_durable.duplicates") {
      EXPECT_EQ(sample.value, 3);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "duplicate counter not exported";
  strata.Shutdown();
}

TEST(DeliverDurable, StoresClusterReportWhole) {
  cluster::ClusterReport report;
  report.job = 3;
  report.layer = 41;
  report.specimen = 7;
  report.window_events = 120;
  report.noise_events = 9;
  cluster::ClusterSummary summary;
  summary.cluster_id = 2;
  summary.point_count = 17;
  summary.total_weight = 33.25;
  summary.min_x = -1.5;
  summary.max_x = 4.0;
  summary.min_y = 0.125;
  summary.max_y = 9.75;
  summary.min_layer = 38;
  summary.max_layer = 41;
  summary.centroid_x = 1.25;
  summary.centroid_y = 5.5;
  report.clusters = {summary, summary};
  report.clusters[1].cluster_id = 5;
  am::GrayImage rendering(5, 3);
  rendering.set(4, 2, 250);
  report.rendering = std::make_shared<const am::GrayImage>(rendering);

  Strata strata;
  auto sent = std::make_shared<bool>(false);
  auto stream = strata.query().AddSource(
      "reports.src", [sent, report]() -> std::optional<spe::Tuple> {
        if (*sent) return std::nullopt;
        *sent = true;
        spe::Tuple t;
        t.job = report.job;
        t.layer = report.layer;
        t.specimen = report.specimen;
        t.payload.Set("report",
                      Value(OpaqueRef(
                          std::make_shared<const cluster::ClusterReportValue>(
                              report))));
        return t;
      });
  strata.DeliverDurable("reports", stream, "reports/",
                        [](const spe::Tuple& t) {
                          return std::to_string(t.layer);
                        });
  strata.Deploy();
  strata.WaitForCompletion();

  auto stored = strata.Get("reports/41");
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  auto tuple = spe::DecodeTuple(*stored);
  ASSERT_TRUE(tuple.ok()) << tuple.status().ToString();
  EXPECT_EQ(tuple->specimen, 7);
  // Opaque == is pointer identity: compare the report field by field.
  const auto value =
      tuple->payload.Get("report").AsOpaque<cluster::ClusterReportValue>();
  const cluster::ClusterReport& got = value->report();
  EXPECT_EQ(got.job, report.job);
  EXPECT_EQ(got.layer, report.layer);
  EXPECT_EQ(got.specimen, report.specimen);
  EXPECT_EQ(got.window_events, report.window_events);
  EXPECT_EQ(got.noise_events, report.noise_events);
  ASSERT_EQ(got.clusters.size(), report.clusters.size());
  for (std::size_t i = 0; i < got.clusters.size(); ++i) {
    const cluster::ClusterSummary& a = got.clusters[i];
    const cluster::ClusterSummary& b = report.clusters[i];
    EXPECT_EQ(a.cluster_id, b.cluster_id);
    EXPECT_EQ(a.point_count, b.point_count);
    EXPECT_EQ(a.total_weight, b.total_weight);
    EXPECT_EQ(a.min_x, b.min_x);
    EXPECT_EQ(a.max_x, b.max_x);
    EXPECT_EQ(a.min_y, b.min_y);
    EXPECT_EQ(a.max_y, b.max_y);
    EXPECT_EQ(a.min_layer, b.min_layer);
    EXPECT_EQ(a.max_layer, b.max_layer);
    EXPECT_EQ(a.centroid_x, b.centroid_x);
    EXPECT_EQ(a.centroid_y, b.centroid_y);
  }
  ASSERT_NE(got.rendering, nullptr);
  EXPECT_EQ(*got.rendering, rendering);
  strata.Shutdown();
}

struct Unregistered final : OpaqueValue {
  [[nodiscard]] const char* TypeName() const noexcept override {
    return "unregistered";
  }
  [[nodiscard]] std::size_t ApproxBytes() const noexcept override { return 8; }
};

double CounterValue(const Strata& strata, const std::string& name,
                    const obs::Labels& labels) {
  for (const auto& sample : strata.MetricsSnapshot().samples) {
    if (sample.name == name && sample.labels == labels) return sample.value;
  }
  return -1;  // not exported
}

TEST(DeliverDurable, UnencodableTuplesCountAsErrors) {
  // One tuple per sink carries a payload type without a codec: the
  // connector publisher and the durable sink each count it instead of
  // dropping it with only a log line.
  auto one_tuple = [](std::shared_ptr<bool> sent) {
    return [sent]() -> std::optional<spe::Tuple> {
      if (*sent) return std::nullopt;
      *sent = true;
      spe::Tuple t;
      t.job = 1;
      t.payload.Set("x",
                    Value(OpaqueRef(std::make_shared<const Unregistered>())));
      return t;
    };
  };
  Strata strata;
  auto published =
      strata.AddSource("gen", one_tuple(std::make_shared<bool>(false)));
  strata.Deliver("sink", published, [](const spe::Tuple&) {});
  auto direct = strata.query().AddSource(
      "direct", one_tuple(std::make_shared<bool>(false)));
  strata.DeliverDurable("durable", direct, "d/",
                        [](const spe::Tuple&) { return std::string("k"); });
  EXPECT_EQ(CounterValue(strata, "strata.connector.encode_errors",
                         {{"topic", "raw.gen"}}),
            0);
  EXPECT_EQ(CounterValue(strata, "strata.deliver_durable.errors",
                         {{"sink", "durable"}}),
            0);
  strata.Deploy();
  strata.WaitForCompletion();

  EXPECT_EQ(CounterValue(strata, "strata.connector.encode_errors",
                         {{"topic", "raw.gen"}}),
            1);
  EXPECT_EQ(CounterValue(strata, "strata.deliver_durable.errors",
                         {{"sink", "durable"}}),
            1);
  EXPECT_FALSE(strata.Get("d/k").ok());
  strata.Shutdown();
}

// ------------------------------------- facade-level checkpoint/recover

std::int64_t FirstDelivered(const std::vector<std::int64_t>& values) {
  return values.empty() ? -1 : values.front();
}

TEST(StrataRecovery, RebuildRecoversFromLatestEpochAndResumesSource) {
  strata::fs::ScopedTempDir dir("strata-recover");
  StrataOptions options;
  options.data_dir = dir.path();
  options.persistent_connectors = true;
  options.checkpoint_interval_ms = 20;

  // ---- run A: emit until at least one epoch commits, then shut down ----
  std::int64_t source_position_a = 0;
  {
    Strata strata(options);
    auto position = std::make_shared<std::int64_t>(0);
    auto stream = strata.AddSource(
        "gen", [position]() -> std::optional<spe::Tuple> {
          std::this_thread::sleep_for(1ms);  // outlive several intervals
          spe::Tuple t;
          t.job = 1;
          t.layer = (*position)++;
          t.event_time = t.layer + 1;
          return t;
        });
    std::atomic<std::int64_t> delivered{0};
    strata.Deliver("sink", stream, [&](const spe::Tuple&) { ++delivered; });
    strata.query().FindOperator("gen")->SetStateHooks(
        [position](std::uint64_t, std::string* out) {
          codec::PutVarint64(out, static_cast<std::uint64_t>(*position));
          return Status::Ok();
        },
        [position](std::string_view blob) {
          std::uint64_t value = 0;
          if (!codec::GetVarint64(&blob, &value)) {
            return Status::Corruption("gen snapshot");
          }
          *position = static_cast<std::int64_t>(value);
          return Status::Ok();
        });
    strata.Deploy();
    EXPECT_EQ(strata.query().recovered_epoch(), 0u);  // fresh start
    ASSERT_TRUE(WaitUntil([&] {
      return strata.query().checkpointer()->stats().epochs_completed >= 1 &&
             delivered.load() > 0;
    }));
    strata.Shutdown();
    source_position_a = *position;
    ASSERT_GT(source_position_a, 0);
  }

  // ---- run B: same directory, same pipeline, fresh process state ----
  {
    Strata strata(options);
    auto position = std::make_shared<std::int64_t>(0);
    auto restored_at = std::make_shared<std::int64_t>(-1);
    auto stream = strata.AddSource(
        "gen", [position]() -> std::optional<spe::Tuple> {
          spe::Tuple t;
          t.job = 1;
          t.layer = (*position)++;
          t.event_time = t.layer + 1;
          return t;
        });
    std::vector<std::int64_t> delivered;
    std::mutex mu;
    strata.Deliver("sink", stream, [&](const spe::Tuple& t) {
      std::lock_guard lock(mu);
      delivered.push_back(t.layer);
    });
    strata.query().FindOperator("gen")->SetStateHooks(
        [position](std::uint64_t, std::string* out) {
          codec::PutVarint64(out, static_cast<std::uint64_t>(*position));
          return Status::Ok();
        },
        [position, restored_at](std::string_view blob) {
          std::uint64_t value = 0;
          if (!codec::GetVarint64(&blob, &value)) {
            return Status::Corruption("gen snapshot");
          }
          *position = static_cast<std::int64_t>(value);
          *restored_at = *position;
          return Status::Ok();
        });
    strata.Deploy();  // recovers before starting

    // The checkpoint was found and the generator resumed mid-stream
    // instead of re-emitting from zero.
    EXPECT_GT(strata.query().recovered_epoch(), 0u);
    EXPECT_GT(*restored_at, 0) << "generator position not restored";
    EXPECT_LE(*restored_at, source_position_a);

    ASSERT_TRUE(WaitUntil([&] {
      std::lock_guard lock(mu);
      return delivered.size() >= 5;
    }));
    strata.Shutdown();

    std::lock_guard lock(mu);
    // Replay starts at the checkpoint cut (at-least-once), never at zero:
    // the subscriber's restored cursor skips everything the checkpoint
    // already covered.
    EXPECT_GT(FirstDelivered(delivered), 0)
        << "recovery replayed the stream from the beginning";
  }
}

// Fuse (Algorithm 1, line 3) buffers OT frames until the matching printing
// parameters arrive, so its checkpoint must carry the frames' pixels.
spe::Tuple OtFrame(std::int64_t layer) {
  am::GrayImage image(8, 6);
  for (int y = 0; y < 6; ++y) {
    for (int x = 0; x < 8; ++x) {
      image.set(x, y, static_cast<std::uint8_t>(layer * 31 + x * 7 + y));
    }
  }
  spe::Tuple t;
  t.job = 1;
  t.layer = layer;
  t.event_time = layer + 1;
  t.payload.Set("ot_image", am::MakeImageValue(std::move(image)));
  return t;
}

const am::GrayImage& FrameOf(const spe::Tuple& t) {
  return t.payload.Get("ot_image").AsOpaque<am::ImageValue>()->image();
}

spe::Tuple PpTuple(std::int64_t layer) {
  spe::Tuple t;
  t.job = 1;
  t.layer = layer;
  t.event_time = layer + 1;
  t.payload.Set("speed", 100.0 + static_cast<double>(layer));
  return t;
}

/// Batch source replaying `script` one tuple per call from a checkpointed
/// position. While the position is at `gate`, or past the script with
/// `idle_when_done`, it idles on empty batches (which still inject
/// barriers); otherwise it ends the stream once the script is exhausted.
spe::StreamPtr ScriptedSource(Strata* strata, const std::string& name,
                              std::vector<spe::Tuple> script, std::size_t gate,
                              bool idle_when_done) {
  auto position = std::make_shared<std::size_t>(0);
  spe::StreamPtr out = strata->query().AddBatchSource(
      name, [=]() -> std::optional<spe::TupleBatch> {
        if (*position < std::min(gate, script.size())) {
          return spe::TupleBatch{script[(*position)++]};
        }
        if (*position < script.size() || idle_when_done) {
          std::this_thread::sleep_for(1ms);
          return spe::TupleBatch{};
        }
        return std::nullopt;
      });
  strata->query().FindOperator(name)->SetStateHooks(
      [position](std::uint64_t, std::string* blob) {
        codec::PutVarint64(blob, *position);
        return Status::Ok();
      },
      [position](std::string_view blob) {
        std::uint64_t value = 0;
        if (!codec::GetVarint64(&blob, &value) || !blob.empty()) {
          return Status::Corruption("scripted source snapshot");
        }
        *position = static_cast<std::size_t>(value);
        return Status::Ok();
      });
  return out;
}

/// Joined outputs by layer: the OT frame's pixels and the fused speed.
using FusedOutputs = std::map<std::int64_t, std::pair<am::GrayImage, double>>;

/// OT frames for layers 5 and 7, printing parameters for layers 0..9 of
/// which the first `pp_gate` flow at once, fused on (τ, job, layer).
void BuildFuse(Strata* strata, std::size_t pp_gate, bool ot_idles,
               std::mutex* mu, FusedOutputs* outputs) {
  auto ot =
      ScriptedSource(strata, "ot", {OtFrame(5), OtFrame(7)}, 2, ot_idles);
  std::vector<spe::Tuple> pp;
  for (std::int64_t layer = 0; layer < 10; ++layer) {
    pp.push_back(PpTuple(layer));
  }
  auto params = ScriptedSource(strata, "pp", std::move(pp), pp_gate, false);
  auto fused = strata->Fuse("fuse.m0", ot, params);
  strata->Deliver("sink", fused, [mu, outputs](const spe::Tuple& t) {
    std::lock_guard lock(*mu);
    const auto output =
        std::make_pair(FrameOf(t), t.payload.Get("speed").AsDouble());
    const auto [it, inserted] = outputs->emplace(t.layer, output);
    // A replayed output must equal the first delivery.
    EXPECT_TRUE(inserted || it->second == output);
  });
}

/// Decodes fuse.m0's state from the latest committed checkpoint.
Result<spe::JoinState> LatestFuseState(Strata* strata) {
  auto manifest = strata->query().checkpointer()->LoadLatest();
  if (!manifest.ok()) return manifest.status();
  for (const spe::OperatorSnapshot& op : manifest->operators) {
    if (op.name == "fuse.m0" && !op.blob.empty()) {
      return spe::JoinState::Decode(op.blob);
    }
  }
  return Status::NotFound("no fuse.m0 state in the latest checkpoint");
}

TEST(StrataRecovery, FuseCheckpointsBufferedOtFrames) {
  // Reference: the uninterrupted run.
  std::mutex mu;
  FusedOutputs reference;
  {
    Strata strata;
    BuildFuse(&strata, /*pp_gate=*/10, /*ot_idles=*/false, &mu, &reference);
    strata.Deploy();
    strata.WaitForCompletion();
    strata.Shutdown();
  }
  ASSERT_EQ(reference.size(), 2u);

  strata::fs::ScopedTempDir dir("strata-fuse-recover");
  StrataOptions options;
  options.data_dir = dir.path();
  options.checkpoint_interval_ms = 20;
  FusedOutputs outputs;

  // Run A: both frames arrive, the parameters that would fuse them are held
  // back, so every epoch cuts fuse.m0 with two OT frames buffered.
  {
    Strata strata(options);
    BuildFuse(&strata, /*pp_gate=*/5, /*ot_idles=*/true, &mu, &outputs);
    strata.Deploy();
    ASSERT_TRUE(WaitUntil([&] {
      auto state = LatestFuseState(&strata);
      return state.ok() && state->buffers[0].size() == 2 &&
             state->max_time[1] == 5;
    })) << "no epoch completed with the OT frames buffered";
    EXPECT_EQ(strata.query().checkpointer()->stats().epochs_failed, 0u);
    strata.Shutdown();
  }
  EXPECT_TRUE(outputs.empty());

  // Run B: rebuilt from the checkpoint. The OT source resumes past both
  // frames, so only the restored buffer can fuse them.
  {
    Strata strata(options);
    BuildFuse(&strata, /*pp_gate=*/10, /*ot_idles=*/false, &mu, &outputs);
    auto state = LatestFuseState(&strata);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    ASSERT_EQ(state->buffers[0].size(), 2u);
    EXPECT_EQ(FrameOf(state->buffers[0][0].second), FrameOf(OtFrame(5)));
    strata.Deploy();
    EXPECT_GT(strata.query().recovered_epoch(), 0u);
    strata.WaitForCompletion();
    strata.Shutdown();
  }
  EXPECT_EQ(outputs, reference);
}

}  // namespace
}  // namespace strata::core
