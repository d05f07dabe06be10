// Historical data: persistent connectors let finished jobs be re-analyzed.
//
// Phase 1 prints a job with persistent broker topics (raw OT frames are
// retained on disk, like a compacted Kafka topic). Phase 2 re-opens the same
// data directory, replays the raw topic from offset 0 into an ad-hoc
// analysis (recomputing thermal statistics per layer), and refreshes the
// thresholds in the key-value store — the paper's "information from past
// jobs maintained and later shared with other jobs". Exits non-zero unless
// phase 2 replays exactly as many frames as phase 1 archived.
//
//   build/examples/historical_replay [layers]
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <vector>

#include "am/history.hpp"
#include "strata/collectors.hpp"
#include "strata/strata.hpp"

using namespace strata;        // NOLINT
using namespace strata::core;  // NOLINT

int main(int argc, char** argv) {
  const int layers = argc > 1 ? std::atoi(argv[1]) : 25;
  strata::fs::ScopedTempDir dir("historical-replay");

  am::MachineParams machine_params;
  machine_params.job = am::MakeSmallJob(1, /*image_px=*/400, /*specimens=*/2);
  machine_params.layers_limit = layers;
  machine_params.defects.birth_rate = 0.05;

  // ---- Phase 1: live job with persistent connectors ----
  std::size_t archived = 0;
  {
    StrataOptions options;
    options.data_dir = dir.path();
    options.persistent_connectors = true;
    Strata strata_rt(options);

    auto machine = std::make_shared<am::MachineSimulator>(machine_params);
    auto ot = strata_rt.AddSource(
        "ot", OtImageCollector(
                  machine, CollectorPacing{
                               .mode = CollectorPacing::Mode::kReplay}));
    strata_rt.Deliver("archive", ot,
                      [&archived](const spe::Tuple&) { ++archived; });
    strata_rt.Deploy();
    strata_rt.WaitForCompletion();
    std::printf("phase 1: archived %zu OT frames to %s\n", archived,
                dir.path().c_str());
  }

  // ---- Phase 2: reopen and replay the archived topic ----
  std::size_t replayed_frames = 0;
  {
    StrataOptions options;
    options.data_dir = dir.path();
    options.persistent_connectors = true;
    Strata strata_rt(options);
    // Re-declare the topic so the broker reloads its segments.
    strata_rt.broker().CreateTopic("raw.ot", {.partitions = 1}).OrDie();

    auto subscriber = std::move(ConnectorSubscriber::Create(
                                    &strata_rt.broker(), "raw.ot",
                                    "replay-analysis"))
                          .value();
    auto replayed = strata_rt.query().AddBatchSource(
        "replay", subscriber->AsBatchSourceFn());
    // Ad-hoc analysis: per-layer mean intensity of each frame.
    std::mutex mu;
    std::vector<double> layer_means;
    strata_rt.Deliver("stats", replayed, [&](const spe::Tuple& t) {
      const auto image =
          t.payload.Get(kOtImageKey).AsOpaque<am::ImageValue>();
      std::lock_guard lock(mu);
      layer_means.push_back(image->image().RegionMean(
          0, 0, image->image().width(), image->image().height()));
    });
    strata_rt.Deploy();
    strata_rt.WaitForCompletion();

    replayed_frames = layer_means.size();
    std::printf("phase 2: replayed %zu frames from the archive\n",
                replayed_frames);
    if (!layer_means.empty()) {
      std::vector<double> sorted = layer_means;
      std::sort(sorted.begin(), sorted.end());
      const double p05 = sorted[sorted.size() / 20];
      const double p95 = sorted[sorted.size() * 19 / 20];
      am::ThermalThresholds thresholds{p05 * 0.98, p05, p95, p95 * 1.02};
      strata_rt
          .Store(am::ThresholdKey("replayed-machine"), thresholds.Serialize())
          .OrDie();
      std::printf(
          "updated thresholds from history: very_cold=%.1f very_warm=%.1f\n",
          thresholds.very_cold, thresholds.very_warm);
    }
  }
  if (archived == 0 || replayed_frames != archived) {
    std::fprintf(stderr, "FAIL: archived %zu frames but replayed %zu\n",
                 archived, replayed_frames);
    return 1;
  }
  return 0;
}
