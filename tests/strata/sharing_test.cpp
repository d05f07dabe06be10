// Pipeline sharing (paper §3/§4: "parts of a given data pipeline can be
// shared by different experts and/or across jobs" and "distinct pipelines
// from one or more users can overlap"). One OT source feeds two independent
// analyses through Split; a second consumer group re-reads the same raw
// topic for an archival consumer.
#include <gtest/gtest.h>

#include <atomic>

#include "strata/usecase.hpp"

namespace strata::core {
namespace {

TEST(PipelineSharing, SplitFeedsTwoExpertAnalyses) {
  Strata strata_rt;

  am::MachineParams machine_params;
  machine_params.job = am::MakeSmallJob(1, 250, 1);
  machine_params.layers_limit = 10;
  auto machine = std::make_shared<am::MachineSimulator>(machine_params);

  CollectorPacing pacing;
  pacing.mode = CollectorPacing::Mode::kReplay;
  auto ot = strata_rt.AddSource("ot.shared",
                                OtImageCollector(machine, pacing));
  auto branches = strata_rt.Split("fan", ot, 2);

  // Expert A: frame-mean watchdog.
  std::atomic<int> watchdog_tuples{0};
  auto watched = strata_rt.DetectEvent(
      "watchdog", branches[0], [](const spe::Tuple& t) {
        const auto image =
            t.payload.Get(kOtImageKey).AsOpaque<am::ImageValue>();
        spe::Tuple out;
        out.payload.Set("frame_mean",
                        image->image().RegionMean(0, 0, image->image().width(),
                                                  image->image().height()));
        return std::vector<spe::Tuple>{out};
      });
  strata_rt.Deliver("expert-a", watched,
                    [&](const spe::Tuple&) { ++watchdog_tuples; });

  // Expert B: raw archival counter.
  std::atomic<int> archived{0};
  strata_rt.Deliver("expert-b", branches[1],
                    [&](const spe::Tuple&) { ++archived; });

  strata_rt.Deploy();
  strata_rt.WaitForCompletion();

  EXPECT_EQ(watchdog_tuples.load(), 10);
  EXPECT_EQ(archived.load(), 10);
}

TEST(PipelineSharing, SecondConsumerGroupReplaysRawTopic) {
  Strata strata_rt;

  am::MachineParams machine_params;
  machine_params.job = am::MakeSmallJob(1, 200, 1);
  machine_params.layers_limit = 6;
  auto machine = std::make_shared<am::MachineSimulator>(machine_params);

  CollectorPacing pacing;
  pacing.mode = CollectorPacing::Mode::kReplay;
  auto ot = strata_rt.AddSource("ot.replayable",
                                OtImageCollector(machine, pacing));
  std::atomic<int> live{0};
  strata_rt.Deliver("live", ot, [&](const spe::Tuple&) { ++live; });
  strata_rt.Deploy();
  strata_rt.WaitForCompletion();
  EXPECT_EQ(live.load(), 6);

  // The raw topic retains everything: a late-joining analysis (another
  // expert, another group) replays the whole job.
  auto subscriber = std::move(ConnectorSubscriber::Create(
                                  &strata_rt.broker(), "raw.ot.replayable",
                                  "late-expert"))
                        .value();
  auto source = subscriber->AsBatchSourceFn();
  int replayed = 0;
  while (auto batch = source()) {
    for (const spe::Tuple& tuple : *batch) {
      EXPECT_TRUE(tuple.payload.Has(kOtImageKey));
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, 6);
}

TEST(PipelineSharing, ThermalAndStreakStagesCoexist) {
  // Two full pipelines (different machines) plus a watchdog share one
  // Strata deployment: the SPE runs all operators, the broker hosts all
  // topics, the KV store serves both threshold sets.
  Strata strata_rt;

  std::atomic<int> thermal_reports{0};
  {
    am::MachineParams machine_params;
    machine_params.job = am::MakeSmallJob(1, 250, 1);
    machine_params.layers_limit = 8;
    UseCaseParams params;
    params.machine_id = "thermal-m";
    params.cell_px = 5;
    ComputeAndStoreThresholds(&strata_rt, params.machine_id,
                              machine_params.job, 2, params.cell_px)
        .OrDie();
    auto machine = std::make_shared<am::MachineSimulator>(machine_params);
    BuildThermalPipeline(&strata_rt, machine,
                         CollectorPacing{.mode = CollectorPacing::Mode::kReplay},
                         params,
                         [&](const ClusterReport&) { ++thermal_reports; });
  }

  std::atomic<int> watchdog{0};
  {
    am::MachineParams machine_params;
    machine_params.job = am::MakeSmallJob(2, 250, 1);
    machine_params.layers_limit = 8;
    auto machine = std::make_shared<am::MachineSimulator>(machine_params);
    auto ot = strata_rt.AddSource(
        "ot.watchdog-m",
        OtImageCollector(machine,
                         CollectorPacing{.mode = CollectorPacing::Mode::kReplay}));
    strata_rt.Deliver("watch", ot, [&](const spe::Tuple&) { ++watchdog; });
  }

  strata_rt.Deploy();
  strata_rt.WaitForCompletion();
  EXPECT_EQ(thermal_reports.load(), 8);
  EXPECT_EQ(watchdog.load(), 8);
  EXPECT_GE(strata_rt.broker().ListTopics().size(), 4u);
}

}  // namespace
}  // namespace strata::core
