// Single-threaded Algorithm 1: the same user functions and the same
// correlateEvents window logic as the facade, called in a plain loop with no
// SPE, broker or codec. It is both the correctness reference and the
// single-threaded baseline of serial_images_s.
#pragma once

#include <chrono>
#include <map>
#include <vector>

#include "bench_inputs.hpp"

namespace strata::bench {

[[nodiscard]] inline core::UseCaseParams UseCaseFor(const Workload& w) {
  core::UseCaseParams params;
  params.cell_px = w.cell_px;
  params.correlate_layers = w.correlate_layers;
  params.partition_parallelism = kParallelism;
  params.detect_parallelism = kParallelism;
  return params;
}

/// Self-times of the user functions, filled only when a pass is asked to
/// time them (timed passes are not the ones serial_images_s uses).
struct SerialTimers {
  double isolate_specimen_us = 0.0;  ///< summed over frames
  double isolate_cell_us = 0.0;      ///< summed over specimens
  double label_cell_ns = 0.0;        ///< summed over cells
  std::uint64_t frames = 0;
  std::uint64_t specimens = 0;
  std::uint64_t cells = 0;
  std::uint64_t events = 0;
  std::vector<double> correlate_us;  ///< one per report
  std::uint64_t window_points = 0;   ///< summed over reports
};

/// Algorithm 1 over frames 0, 1, 2, ... in order, resumable: Run() continues
/// where the previous call stopped, with the correlation windows intact, so
/// a run can be split into chunks timed at different moments.
class SerialReference {
 public:
  /// `kv` supplies the thresholds labelCell reads; it is never deployed.
  SerialReference(const Workload& w, const am::BuildJobSpec& job,
                  core::Strata* kv)
      : window_(w.correlate_layers),
        isolate_specimen_(core::IsolateSpecimen()),
        isolate_cell_(core::IsolateCell(w.cell_px)),
        label_cell_(core::LabelCell(kv, UseCaseFor(w).machine_id)),
        correlate_(core::DbscanCorrelator(UseCaseFor(w), job.plate.PxPerMm())) {}

  /// Runs frames [next, end) of `cache`; returns the wall seconds taken.
  double Run(const FrameCache& cache, int end, SerialTimers* timers) {
    const auto start = Clock::now();
    for (; next_ < end; ++next_) RunFrame(cache, next_, timers);
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  [[nodiscard]] const ReportSet& reports() const noexcept { return reports_; }

 private:
  using Clock = std::chrono::steady_clock;

  static double MicrosSince(Clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
  }

  /// What Strata::Partition / DetectEvent do to each output tuple.
  static void InheritMetadata(const spe::Tuple& in,
                              std::vector<spe::Tuple>* out, bool detect) {
    for (spe::Tuple& o : *out) {
      o.event_time = in.event_time;
      o.job = in.job;
      o.layer = in.layer;
      o.stimulus = in.stimulus;
      if (detect) {
        if (o.specimen == spe::kUnsetId) o.specimen = in.specimen;
        if (o.portion == spe::kUnsetId) o.portion = in.portion;
      }
    }
  }

  void RunFrame(const FrameCache& cache, int i, SerialTimers* timers) {
    spe::Tuple fused = cache.OtTuple(i);  // what fuse() emits for (OT, pp)
    fused.payload.MergeCompatible(cache.PpTuple(i).payload).OrDie();

    auto t0 = Clock::now();
    std::vector<spe::Tuple> specimens = isolate_specimen_(fused);
    if (timers != nullptr) {
      timers->isolate_specimen_us += MicrosSince(t0);
      ++timers->frames;
    }
    InheritMetadata(fused, &specimens, /*detect=*/false);

    for (const spe::Tuple& specimen : specimens) {
      if (core::IsLayerMarker(specimen)) {
        CloseLayer(specimen, timers);
        continue;
      }
      t0 = Clock::now();
      std::vector<spe::Tuple> cells = isolate_cell_(specimen);
      if (timers != nullptr) {
        timers->isolate_cell_us += MicrosSince(t0);
        ++timers->specimens;
        timers->cells += cells.size();
      }
      InheritMetadata(specimen, &cells, /*detect=*/false);

      t0 = Clock::now();
      for (const spe::Tuple& cell : cells) {
        std::vector<spe::Tuple> events = label_cell_(cell);
        InheritMetadata(cell, &events, /*detect=*/true);
        for (spe::Tuple& event : events) {
          groups_[{event.job, event.specimen}][event.layer].push_back(
              std::move(event));
          if (timers != nullptr) ++timers->events;
        }
      }
      if (timers != nullptr) timers->label_cell_ns += MicrosSince(t0) * 1e3;
    }
  }

  /// Strata::CorrelateEvents on a layer marker: window [layer - L, layer],
  /// then eviction of layers no later window can reach.
  void CloseLayer(const spe::Tuple& marker, SerialTimers* timers) {
    auto& layers = groups_[{marker.job, marker.specimen}];
    core::EventWindow event_window;
    event_window.job = marker.job;
    event_window.specimen = marker.specimen;
    event_window.layer = marker.layer;
    for (const auto& [layer, events] : layers) {
      if (layer < marker.layer - window_ || layer > marker.layer) continue;
      event_window.events.insert(event_window.events.end(), events.begin(),
                                 events.end());
    }
    const auto t0 = Clock::now();
    const std::vector<spe::Tuple> out = correlate_(event_window);
    if (timers != nullptr) {
      timers->correlate_us.push_back(MicrosSince(t0));
      timers->window_points += event_window.events.size();
    }
    for (const spe::Tuple& t : out) {
      const core::ClusterReport& report =
          t.payload.Get("report").AsOpaque<core::ClusterReportValue>()->report();
      reports_[{report.job, report.layer, report.specimen}] = Signature(report);
    }
    std::erase_if(layers, [&](const auto& entry) {
      return entry.first < marker.layer + 1 - window_;
    });
  }

  const std::int64_t window_;
  const core::PartitionFn isolate_specimen_;
  const core::PartitionFn isolate_cell_;
  const core::DetectFn label_cell_;
  const core::CorrelateFn correlate_;
  /// correlateEvents state: (job, specimen) -> layer -> events in arrival
  /// order.
  std::map<std::pair<std::int64_t, std::int64_t>,
           std::map<std::int64_t, std::vector<spe::Tuple>>>
      groups_;
  ReportSet reports_;
  int next_ = 0;
};

}  // namespace strata::bench
