// Inputs of the Algorithm-1 benchmark: the workload table, the frame cache
// built once per setup by the machine simulator, the two collector sources
// that replay it on the machine's schedule, and the report signature used to
// compare pipeline output against the serial reference.
#pragma once

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "strata/usecase.hpp"

namespace strata::bench {

/// MakePaperJob's blocks are 23 mm tall at 40 um layers: every layer in
/// [0, 575) cuts all 12 specimens, so every frame yields 12 reports.
constexpr int kLayersPerJob = 575;
constexpr int kSpecimens = 12;
constexpr int kThresholdHistoryLayers = 2;
/// Instances of the partition and detectEvent stages, on every workload.
constexpr int kParallelism = 2;
/// Phase lengths in the table below are for this --seconds budget; other
/// budgets scale them linearly.
constexpr double kReferenceSeconds = 24.0;

struct Workload {
  const char* name;
  int image_px;
  /// Layers simulated once and replayed. 200 layers are one cycle of the
  /// job's 8 scan-angle stacks, so the defect load averages over every
  /// orientation instead of depending on the seed's draw in one stack;
  /// 4 MB frames keep the 2000 px cache at 24.
  int cached_frames;
  int cell_px;
  std::int64_t correlate_layers;
  double birth_rate;
  bool networked;   ///< connectors through a loopback net::BrokerServer
  bool durable;     ///< persistent connectors, checkpoints, DeliverDurable
  double open_rate;         ///< offered images/s in the open-loop phase
  double open_seconds;      ///< per open-loop repetition, reference budget
  int capacity_images;      ///< per capacity repetition, reference budget
  /// Frames timed per serial pass, after correlate_layers untimed frames
  /// that fill the correlation windows; reference budget.
  int serial_pass_images;
};

// Each workload puts a different layer under load; see README.md for the
// metrics each one is expected to move. Open-loop rates sit at roughly a
// sixth to two thirds of each workload's capacity on a 4-core host, below
// the saturation knee. Each open-loop repetition delivers at least 1000
// post-warm-up reports per latency window, so a window's p99 rests on at
// least 10 samples; all but `frames` fill two or three windows.
inline constexpr Workload kWorkloads[] = {
    // Tuple-bound: ~15k cells per 500 px image, so per-cell SPE hops and
    // isolateCell dominate.
    {"cells", 500, 200, 2, 20, 0.03, false, false, 48.0, 4.0, 125, 30},
    // Byte-bound: 4 MB 2000 px frames cross a loopback broker server, so
    // codec, pubsub and net dominate.
    {"frames", 2000, 24, 40, 20, 0.03, true, false, 13.0, 7.5, 16, 300},
    // DBSCAN-bound: L=80 and birth rate 0.15 make the single correlate
    // operator the bottleneck.
    {"clusters", 500, 200, 5, 80, 0.15, false, false, 64.0, 4.4, 330, 60},
    // KV-bound: persistent broker, 100 ms checkpoints and a 64 KiB memtable
    // put flushes and compactions beside the durable sink's Get+Put.
    {"durable", 500, 200, 5, 20, 0.15, false, true, 48.0, 4.0, 330, 200},
};

[[nodiscard]] inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Frame `i` of a run: the cached image i % cached_frames stamped as layer
/// i % 575 of job 1 + i / 575, so replay never runs past the job into
/// layers with no specimens and per-(job, specimen) windows see increasing
/// layers.
struct FrameId {
  std::int64_t job;
  std::int64_t layer;
};
[[nodiscard]] inline FrameId FrameAt(int i) {
  return {1 + i / kLayersPerJob, i % kLayersPerJob};
}
[[nodiscard]] inline int FrameIndex(std::int64_t job, std::int64_t layer) {
  return static_cast<int>((job - 1) * kLayersPerJob + layer);
}

/// OT frames and printing parameters of the first layers of a simulated
/// job, generated once and replayed. Images are wrapped once, so replay
/// shares them instead of copying up to 4 MB per tuple.
struct FrameCache {
  am::BuildJobSpec job;
  std::vector<Value> images;
  std::vector<Payload> params;
  Timestamp period = 0;
  double generate_ms_per_frame = 0.0;

  [[nodiscard]] int size() const { return static_cast<int>(images.size()); }
  [[nodiscard]] spe::Tuple OtTuple(int i) const {
    spe::Tuple t = Stamp(i);
    t.payload.Set(core::kOtImageKey, images[Slot(i)]);
    return t;
  }
  [[nodiscard]] spe::Tuple PpTuple(int i) const {
    spe::Tuple t = Stamp(i);
    t.payload = params[Slot(i)];
    return t;
  }

 private:
  [[nodiscard]] std::size_t Slot(int i) const {
    return static_cast<std::size_t>(i) % images.size();
  }
  [[nodiscard]] spe::Tuple Stamp(int i) const {
    const FrameId id = FrameAt(i);
    spe::Tuple t;
    t.job = id.job;
    t.layer = id.layer;
    t.event_time = static_cast<Timestamp>(i + 1) * period;
    return t;
  }
};

[[nodiscard]] inline FrameCache BuildFrameCache(const Workload& w,
                                                std::uint64_t seed) {
  FrameCache cache;
  cache.job = am::MakePaperJob(1, w.image_px);
  am::MachineParams params;
  params.job = cache.job;
  params.defects.birth_rate = w.birth_rate;
  params.defects.seed = seed;
  params.layers_limit = w.cached_frames;
  am::MachineSimulator machine(params);
  cache.period = machine.LayerPeriodMicros();
  const Timestamp start = Clock::System().Now();
  while (auto layer = machine.NextLayer()) {
    cache.images.push_back(am::MakeImageValue(std::move(layer->ot_image)));
    cache.params.push_back(std::move(layer->printing_params));
  }
  cache.generate_ms_per_frame =
      MicrosToMillis(Clock::System().Now() - start) / cache.size();
  return cache;
}

/// The machine's schedule shared by both collector sources: frame i is due
/// at start + i / rate (rate <= 0: unthrottled). Sources block until
/// Release() publishes the start, so deployment cost never eats into the
/// schedule. The OT source records how late it ran behind each due time.
class Schedule {
 public:
  Schedule(int images, double rate)
      : images_(images), rate_(rate),
        lag_us_(static_cast<std::size_t>(images), 0) {}
  Schedule(const Schedule&) = delete;
  Schedule& operator=(const Schedule&) = delete;

  void Release(Timestamp start) { start_.store(start, std::memory_order_release); }
  [[nodiscard]] Timestamp start() const {
    return start_.load(std::memory_order_acquire);
  }
  [[nodiscard]] Timestamp Due(int i) const {
    return start() + static_cast<Timestamp>(i * 1e6 / rate_);
  }
  /// Written by the OT source thread only; read after the query joined.
  [[nodiscard]] const std::vector<Timestamp>& lag_us() const { return lag_us_; }

  /// Collector source replaying `cache` on this schedule. Each tuple's
  /// stimulus is its due time, so a stalled pipeline shows up as report
  /// latency rather than as a slower generator (no coordinated omission).
  [[nodiscard]] spe::SourceFn Source(const FrameCache* cache, bool ot) {
    auto next = std::make_shared<int>(0);
    return [this, cache, ot, next]() -> std::optional<spe::Tuple> {
      const int i = (*next)++;
      if (i >= images_) return std::nullopt;
      while (start() == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
      spe::Tuple t = ot ? cache->OtTuple(i) : cache->PpTuple(i);
      if (rate_ > 0) {
        const Timestamp due = Due(i);
        WaitUntil(due);
        if (ot) {
          lag_us_[static_cast<std::size_t>(i)] = Clock::System().Now() - due;
        }
        t.stimulus = due;
      }
      return t;
    };
  }

 private:
  /// Sleeps to just before `due`, then yields until it: a plain sleep wakes
  /// up to milliseconds late once the pipeline keeps every core busy.
  static void WaitUntil(Timestamp due) {
    constexpr Timestamp kSpinUs = 500;
    const Clock& clock = Clock::System();
    clock.SleepUntil(due - kSpinUs);
    while (clock.Now() < due) std::this_thread::yield();
  }

  const int images_;
  const double rate_;
  std::atomic<Timestamp> start_{0};
  std::vector<Timestamp> lag_us_;
};

/// Report identity and content compared against the serial reference:
/// (job, layer, specimen) -> window/noise counts and each cluster's point
/// count, weight and centroid, printed at full precision.
using ReportKey = std::tuple<std::int64_t, std::int64_t, std::int64_t>;

[[nodiscard]] inline std::string Signature(const core::ClusterReport& r) {
  std::string out = "w=" + std::to_string(r.window_events) +
                    " n=" + std::to_string(r.noise_events);
  char buf[96];
  for (const cluster::ClusterSummary& c : r.clusters) {
    std::snprintf(buf, sizeof(buf), " [%zu %.17g %.17g %.17g]", c.point_count,
                  c.total_weight, c.centroid_x, c.centroid_y);
    out += buf;
  }
  return out;
}

/// Reference report set: every report of frames [0, images).
using ReportSet = std::map<ReportKey, std::string>;

}  // namespace strata::bench
