// Figure 7 reproduction: processing throughput (thousands of cells/s) and
// average latency for an increasing number of OT images/s offered to the
// Algorithm-1 query, for cell sizes 20x20 and 10x10 (at the paper's 8 px/mm
// scale).
//
// As in the paper, input is replayed as fast as the offered rate allows:
// frames are pre-generated once and replayed cyclically with monotonically
// increasing layer numbers, so the pipeline (including both connectors)
// processes a steady stream.
//
// Expected shape (paper): throughput grows linearly with the offered rate
// until the query's capacity, then flattens while latency turns upward; the
// 10x10 curve flattens at ~1/4 of the images/s of the 20x20 curve (each
// 20x20 cell = four 10x10 cells), at a similar cells/s plateau.
//
// Env knobs: STRATA_FIG7_PX (default 1000), STRATA_FIG7_FRAMES (default 24),
//            STRATA_FIG7_MAXRATE (default 256).
//
// `--trace-out <file>` additionally runs one traced trial after the sweep
// (sampling 1/16) and writes a Chrome trace-event JSON for Perfetto, plus a
// per-stage latency breakdown appended to the bench artifact.
#include <cmath>
#include <cstring>

#include "bench_json.hpp"
#include "figure_common.hpp"
#include "obs/trace.hpp"

using namespace strata;         // NOLINT
using namespace strata::bench;  // NOLINT
using namespace strata::core;   // NOLINT

namespace {

struct FrameCache {
  am::BuildJobSpec job;
  std::vector<am::GrayImage> frames;
  std::vector<Payload> params;
  Timestamp period = SecondsToMicros(33.0);
};

FrameCache BuildCache(int image_px, int frame_count) {
  FrameCache cache;
  cache.job = am::MakePaperJob(1, image_px);
  am::MachineParams machine_params;
  machine_params.job = cache.job;
  machine_params.defects.birth_rate = 0.03;
  machine_params.layers_limit = frame_count;
  am::MachineSimulator machine(machine_params);
  while (auto layer = machine.NextLayer()) {
    cache.frames.push_back(std::move(layer->ot_image));
    cache.params.push_back(std::move(layer->printing_params));
  }
  return cache;
}

/// Replays cached frames cyclically with increasing layer ids at `rate`
/// images/s (<= 0: unthrottled), `count` images total.
spe::SourceFn CachedOtSource(const FrameCache* cache, int count, double rate) {
  auto state = std::make_shared<std::pair<int, Timestamp>>(0, 0);
  return [cache, count, rate, state]() -> std::optional<spe::Tuple> {
    if (state->first >= count) return std::nullopt;
    const int i = state->first++;
    if (rate > 0) {
      const Clock& clock = Clock::System();
      if (state->second == 0) state->second = clock.Now();
      clock.SleepUntil(state->second +
                       static_cast<Timestamp>(i * 1e6 / rate));
    }
    spe::Tuple t;
    t.job = 1;
    t.layer = i;
    t.event_time = static_cast<Timestamp>(i + 1) * cache->period;
    t.payload.Set(kOtImageKey,
                  am::MakeImageValue(
                      cache->frames[static_cast<std::size_t>(i) %
                                    cache->frames.size()]));
    return t;
  };
}

spe::SourceFn CachedPpSource(const FrameCache* cache, int count) {
  auto next = std::make_shared<int>(0);
  return [cache, count, next]() -> std::optional<spe::Tuple> {
    if (*next >= count) return std::nullopt;
    const int i = (*next)++;
    spe::Tuple t;
    t.job = 1;
    t.layer = i;
    t.event_time = static_cast<Timestamp>(i + 1) * cache->period;
    t.payload =
        cache->params[static_cast<std::size_t>(i) % cache->params.size()];
    return t;
  };
}

struct SweepPoint {
  double offered_rate;
  double achieved_images_s;
  double kcells_s;
  double mean_latency_ms;
  double p95_latency_ms;
  double p99_latency_ms;  // tail guard for the batching linger
  double blocked_ms;  // back-pressure: total producer block time (spe.stream)
  std::uint64_t epochs_completed = 0;  // checkpointing trials only
  std::uint64_t epochs_failed = 0;
};

/// Per-stage tuples_out from the metrics registry (parallel shards summed,
/// plumbing operators excluded via the kind label).
void PrintStageMetrics(const obs::MetricsSnapshot& snap) {
  struct Stage {
    const char* op;
    const char* kind;
  };
  constexpr Stage kStages[] = {
      {"fuse.m0", "join"},       {"spec.m0", "flatmap"},
      {"cell.m0", "flatmap"},    {"label.m0", "flatmap"},
      {"cluster.m0", "flatmap"}, {"expert.m0", "sink"},
  };
  std::printf("    stage tuples:");
  for (const Stage& stage : kStages) {
    // Sinks have no outputs; their traffic is what they consumed.
    const bool is_sink = std::string_view(stage.kind) == "sink";
    std::printf(" %s=%.0f", stage.op,
                snap.Sum(is_sink ? "spe.operator.tuples_in"
                                 : "spe.operator.tuples_out",
                         "op", stage.op, {{"kind", stage.kind}}));
  }
  std::printf("\n");
}

SweepPoint RunReplayTrial(const FrameCache& cache, int cell_px, double rate,
                          int images,
                          std::int64_t checkpoint_interval_ms = 0) {
  StrataOptions options;
  options.checkpoint_interval_ms = checkpoint_interval_ms;
  Strata strata_rt(options);
  UseCaseParams params;
  params.cell_px = cell_px;
  params.correlate_layers = 20;
  params.partition_parallelism = 2;
  params.detect_parallelism = 2;
  ComputeAndStoreThresholds(&strata_rt, params.machine_id, cache.job,
                            /*history_layers=*/2, cell_px)
      .OrDie();

  auto pp = strata_rt.AddSource("pp.m0", CachedPpSource(&cache, images));
  auto ot = strata_rt.AddSource("ot.m0", CachedOtSource(&cache, images, rate));
  auto fused = strata_rt.Fuse("fuse.m0", ot, pp);
  auto specimens = strata_rt.Partition("spec.m0", fused, IsolateSpecimen());
  auto cells = strata_rt.Partition("cell.m0", specimens, IsolateCell(cell_px),
                                   params.partition_parallelism);
  auto events = strata_rt.DetectEvent("label.m0", cells,
                                      LabelCell(&strata_rt, params.machine_id),
                                      params.detect_parallelism);
  auto reports =
      strata_rt.CorrelateEvents("cluster.m0", events, params.correlate_layers,
                                DbscanCorrelator(params, cache.job.plate.PxPerMm()));
  auto* sink = strata_rt.Deliver("expert.m0", reports, nullptr);

  const Timestamp start = Clock::System().Now();
  strata_rt.Deploy();
  strata_rt.WaitForCompletion();
  const double wall = MicrosToSeconds(Clock::System().Now() - start);

  // Per-stage counts come from the metrics registry: parallel shards of the
  // cell stage are summed by op-name prefix, with the kind label excluding
  // the router/union plumbing around them.
  const obs::MetricsSnapshot snap = strata_rt.MetricsSnapshot();
  const double cells_out =
      snap.Sum("spe.operator.tuples_out", "op", "cell.m0", {{"kind", "flatmap"}});
  const double blocked_us =
      snap.Sum("spe.stream.blocked_us", "stream", "");
  PrintStageMetrics(snap);
  const Histogram latency = sink->LatencySnapshot();
  SweepPoint point{rate, images / wall,
                   cells_out / wall / 1000.0,
                   MicrosToMillis(static_cast<Timestamp>(latency.mean())),
                   MicrosToMillis(latency.Quantile(0.95)),
                   MicrosToMillis(latency.Quantile(0.99)),
                   blocked_us / 1000.0};
  if (checkpoint_interval_ms > 0) {
    const spe::Checkpointer::Stats stats =
        strata_rt.query().checkpointer()->stats();
    point.epochs_completed = stats.epochs_completed;
    point.epochs_failed = stats.epochs_failed;
  }
  return point;
}

/// Checkpointing on vs off: the same unthrottled replay, once without
/// barriers and once with epoch-barrier checkpoints persisting to the
/// kvstore. The delta is the steady-state cost of effectively-once
/// (barrier alignment, operator snapshots, manifest writes); the
/// acceptance bar is < 10% of fig7 throughput. The epoch cadence is
/// scaled to the off-trial's wall time so every measurement averages
/// over at least kMinEpochs completed epochs instead of a single
/// noise-dominated one.
void RunCheckpointOverhead(const FrameCache& cache, int image_px,
                           JsonLinesWriter* out) {
  constexpr std::uint64_t kMinEpochs = 5;
  const int cell_px = std::max(1, 20 * image_px / 2000);
  const int images = 128;
  SweepPoint off =
      RunReplayTrial(cache, cell_px, /*rate=*/0, images);
  const double off_wall_ms =
      off.achieved_images_s > 0 ? images / off.achieved_images_s * 1000.0
                                : 1000.0;
  std::int64_t interval_ms = static_cast<std::int64_t>(
      std::clamp(off_wall_ms / (kMinEpochs + 3.0), 25.0, 250.0));
  std::printf("--- checkpoint overhead (cell 20x20, unthrottled, %lld ms "
              "interval) ---\n",
              static_cast<long long>(interval_ms));
  SweepPoint on =
      RunReplayTrial(cache, cell_px, /*rate=*/0, images, interval_ms);
  int trial_images = images;
  // Near saturation the epoch rate is limited by barrier traversal of the
  // backlogged pipeline, not by the cadence, so a tighter interval alone
  // does not help: lengthen the run until the mean covers enough epochs,
  // then re-measure the off baseline once at the same length.
  for (int attempt = 0;
       attempt < 2 && on.epochs_completed < kMinEpochs; ++attempt) {
    interval_ms = std::max<std::int64_t>(25, interval_ms / 4);
    trial_images *= 4;
    std::printf("    only %llu epochs; retrying with %d images at %lld ms\n",
                static_cast<unsigned long long>(on.epochs_completed),
                trial_images, static_cast<long long>(interval_ms));
    on = RunReplayTrial(cache, cell_px, /*rate=*/0, trial_images,
                        interval_ms);
  }
  if (trial_images != images) {
    off = RunReplayTrial(cache, cell_px, /*rate=*/0, trial_images);
  }
  const double on_wall_ms =
      on.achieved_images_s > 0 ? trial_images / on.achieved_images_s * 1000.0
                               : 0.0;
  const double epoch_mean_ms =
      on.epochs_completed > 0 ? on_wall_ms / on.epochs_completed : 0.0;
  const double overhead_pct =
      off.kcells_s > 0 ? (off.kcells_s - on.kcells_s) / off.kcells_s * 100.0
                       : 0.0;
  std::printf("    off: %.1f kcells/s   on: %.1f kcells/s   overhead: %.1f%%"
              "   epochs: %llu completed (mean %.1f ms), %llu failed\n",
              off.kcells_s, on.kcells_s, overhead_pct,
              static_cast<unsigned long long>(on.epochs_completed),
              epoch_mean_ms,
              static_cast<unsigned long long>(on.epochs_failed));
  out->Line(JsonObject()
                .Str("bench", "bench_fig7_throughput")
                .Str("kind", "checkpoint_overhead")
                .Int("image_px", image_px)
                .Int("checkpoint_interval_ms", interval_ms)
                .Num("kcells_s_off", off.kcells_s)
                .Num("kcells_s_on", on.kcells_s)
                .Num("overhead_pct", overhead_pct)
                .Int("epochs_completed",
                     static_cast<long long>(on.epochs_completed))
                .Num("epoch_mean_ms", epoch_mean_ms)
                .Int("epochs_failed",
                     static_cast<long long>(on.epochs_failed)));
}

/// One trial with sampling at 1/16: exports the spans as a Chrome trace for
/// Perfetto and appends the per-stage latency breakdown to the artifact.
/// Runs after the sweep so tracing overhead never touches the headline
/// numbers.
void RunTracedTrial(const FrameCache& cache, int image_px,
                    const char* trace_path, JsonLinesWriter* out) {
  const int cell_px = std::max(1, 20 * image_px / 2000);
  obs::Tracer& tracer = obs::Tracer::Instance();
  tracer.Configure(16);
  tracer.Clear();
  std::printf("--- traced trial (cell 20x20, rate 32, sample 1/16) ---\n");
  const SweepPoint point =
      RunReplayTrial(cache, cell_px, /*rate=*/32, /*images=*/128);
  const std::vector<obs::Span> spans = tracer.CollectSpans();
  tracer.Configure(0);
  tracer.Clear();
  std::printf("    achieved %.1f img/s, %.1f kcells/s, %zu spans\n",
              point.achieved_images_s, point.kcells_s, spans.size());

  if (std::FILE* f = std::fopen(trace_path, "w"); f != nullptr) {
    const std::string json = obs::Tracer::ToChromeTrace(spans);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("    chrome trace -> %s (load in Perfetto)\n", trace_path);
  } else {
    std::printf("    cannot open %s for writing\n", trace_path);
  }

  std::printf("%28s %8s %10s %10s %10s %10s %12s\n", "stage", "spans",
              "exec p50", "exec p95", "exec p99", "queue p50", "total(ms)");
  for (const obs::StageStats& stage : obs::Tracer::Summarize(spans)) {
    const std::string label = stage.category + "/" + stage.name;
    std::printf("%28s %8llu %8lldus %8lldus %8lldus %8lldus %12.1f\n",
                label.c_str(),
                static_cast<unsigned long long>(stage.count),
                static_cast<long long>(stage.exec_p50_us),
                static_cast<long long>(stage.exec_p95_us),
                static_cast<long long>(stage.exec_p99_us),
                static_cast<long long>(stage.queue_p50_us),
                stage.total_exec_us / 1000.0);
    out->Line(JsonObject()
                  .Str("bench", "bench_fig7_throughput")
                  .Str("kind", "stage_breakdown")
                  .Str("category", stage.category)
                  .Str("stage", stage.name)
                  .Int("spans", static_cast<long long>(stage.count))
                  .Int("exec_p50_us", stage.exec_p50_us)
                  .Int("exec_p95_us", stage.exec_p95_us)
                  .Int("exec_p99_us", stage.exec_p99_us)
                  .Int("queue_p50_us", stage.queue_p50_us)
                  .Int("queue_p95_us", stage.queue_p95_us)
                  .Int("total_exec_us", stage.total_exec_us));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_out = nullptr;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0) trace_out = argv[i + 1];
  }
  const int image_px = EnvInt("STRATA_FIG7_PX", 1000);
  const int frame_count = EnvInt("STRATA_FIG7_FRAMES", 24);
  const int max_rate = EnvInt("STRATA_FIG7_MAXRATE", 256);

  std::printf(
      "== Figure 7: throughput / latency vs offered OT images/s ==\n"
      "12 specimens, %dx%d px frames replayed cyclically, L=20\n\n",
      image_px, image_px);

  const FrameCache cache = BuildCache(image_px, frame_count);
  JsonLinesWriter out("STRATA_BENCH_JSON", "BENCH_SPE.json");

  // Cell sizes quoted at the paper's 2000 px (8 px/mm) scale.
  for (const int paper_cell : {20, 10}) {
    const int cell_px = std::max(1, paper_cell * image_px / 2000);
    std::printf("--- cell size %dx%d (paper scale) ---\n", paper_cell,
                paper_cell);
    std::printf("%12s %14s %12s %14s %14s %14s %12s\n", "offered/s",
                "achieved img/s", "kcells/s", "mean lat(ms)", "p95 lat(ms)",
                "p99 lat(ms)", "blocked(ms)");
    for (double rate = 4; rate <= max_rate; rate *= 2) {
      const int images =
          std::clamp(static_cast<int>(rate * 4), 48, 256);
      const SweepPoint point = RunReplayTrial(cache, cell_px, rate, images);
      std::printf("%12.0f %14.1f %12.1f %14.2f %14.2f %14.2f %12.1f\n",
                  point.offered_rate, point.achieved_images_s, point.kcells_s,
                  point.mean_latency_ms, point.p95_latency_ms,
                  point.p99_latency_ms, point.blocked_ms);
      out.Line(JsonObject()
                   .Str("bench", "bench_fig7_throughput")
                   .Int("paper_cell", paper_cell)
                   .Int("image_px", image_px)
                   .Num("offered_rate", point.offered_rate)
                   .Num("achieved_images_s", point.achieved_images_s)
                   .Num("kcells_s", point.kcells_s)
                   .Num("mean_latency_ms", point.mean_latency_ms)
                   .Num("p95_latency_ms", point.p95_latency_ms)
                   .Num("p99_latency_ms", point.p99_latency_ms)
                   .Num("blocked_ms", point.blocked_ms));
    }
    std::printf("\n");
  }

  RunCheckpointOverhead(cache, image_px, &out);

  if (trace_out != nullptr) RunTracedTrial(cache, image_px, trace_out, &out);
  return 0;
}
