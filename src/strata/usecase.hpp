// The paper's real-world use-case (§5, Figure 3, Algorithm 1): detect
// specimen portions melted with too-low or too-high thermal energy and
// cluster them within and across layers with DBSCAN.
//
// Pipeline (Alg. 1):
//   1  addSource(PrintingParameterCollector, pp)
//   2  addSource(OTImageCollector, OT)
//   3  fuse(OT, pp, OT&pp)                      -- Join on τ, job, layer
//   4  partition(OT&pp, spec, isolateSpecimen)  -- per-specimen sub-frames
//   5  partition(spec, cell, isolateCell)       -- per-cell mean intensity
//   6  detectEvent(cell, cellLabel, labelCell)  -- classify vs KV thresholds
//   7  correlateEvents(cellLabel, out, L, DBSCAN)
#pragma once

#include <functional>
#include <memory>

#include "am/history.hpp"
#include "clustering/dbscan.hpp"
#include "clustering/report.hpp"
#include "strata/collectors.hpp"
#include "strata/strata.hpp"

namespace strata::core {

struct UseCaseParams {
  std::string machine_id = "m0";
  /// Cell edge in pixels (paper sweeps 40x40 .. 2x2).
  int cell_px = 20;
  /// L: number of previous layers correlateEvents clusters together
  /// (paper sweeps 5 .. 80).
  std::int64_t correlate_layers = 20;
  /// Parallelism of the cell partition / labeling stages.
  int partition_parallelism = 1;
  int detect_parallelism = 1;
  /// DBSCAN in-plane radius in units of the cell edge (adjacent cells
  /// connect when > 1).
  double dbscan_eps_cells = 1.6;
  std::int64_t dbscan_layer_reach = 2;
  std::size_t dbscan_min_pts = 3;
  /// Clusters smaller than this are not reported to the expert.
  std::size_t min_report_points = 5;
  /// Render a Figure-4-style cluster image per report (costs CPU).
  bool render_cluster_images = false;
};

/// Cell classification labels (paper: very cold/cold/regular/warm/very warm).
enum class CellLabel : int {
  kVeryCold = -2,
  kCold = -1,
  kRegular = 0,
  kWarm = 1,
  kVeryWarm = 2,
};

[[nodiscard]] CellLabel ClassifyCell(double mean,
                                     const am::ThermalThresholds& thresholds);

/// Per-(layer, specimen) result delivered to the expert, and its payload
/// wrapper (defined below the SPE so the tuple codec can encode it).
using cluster::ClusterReport;
using cluster::ClusterReportValue;

// ---- Algorithm 1 user functions --------------------------------------------

/// isolateSpecimen(): one output tuple per specimen cross-section present on
/// the layer, carrying the shared OT frame plus the specimen's pixel rect,
/// followed by a per-specimen layer-completion marker.
[[nodiscard]] PartitionFn IsolateSpecimen();

/// isolateCell(): per specimen tuple, one output tuple per cell_px x cell_px
/// cell with its mean intensity and plate-coordinates centre (mm).
[[nodiscard]] PartitionFn IsolateCell(int cell_px);

/// labelCell(): classify each cell against the machine's thresholds (read
/// once from the key-value store) and forward only very-cold/very-warm cells
/// as events. Throws at first use if the thresholds are missing.
[[nodiscard]] DetectFn LabelCell(Strata* strata, std::string machine_id);

/// DBSCAN correlator for correlateEvents: clusters the window's events under
/// the cylinder metric and emits one report tuple per completed layer.
[[nodiscard]] CorrelateFn DbscanCorrelator(const UseCaseParams& params,
                                           double px_per_mm);

/// Figure-4-style rendering: events colored by cluster id over the specimen
/// footprint.
[[nodiscard]] am::GrayImage RenderClusterImage(
    const std::vector<cluster::Point>& points, const std::vector<int>& labels,
    const am::SpecimenSpec& specimen, double px_per_mm);

// ---- Pipeline assembly ------------------------------------------------------

/// Builds the analysis half of Algorithm 1 (L3-L7: fuse, partition, detect,
/// correlate, deliver) on pre-existing pp/ot streams. Use directly when the
/// collectors run in a different process and the streams arrive through
/// Strata::ImportSource over a networked broker; BuildThermalPipeline wraps
/// it for the single-process case. `px_per_mm` is the OT camera resolution
/// (machine->job().plate.PxPerMm() when the machine is at hand).
spe::SinkOperator* BuildThermalAnalysis(
    Strata* strata, spe::StreamPtr pp, spe::StreamPtr ot, double px_per_mm,
    const UseCaseParams& params,
    std::function<void(const ClusterReport&)> deliver);

/// Builds the full Algorithm-1 pipeline on `strata` for one machine.
/// `deliver` receives each ClusterReport. Returns the expert-facing sink
/// (whose latency histogram is the paper's reported metric).
spe::SinkOperator* BuildThermalPipeline(
    Strata* strata, std::shared_ptr<am::MachineSimulator> machine,
    const CollectorPacing& pacing, const UseCaseParams& params,
    std::function<void(const ClusterReport&)> deliver);

// ---- XCT post-analysis ------------------------------------------------------

/// Defect density observed inside each embedded XCT cylinder (paper §5:
/// the cylinders are machined out after the build and scanned by X-ray
/// Computed Tomography; this gives the in-situ prediction to compare
/// against). One entry per (specimen, cylinder) with at least one cluster
/// centroid inside the cylinder footprint.
struct XctCylinderSummary {
  std::int64_t specimen = 0;
  int cylinder = -1;
  /// Per-layer cluster observations whose centroid fell in this cylinder.
  std::size_t cluster_observations = 0;
  /// Accumulated cluster weight (event deviation mass).
  double total_weight = 0.0;
};

[[nodiscard]] std::vector<XctCylinderSummary> SummarizeDefectsPerCylinder(
    const std::vector<ClusterReport>& reports, const am::BuildJobSpec& job);

/// Computes thresholds from a simulated defect-free historical job for the
/// same geometry and stores them in the KV store under ThresholdKey().
[[nodiscard]] Status ComputeAndStoreThresholds(Strata* strata,
                                               const std::string& machine_id,
                                               const am::BuildJobSpec& job,
                                               int history_layers,
                                               int cell_px);

}  // namespace strata::core
