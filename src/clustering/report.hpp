// The per-(layer, specimen) result that correlateEvents delivers to the
// expert, and its opaque payload wrapper. It lives below the SPE so the
// tuple codec (spe/codec.hpp) can checkpoint and persist it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "clustering/point.hpp"
#include "common/value.hpp"

namespace strata::am {
class GrayImage;
}  // namespace strata::am

namespace strata::cluster {

struct ClusterReport {
  std::int64_t job = 0;
  std::int64_t layer = 0;
  std::int64_t specimen = 0;
  std::vector<ClusterSummary> clusters;  // >= min_report_points
  std::size_t window_events = 0;
  std::size_t noise_events = 0;
  /// Set when render_cluster_images is on.
  std::shared_ptr<const am::GrayImage> rendering;
};

/// Opaque payload wrapper carrying a ClusterReport to the sink.
class ClusterReportValue final : public OpaqueValue {
 public:
  explicit ClusterReportValue(ClusterReport report)
      : report_(std::move(report)) {}
  [[nodiscard]] const char* TypeName() const noexcept override {
    return "ClusterReport";
  }
  [[nodiscard]] std::size_t ApproxBytes() const noexcept override {
    return sizeof(ClusterReport) +
           report_.clusters.size() * sizeof(ClusterSummary);
  }
  [[nodiscard]] const ClusterReport& report() const noexcept {
    return report_;
  }

 private:
  ClusterReport report_;
};

}  // namespace strata::cluster
