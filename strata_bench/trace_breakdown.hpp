// Per-layer numbers derived from the spans the pipeline already records
// (obs::Tracer): per-operator service and queue-wait percentiles, and how much
// of each report's latency the traced work spans account for.
#pragma once

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/trace.hpp"

namespace strata::bench {

/// Linear interpolation between closest ranks (numpy's default); 0 when
/// empty.
[[nodiscard]] inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

[[nodiscard]] inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

struct SpanStats {
  double exec_p50_us = 0.0;
  double exec_p99_us = 0.0;
  double queue_p50_us = 0.0;
  double queue_p99_us = 0.0;
};

/// Spans named `name` whose category starts with `category_prefix`.
[[nodiscard]] inline SpanStats StatsOf(const std::vector<obs::Span>& spans,
                                       std::string_view name,
                                       std::string_view category_prefix) {
  std::vector<double> exec;
  std::vector<double> queue;
  for (const obs::Span& span : spans) {
    if (name != span.name ||
        std::string_view(span.category).substr(0, category_prefix.size()) !=
            category_prefix) {
      continue;
    }
    exec.push_back(static_cast<double>(span.dur_us));
    queue.push_back(static_cast<double>(span.queue_us));
  }
  SpanStats stats;
  stats.exec_p50_us = Quantile(exec, 0.5);
  stats.exec_p99_us = Quantile(exec, 0.99);
  stats.queue_p50_us = Quantile(queue, 0.5);
  stats.queue_p99_us = Quantile(queue, 0.99);
  return stats;
}

/// For each report chain (a `sink` span followed up its parent links to a
/// generator source span named in `roots`), the share of the interval from
/// the generator's emission to the sink's end covered by work spans. Work
/// spans are the operator hops on the chain (queue wait + service) and, for
/// each connector hop, the publisher sink, produce, fetch and server spans
/// hanging off the same parent. Connector subscriber source spans are idle
/// time: they include the long-poll wait for data that does not exist yet.
[[nodiscard]] inline std::vector<double> ChainCoverage(
    const std::vector<obs::Span>& spans, std::string_view sink,
    const std::vector<std::string>& roots) {
  std::unordered_map<std::uint64_t, const obs::Span*> by_id;
  std::unordered_map<std::uint64_t, std::vector<const obs::Span*>> children;
  for (const obs::Span& span : spans) {
    by_id[span.span_id] = &span;
    if (span.parent_span != 0) children[span.parent_span].push_back(&span);
  }
  auto is_source = [](const obs::Span& s) {
    return std::string_view(s.category) == "spe.source";
  };

  std::vector<double> coverage;
  for (const obs::Span& end_span : spans) {
    if (sink != end_span.name) continue;
    std::vector<const obs::Span*> chain{&end_span};
    std::unordered_set<std::uint64_t> on_chain{end_span.span_id};
    while (chain.back()->parent_span != 0) {
      const auto parent = by_id.find(chain.back()->parent_span);
      if (parent == by_id.end() || !on_chain.insert(parent->first).second) break;
      chain.push_back(parent->second);
    }
    const obs::Span& root = *chain.back();
    if (!is_source(root) ||
        std::find(roots.begin(), roots.end(), root.name) == roots.end()) {
      continue;  // trace started mid-pipeline, or its root span was lost
    }
    const std::int64_t begin = root.start_us + root.dur_us;
    const std::int64_t end = end_span.start_us + end_span.dur_us;
    if (end <= begin) continue;

    std::vector<std::pair<std::int64_t, std::int64_t>> work;
    auto add = [&](const obs::Span& s) {
      work.emplace_back(std::max(begin, s.start_us - s.queue_us),
                        std::min(end, s.start_us + s.dur_us));
    };
    // A connector hop's work hangs off the upstream span, beside the
    // subscriber span on the chain; collect that subtree.
    auto add_hop = [&](const obs::Span& subscriber) {
      std::vector<const obs::Span*> pending;
      if (const auto it = children.find(subscriber.parent_span);
          it != children.end()) {
        pending = it->second;
      }
      while (!pending.empty()) {
        const obs::Span* s = pending.back();
        pending.pop_back();
        if (is_source(*s) || on_chain.count(s->span_id) != 0 ||
            s->trace_id != subscriber.trace_id) {
          continue;
        }
        add(*s);
        if (const auto it = children.find(s->span_id); it != children.end()) {
          pending.insert(pending.end(), it->second.begin(), it->second.end());
        }
      }
    };
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      if (is_source(*chain[i])) {
        add_hop(*chain[i]);
      } else {
        add(*chain[i]);
      }
    }

    std::sort(work.begin(), work.end());
    std::int64_t covered = 0;
    std::int64_t cursor = begin;
    for (const auto& [lo, hi] : work) {
      const std::int64_t from = std::max(lo, cursor);
      if (hi > from) {
        covered += hi - from;
        cursor = hi;
      }
    }
    coverage.push_back(static_cast<double>(covered) /
                       static_cast<double>(end - begin));
  }
  return coverage;
}

}  // namespace strata::bench
