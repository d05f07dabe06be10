#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace strata::obs {

namespace {

/// "name{k1=v1,k2=v2}" (or just "name" when unlabeled).
std::string FullName(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  std::string out = name + "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=" + v;
  }
  out += "}";
  return out;
}

/// Prometheus metric names allow [a-zA-Z0-9_:] only; dots become underscores.
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string PromLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    std::string escaped;
    for (char c : v) {
      if (c == '\\' || c == '"') escaped += '\\';
      if (c == '\n') {
        escaped += "\\n";
        continue;
      }
      escaped += c;
    }
    out += PromName(k) + "=\"" + escaped + "\"";
  }
  out += "}";
  return out;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char c : in) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// `le` bounds used for registry-owned histograms, microsecond-scaled (the
/// repo's histograms record latencies in µs). ~2 buckets per decade keeps
/// the exposition small while the log-linear source stays far finer.
const std::vector<std::int64_t> kPrometheusBucketBounds = {
    10,      25,      50,      100,       250,       500,       1'000,
    2'500,   5'000,   10'000,  25'000,    50'000,    100'000,   250'000,
    500'000, 1'000'000, 2'500'000, 5'000'000, 10'000'000};

std::string FormatValue(double value) {
  // Counters/gauges are integral in practice; print them without decimals.
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

}  // namespace

// ------------------------------------------------------------ MetricsSnapshot

void MetricsSnapshot::AddCounter(std::string name, Labels labels,
                                 std::uint64_t value) {
  samples.push_back(Sample{std::move(name), std::move(labels),
                           Sample::Kind::kCounter,
                           static_cast<double>(value)});
}

void MetricsSnapshot::AddGauge(std::string name, Labels labels,
                               std::int64_t value) {
  samples.push_back(Sample{std::move(name), std::move(labels),
                           Sample::Kind::kGauge, static_cast<double>(value)});
}

void MetricsSnapshot::AddHistogram(std::string name, Labels labels,
                                   BoxplotStats stats) {
  histograms.push_back(
      HistogramSample{std::move(name), std::move(labels), stats, {}});
}

std::optional<double> MetricsSnapshot::Value(std::string_view name,
                                             const Labels& labels) const {
  for (const Sample& s : samples) {
    if (s.name == name && s.labels == labels) return s.value;
  }
  return std::nullopt;
}

double MetricsSnapshot::Sum(std::string_view name, std::string_view label_key,
                            std::string_view value_prefix,
                            const Labels& where) const {
  double total = 0.0;
  for (const Sample& s : samples) {
    if (s.name != name) continue;
    const auto it = s.labels.find(std::string(label_key));
    if (it == s.labels.end() ||
        it->second.compare(0, value_prefix.size(), value_prefix) != 0) {
      continue;
    }
    bool match = true;
    for (const auto& [k, v] : where) {
      const auto wit = s.labels.find(k);
      if (wit == s.labels.end() || wit->second != v) {
        match = false;
        break;
      }
    }
    if (match) total += s.value;
  }
  return total;
}

std::string MetricsSnapshot::ToText() const {
  std::vector<std::string> lines;
  lines.reserve(samples.size() + histograms.size());
  for (const Sample& s : samples) {
    lines.push_back(FullName(s.name, s.labels) + " = " + FormatValue(s.value));
  }
  for (const HistogramSample& h : histograms) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  " = count=%" PRIu64 " mean=%.1f p50=%" PRId64 " p95=%" PRId64
                  " max=%" PRId64,
                  h.stats.count, h.stats.mean, h.stats.p50, h.stats.p95,
                  h.stats.max);
    lines.push_back(FullName(h.name, h.labels) + buf);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  std::string last_type_line;
  // Group samples by name so each # TYPE header appears once.
  std::vector<const Sample*> ordered;
  ordered.reserve(samples.size());
  for (const Sample& s : samples) ordered.push_back(&s);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Sample* a, const Sample* b) {
                     return a->name < b->name;
                   });
  for (const Sample* s : ordered) {
    const std::string prom = PromName(s->name);
    const std::string type_line =
        "# TYPE " + prom + " " +
        (s->kind == Sample::Kind::kCounter ? "counter" : "gauge") + "\n";
    if (type_line != last_type_line) {
      out += type_line;
      last_type_line = type_line;
    }
    out += prom + PromLabels(s->labels) + " " + FormatValue(s->value) + "\n";
  }
  for (const HistogramSample& h : histograms) {
    const std::string prom = PromName(h.name);
    if (!h.buckets.empty()) {
      // Full exposition: cumulative `le` buckets ending in the implicit
      // +Inf bucket, which by contract equals _count.
      out += "# TYPE " + prom + " histogram\n";
      for (const auto& [bound, cumulative] : h.buckets) {
        Labels labels = h.labels;
        labels["le"] = FormatValue(static_cast<double>(bound));
        out += prom + "_bucket" + PromLabels(labels) + " " +
               FormatValue(static_cast<double>(cumulative)) + "\n";
      }
      Labels inf_labels = h.labels;
      inf_labels["le"] = "+Inf";
      out += prom + "_bucket" + PromLabels(inf_labels) + " " +
             FormatValue(static_cast<double>(h.stats.count)) + "\n";
      out += prom + "_sum" + PromLabels(h.labels) + " " + FormatValue(h.sum) +
             "\n";
      out += prom + "_count" + PromLabels(h.labels) + " " +
             FormatValue(static_cast<double>(h.stats.count)) + "\n";
      continue;
    }
    // Boxplot-only source (pull callback): quantile summary fallback.
    out += "# TYPE " + prom + " summary\n";
    for (const auto& [q, v] :
         {std::pair<const char*, std::int64_t>{"0.5", h.stats.p50},
          {"0.75", h.stats.p75},
          {"0.95", h.stats.p95}}) {
      Labels labels = h.labels;
      labels["quantile"] = q;
      out += prom + PromLabels(labels) + " " + FormatValue(static_cast<double>(v)) + "\n";
    }
    out += prom + "_count" + PromLabels(h.labels) + " " +
           FormatValue(static_cast<double>(h.stats.count)) + "\n";
    out += prom + "_sum" + PromLabels(h.labels) + " " +
           FormatValue(h.stats.mean * static_cast<double>(h.stats.count)) +
           "\n";
  }
  return out;
}

std::string MetricsSnapshot::ToJsonLines() const {
  std::string out;
  auto labels_json = [](const Labels& labels) {
    std::string json = "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) json += ",";
      first = false;
      // Appended piecewise: GCC 12 -O3 raises a false -Wrestrict on
      // `"literal" + std::string&&` (GCC bug 105651).
      json.append("\"").append(JsonEscape(k)).append("\":\"");
      json.append(JsonEscape(v)).append("\"");
    }
    json += "}";
    return json;
  };
  for (const Sample& s : samples) {
    out += "{\"name\":\"" + JsonEscape(s.name) + "\",\"kind\":\"" +
           (s.kind == Sample::Kind::kCounter ? std::string("counter")
                                             : std::string("gauge")) +
           "\",\"labels\":" + labels_json(s.labels) +
           ",\"value\":" + FormatValue(s.value) + "}\n";
  }
  for (const HistogramSample& h : histograms) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\"count\":%" PRIu64 ",\"mean\":%g,\"min\":%" PRId64
                  ",\"p25\":%" PRId64 ",\"p50\":%" PRId64 ",\"p75\":%" PRId64
                  ",\"p95\":%" PRId64 ",\"max\":%" PRId64 "}\n",
                  h.stats.count, h.stats.mean, h.stats.min, h.stats.p25,
                  h.stats.p50, h.stats.p75, h.stats.p95, h.stats.max);
    out += "{\"name\":\"" + JsonEscape(h.name) +
           "\",\"kind\":\"histogram\",\"labels\":" + labels_json(h.labels) +
           buf;
  }
  return out;
}

// ------------------------------------------------------------ MetricsRegistry

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  std::lock_guard lock(mu_);
  return &counters_[Key{name, labels}];
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  std::lock_guard lock(mu_);
  return &gauges_[Key{name, labels}];
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name,
                                               const Labels& labels) {
  std::lock_guard lock(mu_);
  return &histograms_[Key{name, labels}];
}

MetricsRegistry::CallbackId MetricsRegistry::RegisterCallback(
    std::function<void(MetricsSnapshot*)> fn) {
  std::lock_guard lock(mu_);
  const CallbackId id = next_callback_++;
  callbacks_[id] = std::move(fn);
  return id;
}

void MetricsRegistry::Unregister(CallbackId id) {
  std::lock_guard lock(mu_);
  callbacks_.erase(id);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::vector<std::function<void(MetricsSnapshot*)>> callbacks;
  {
    std::lock_guard lock(mu_);
    for (const auto& [key, counter] : counters_) {
      snapshot.AddCounter(key.name, key.labels, counter.value());
    }
    for (const auto& [key, gauge] : gauges_) {
      snapshot.AddGauge(key.name, key.labels, gauge.value());
    }
    for (const auto& [key, hist] : histograms_) {
      const Histogram h = hist.Snapshot();
      HistogramSample sample{key.name, key.labels, h.Boxplot(), {}};
      const std::vector<std::uint64_t> cumulative =
          h.CumulativeBuckets(kPrometheusBucketBounds);
      sample.buckets.reserve(cumulative.size());
      for (std::size_t i = 0; i < cumulative.size(); ++i) {
        sample.buckets.emplace_back(kPrometheusBucketBounds[i], cumulative[i]);
      }
      sample.sum = h.sum();
      snapshot.histograms.push_back(std::move(sample));
    }
    callbacks.reserve(callbacks_.size());
    for (const auto& [id, fn] : callbacks_) callbacks.push_back(fn);
  }
  // Callbacks run outside the registry lock: they may take component locks
  // (broker, query) that are also held while calling GetCounter.
  for (const auto& fn : callbacks) fn(&snapshot);
  return snapshot;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace strata::obs
