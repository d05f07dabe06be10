// The STRATA framework facade (paper §4, Figure 2, Table 1).
//
// STRATA layers an AM-specific API on three substrates: a stream processing
// engine (strata::spe) for analysis, a pub/sub broker (strata::ps) for the
// Raw Data / Event Connectors, and a key-value store (strata::kv) shared by
// all modules for data at rest.
//
// Module mapping:
//   Raw Data Collector  = SPE Source per addSource()
//   Raw Data Connector  = one broker topic per source (publisher sink +
//                         subscriber source around the broker)
//   Event Monitor       = fuse() (Join), partition() (Map), detectEvent()
//                         (Map) compositions of native operators
//   Event Connector     = broker topic carrying detected events
//   Event Aggregator    = correlateEvents() grouping events per
//                         (job, specimen) across the last L layers
//
// API methods return SPE stream handles, so pipelines from different experts
// can share intermediate streams (via Split) and deploy multiple detection
// methods over the same source.
#pragma once

#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/fs.hpp"
#include "kvstore/db.hpp"
#include "net/admin.hpp"
#include "net/remote.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "pubsub/broker.hpp"
#include "pubsub/client.hpp"
#include "spe/query.hpp"
#include "strata/api.hpp"
#include "strata/checkpoint_store.hpp"
#include "strata/connector.hpp"

namespace strata::core {

struct StrataOptions {
  /// Root directory for the key-value store (and broker persistence when
  /// persistent_connectors is set). Empty = a scoped temp directory.
  std::filesystem::path data_dir;
  /// Persist connector topics to disk (replayable raw-data history).
  bool persistent_connectors = false;
  int connector_partitions = 1;
  /// When set, connectors speak to a net::BrokerServer at this address
  /// instead of the in-process broker — the same pipeline code runs
  /// embedded or networked (deployment topologies, DESIGN.md). The local
  /// broker still exists but carries no connector traffic.
  std::optional<net::RemoteOptions> remote_broker;
  /// "host:port" seeds of a replicated broker cluster. Folded into
  /// remote_broker's bootstrap list (creating a default remote_broker when
  /// unset), so connector producers/consumers discover the leader and fail
  /// over automatically. See DESIGN.md "Replication & failover". A seed
  /// whose port is not a decimal number in 0–65535 is logged and skipped.
  std::vector<std::string> remote_bootstrap;
  /// "host:port" for the embedded HTTP admin endpoint (/metrics, /healthz,
  /// /varz, /tracez). Empty = disabled; the STRATA_ADMIN_ADDR environment
  /// variable overrides (and enables) it. Port 0 binds an ephemeral port —
  /// the resolved address is available via admin_addr(). A port that is not
  /// a decimal number in 0–65535 logs an error and leaves it disabled.
  std::string admin_addr;
  /// Pipeline tracing: start a sampled trace every N source batches per
  /// source thread; 0 = disabled. STRATA_TRACE_SAMPLE overrides. Spans land
  /// in the process-wide obs::Tracer and are served at /tracez.
  std::uint32_t trace_sample_every = 0;
  /// Epoch-barrier checkpoint cadence for the deployed query, in
  /// milliseconds; 0 disables checkpointing. When enabled, Deploy() first
  /// recovers operator state and broker replay cursors from the latest
  /// completed checkpoint, and connector publishers tag records with a
  /// sequence number so subscribers drop replayed duplicates —
  /// effectively-once across a crash (see DESIGN.md "Checkpoint &
  /// recovery"). Pair with
  /// persistent_connectors and a fixed data_dir so the replayed topics and
  /// the checkpoints survive the process.
  std::int64_t checkpoint_interval_ms = 0;
  /// Directory of a dedicated checkpoint kvstore. Empty = checkpoint
  /// manifests live in the main kv store under "ckpt/".
  std::filesystem::path checkpoint_path;
  kv::DbOptions kv;
  spe::QueryOptions query;
};

class Strata {
 public:
  explicit Strata(StrataOptions options = {});
  ~Strata();
  Strata(const Strata&) = delete;
  Strata& operator=(const Strata&) = delete;

  // --- Key-Value Store module: store(k,v) / get(k) --------------------------

  [[nodiscard]] Status Store(std::string_view key, std::string_view value);
  [[nodiscard]] Result<std::string> Get(std::string_view key);
  /// All at-rest entries whose key starts with `prefix`, in key order
  /// (e.g. "thresholds/" lists every machine's calibration).
  [[nodiscard]] Result<std::vector<std::pair<std::string, std::string>>>
  GetByPrefix(std::string_view prefix);

  // --- Table 1 API -----------------------------------------------------------

  /// addSource(src, s_out): deploys `collector` as an SPE Source whose
  /// tuples travel through the Raw Data Connector (a dedicated topic) before
  /// entering the Event Monitor. Returns the monitor-side stream.
  [[nodiscard]] spe::StreamPtr AddSource(const std::string& name,
                                         spe::SourceFn collector);

  /// Publisher half of addSource for process-split deployments: deploys
  /// `collector` and publishes its tuples to the Raw Data Connector topic
  /// without subscribing. A different process (typically with the same
  /// remote_broker config) picks the stream up via ImportSource(name).
  spe::SinkOperator* ExportSource(const std::string& name,
                                  spe::SourceFn collector);

  /// Subscriber half of addSource: joins the Raw Data Connector topic that
  /// an ExportSource(name) elsewhere publishes and returns the monitor-side
  /// stream. The topic is created if it does not exist yet, so start order
  /// between the exporting and importing processes does not matter.
  [[nodiscard]] spe::StreamPtr ImportSource(const std::string& name);

  /// fuse(s1, s2, s_out, [WS, WA], [GB]): joins tuples sharing job and layer
  /// (plus the payload sub-attributes named in `group_by`). Without a window
  /// only τ-equal tuples fuse; with one, tuples within WS of each other fuse
  /// (windowed join). Output payloads concatenate the inputs' payloads; the
  /// method assumes keys are unique across fused tuples (violations drop).
  /// parallelism > 1 makes the join keyed-parallel on the fuse key
  /// (per-key order preserved; see Query::AddJoin).
  [[nodiscard]] spe::StreamPtr Fuse(
      const std::string& name, spe::StreamPtr s1, spe::StreamPtr s2,
      std::optional<spe::WindowSpec> window = std::nullopt,
      std::vector<std::string> group_by = {}, int parallelism = 1);

  /// partition(s_in, s_out, F): splits tuples into independently-processable
  /// units (specimens, cells); F sets specimen/portion. Null F = identity
  /// with default specimen/portion, as Table 1 specifies. F runs on several
  /// threads when parallelism > 1, keyed on the *input* tuple: job|specimen,
  /// or job|layer while specimens are not yet assigned.
  [[nodiscard]] spe::StreamPtr Partition(const std::string& name,
                                         spe::StreamPtr in, PartitionFn fn,
                                         int parallelism = 1);

  /// detectEvent(s_in, s_out, F): classifies units and emits event tuples.
  /// F runs on possibly several threads when parallelism > 1 (keyed on
  /// job|specimen so markers stay ordered with their events).
  [[nodiscard]] spe::StreamPtr DetectEvent(const std::string& name,
                                           spe::StreamPtr in, DetectFn fn,
                                           int parallelism = 1);

  /// correlateEvents(s_in, s_out, L, F): routes events through the Event
  /// Connector, groups them per (job, specimen), and invokes F on each layer
  /// completion with the events of the last L layers (see EventWindow).
  [[nodiscard]] spe::StreamPtr CorrelateEvents(const std::string& name,
                                               spe::StreamPtr in,
                                               std::int64_t history_layers,
                                               CorrelateFn fn);

  /// Deliver a result stream to the expert. Returns the sink operator whose
  /// latency histogram implements the paper's latency metric.
  spe::SinkOperator* Deliver(const std::string& name, spe::StreamPtr in,
                             spe::SinkFn fn);

  /// Deliver with effectively-once semantics: each tuple is written to the
  /// kv store at `key_prefix + key_fn(tuple)` (EncodeTuple bytes, so a
  /// ClusterReportValue payload is stored whole) only when that key is
  /// absent, so checkpoint replay after a crash cannot double-deliver a
  /// report. `key_fn` must be deterministic in the tuple and unique per
  /// logical result. Skipped duplicates are counted under the
  /// strata.deliver_durable.duplicates metric; tuples that could not be
  /// encoded or written under strata.deliver_durable.errors.
  spe::SinkOperator* DeliverDurable(
      const std::string& name, spe::StreamPtr in, std::string key_prefix,
      std::function<std::string(const spe::Tuple&)> key_fn);

  /// Duplicate a stream so several pipelines (possibly from different
  /// experts) can consume it.
  [[nodiscard]] std::vector<spe::StreamPtr> Split(const std::string& name,
                                                  spe::StreamPtr in, int n);

  // --- lifecycle -------------------------------------------------------------

  /// Start all deployed pipelines.
  void Deploy();
  /// Block until all pipelines finish naturally (finite collectors).
  void WaitForCompletion();
  /// Stop sources, drain pipelines, join all operator threads.
  void Shutdown();

  [[nodiscard]] kv::DB& kv() noexcept { return *kv_; }
  [[nodiscard]] ps::Broker& broker() noexcept { return *broker_; }
  /// Transport the connectors actually use (embedded or remote).
  [[nodiscard]] ps::BrokerClient& broker_client() noexcept { return *client_; }
  [[nodiscard]] spe::Query& query() noexcept { return *query_; }

  // --- health ----------------------------------------------------------------

  /// Point-in-time durability health across the substrates. Both flags are
  /// sticky once tripped (a kvstore background error or a broker partition
  /// log that degraded / fail-stopped after disk failures) and only clear by
  /// recreating the instance.
  struct HealthReport {
    bool kv_ok = true;
    bool broker_storage_ok = true;
    /// Empty when healthy; otherwise a human-readable reason per failure.
    std::string detail;
    [[nodiscard]] bool ok() const noexcept {
      return kv_ok && broker_storage_ok;
    }
  };
  [[nodiscard]] HealthReport Health() const;

  /// Contribute an extra JSON fragment to /healthz under the "replication"
  /// key (e.g. a repl::ReplicationManager's HealthJson). The callback runs
  /// on the admin thread; it must be thread-safe and return a complete JSON
  /// value. nullptr removes the augmenter.
  void SetHealthzAugmenter(std::function<std::string()> augmenter);

  // --- observability ---------------------------------------------------------

  /// Process registry wired to all three substrates plus the SPE query.
  /// Components register pull callbacks, so snapshots always reflect live
  /// state — no sampling lag for gauges.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return registry_; }

  /// One consistent snapshot across SPE, broker, and kvstore.
  [[nodiscard]] obs::MetricsSnapshot MetricsSnapshot() const {
    return registry_.Snapshot();
  }

  /// Human-readable dump of MetricsSnapshot() (obs::MetricsSnapshot::ToText).
  [[nodiscard]] std::string DumpMetrics() const {
    return MetricsSnapshot().ToText();
  }

  /// Start a background thread delivering a snapshot to `consumer` every
  /// `period` (plus one final snapshot on stop). Replaces any running
  /// sampler; Shutdown() stops it before tearing down the pipelines.
  void StartSampler(std::chrono::milliseconds period,
                    obs::PeriodicSampler::Consumer consumer);
  void StopSampler();

  /// "host:port" the admin endpoint actually bound (resolving an ephemeral
  /// port), or empty when the endpoint is disabled or failed to start.
  [[nodiscard]] std::string admin_addr() const;

 private:
  void StartAdminServer(const std::string& addr);
  [[nodiscard]] spe::StreamPtr ThroughConnector(const std::string& topic,
                                                spe::StreamPtr in,
                                                PartitionKeyFn key_fn);
  /// Create `topic` on the connector transport (idempotent) and attach a
  /// publishing sink for `in`, returning that sink. Tuples it cannot encode
  /// are counted under strata.connector.encode_errors{topic}.
  spe::SinkOperator* PublishTo(const std::string& topic, spe::StreamPtr in,
                               PartitionKeyFn key_fn);
  /// Subscribe to `topic` (created if missing) and return its source stream.
  [[nodiscard]] spe::StreamPtr SubscribeTo(const std::string& topic);

  StrataOptions options_;
  /// Declared before the substrates so it is destroyed last — they
  /// unregister their metric callbacks in their destructors.
  obs::MetricsRegistry registry_;
  std::unique_ptr<strata::fs::ScopedTempDir> temp_dir_;  // when data_dir empty
  std::unique_ptr<kv::DB> kv_;
  std::unique_ptr<ps::Broker> broker_;
  /// Dedicated checkpoint DB when options_.checkpoint_path is set; the
  /// store otherwise shares kv_.
  std::unique_ptr<kv::DB> checkpoint_db_;
  std::unique_ptr<KvCheckpointStore> checkpoint_store_;
  /// Connector transport: EmbeddedBrokerClient over broker_, or a
  /// net::RemoteBroker when options_.remote_broker is set.
  std::unique_ptr<ps::BrokerClient> client_;
  std::unique_ptr<spe::Query> query_;
  std::vector<std::unique_ptr<ConnectorPublisher>> publishers_;
  std::vector<std::shared_ptr<ConnectorSubscriber>> subscribers_;
  std::unique_ptr<obs::PeriodicSampler> sampler_;
  std::unique_ptr<net::AdminServer> admin_;
  /// Extra /healthz JSON (replication state); guarded by augmenter_mu_
  /// because the admin thread reads it while callers may swap it.
  mutable std::mutex augmenter_mu_;
  std::function<std::string()> healthz_augmenter_;
  bool deployed_ = false;
  bool shut_down_ = false;
};

}  // namespace strata::core
