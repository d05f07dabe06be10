#include "strata/strata.hpp"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/fs.hpp"
#include "common/logging.hpp"
#include "common/trace_context.hpp"
#include "fault/failpoint.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"

namespace strata::core {

Strata::Strata(StrataOptions options) : options_(std::move(options)) {
  if (options_.data_dir.empty()) {
    temp_dir_ = std::make_unique<strata::fs::ScopedTempDir>("strata");
    options_.data_dir = temp_dir_->path();
  }
  auto db = kv::DB::Open(options_.data_dir / "kv", options_.kv);
  db.status().OrDie();
  kv_ = std::move(db).value();

  ps::BrokerOptions broker_options;
  if (options_.persistent_connectors) {
    broker_options.data_dir = options_.data_dir / "broker";
  }
  broker_ = std::make_unique<ps::Broker>(broker_options);
  if (!options_.remote_bootstrap.empty() && !options_.remote_broker) {
    options_.remote_broker.emplace();
  }
  if (options_.remote_broker.has_value()) {
    net::RemoteOptions remote = *options_.remote_broker;
    if (remote.metrics == nullptr) remote.metrics = &registry_;
    for (const std::string& seed : options_.remote_bootstrap) {
      std::string host;
      std::uint16_t port = 0;
      if (!net::ParseHostPort(seed, &host, &port)) {
        LOG_ERROR << "strata: remote_bootstrap seed '" << seed
                  << "' is not host:port with a port in 0-65535; skipped";
        continue;
      }
      remote.bootstrap.emplace_back(std::move(host), port);
    }
    if (remote.port == 0 && !remote.bootstrap.empty()) {
      remote.host = remote.bootstrap.front().first;
      remote.port = remote.bootstrap.front().second;
    }
    client_ = std::make_unique<net::RemoteBroker>(std::move(remote));
  } else {
    client_ = std::make_unique<ps::EmbeddedBrokerClient>(broker_.get());
  }
  query_ = std::make_unique<spe::Query>(options_.query);

  if (options_.checkpoint_interval_ms > 0) {
    kv::DB* checkpoint_db = kv_.get();
    if (!options_.checkpoint_path.empty()) {
      auto ckpt = kv::DB::Open(options_.checkpoint_path, {});
      ckpt.status().OrDie();
      checkpoint_db_ = std::move(ckpt).value();
      checkpoint_db = checkpoint_db_.get();
    }
    checkpoint_store_ = std::make_unique<KvCheckpointStore>(checkpoint_db);
    spe::CheckpointerOptions checkpoint_options;
    checkpoint_options.interval_ms = options_.checkpoint_interval_ms;
    query_->EnableCheckpointing(checkpoint_store_.get(), checkpoint_options);
  }

  kv_->BindMetrics(&registry_);
  broker_->BindMetrics(&registry_);
  query_->BindMetrics(&registry_);
  fault::BindMetrics(&registry_);
  obs::Tracer::Instance().BindMetrics(&registry_);
  registry_.RegisterCallback([](obs::MetricsSnapshot* snapshot) {
    snapshot->AddCounter("obs.log.warnings", {}, LogWarningCount());
    snapshot->AddCounter("obs.log.errors", {}, LogErrorCount());
  });

  if (options_.trace_sample_every != 0) {
    obs::Tracer::Instance().Configure(options_.trace_sample_every);
  }
  obs::Tracer::Instance().ConfigureFromEnv();  // the env knob wins

  std::string admin_addr = options_.admin_addr;
  if (const char* env = std::getenv("STRATA_ADMIN_ADDR");
      env != nullptr && *env != '\0') {
    admin_addr = env;
  }
  if (!admin_addr.empty()) StartAdminServer(admin_addr);
}

Strata::~Strata() {
  Shutdown();
  // The fault registry and the tracer are process-global; detach them before
  // registry_ dies.
  fault::BindMetrics(nullptr);
  obs::Tracer::Instance().BindMetrics(nullptr);
}

Strata::HealthReport Strata::Health() const {
  HealthReport report;
  if (Status kv_error = kv_->BackgroundError(); !kv_error.ok()) {
    report.kv_ok = false;
    report.detail += "kv: " + kv_error.ToString();
  }
  const ps::Broker::BrokerStats broker_stats = broker_->Stats();
  if (broker_stats.fail_stopped || broker_stats.storage_degraded) {
    report.broker_storage_ok = false;
    if (!report.detail.empty()) report.detail += "; ";
    report.detail += broker_stats.fail_stopped
                         ? "broker: partition log fail-stopped"
                         : "broker: storage degraded to memory-only";
    report.detail += " (" + std::to_string(broker_stats.disk_append_errors) +
                     " disk errors)";
  }
  return report;
}

void Strata::SetHealthzAugmenter(std::function<std::string()> augmenter) {
  std::lock_guard lock(augmenter_mu_);
  healthz_augmenter_ = std::move(augmenter);
}

void Strata::StartSampler(std::chrono::milliseconds period,
                          obs::PeriodicSampler::Consumer consumer) {
  sampler_.reset();  // stop (and final-flush) any previous sampler first
  sampler_ = std::make_unique<obs::PeriodicSampler>(&registry_, period,
                                                    std::move(consumer));
}

void Strata::StopSampler() { sampler_.reset(); }

namespace {

void JsonEscapeTo(std::string_view in, std::string* out) {
  for (const char c : in) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

void Strata::StartAdminServer(const std::string& addr) {
  net::AdminOptions options;
  options.metrics = &registry_;
  if (!net::ParseHostPort(addr, &options.host, &options.port)) {
    LOG_ERROR << "strata: admin_addr '" << addr
              << "' is not host:port with a port in 0-65535; admin endpoint "
                 "disabled";
    return;
  }

  admin_ = std::make_unique<net::AdminServer>(options);
  admin_->Route("/metrics", [this](std::string_view) {
    net::AdminServer::Response response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = registry_.Snapshot().ToPrometheus();
    return response;
  });
  admin_->Route("/healthz", [this](std::string_view) {
    const HealthReport health = Health();
    net::AdminServer::Response response;
    response.status = health.ok() ? 200 : 503;
    response.content_type = "application/json";
    response.body = std::string("{\"status\":\"") +
                    (health.ok() ? "ok" : "degraded") + "\",\"kv_ok\":" +
                    (health.kv_ok ? "true" : "false") +
                    ",\"broker_storage_ok\":" +
                    (health.broker_storage_ok ? "true" : "false") +
                    ",\"detail\":\"";
    JsonEscapeTo(health.detail, &response.body);
    response.body += "\",\"shards\":[";
    const ps::Broker::BrokerStats stats = broker_->Stats();
    for (std::size_t i = 0; i < stats.shards.size(); ++i) {
      const auto& shard = stats.shards[i];
      if (i != 0) response.body += ',';
      response.body += "{\"shard\":" + std::to_string(i) +
                       ",\"partitions\":" + std::to_string(shard.partitions) +
                       ",\"degraded\":" + (shard.degraded ? "true" : "false") +
                       ",\"fail_stopped\":" +
                       (shard.fail_stopped ? "true" : "false") +
                       ",\"disk_errors\":" + std::to_string(shard.disk_errors) +
                       "}";
    }
    response.body += ']';
    {
      std::lock_guard lock(augmenter_mu_);
      if (healthz_augmenter_) {
        response.body += ",\"replication\":" + healthz_augmenter_();
      }
    }
    response.body += "}\n";
    return response;
  });
  admin_->Route("/varz", [this](std::string_view) {
    net::AdminServer::Response response;
    response.content_type = "application/json";
    response.body = registry_.Snapshot().ToJsonLines();
    return response;
  });
  admin_->Route("/tracez", [](std::string_view query) {
    const std::vector<obs::Span> spans = obs::Tracer::Instance().CollectSpans();
    net::AdminServer::Response response;
    if (query.find("chrome=1") != std::string_view::npos) {
      // Save-as trace.json, load in Perfetto / chrome://tracing.
      response.content_type = "application/json";
      response.body = obs::Tracer::ToChromeTrace(spans);
    } else {
      response.body = obs::Tracer::ToTracezText(spans);
    }
    return response;
  });

  if (Status started = admin_->Start(); !started.ok()) {
    // The admin plane is an observer: failing to bind it must never take
    // the pipeline down.
    LOG_ERROR << "strata: admin endpoint failed to start on " << addr << ": "
              << started.ToString();
    admin_.reset();
  }
}

std::string Strata::admin_addr() const {
  if (admin_ == nullptr) return {};
  return admin_->host() + ":" + std::to_string(admin_->port());
}

Status Strata::Store(std::string_view key, std::string_view value) {
  // Attach the write to the caller's active span (a sink storing detection
  // results, a correlation callback persisting reports, ...) so traces show
  // where pipeline time goes once tuples leave the SPE.
  obs::SpanScope span;
  if (obs::TracingEnabled()) {
    if (const TraceContext& slot = ThreadTraceSlot(); slot.sampled()) {
      span = obs::SpanScope("kv.store", "kv", slot);
    }
  }
  return kv_->Put(key, value);
}

Result<std::string> Strata::Get(std::string_view key) { return kv_->Get(key); }

Result<std::vector<std::pair<std::string, std::string>>> Strata::GetByPrefix(
    std::string_view prefix) {
  std::vector<std::pair<std::string, std::string>> entries;
  auto it = kv_->NewIterator();
  for (it->Seek(prefix); it->Valid(); it->Next()) {
    const std::string_view key = it->key();
    if (key.substr(0, prefix.size()) != prefix) break;
    entries.emplace_back(std::string(key), std::string(it->value()));
  }
  STRATA_RETURN_IF_ERROR(it->status());
  return entries;
}

spe::SinkOperator* Strata::PublishTo(const std::string& topic,
                                     spe::StreamPtr in, PartitionKeyFn key_fn) {
  ps::TopicConfig config;
  config.partitions = options_.connector_partitions;
  client_->CreateTopic(topic, config).OrDie();

  auto producer = client_->NewProducer();
  producer.status().OrDie();
  auto publisher = std::make_unique<ConnectorPublisher>(
      std::move(*producer), topic, std::move(key_fn));
  spe::SinkOperator* sink =
      query_->AddSink(topic + ".pub", std::move(in), publisher->AsSinkFn());
  sink->SetFinishHook(publisher->AsFinishHook());
  if (options_.checkpoint_interval_ms > 0) {
    publisher->EnableTagging();
    sink->SetStateHooks(publisher->AsSnapshotFn(), publisher->AsRestoreFn());
  }
  registry_.RegisterCallback(
      [topic, p = publisher.get()](obs::MetricsSnapshot* s) {
        s->AddCounter("strata.connector.encode_errors", {{"topic", topic}},
                      p->encode_errors());
      });
  publishers_.push_back(std::move(publisher));
  return sink;
}

spe::StreamPtr Strata::SubscribeTo(const std::string& topic) {
  ps::TopicConfig config;
  config.partitions = options_.connector_partitions;
  client_->CreateTopic(topic, config).OrDie();  // idempotent

  auto subscriber =
      ConnectorSubscriber::Create(client_.get(), topic, topic + ".monitor",
                                  options_.checkpoint_interval_ms > 0);
  subscriber.status().OrDie();
  subscribers_.push_back(*subscriber);
  // Batch source: each broker poll enters the SPE as one data-plane batch.
  spe::StreamPtr out = query_->AddBatchSource(topic + ".sub",
                                              (*subscriber)->AsBatchSourceFn());
  if (options_.checkpoint_interval_ms > 0) {
    spe::Operator* source = query_->FindOperator(topic + ".sub");
    source->SetStateHooks((*subscriber)->AsSnapshotFn(),
                          (*subscriber)->AsRestoreFn());
  }
  return out;
}

spe::StreamPtr Strata::ThroughConnector(const std::string& topic,
                                        spe::StreamPtr in,
                                        PartitionKeyFn key_fn) {
  PublishTo(topic, std::move(in), std::move(key_fn));
  return SubscribeTo(topic);
}

spe::StreamPtr Strata::AddSource(const std::string& name,
                                 spe::SourceFn collector) {
  // Raw Data Collector: the source itself...
  spe::StreamPtr collected = query_->AddSource(name, std::move(collector));
  // ...then through the Raw Data Connector (keyed by job so each job's data
  // stays ordered; distinct jobs/machines ride separate partitions).
  return ThroughConnector("raw." + name, std::move(collected),
                          [](const spe::Tuple& t) {
                            return std::to_string(t.job);
                          });
}

spe::SinkOperator* Strata::ExportSource(const std::string& name,
                                        spe::SourceFn collector) {
  spe::StreamPtr collected = query_->AddSource(name, std::move(collector));
  return PublishTo("raw." + name, std::move(collected),
                   [](const spe::Tuple& t) { return std::to_string(t.job); });
}

spe::StreamPtr Strata::ImportSource(const std::string& name) {
  return SubscribeTo("raw." + name);
}

spe::StreamPtr Strata::Fuse(const std::string& name, spe::StreamPtr s1,
                            spe::StreamPtr s2,
                            std::optional<spe::WindowSpec> window,
                            std::vector<std::string> group_by,
                            int parallelism) {
  spe::JoinSpec spec;
  spec.window = window.has_value() ? window->size : 0;
  auto key_fn = [group_by](const spe::Tuple& t) {
    std::string key = std::to_string(t.job) + "|" + std::to_string(t.layer);
    for (const std::string& attr : group_by) {
      const Value* v = t.payload.Find(attr);
      key += "|" + (v ? v->ToString() : std::string("<none>"));
    }
    return key;
  };
  spec.key_left = key_fn;
  spec.key_right = key_fn;
  return query_->AddJoin(name, std::move(s1), std::move(s2), std::move(spec),
                         parallelism);
}

namespace {

/// Shard key keeping all data of one specimen (and its markers) on the same
/// parallel instance: job|specimen, falling back to job|layer before
/// partition() has assigned specimens.
std::string SpecimenShardKey(const spe::Tuple& t) {
  if (t.specimen != spe::kUnsetId) {
    return std::to_string(t.job) + "|" + std::to_string(t.specimen);
  }
  return std::to_string(t.job) + "|" + std::to_string(t.layer);
}

}  // namespace

spe::StreamPtr Strata::Partition(const std::string& name, spe::StreamPtr in,
                                 PartitionFn fn, int parallelism) {
  spe::FlatMapFn map_fn;
  if (fn) {
    map_fn = [fn](const spe::Tuple& t) {
      std::vector<spe::Tuple> out = fn(t);
      for (spe::Tuple& o : out) {
        // Metadata is copied from the input; F provides specimen/portion.
        o.event_time = t.event_time;
        o.job = t.job;
        o.layer = t.layer;
        o.stimulus = t.stimulus;
      }
      return out;
    };
  } else {
    // Table 1: with no partition function the tuple is processed as a whole
    // under default specimen/portion values.
    map_fn = [](const spe::Tuple& t) {
      spe::Tuple out = t;
      if (out.specimen == spe::kUnsetId) out.specimen = 0;
      if (out.portion == spe::kUnsetId) out.portion = 0;
      return std::vector<spe::Tuple>{out};
    };
  }
  return query_->AddFlatMap(name, std::move(in), std::move(map_fn),
                            parallelism, SpecimenShardKey);
}

spe::StreamPtr Strata::DetectEvent(const std::string& name, spe::StreamPtr in,
                                   DetectFn fn, int parallelism) {
  if (!fn) throw std::invalid_argument("DetectEvent: null function");
  spe::FlatMapFn map_fn = [fn](const spe::Tuple& t) {
    std::vector<spe::Tuple> out = fn(t);
    for (spe::Tuple& o : out) {
      // Table 1: event tuples carry the input's τ/job/layer metadata;
      // specimen/portion default to the input's when F leaves them unset.
      o.event_time = t.event_time;
      o.job = t.job;
      o.layer = t.layer;
      o.stimulus = t.stimulus;
      if (o.specimen == spe::kUnsetId) o.specimen = t.specimen;
      if (o.portion == spe::kUnsetId) o.portion = t.portion;
    }
    return out;
  };
  return query_->AddFlatMap(name, std::move(in), std::move(map_fn),
                            parallelism, SpecimenShardKey);
}

spe::StreamPtr Strata::CorrelateEvents(const std::string& name,
                                       spe::StreamPtr in,
                                       std::int64_t history_layers,
                                       CorrelateFn fn) {
  if (!fn) throw std::invalid_argument("CorrelateEvents: null function");
  if (history_layers < 0) {
    throw std::invalid_argument("CorrelateEvents: negative layer history");
  }

  // Event Connector: events cross the broker keyed by job|specimen.
  spe::StreamPtr connected =
      ThroughConnector("events." + name, std::move(in), EventKey);

  // Event Aggregator: per (job, specimen) state holding the last
  // `history_layers` + 1 layers of events; a layer marker triggers F.
  struct State {
    std::mutex mu;
    // (job, specimen) -> ordered (layer -> events).
    std::map<std::pair<std::int64_t, std::int64_t>,
             std::map<std::int64_t, std::vector<spe::Tuple>>>
        groups;
  };
  auto state = std::make_shared<State>();
  const std::int64_t window = history_layers;

  spe::FlatMapFn aggregate_fn = [state, window,
                                 fn](const spe::Tuple& t) -> std::vector<spe::Tuple> {
    std::lock_guard lock(state->mu);
    auto& layers = state->groups[{t.job, t.specimen}];

    if (!IsLayerMarker(t)) {
      layers[t.layer].push_back(t);
      return {};
    }

    // Layer complete: build the window [layer - L, layer].
    EventWindow event_window;
    event_window.job = t.job;
    event_window.specimen = t.specimen;
    event_window.layer = t.layer;
    Timestamp stimulus = t.stimulus;
    for (const auto& [layer, events] : layers) {
      if (layer < t.layer - window || layer > t.layer) continue;
      for (const spe::Tuple& event : events) {
        stimulus = spe::CombineStimulus(stimulus, event.stimulus);
        event_window.events.push_back(event);
      }
    }

    std::vector<spe::Tuple> out = fn(event_window);
    for (spe::Tuple& o : out) {
      o.event_time = t.event_time;
      o.job = t.job;
      o.layer = t.layer;
      o.specimen = t.specimen;
      o.stimulus = spe::CombineStimulus(o.stimulus, stimulus);
    }

    // Evict layers that can no longer appear in a future window.
    std::erase_if(layers, [&](const auto& entry) {
      return entry.first < t.layer + 1 - window;
    });
    return out;
  };

  return query_->AddFlatMap(name, std::move(connected),
                            std::move(aggregate_fn));
}

spe::SinkOperator* Strata::Deliver(const std::string& name, spe::StreamPtr in,
                                   spe::SinkFn fn) {
  return query_->AddSink(name, std::move(in), std::move(fn));
}

spe::SinkOperator* Strata::DeliverDurable(
    const std::string& name, spe::StreamPtr in, std::string key_prefix,
    std::function<std::string(const spe::Tuple&)> key_fn) {
  if (!key_fn) throw std::invalid_argument("DeliverDurable: null key_fn");
  struct Counters {
    std::atomic<std::uint64_t> duplicates{0};
    std::atomic<std::uint64_t> errors{0};
  };
  auto counters = std::make_shared<Counters>();
  registry_.RegisterCallback([name, counters](obs::MetricsSnapshot* s) {
    s->AddCounter("strata.deliver_durable.duplicates", {{"sink", name}},
                  counters->duplicates.load(std::memory_order_relaxed));
    s->AddCounter("strata.deliver_durable.errors", {{"sink", name}},
                  counters->errors.load(std::memory_order_relaxed));
  });
  kv::DB* db = kv_.get();
  spe::SinkFn fn = [db, prefix = std::move(key_prefix),
                    key_fn = std::move(key_fn),
                    counters](const spe::Tuple& tuple) {
    const std::string key = prefix + key_fn(tuple);
    // Existence check before write: a replayed tuple maps to the same key,
    // so the first delivery wins and the replay is a counted no-op.
    if (db->Get(key).ok()) {
      counters->duplicates.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::string encoded;
    Status s = EncodeTuple(tuple, &encoded);
    if (s.ok()) s = db->Put(key, encoded);
    if (!s.ok()) {
      counters->errors.fetch_add(1, std::memory_order_relaxed);
      LOG_ERROR << "DeliverDurable failed for " << key << ": " << s.ToString();
    }
  };
  return query_->AddSink(name, std::move(in), std::move(fn));
}

std::vector<spe::StreamPtr> Strata::Split(const std::string& name,
                                          spe::StreamPtr in, int n) {
  return query_->AddSplit(name, std::move(in), n);
}

void Strata::Deploy() {
  if (deployed_) throw std::logic_error("Strata: already deployed");
  deployed_ = true;
  // Recovery before start: restore operator state and seek the connector
  // subscribers back to their replay cursors while the DAG is still quiet.
  // A fresh store is a clean no-op; an unrecoverable checkpoint (manifest
  // corrupt, replay offsets truncated away) dies loudly rather than silently
  // dropping the build's history.
  if (options_.checkpoint_interval_ms > 0) query_->Recover().OrDie();
  query_->Start();
}

void Strata::WaitForCompletion() {
  if (deployed_) query_->Join();
}

void Strata::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // The admin endpoint and sampler observe the components through callbacks;
  // stop both before the components they observe start tearing down.
  if (admin_ != nullptr) admin_->Stop();
  StopSampler();
  if (deployed_) {
    query_->Stop();
    // Collectors end -> publishers send EOS -> subscribers drain -> the
    // whole DAG cascades to completion.
    query_->Join();
  }
  for (auto& subscriber : subscribers_) subscriber->Stop();
  broker_->Close();
}

}  // namespace strata::core
