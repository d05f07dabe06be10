#include "spe/query.hpp"

#include <algorithm>
#include <charconv>
#include <map>

#include "common/logging.hpp"
#include "spe/plan_rewrite.hpp"

namespace strata::spe {

Query::Query(QueryOptions options) : options_(options) {
  if (options_.queue_capacity == 0) {
    throw std::invalid_argument("Query: queue_capacity must be > 0");
  }
}

Query::~Query() {
  BindMetrics(nullptr);
  if (started_ && !joined_) {
    Stop();
    Join();
  }
}

StreamPtr Query::NewStream(const std::string& name) {
  auto stream = std::make_shared<Stream>(name, options_.queue_capacity);
  std::lock_guard lock(build_mu_);
  streams_.push_back(stream);
  return stream;
}

void Query::Consume(const std::vector<StreamPtr>& streams) {
  for (auto it = streams.begin(); it != streams.end(); ++it) {
    if (!*it) throw std::invalid_argument("Query: null input stream");
    if (consumed_.count(it->get()) > 0 ||
        std::find(streams.begin(), it, *it) != it) {
      throw std::logic_error("Query: stream '" + (*it)->name() +
                             "' already has a consumer (use AddSplit)");
    }
  }
  for (const StreamPtr& stream : streams) consumed_.insert(stream.get());
}

Operator* Query::Adopt(std::unique_ptr<Operator> op) {
  if (started_) throw std::logic_error("Query: cannot add operators after Start");
  Operator* raw = op.get();
  std::lock_guard lock(build_mu_);
  operators_.push_back(std::move(op));
  return raw;
}

template <typename Op, typename... Args>
Op* Query::NewOperator(Args&&... args) {
  auto op = std::make_unique<Op>(std::forward<Args>(args)...);
  Op* raw = op.get();
  Adopt(std::move(op));
  return raw;
}

StreamPtr Query::AddSource(const std::string& name, SourceFn fn) {
  return AddBatchSource(
      name, [fn = std::move(fn)]() -> std::optional<TupleBatch> {
        std::optional<Tuple> tuple = fn();
        if (!tuple.has_value()) return std::nullopt;
        TupleBatch batch;
        batch.push_back(std::move(*tuple));
        return batch;
      });
}

StreamPtr Query::AddBatchSource(const std::string& name, BatchSourceFn fn) {
  auto* op = NewOperator<SourceOperator>(name, options_.clock, std::move(fn));
  StreamPtr out = NewStream(name + ".out");
  op->AddOutput(out);
  return out;
}

StreamPtr Query::AddKeyedStage(
    const std::string& name, std::vector<StreamPtr> ins,
    std::vector<KeyFn> keys, int parallelism,
    const std::function<std::unique_ptr<Operator>(const std::string&)>&
        make_instance) {
  if (parallelism < 1) {
    throw std::invalid_argument("Query: '" + name +
                                "': parallelism must be >= 1");
  }
  if (parallelism > 1 &&
      std::any_of(keys.begin(), keys.end(), [](const KeyFn& key) {
        return !key;
      })) {
    throw std::invalid_argument("Query: '" + name +
                                "': parallelism > 1 requires a key per input");
  }
  // Construct every instance first: an operator constructor that rejects
  // its spec then throws before the query is touched.
  std::vector<std::unique_ptr<Operator>> instances;
  for (int i = 0; i < parallelism; ++i) {
    instances.push_back(
        make_instance(parallelism == 1 ? name : InstanceName(name, i)));
  }
  Consume(ins);
  if (parallelism == 1) {
    Operator* op = Adopt(std::move(instances[0]));
    for (StreamPtr& in : ins) op->AddInput(std::move(in));
    StreamPtr out = NewStream(name + ".out");
    op->AddOutput(out);
    return out;
  }

  // One router per input; a join's two sides are told apart by suffix.
  const bool two_sided = ins.size() == 2;
  static constexpr const char* kSide[] = {"left", "right"};
  std::vector<RouterOperator*> routers;
  for (std::size_t side = 0; side < ins.size(); ++side) {
    const std::string suffix =
        two_sided ? std::string(".") + kSide[side] : std::string();
    auto* router = NewOperator<RouterOperator>(
        name + ".router" + suffix, options_.clock, std::move(keys[side]));
    router->AddInput(std::move(ins[side]));
    routers.push_back(router);
  }
  auto* merger = NewOperator<UnionOperator>(name + ".union", options_.clock);
  for (int i = 0; i < parallelism; ++i) {
    const std::string index = std::to_string(i);
    Operator* worker = Adopt(std::move(instances[i]));
    for (std::size_t side = 0; side < routers.size(); ++side) {
      StreamPtr shard_in = NewStream(
          name + "." + (two_sided ? kSide[side] : "shard") + index);
      routers[side]->AddOutput(shard_in);
      worker->AddInput(shard_in);
      consumed_.insert(shard_in.get());
    }
    StreamPtr shard_out = NewStream(name + ".shard" + index + ".out");
    worker->AddOutput(shard_out);
    merger->AddInput(shard_out);
    consumed_.insert(shard_out.get());
  }
  StreamPtr out = NewStream(name + ".out");
  merger->AddOutput(out);
  return out;
}

StreamPtr Query::AddFlatMap(const std::string& name, StreamPtr in,
                            FlatMapFn fn, int parallelism, KeyFn shard_key) {
  return AddKeyedStage(
      name, {std::move(in)}, {std::move(shard_key)}, parallelism,
      [&](const std::string& instance) {
        return std::make_unique<FlatMapOperator>(instance, options_.clock, fn);
      });
}

StreamPtr Query::AddFilter(const std::string& name, StreamPtr in,
                           FilterFn fn) {
  Consume({in});
  auto* op = NewOperator<FilterOperator>(name, options_.clock, std::move(fn));
  op->AddInput(std::move(in));
  StreamPtr out = NewStream(name + ".out");
  op->AddOutput(out);
  return out;
}

StreamPtr Query::AddAggregate(const std::string& name, StreamPtr in,
                              AggregateSpec spec, int parallelism) {
  StreamPtr out = AddKeyedStage(
      name, {std::move(in)}, {spec.key}, parallelism,
      [&](const std::string& instance) {
        return std::make_unique<AggregateOperator>(instance, options_.clock,
                                                   spec);
      });
  std::lock_guard lock(build_mu_);
  shard_groups_.push_back({name, /*is_join=*/false, parallelism});
  return out;
}

StreamPtr Query::AddJoin(const std::string& name, StreamPtr left,
                         StreamPtr right, JoinSpec spec, int parallelism) {
  // Each side is routed by its own group-by key, so a matching pair (which
  // must agree on key) meets on the same instance.
  StreamPtr out = AddKeyedStage(
      name, {std::move(left), std::move(right)},
      {spec.key_left, spec.key_right}, parallelism,
      [&](const std::string& instance) {
        return std::make_unique<JoinOperator>(instance, options_.clock, spec);
      });
  std::lock_guard lock(build_mu_);
  shard_groups_.push_back({name, /*is_join=*/true, parallelism});
  return out;
}

StreamPtr Query::AddUnion(const std::string& name,
                          std::vector<StreamPtr> ins) {
  if (ins.empty()) throw std::invalid_argument("Query: union of nothing");
  Consume(ins);
  auto* op = NewOperator<UnionOperator>(name, options_.clock);
  for (StreamPtr& in : ins) op->AddInput(std::move(in));
  StreamPtr out = NewStream(name + ".out");
  op->AddOutput(out);
  return out;
}

std::vector<StreamPtr> Query::AddSplit(const std::string& name, StreamPtr in,
                                       int n) {
  if (n < 1) throw std::invalid_argument("Query: split into < 1");
  Consume({in});
  // A FlatMap that copies each tuple to all outputs.
  auto* op = NewOperator<FlatMapOperator>(
      name, options_.clock,
      [](const Tuple& t) { return std::vector<Tuple>{t}; });
  op->AddInput(std::move(in));
  std::vector<StreamPtr> outs;
  outs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    StreamPtr out = NewStream(name + ".out" + std::to_string(i));
    op->AddOutput(out);
    outs.push_back(out);
  }
  return outs;
}

SinkOperator* Query::AddSink(const std::string& name, StreamPtr in,
                             SinkFn fn) {
  Consume({in});
  auto* op = NewOperator<SinkOperator>(name, options_.clock, std::move(fn));
  op->AddInput(std::move(in));
  return op;
}

void Query::EnableCheckpointing(CheckpointStore* store,
                                CheckpointerOptions options) {
  if (started_) {
    throw std::logic_error("Query: EnableCheckpointing after Start");
  }
  checkpointer_ = std::make_unique<Checkpointer>(store, options);
}

Status Query::Recover() {
  if (started_) throw std::logic_error("Query: Recover after Start");
  if (!checkpointer_) {
    throw std::logic_error("Query: Recover without EnableCheckpointing");
  }
  auto manifest = checkpointer_->LoadLatest();
  if (!manifest.ok()) {
    if (manifest.status().IsNotFound()) return Status::Ok();  // fresh start
    return manifest.status();
  }
  std::lock_guard lock(build_mu_);
  // Keyed-parallel groups first: a manifest written at a different
  // parallelism is re-hashed onto this plan's shape, and the blob names it
  // used are excluded from the plain by-name restore below.
  std::unordered_set<std::string> resharded;
  for (const ShardGroup& group : shard_groups_) {
    STRATA_RETURN_IF_ERROR(RestoreShardGroup(group, *manifest, &resharded));
  }
  for (const OperatorSnapshot& snapshot : manifest->operators) {
    if (resharded.find(snapshot.name) != resharded.end()) continue;
    Operator* op = OperatorNamed(snapshot.name);
    if (op == nullptr) {
      LOG_WARN << "checkpoint epoch " << manifest->epoch
               << ": no operator named '" << snapshot.name
               << "' in the rebuilt query; its state is dropped";
      continue;
    }
    STRATA_RETURN_IF_ERROR(op->RestoreState(snapshot.blob));
  }
  checkpointer_->SetBaseEpoch(manifest->epoch);
  recovered_epoch_ = manifest->epoch;
  LOG_INFO << "query recovered from checkpoint epoch " << manifest->epoch;
  return Status::Ok();
}

namespace {
/// True when `name` belongs to shard group `base`: exactly `base`, or
/// InstanceName(base, i) for some i >= 0.
bool InShardGroup(const std::string& name, const std::string& base) {
  if (name == base) return true;
  if (name.size() < base.size() + 3) return false;
  int i = -1;
  std::from_chars(name.data() + base.size() + 1, name.data() + name.size(), i);
  return i >= 0 && name == InstanceName(base, i);
}
}  // namespace

Status Query::RestoreShardGroup(const ShardGroup& group,
                                const CheckpointManifest& manifest,
                                std::unordered_set<std::string>* consumed) {
  std::vector<const OperatorSnapshot*> found;
  for (const OperatorSnapshot& snapshot : manifest.operators) {
    if (InShardGroup(snapshot.name, group.base)) found.push_back(&snapshot);
  }
  if (found.empty()) return Status::Ok();  // no state for this group

  // Shape match: every blob names an instance of the current plan, one blob
  // per instance. The plain by-name loop handles that exactly; the re-hash
  // path is only for a mismatched parallelism.
  auto instance = [&group](int i) {
    return group.parallelism == 1 ? group.base : InstanceName(group.base, i);
  };
  std::unordered_set<std::string> expected;
  for (int i = 0; i < group.parallelism; ++i) expected.insert(instance(i));
  if (found.size() == expected.size()) {
    bool exact = true;
    for (const OperatorSnapshot* snapshot : found) {
      if (expected.find(snapshot->name) == expected.end()) {
        exact = false;
        break;
      }
    }
    if (exact) return Status::Ok();
  }

  std::vector<std::string> old_blobs;
  old_blobs.reserve(found.size());
  for (const OperatorSnapshot* snapshot : found) {
    old_blobs.push_back(snapshot->blob);
    consumed->insert(snapshot->name);
  }
  std::vector<std::string> new_blobs;
  const auto parallelism = static_cast<std::size_t>(group.parallelism);
  const Status resharded =
      group.is_join
          ? ReshardJoinSnapshots(old_blobs, parallelism, &new_blobs)
          : ReshardAggregateSnapshots(old_blobs, parallelism, &new_blobs);
  if (!resharded.ok()) {
    return Status(resharded.code(),
                  "shard group '" + group.base + "': " + resharded.message());
  }
  for (int i = 0; i < group.parallelism; ++i) {
    const std::string name = instance(i);
    Operator* op = OperatorNamed(name);
    if (op == nullptr) {
      return Status::InvalidArgument("shard group '" + group.base +
                                     "': missing instance '" + name + "'");
    }
    STRATA_RETURN_IF_ERROR(op->RestoreState(new_blobs[static_cast<std::size_t>(i)]));
  }
  LOG_INFO << "shard group '" << group.base << "': re-hashed " << found.size()
           << " snapshot(s) onto parallelism " << group.parallelism;
  return Status::Ok();
}

Operator* Query::OperatorNamed(const std::string& name) const {
  for (const auto& op : operators_) {
    if (op->name() == name) return op.get();
  }
  return nullptr;
}

Operator* Query::FindOperator(const std::string& name) {
  std::lock_guard lock(build_mu_);
  return OperatorNamed(name);
}

void Query::Start() {
  if (started_) throw std::logic_error("Query: already started");
  started_ = true;
  const BatchPolicy policy{options_.batch_size, options_.batch_linger_us};
  for (auto& op : operators_) op->ConfigureBatching(policy);
  if (checkpointer_) {
    // Registration stays in terms of logical operators: a fused worker
    // reports one snapshot per absorbed constituent under its own name.
    for (auto& op : operators_) {
      checkpointer_->RegisterOperator(op->name());  // throws on duplicates
      op->SetCheckpointer(checkpointer_.get());
    }
  }
  // Plan rewrite: collapse stateless chains into fused workers. Absorbed
  // operators keep their place in operators_ (stats, checkpoint names,
  // ToDot) but never get a thread; the fused worker runs their steps.
  FusionPlan plan = FuseStatelessChains(operators_, options_.clock);
  const std::unordered_set<const Operator*> absorbed(plan.absorbed.begin(),
                                                     plan.absorbed.end());
  fused_ = std::move(plan.fused);
  for (auto& op : fused_) {
    op->ConfigureBatching(policy);
    if (checkpointer_) op->SetCheckpointer(checkpointer_.get());
  }
  threads_.reserve(operators_.size() + fused_.size());
  for (auto& op : operators_) {
    if (absorbed.find(op.get()) != absorbed.end()) continue;
    threads_.emplace_back([raw = op.get()] { raw->Run(); });
  }
  for (auto& op : fused_) {
    threads_.emplace_back([raw = op.get()] { raw->Run(); });
  }
  if (checkpointer_) checkpointer_->Start();
}

void Query::Stop() {
  for (auto& op : operators_) op->RequestStop();
  for (auto& op : fused_) op->RequestStop();
}

void Query::Join() {
  if (joined_) return;
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  if (checkpointer_) checkpointer_->Stop();
  joined_ = true;
}

void Query::Run() {
  Start();
  Join();
}

std::string Query::ToDot() const {
  std::string dot = "digraph query {\n  rankdir=LR;\n  node [shape=box];\n";
  // Stream -> producer index for edge construction.
  std::map<const Stream*, std::size_t> producer_of;
  for (std::size_t i = 0; i < operators_.size(); ++i) {
    for (const StreamPtr& out : operators_[i]->outputs()) {
      producer_of[out.get()] = i;
    }
  }
  for (std::size_t i = 0; i < operators_.size(); ++i) {
    dot += "  op" + std::to_string(i) + " [label=\"" +
           operators_[i]->name() + "\"];\n";
  }
  for (std::size_t i = 0; i < operators_.size(); ++i) {
    for (const StreamPtr& in : operators_[i]->inputs()) {
      const auto it = producer_of.find(in.get());
      if (it == producer_of.end()) continue;  // external stream
      dot += "  op" + std::to_string(it->second) + " -> op" +
             std::to_string(i) + " [label=\"" + in->name() + "\"];\n";
    }
  }
  dot += "}\n";
  return dot;
}

std::vector<OperatorStats> Query::Stats() const {
  std::lock_guard lock(build_mu_);
  std::vector<OperatorStats> stats;
  stats.reserve(operators_.size());
  for (const auto& op : operators_) stats.push_back(op->stats());
  return stats;
}

void Query::BindMetrics(obs::MetricsRegistry* registry) {
  if (metrics_ != nullptr) metrics_->Unregister(metrics_callback_);
  metrics_ = registry;
  if (registry == nullptr) return;
  metrics_callback_ = registry->RegisterCallback([this](
                                                     obs::MetricsSnapshot* snap) {
    std::lock_guard lock(build_mu_);
    for (const auto& op : operators_) {
      const OperatorStats s = op->stats();
      const obs::Labels labels{{"op", s.name}, {"kind", s.kind}};
      snap->AddCounter("spe.operator.tuples_in", labels, s.tuples_in);
      snap->AddCounter("spe.operator.tuples_out", labels, s.tuples_out);
      snap->AddCounter("spe.operator.late_drops", labels, s.late_drops);
      snap->AddCounter("spe.operator.user_errors", labels, s.user_errors);
      snap->AddCounter("spe.operator.discarded", labels, s.discarded);
    }
    for (const StreamPtr& stream : streams_) {
      const obs::Labels labels{{"stream", stream->name()}};
      snap->AddGauge("spe.stream.depth", labels,
                     static_cast<std::int64_t>(stream->depth()));
      snap->AddGauge("spe.stream.capacity", labels,
                     static_cast<std::int64_t>(stream->capacity()));
      snap->AddCounter("spe.stream.pushed", labels, stream->pushed());
      snap->AddCounter("spe.stream.popped", labels, stream->popped());
      snap->AddCounter("spe.stream.blocked_us", labels, stream->blocked_us());
      snap->AddCounter("spe.stream.discarded", labels, stream->discarded());
      const Histogram batch_sizes = stream->BatchSizeSnapshot();
      if (batch_sizes.count() > 0) {
        snap->AddHistogram("spe.stream.batch_size", labels,
                           batch_sizes.Boxplot());
      }
    }
    if (checkpointer_) {
      const Checkpointer::Stats cs = checkpointer_->stats();
      snap->AddCounter("spe.checkpoint.epochs", {}, cs.epochs_completed);
      snap->AddCounter("spe.checkpoint.failures", {}, cs.epochs_failed);
      snap->AddCounter("spe.checkpoint.bytes", {}, cs.bytes_persisted);
      snap->AddGauge("spe.checkpoint.duration_us", {}, cs.last_duration_us);
      snap->AddGauge("spe.checkpoint.last_epoch", {},
                     static_cast<std::int64_t>(cs.last_completed_epoch));
      snap->AddGauge("spe.checkpoint.age_us", {}, cs.last_completed_age_us);
      snap->AddGauge(
          "spe.checkpoint.consecutive_failures", {},
          static_cast<std::int64_t>(cs.consecutive_failures));
      snap->AddGauge("spe.checkpoint.degraded", {}, cs.degraded ? 1 : 0);
    }
  });
}

}  // namespace strata::spe
