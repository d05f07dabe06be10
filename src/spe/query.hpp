// Continuous query: a DAG of operators connected by bounded streams (paper
// §2). The builder API creates operators and returns the stream handle of
// each operator's output; every stream has exactly one producer and one
// consumer (fan-out is explicit via AddSplit). The `parallelism` argument of
// AddFlatMap/AddAggregate/AddJoin makes a stage keyed-parallel: a hash
// router per input (`name.router`, or `name.router.left`/`.right` for a
// join) sends each tuple to instance ShardOf(key, parallelism) of
// `parallelism` instances `name[i]`, and `name.union` merges their outputs.
//
// Lifecycle: build -> Start() -> [Stop()] -> Join(). Sources end the query
// naturally by returning nullopt; Stop() asks sources to finish early. End
// of stream cascades: each operator flushes its state, closes its outputs,
// and exits, so Join() returns once the sinks have consumed everything.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "spe/checkpoint.hpp"
#include "spe/operator.hpp"

namespace strata::spe {

class FusedOperator;

struct QueryOptions {
  std::size_t queue_capacity = 1024;
  const Clock* clock = &Clock::System();
  /// Emit-buffer flush threshold per output (tuples). 1 = per-tuple pushes
  /// (the pre-batch data plane); larger values amortize queue
  /// synchronization at high rates. See BatchPolicy.
  std::size_t batch_size = BatchPolicy{}.batch_size;
  /// Upper bound (µs, query clock) a tuple may wait in an emit buffer.
  /// Idle-triggered flushes keep latency flat at low rates regardless.
  std::int64_t batch_linger_us = BatchPolicy{}.linger_us;
};

class Query {
 public:
  explicit Query(QueryOptions options = {});
  ~Query();
  Query(const Query&) = delete;
  Query& operator=(const Query&) = delete;

  // ----- builders (call before Start) -----
  //
  // A builder that throws on a bad argument leaves its input streams
  // unconsumed and the query unchanged.

  /// Source producing one tuple per call; each is flushed downstream as
  /// soon as the call returns (a one-tuple batch).
  [[nodiscard]] StreamPtr AddSource(const std::string& name, SourceFn fn);

  /// Source whose function yields whole batches (e.g. one broker poll);
  /// each yielded batch is emitted and flushed downstream as a unit.
  [[nodiscard]] StreamPtr AddBatchSource(const std::string& name,
                                         BatchSourceFn fn);

  /// Map/FlatMap. With parallelism > 1 the stage is keyed-parallel on
  /// `shard_key` (required; per-key order preserved, cross-key order not).
  [[nodiscard]] StreamPtr AddFlatMap(const std::string& name, StreamPtr in,
                                     FlatMapFn fn, int parallelism = 1,
                                     KeyFn shard_key = nullptr);

  [[nodiscard]] StreamPtr AddFilter(const std::string& name, StreamPtr in,
                                    FilterFn fn);

  /// Windowed aggregate. With parallelism > 1 the stage is keyed-parallel
  /// on `spec.key` (required). Checkpoint state is per instance; Recover()
  /// re-hashes it onto a different parallelism.
  [[nodiscard]] StreamPtr AddAggregate(const std::string& name, StreamPtr in,
                                       AggregateSpec spec,
                                       int parallelism = 1);

  /// Time-bound join. With parallelism > 1 each side is routed by its own
  /// group-by key (`spec.key_left`/`spec.key_right`, required); matching
  /// pairs agree on key and so meet on the same instance. Same
  /// checkpoint/re-hash story as AddAggregate.
  [[nodiscard]] StreamPtr AddJoin(const std::string& name, StreamPtr left,
                                  StreamPtr right, JoinSpec spec,
                                  int parallelism = 1);

  [[nodiscard]] StreamPtr AddUnion(const std::string& name,
                                   std::vector<StreamPtr> ins);

  /// Duplicates a stream to `n` consumers (explicit DAG fan-out).
  [[nodiscard]] std::vector<StreamPtr> AddSplit(const std::string& name,
                                                StreamPtr in, int n);

  /// Terminal operator. Returns the sink so callers can read its latency
  /// histogram; the Query keeps ownership.
  SinkOperator* AddSink(const std::string& name, StreamPtr in, SinkFn fn);

  // ----- checkpointing (call before Start) -----

  /// Enable epoch-barrier checkpointing against `store` (caller keeps
  /// ownership; must outlive the query). Start() then registers every
  /// operator with the coordinator — which requires operator names to be
  /// unique — and runs the epoch timer for the life of the query.
  void EnableCheckpointing(CheckpointStore* store,
                           CheckpointerOptions options = {});

  /// Restore the latest complete checkpoint into the rebuilt DAG: each
  /// manifest blob is matched to an operator by name and fed to its
  /// RestoreState; blobs naming operators absent from this build are warned
  /// about and dropped. NotFound in the store (no checkpoint yet) is a
  /// normal fresh start, not an error. Epoch numbering resumes after the
  /// recovered epoch. Call after building the DAG, before Start().
  [[nodiscard]] Status Recover();

  /// Epoch restored by the last successful Recover(); 0 = fresh start.
  [[nodiscard]] std::uint64_t recovered_epoch() const noexcept {
    return recovered_epoch_;
  }

  /// The operator registered under `name`, or nullptr. Used by the strata
  /// facade (and tests) to install state hooks on connector endpoints.
  [[nodiscard]] Operator* FindOperator(const std::string& name);

  /// The checkpoint coordinator, or nullptr when checkpointing is off.
  [[nodiscard]] Checkpointer* checkpointer() noexcept {
    return checkpointer_.get();
  }

  // ----- lifecycle -----

  void Start();
  /// Ask sources to finish; pipeline drains and Join() then returns.
  void Stop();
  /// Wait until every operator thread exits.
  void Join();
  /// Convenience: Start + Join (for finite sources).
  void Run();

  [[nodiscard]] bool started() const noexcept { return started_; }

  // ----- introspection -----

  /// Expose per-operator counters (spe.operator.*{op,kind}) and per-stream
  /// gauges (spe.stream.*{stream}) on `registry` via a pull callback.
  /// Rebinding replaces the previous registration; nullptr unbinds. The
  /// callback is unregistered automatically on destruction, so the registry
  /// must outlive the query.
  void BindMetrics(obs::MetricsRegistry* registry);

  [[nodiscard]] std::vector<OperatorStats> Stats() const;
  [[nodiscard]] std::size_t operator_count() const noexcept {
    return operators_.size();
  }

  /// GraphViz rendering of the operator/stream DAG (for docs + debugging).
  [[nodiscard]] std::string ToDot() const;

 private:
  /// A keyed-parallel Aggregate/Join; recorded even at parallelism == 1 so
  /// Recover() can re-hash a manifest written at a different parallelism
  /// onto this plan's shape.
  struct ShardGroup {
    std::string base;
    bool is_join = false;
    int parallelism = 1;
  };

  StreamPtr NewStream(const std::string& name);
  /// Claims `streams` as inputs of one new operator. Checks every stream
  /// first (non-null, no consumer yet, no duplicates), so a throw claims
  /// none of them.
  void Consume(const std::vector<StreamPtr>& streams);
  /// Builds a keyed stage at `parallelism` and returns its output stream.
  /// At 1: one instance named `name` reading `ins` directly. Above 1: a
  /// router per input keyed by the matching entry of `keys`,
  /// `parallelism` instances InstanceName(name, i) each reading one router
  /// output per input (in `ins` order), and `name.union` merging them.
  /// `make_instance(name)` constructs one unwired instance.
  StreamPtr AddKeyedStage(
      const std::string& name, std::vector<StreamPtr> ins,
      std::vector<KeyFn> keys, int parallelism,
      const std::function<std::unique_ptr<Operator>(const std::string&)>&
          make_instance);
  /// Registers `op` with the query (before Start) and returns it.
  Operator* Adopt(std::unique_ptr<Operator> op);
  /// The operator registered under `name`, or nullptr; build_mu_ held.
  [[nodiscard]] Operator* OperatorNamed(const std::string& name) const;
  /// Re-hash `group`'s manifest blobs onto its current parallelism; blob
  /// names consumed here are added to `consumed` and skipped by the plain
  /// by-name restore loop. No-op when the manifest's shape already matches.
  [[nodiscard]] Status RestoreShardGroup(
      const ShardGroup& group, const CheckpointManifest& manifest,
      std::unordered_set<std::string>* consumed);
  template <typename Op, typename... Args>
  Op* NewOperator(Args&&... args);

  QueryOptions options_;
  /// Guards operators_/streams_ against concurrent builder calls and the
  /// metrics snapshot callback (which may run on a sampler thread).
  mutable std::mutex build_mu_;
  std::vector<std::unique_ptr<Operator>> operators_;
  /// Fused workers built by Start()'s rewrite pass, one per chain of
  /// adjacent FlatMap/Filter stages (see plan_rewrite.hpp). Kept out of
  /// operators_: they are an execution detail, and stats/metrics/checkpoint
  /// registration stay in terms of the logical operators they absorbed.
  std::vector<std::unique_ptr<FusedOperator>> fused_;
  std::vector<ShardGroup> shard_groups_;
  std::vector<StreamPtr> streams_;
  std::unordered_set<Stream*> consumed_;
  std::vector<std::thread> threads_;
  std::unique_ptr<Checkpointer> checkpointer_;
  std::uint64_t recovered_epoch_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::CallbackId metrics_callback_ = 0;
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace strata::spe
