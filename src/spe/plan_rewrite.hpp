// Plan rewriting for the SPE data plane, after the stream fusion line of
// work (Kiselyov et al., "Complete Stream Fusion for Software-Defined
// Radio" / "Highest-performance Stream Processing").
//
// Operator fusion (QueryOptions::enable_fusion, applied by Query::Start;
// builder code and operator semantics are untouched): maximal chains of
// adjacent stateless operators (FlatMap/Filter, each 1-input/1-output,
// linked by a stream with exactly one registered producer and one
// registered consumer) collapse into a single FusedOperator whose per-tuple
// step runs the whole chain — the interior streams are never touched, so a
// fused chain costs zero intermediate queue synchronizations.
// The absorbed operators never run; the fused worker executes their
// functions in order and attributes per-stage counts (tuples in/out, user
// errors, discards) back to them, so spe.operator.* metrics and
// OperatorStats keep per-stage identity.
//
// Shard re-hashing: Query::AddAggregate / Query::AddJoin with parallelism
// > 1 build a keyed-parallel stage (hash router, `parallelism` instances,
// union; see Query). The helpers below re-bucket checkpointed instance
// state by ShardOf, so a run restored at a different parallelism re-hashes
// every window / join buffer entry to its new home instance.
//
// Checkpoint composition: a FusedOperator runs the shared single-input
// driver, so a barrier is completed exactly as by any operator; only the
// report step differs (one snapshot per constituent, under the
// constituent's registered name). Keyed-parallel instances rely on the
// router-broadcast / union-alignment barrier rules.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "spe/operator.hpp"

namespace strata::spe {

/// A single fused worker executing a chain of stateless stages per tuple.
/// Borrows the absorbed operators (owned by the Query): their user
/// functions drive the stages and their counters receive the per-stage
/// attribution. Created by FuseStatelessChains; never built directly.
class FusedOperator final : public Operator {
 public:
  /// One absorbed stage: exactly one of flatmap/filter is set, borrowed
  /// from `op` (which outlives the fused worker — both live on the Query).
  struct Stage {
    Operator* op = nullptr;
    const FlatMapFn* flatmap = nullptr;
    const FilterFn* filter = nullptr;
  };

  FusedOperator(std::string name, const Clock* clock,
                std::vector<Stage> stages);

  [[nodiscard]] const char* kind() const noexcept override { return "fused"; }
  void Run() override;

  [[nodiscard]] const std::vector<Stage>& stages() const noexcept {
    return stages_;
  }

 private:
  /// A barrier drained past the chain: every constituent reports its own
  /// snapshot under its registered name.
  void ReportSnapshots(std::uint64_t epoch) override;
  /// The chain finished: every constituent is done for checkpoint purposes.
  void NotifyFinished() override;

  std::vector<Stage> stages_;
};

/// Result of the fusion pass: the fused workers to run instead of the
/// absorbed originals.
struct FusionPlan {
  std::vector<std::unique_ptr<FusedOperator>> fused;
  /// Operators absorbed into a fused worker (no thread is spawned for
  /// them; their counters are updated by the fused worker).
  std::vector<Operator*> absorbed;
};

/// Finds maximal fusable chains among `operators` (see file comment for
/// the eligibility rules) and builds one FusedOperator per chain of length
/// >= 2. Runs single-threaded before operator threads spawn.
[[nodiscard]] FusionPlan FuseStatelessChains(
    const std::vector<std::unique_ptr<Operator>>& operators,
    const Clock* clock);

// ------------------------------------------------------- shard re-hashing
//
// Both helpers read and write the operators' own snapshot formats
// (AggregateSnapshot, JoinState in spe/codec.hpp). Accumulators stay opaque
// bytes, so re-sharding never needs the user codecs.

/// Re-buckets AggregateOperator snapshots (any old shard count, including a
/// single unsharded blob) into `parallelism` blobs. Every output blob gets
/// the max closed-horizon of the inputs: re-opening a window some old shard
/// already closed and emitted would double-report, so the merged horizon
/// trades (bounded-lateness) late drops for no duplicates.
[[nodiscard]] Status ReshardAggregateSnapshots(
    const std::vector<std::string>& old_blobs, std::size_t parallelism,
    std::vector<std::string>* new_blobs);

/// Re-buckets JoinOperator snapshots into `parallelism` blobs. Per-side
/// buffers are merged in event-time order and every output blob gets the
/// min per-side watermark of the inputs: eviction is only an optimization
/// (the |τL-τR| <= window predicate still rejects stale pairs), so the
/// conservative watermark can never drop a matchable pair.
[[nodiscard]] Status ReshardJoinSnapshots(
    const std::vector<std::string>& old_blobs, std::size_t parallelism,
    std::vector<std::string>* new_blobs);

}  // namespace strata::spe
