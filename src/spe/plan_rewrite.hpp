// Plan rewriting for the SPE data plane, after the stream fusion line of
// work (Kiselyov et al., "Complete Stream Fusion for Software-Defined
// Radio" / "Highest-performance Stream Processing").
//
// Operator fusion (applied by every Query::Start; builder code and
// operator semantics are untouched): maximal chains of adjacent stateless
// operators (FlatMap/Filter, each 1-input/1-output, linked by a stream with
// exactly one registered producer and one registered consumer) collapse
// into a single FusedOperator, one thread per chain. The interior streams
// are never touched, so a fused chain costs zero intermediate queue
// synchronizations. The absorbed operators never get a thread of their
// own: the fused worker passes each input tuple down the chain, calling
// each stage's own StatelessOperator::Apply on what the stage before it
// produced, and emits the tail's output before it takes the next. Every
// stage keeps its identity: its counts (tuples in/out, user errors; the
// tail also the chain's discards, credited when the worker finishes) land
// in its own counters, its user errors are logged under its name, and its
// spans carry its name and category.
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

/// A single fused worker running a chain of stateless stages. Borrows the
/// absorbed operators (owned by the Query, which outlives the worker): each
/// stage runs through its own Apply. Created by FuseStatelessChains; never
/// built directly.
class FusedOperator final : public Operator {
 public:
  FusedOperator(std::string name, const Clock* clock,
                std::vector<StatelessOperator*> stages);

  [[nodiscard]] const char* kind() const noexcept override { return "fused"; }
  void Run() override;

  [[nodiscard]] const std::vector<StatelessOperator*>& stages() const noexcept {
    return stages_;
  }

 private:
  /// A barrier drained past the chain: every constituent reports its own
  /// snapshot under its registered name.
  void ReportSnapshots(std::uint64_t epoch) override;
  /// The chain finished: every constituent is done for checkpoint purposes.
  void NotifyFinished() override;

  std::vector<StatelessOperator*> stages_;
};

/// Result of the fusion pass: the fused workers to run instead of the
/// absorbed originals.
struct FusionPlan {
  std::vector<std::unique_ptr<FusedOperator>> fused;
  /// Operators absorbed into a fused worker (no thread is spawned for
  /// them; the fused worker runs their steps).
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
