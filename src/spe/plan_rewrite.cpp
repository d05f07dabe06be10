#include "spe/plan_rewrite.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "spe/codec.hpp"
#include "obs/trace.hpp"
#include "spe/checkpoint.hpp"

namespace strata::spe {

// ----------------------------------------------------------- FusedOperator

FusedOperator::FusedOperator(std::string name, const Clock* clock,
                             std::vector<StatelessOperator*> stages)
    : Operator(std::move(name), clock), stages_(std::move(stages)) {}

void FusedOperator::Run() {
  // Each input tuple goes through the whole chain, one stage's Apply at a
  // time, and the tail's output is emitted before the next tuple is taken
  // up. The worker opens no span of its own: each Apply traces under its
  // stage's name.
  TupleBatch run;
  TupleBatch next;
  RunSingleInput(nullptr, [&](Tuple& tuple, const obs::SpanScope&) {
    run.push_back(std::move(tuple));
    for (StatelessOperator* stage : stages_) {
      if (run.empty()) break;
      stage->Apply(&run, &next);
      run.swap(next);
      next.clear();
    }
    for (Tuple& out : run) {
      if (!Emit(std::move(out))) break;
    }
    run.clear();
  });
  // Only a closed downstream discards, so the count is final once the
  // driver is done; the chain's output is its tail's output.
  stages_.back()->CountDiscarded(stats().discarded);
}

void FusedOperator::ReportSnapshots(std::uint64_t epoch) {
  // One snapshot per constituent, under its registered name, so a manifest
  // reads the same as one written by the constituents' own threads.
  for (StatelessOperator* stage : stages_) {
    stage->ReportSnapshotTo(checkpointer(), epoch);
  }
}

void FusedOperator::NotifyFinished() {
  // The constituents are what the checkpointer knows about; the fused
  // worker itself is never registered.
  if (Checkpointer* cp = checkpointer(); cp != nullptr) {
    for (StatelessOperator* stage : stages_) {
      cp->OnOperatorFinished(stage->name());
    }
  }
}

// ------------------------------------------------------ FuseStatelessChains

FusionPlan FuseStatelessChains(
    const std::vector<std::unique_ptr<Operator>>& operators,
    const Clock* clock) {
  // Endpoint census over the whole plan: a fusable link must be a private
  // stream (exactly one registered producer and consumer). Streams pushed
  // from outside the query have an unregistered endpoint the census cannot
  // see; the plan assumes a stream between two operators has no other user.
  std::map<const Stream*, std::pair<int, int>> endpoint_count;
  for (const auto& op : operators) {
    for (const StreamPtr& out : op->outputs()) {
      ++endpoint_count[out.get()].first;
    }
    for (const StreamPtr& in : op->inputs()) {
      ++endpoint_count[in.get()].second;
    }
  }

  // Eligible members: stateless 1-input/1-output operators. (A Split is a
  // FlatMap with N outputs and drops out on the output-count rule.)
  std::unordered_set<Operator*> members;
  std::unordered_map<const Stream*, Operator*> consumer_of;
  for (const auto& op : operators) {
    if (op->inputs().size() != 1 || op->outputs().size() != 1) continue;
    if (dynamic_cast<StatelessOperator*>(op.get()) == nullptr) continue;
    members.insert(op.get());
    consumer_of.emplace(op->inputs()[0].get(), op.get());
  }

  // Link a -> b when a's output stream is b's input stream and the stream is
  // private to the pair.
  std::unordered_map<Operator*, Operator*> next;
  std::unordered_set<Operator*> has_prev;
  for (Operator* op : members) {
    const Stream* out = op->outputs()[0].get();
    const auto count = endpoint_count[out];
    if (count.first != 1 || count.second != 1) continue;
    const auto it = consumer_of.find(out);
    if (it == consumer_of.end() || it->second == op) continue;
    next[op] = it->second;
    has_prev.insert(it->second);
  }

  // Greedy maximal chains, walked in plan order so fused names and thread
  // layout are deterministic. Chains of one stay as plain operators.
  FusionPlan plan;
  for (const auto& op : operators) {
    Operator* head = op.get();
    if (members.find(head) == members.end()) continue;
    if (has_prev.find(head) != has_prev.end()) continue;
    std::vector<StatelessOperator*> stages;
    std::string name;
    for (Operator* cur = head; cur != nullptr;) {
      stages.push_back(static_cast<StatelessOperator*>(cur));
      if (!name.empty()) name += '+';
      name += cur->name();
      const auto it = next.find(cur);
      cur = it == next.end() ? nullptr : it->second;
    }
    if (stages.size() < 2) continue;
    Operator* tail = stages.back();
    auto fused = std::make_unique<FusedOperator>(std::move(name), clock,
                                                 std::move(stages));
    fused->AddInput(head->inputs()[0]);
    fused->AddOutput(tail->outputs()[0]);
    plan.absorbed.insert(plan.absorbed.end(), fused->stages().begin(),
                         fused->stages().end());
    plan.fused.push_back(std::move(fused));
  }
  return plan;
}

// -------------------------------------------------------- shard re-hashing

Status ReshardAggregateSnapshots(const std::vector<std::string>& old_blobs,
                                 std::size_t parallelism,
                                 std::vector<std::string>* new_blobs) {
  if (parallelism == 0) {
    return Status::InvalidArgument("reshard: parallelism must be > 0");
  }
  // Merge every window into one canonically-ordered map. A (start, key)
  // pair living in two old blobs means the old shards disagreed about key
  // ownership — corruption, not something to paper over.
  AggregateSnapshot merged;
  bool any_state = false;
  for (const std::string& blob : old_blobs) {
    if (blob.empty()) continue;  // fresh shard: nothing to merge
    auto snapshot = AggregateSnapshot::Decode(blob);
    if (!snapshot.ok()) return snapshot.status();
    // Max over shards: re-opening a window some shard already closed and
    // emitted would double-report; the max horizon trades bounded-lateness
    // drops for no duplicates.
    merged.closed_horizon =
        std::max(merged.closed_horizon, snapshot->closed_horizon);
    any_state = true;
    for (auto& [key, window] : snapshot->windows) {
      if (!merged.windows.emplace(key, std::move(window)).second) {
        return Status::Corruption("reshard: window (" +
                                  std::to_string(key.first) + ", '" +
                                  key.second +
                                  "') present in two shard snapshots");
      }
    }
  }

  new_blobs->assign(parallelism, std::string());
  if (!any_state) return Status::Ok();  // all-fresh in, all-fresh out

  std::vector<AggregateSnapshot> shards(parallelism);
  for (auto& [key, window] : merged.windows) {
    shards[ShardOf(key.second, parallelism)].windows.emplace(
        key, std::move(window));
  }
  for (std::size_t s = 0; s < parallelism; ++s) {
    shards[s].closed_horizon = merged.closed_horizon;  // every shard gets it
    shards[s].EncodeTo(&(*new_blobs)[s]);
  }
  return Status::Ok();
}

Status ReshardJoinSnapshots(const std::vector<std::string>& old_blobs,
                            std::size_t parallelism,
                            std::vector<std::string>* new_blobs) {
  if (parallelism == 0) {
    return Status::InvalidArgument("reshard: parallelism must be > 0");
  }
  using Entry = JoinState::Buffer::value_type;  // (key, tuple)
  std::vector<Entry> sides[2];
  Timestamp max_time[2] = {std::numeric_limits<Timestamp>::max(),
                           std::numeric_limits<Timestamp>::max()};
  bool any_state = false;
  for (const std::string& blob : old_blobs) {
    if (blob.empty()) continue;
    auto state = JoinState::Decode(blob);
    if (!state.ok()) return state.status();
    for (std::size_t side = 0; side < 2; ++side) {
      for (Entry& entry : state->buffers[side]) {
        sides[side].push_back(std::move(entry));
      }
      // Min over shards: the watermark only drives eviction, and eviction
      // is an optimization — the |τL-τR| <= window predicate still rejects
      // stale pairs — so the conservative bound can never drop a matchable
      // pair.
      max_time[side] = std::min(max_time[side], state->max_time[side]);
    }
    any_state = true;
  }

  new_blobs->assign(parallelism, std::string());
  if (!any_state) return Status::Ok();

  // Restore the deque's front-oldest invariant (Evict pops from the front).
  // Stable: a key's entries all lived on one old shard, so ties keep their
  // original relative order and per-key order survives the merge.
  std::vector<JoinState> shards(parallelism);
  for (std::size_t side = 0; side < 2; ++side) {
    std::stable_sort(sides[side].begin(), sides[side].end(),
                     [](const Entry& a, const Entry& b) {
                       return a.second.event_time < b.second.event_time;
                     });
    for (Entry& entry : sides[side]) {
      shards[ShardOf(entry.first, parallelism)].buffers[side].push_back(
          std::move(entry));
    }
  }
  for (std::size_t s = 0; s < parallelism; ++s) {
    shards[s].max_time = {max_time[0], max_time[1]};
    STRATA_RETURN_IF_ERROR(shards[s].EncodeTo(&(*new_blobs)[s]));
  }
  return Status::Ok();
}

}  // namespace strata::spe
