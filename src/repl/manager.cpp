#include "repl/manager.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "fault/failpoint.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"

namespace strata::repl {

namespace {

/// Server-answered error (crossed the wire in a response frame) — the peer
/// is alive, as opposed to a transport fault. Mirrors the marker added by
/// ClientConnection::RoundTrip.
bool IsServerError(const Status& status) {
  return !status.ok() && status.message().rfind("server: ", 0) == 0;
}

}  // namespace

void ReplicationManager::PendingWakeups::Fire(ps::Broker* broker) {
  for (auto& [done, status] : callbacks) done(status);
  for (const ps::TopicPartition& tp : advanced) {
    broker->NotifyPartition(tp.topic, tp.partition);
  }
}

ReplicationManager::ReplicationManager(ps::Broker* broker,
                                       ReplicaOptions options)
    : broker_(broker), options_(std::move(options)) {
  if (obs::MetricsRegistry* registry = options_.metrics; registry != nullptr) {
    const obs::Labels labels{{"broker", std::to_string(options_.self.id)}};
    fetch_rounds_ = registry->GetCounter("repl.fetch.rounds", labels);
    records_replicated_ = registry->GetCounter("repl.records", labels);
    elections_ = registry->GetCounter("repl.elections", labels);
    promotions_ = registry->GetCounter("repl.promotions", labels);
    truncations_ = registry->GetCounter("repl.truncations", labels);
    metrics_callback_ =
        registry->RegisterCallback([this](obs::MetricsSnapshot* snapshot) {
          for (const TopicView& view : ViewAll()) {
            const obs::Labels topic_labels{
                {"broker", std::to_string(options_.self.id)},
                {"topic", view.topic}};
            snapshot->AddGauge("repl.epoch", topic_labels,
                               static_cast<std::int64_t>(view.epoch));
            snapshot->AddGauge("repl.is_leader", topic_labels,
                               view.is_leader ? 1 : 0);
            for (std::size_t p = 0; p < view.partitions.size(); ++p) {
              obs::Labels part_labels = topic_labels;
              part_labels["partition"] = std::to_string(p);
              snapshot->AddGauge("repl.hw", part_labels,
                                 view.partitions[p].high_watermark);
              snapshot->AddGauge("repl.lag", part_labels,
                                 view.partitions[p].lag);
            }
          }
        });
  }
}

ReplicationManager::~ReplicationManager() {
  Stop();
  if (options_.metrics != nullptr && metrics_callback_ != 0) {
    options_.metrics->Unregister(metrics_callback_);
  }
}

Status ReplicationManager::Start() {
  {
    std::lock_guard lock(stop_mu_);
    if (started_) return Status::InvalidArgument("manager already started");
    started_ = true;
    stop_ = false;
  }
  thread_ = std::thread([this] { Run(); });
  return Status::Ok();
}

void ReplicationManager::Stop() {
  {
    std::lock_guard lock(stop_mu_);
    if (!started_) return;
    started_ = false;
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();

  PendingWakeups pending;
  {
    std::lock_guard lock(mu_);
    for (auto& [id, waiter] : waiters_) {
      pending.callbacks.emplace_back(std::move(waiter.done),
                                     Status::Closed("replication stopping"));
    }
    waiters_.clear();
  }
  pending.Fire(broker_);
}

Status ReplicationManager::AddTopic(const std::string& topic,
                                    const ps::TopicConfig& config,
                                    std::uint32_t leader) {
  const bool known =
      std::any_of(options_.brokers.begin(), options_.brokers.end(),
                  [leader](const BrokerEndpoint& b) { return b.id == leader; });
  if (!known) {
    return Status::InvalidArgument("leader " + std::to_string(leader) +
                                   " is not in the replica set");
  }
  STRATA_RETURN_IF_ERROR(broker_->CreateTopic(topic, config));
  std::lock_guard lock(mu_);
  if (topics_.contains(topic)) return Status::Ok();  // idempotent
  TopicState state;
  state.config = config;
  state.leader = leader;
  state.epoch = 1;
  const auto partitions = static_cast<std::size_t>(config.partitions);
  state.hw.assign(partitions, 0);
  state.leader_end.assign(partitions, 0);
  state.stalled.assign(partitions, false);
  if (leader == options_.self.id) {
    // Records already on disk predate replication; they were acked under
    // the old durability contract, so the initial leader keeps serving
    // them rather than hiding them behind an hw no follower will push.
    for (std::size_t p = 0; p < partitions; ++p) {
      state.hw[p] = LocalEnd(topic, static_cast<std::uint32_t>(p));
    }
  }
  state.last_leader_contact = Clock::now();
  topics_.emplace(topic, std::move(state));
  return Status::Ok();
}

std::int64_t ReplicationManager::LocalEnd(const std::string& topic,
                                          std::uint32_t partition) const {
  auto log = broker_->GetLog(topic, static_cast<int>(partition));
  return log.ok() ? (*log)->EndOffset() : 0;
}

bool ReplicationManager::IsLeader(const std::string& topic) const {
  std::lock_guard lock(mu_);
  const auto it = topics_.find(topic);
  return it != topics_.end() && it->second.leader == options_.self.id;
}

// --- views ------------------------------------------------------------------

namespace {

/// Leader's in-sync replica set: itself plus every follower heard from
/// within the isr timeout.
template <typename TopicStateT>
std::vector<std::uint32_t> IsrOf(const TopicStateT& state, std::uint32_t self,
                                 std::chrono::microseconds isr_timeout,
                                 std::chrono::steady_clock::time_point now) {
  std::vector<std::uint32_t> isr{self};
  for (const auto& [id, follower] : state.followers) {
    if (now - follower.last_contact <= isr_timeout) isr.push_back(id);
  }
  std::sort(isr.begin(), isr.end());
  return isr;
}

}  // namespace

Result<TopicView> ReplicationManager::View(const std::string& topic) const {
  for (TopicView& view : const_cast<ReplicationManager*>(this)->ViewAll()) {
    if (view.topic == topic) return std::move(view);
  }
  return Status::NotFound("topic " + topic + " not replicated");
}

std::vector<TopicView> ReplicationManager::ViewAll() const {
  std::vector<TopicView> views;
  const auto now = Clock::now();
  std::lock_guard lock(mu_);
  for (const auto& [name, state] : topics_) {
    TopicView view;
    view.topic = name;
    view.leader = state.leader;
    view.epoch = state.epoch;
    view.is_leader = state.leader == options_.self.id;
    const auto partitions = static_cast<std::size_t>(state.config.partitions);
    for (std::size_t p = 0; p < partitions; ++p) {
      TopicView::Partition part;
      part.log_end = LocalEnd(name, static_cast<std::uint32_t>(p));
      part.high_watermark = state.hw[p];
      if (view.is_leader) {
        // Most-behind follower's distance from our end; no followers heard
        // from yet = the whole uncommitted window.
        std::int64_t min_acked = part.log_end;
        for (const auto& [id, follower] : state.followers) {
          if (p < follower.acked.size()) {
            min_acked = std::min(min_acked, follower.acked[p]);
          } else {
            min_acked = 0;
          }
        }
        if (state.followers.empty()) min_acked = state.hw[p];
        part.lag = std::max<std::int64_t>(0, part.log_end - min_acked);
      } else {
        part.lag =
            std::max<std::int64_t>(0, state.leader_end[p] - part.log_end);
        part.stalled = p < state.stalled.size() && state.stalled[p];
      }
      view.partitions.push_back(part);
    }
    if (view.is_leader) {
      view.isr = IsrOf(state, options_.self.id, options_.isr_timeout, now);
    }
    views.push_back(std::move(view));
  }
  return views;
}

std::string ReplicationManager::HealthJson() const {
  std::string out = "{\"broker\":" + std::to_string(options_.self.id) +
                    ",\"topics\":[";
  bool first = true;
  for (const TopicView& view : ViewAll()) {
    if (!first) out += ',';
    first = false;
    out += "{\"topic\":\"" + view.topic +
           "\",\"leader\":" + std::to_string(view.leader) +
           ",\"epoch\":" + std::to_string(view.epoch) + ",\"is_leader\":" +
           (view.is_leader ? "true" : "false") + ",\"isr\":[";
    for (std::size_t i = 0; i < view.isr.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(view.isr[i]);
    }
    out += "],\"partitions\":[";
    for (std::size_t p = 0; p < view.partitions.size(); ++p) {
      if (p != 0) out += ',';
      out += "{\"log_end\":" + std::to_string(view.partitions[p].log_end) +
             ",\"high_watermark\":" +
             std::to_string(view.partitions[p].high_watermark) +
             ",\"lag\":" + std::to_string(view.partitions[p].lag) +
             ",\"stalled\":" +
             (view.partitions[p].stalled ? "true" : "false") + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

// --- net::ReplicationHooks --------------------------------------------------

bool ReplicationManager::ManagesTopic(const std::string& topic) const {
  std::lock_guard lock(mu_);
  return topics_.contains(topic);
}

Status ReplicationManager::CheckProduce(const std::string& topic) const {
  std::lock_guard lock(mu_);
  const auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::Ok();  // unmanaged: pass through
  if (it->second.leader == options_.self.id) return Status::Ok();
  return Status::NotLeader("topic " + topic + " is led by broker " +
                           std::to_string(it->second.leader) + " (epoch " +
                           std::to_string(it->second.epoch) + ")");
}

std::int64_t ReplicationManager::VisibleEnd(const ps::TopicPartition& tp,
                                            std::int64_t log_end) const {
  std::lock_guard lock(mu_);
  const auto it = topics_.find(tp.topic);
  if (it == topics_.end()) return log_end;
  const auto p = static_cast<std::size_t>(tp.partition);
  if (p >= it->second.hw.size()) return log_end;
  return std::min(log_end, it->second.hw[p]);
}

void ReplicationManager::RecomputeHwLocked(const std::string& topic,
                                           TopicState& state,
                                           std::uint32_t partition,
                                           PendingWakeups* pending) {
  if (state.leader != options_.self.id) return;
  const auto p = static_cast<std::size_t>(partition);
  if (p >= state.hw.size()) return;

  std::vector<std::int64_t> ends;
  ends.reserve(state.followers.size() + 1);
  ends.push_back(LocalEnd(topic, partition));
  for (const auto& [id, follower] : state.followers) {
    ends.push_back(p < follower.acked.size() ? follower.acked[p] : 0);
  }
  if (ends.size() < quorum()) return;  // not enough copies heard from yet
  std::sort(ends.begin(), ends.end(), std::greater<>());
  const std::int64_t candidate = ends[quorum() - 1];
  if (candidate <= state.hw[p]) return;  // hw is monotone

  state.hw[p] = candidate;
  pending->advanced.push_back(
      ps::TopicPartition{topic, static_cast<int>(partition)});
  for (auto it = waiters_.begin(); it != waiters_.end();) {
    CommitWaiter& waiter = it->second;
    if (waiter.topic == topic && waiter.partition == partition &&
        waiter.offset < state.hw[p]) {
      pending->callbacks.emplace_back(std::move(waiter.done), Status::Ok());
      it = waiters_.erase(it);
    } else {
      ++it;
    }
  }
}

void ReplicationManager::FailTopicWaitersLocked(const std::string& topic,
                                                const Status& status,
                                                PendingWakeups* pending) {
  for (auto it = waiters_.begin(); it != waiters_.end();) {
    if (it->second.topic == topic) {
      pending->callbacks.emplace_back(std::move(it->second.done), status);
      it = waiters_.erase(it);
    } else {
      ++it;
    }
  }
}

void ReplicationManager::TruncateUncommittedLocked(const std::string& topic,
                                                   TopicState& state) {
  for (int p = 0; p < state.config.partitions; ++p) {
    auto log = broker_->GetLog(topic, p);
    if (!log.ok()) continue;
    const std::int64_t end = (*log)->EndOffset();
    const std::int64_t hw = state.hw[static_cast<std::size_t>(p)];
    if (end <= hw) continue;
    LOG_WARN << "repl: truncating " << topic << "/" << p << " from " << end
             << " to hw " << hw << " (uncommitted tail across epoch change)";
    if (truncations_ != nullptr) truncations_->Inc();
    if (Status trunc = (*log)->TruncateTo(hw); !trunc.ok()) {
      LOG_ERROR << "repl: truncate failed: " << trunc.ToString();
    }
  }
}

std::uint64_t ReplicationManager::AddCommitWaiter(
    const ps::TopicPartition& tp, std::int64_t offset,
    std::function<void(Status)> done) {
  PendingWakeups pending;
  std::uint64_t id = 0;
  Status inline_status = Status::Ok();
  bool fire_inline = false;
  {
    std::lock_guard lock(mu_);
    id = next_waiter_++;
    const auto it = topics_.find(tp.topic);
    if (it == topics_.end()) {
      // Unmanaged topic: nothing gates the produce, commit trivially.
      fire_inline = true;
    } else if (it->second.leader != options_.self.id) {
      fire_inline = true;
      inline_status = Status::NotLeader(
          "topic " + tp.topic + " is led by broker " +
          std::to_string(it->second.leader));
    } else {
      // A single-broker "cluster" (quorum 1) commits on the local append
      // alone — only a recompute here will ever notice that.
      RecomputeHwLocked(tp.topic, it->second,
                        static_cast<std::uint32_t>(tp.partition), &pending);
      const auto p = static_cast<std::size_t>(tp.partition);
      if (p < it->second.hw.size() && it->second.hw[p] > offset) {
        fire_inline = true;
      } else {
        waiters_.emplace(
            id, CommitWaiter{tp.topic, static_cast<std::uint32_t>(tp.partition),
                             offset, std::move(done)});
      }
    }
  }
  pending.Fire(broker_);
  if (fire_inline) done(inline_status);
  return id;
}

void ReplicationManager::CancelCommitWaiter(std::uint64_t id) {
  std::lock_guard lock(mu_);
  waiters_.erase(id);
}

Status ReplicationManager::HandleReplicaFetch(
    const net::ReplicaFetchRequest& req, net::ReplicaFetchResponse* resp) {
  STRATA_FAILPOINT("repl.fetch.serve");
  PendingWakeups pending;
  Status status = Status::Ok();
  {
    std::lock_guard lock(mu_);
    const auto it = topics_.find(req.topic);
    if (it == topics_.end()) {
      status = Status::NotFound("topic " + req.topic + " not replicated");
    } else if (it->second.leader != options_.self.id) {
      status = Status::NotLeader("topic " + req.topic + " is led by broker " +
                                 std::to_string(it->second.leader));
    } else if (req.epoch > it->second.epoch) {
      // The follower has seen a newer epoch than we have: we are a deposed
      // leader that missed the announcement. Refuse; our own fetch loop /
      // election will catch us up.
      status = Status::NotLeader("fetch carries epoch " +
                                 std::to_string(req.epoch) + " > local " +
                                 std::to_string(it->second.epoch));
    } else if (req.epoch < it->second.epoch) {
      // Stale follower (missed the promote announcement): answer with the
      // current epoch and no records or ack credit. The follower adopts the
      // epoch, drops its uncommitted tail, and refetches — serving records
      // or crediting a fetch offset against a possibly-diverged log would
      // let the high watermark advance on copies that do not match ours.
      resp->leader = options_.self.id;
      resp->epoch = it->second.epoch;
    } else {
      TopicState& state = it->second;
      resp->leader = options_.self.id;
      resp->epoch = state.epoch;
      Follower& follower = state.followers[req.follower];
      follower.acked.resize(
          static_cast<std::size_t>(state.config.partitions), 0);
      follower.last_contact = Clock::now();
      for (const auto& entry : req.entries) {
        if (entry.partition >=
            static_cast<std::uint32_t>(state.config.partitions)) {
          continue;
        }
        auto log = broker_->GetLog(req.topic,
                                   static_cast<int>(entry.partition));
        if (!log.ok()) continue;
        net::ReplicaFetchResponse::Entry out;
        out.partition = entry.partition;
        out.base_offset = entry.offset;
        out.high_watermark = state.hw[entry.partition];
        out.log_end = (*log)->EndOffset();
        const auto budget = static_cast<std::size_t>(std::min<std::uint64_t>(
            entry.max_records, options_.max_fetch_records));
        std::int64_t next = entry.offset;
        if (Status read = (*log)->ReadFrom(entry.offset, budget, &out.records,
                                           &next);
            read.ok()) {
          // The fetch offset is a cumulative ack: everything below it is
          // already appended on the follower — but never credit past our
          // own end, or a diverged follower fetching beyond it would
          // advance the high watermark on records we never served.
          follower.acked[entry.partition] =
              std::max(follower.acked[entry.partition],
                       std::min(entry.offset, (*log)->EndOffset()));
          RecomputeHwLocked(req.topic, state, entry.partition, &pending);
        } else {
          // Offset below the retention horizon: the follower cannot copy
          // contiguously from here (and earns no ack credit). Report where
          // our log starts; the follower flags the gap instead of
          // mis-numbering records.
          out.records.clear();
          out.base_offset = (*log)->StartOffset();
        }
        out.high_watermark = state.hw[entry.partition];
        resp->entries.push_back(std::move(out));
      }
    }
  }
  pending.Fire(broker_);
  return status;
}

Status ReplicationManager::HandleReplicaAck(const net::ReplicaAckRequest& req,
                                            net::ReplicaAckResponse* resp) {
  STRATA_FAILPOINT("repl.ack.serve");
  PendingWakeups pending;
  Status status = Status::Ok();
  {
    std::lock_guard lock(mu_);
    const auto it = topics_.find(req.topic);
    if (it == topics_.end()) {
      status = Status::NotFound("topic " + req.topic + " not replicated");
    } else if (it->second.leader != options_.self.id ||
               req.epoch != it->second.epoch) {
      // A stale-epoch ack (req.epoch below ours) is refused just like a
      // newer one: the follower's log may have diverged during the missed
      // leadership interval, so its end is no ack until it re-fetches
      // under the current epoch.
      status = Status::NotLeader("topic " + req.topic + " is led by broker " +
                                 std::to_string(it->second.leader) +
                                 " (epoch " +
                                 std::to_string(it->second.epoch) + ")");
    } else {
      TopicState& state = it->second;
      Follower& follower = state.followers[req.follower];
      follower.acked.resize(
          static_cast<std::size_t>(state.config.partitions), 0);
      follower.last_contact = Clock::now();
      for (const auto& entry : req.entries) {
        if (entry.partition >=
            static_cast<std::uint32_t>(state.config.partitions)) {
          continue;
        }
        follower.acked[entry.partition] =
            std::max(follower.acked[entry.partition], entry.log_end);
        RecomputeHwLocked(req.topic, state, entry.partition, &pending);
        resp->entries.push_back(net::ReplicaAckResponse::Entry{
            entry.partition, state.hw[entry.partition]});
      }
    }
  }
  pending.Fire(broker_);
  return status;
}

Status ReplicationManager::HandlePromoteLeader(
    const net::PromoteLeaderRequest& req, net::PromoteLeaderResponse* resp) {
  STRATA_FAILPOINT("repl.promote.recv");
  PendingWakeups pending;
  Status status = Status::Ok();
  {
    std::lock_guard lock(mu_);
    const auto it = topics_.find(req.topic);
    if (it == topics_.end()) {
      status = Status::NotFound("topic " + req.topic + " not replicated");
    } else {
      TopicState& state = it->second;
      if (req.epoch < state.epoch ||
          (req.epoch == state.epoch && req.leader != state.leader)) {
        status = Status::InvalidArgument(
            "stale promote: epoch " + std::to_string(req.epoch) +
            " leader " + std::to_string(req.leader) + " vs local epoch " +
            std::to_string(state.epoch) + " leader " +
            std::to_string(state.leader));
      } else {
        if (req.epoch > state.epoch) {
          const bool was_leader = state.leader == options_.self.id;
          LOG_INFO << "repl: adopting leader " << req.leader << " for "
                   << req.topic << " at epoch " << req.epoch
                   << " (was: " << state.leader << "@" << state.epoch << ")";
          state.leader = req.leader;
          state.epoch = req.epoch;
          state.followers.clear();
          state.last_leader_contact = Clock::now();
          for (const auto& entry : req.entries) {
            if (entry.partition >=
                static_cast<std::uint32_t>(state.config.partitions)) {
              continue;
            }
            state.leader_end[entry.partition] = entry.log_end;
            auto log = broker_->GetLog(req.topic,
                                       static_cast<int>(entry.partition));
            if (!log.ok()) continue;
            const std::int64_t local = (*log)->EndOffset();
            // Our tail past the new leader's end was never committed
            // (hw <= leader end when elections are safe): drop it so the
            // copy stays contiguous with the new leader's numbering. Never
            // cut below our own high watermark though — records at/below
            // it are quorum-acked and possibly consumed; a winner that
            // lacks them must not be able to undo the durability contract.
            const std::int64_t floor =
                std::max(entry.log_end, state.hw[entry.partition]);
            if (local > floor) {
              LOG_WARN << "repl: truncating " << req.topic << "/"
                       << entry.partition << " from " << local << " to "
                       << floor << " (uncommitted tail of epoch "
                       << state.epoch - 1 << ")";
              if (truncations_ != nullptr) truncations_->Inc();
              if (Status trunc = (*log)->TruncateTo(floor); !trunc.ok()) {
                LOG_ERROR << "repl: truncate failed: " << trunc.ToString();
              }
            }
          }
          if (was_leader) {
            FailTopicWaitersLocked(
                req.topic,
                Status::NotLeader("leadership moved to broker " +
                                  std::to_string(req.leader)),
                &pending);
          }
        }
        // Equal epoch + same leader: idempotent re-announce.
        for (const auto& entry : req.entries) {
          if (entry.partition >=
              static_cast<std::uint32_t>(state.config.partitions)) {
            continue;
          }
          resp->entries.push_back(net::PromoteLeaderResponse::Entry{
              entry.partition,
              LocalEnd(req.topic, entry.partition)});
        }
      }
    }
  }
  pending.Fire(broker_);
  return status;
}

Status ReplicationManager::HandleClusterMeta(
    const net::ClusterMetaRequest& req, net::ClusterMetaResponse* resp) {
  resp->self = options_.self.id;
  for (const BrokerEndpoint& broker : options_.brokers) {
    resp->brokers.push_back(
        net::ClusterMetaResponse::BrokerInfo{broker.id, broker.host,
                                             broker.port});
  }
  const auto now = Clock::now();
  std::lock_guard lock(mu_);
  for (const auto& [name, state] : topics_) {
    if (!req.topic.empty() && req.topic != name) continue;
    net::ClusterMetaResponse::Topic topic;
    topic.topic = name;
    topic.leader = state.leader;
    topic.epoch = state.epoch;
    if (state.leader == options_.self.id) {
      topic.isr = IsrOf(state, options_.self.id, options_.isr_timeout, now);
    }
    const auto partitions = static_cast<std::size_t>(state.config.partitions);
    for (std::size_t p = 0; p < partitions; ++p) {
      topic.partitions.push_back(net::ClusterMetaResponse::Partition{
          LocalEnd(name, static_cast<std::uint32_t>(p)), state.hw[p]});
    }
    resp->topics.push_back(std::move(topic));
  }
  return Status::Ok();
}

// --- follower loop ----------------------------------------------------------

net::ClientConnection* ReplicationManager::Peer(std::uint32_t id) {
  if (const auto it = peers_.find(id); it != peers_.end()) {
    return it->second.get();
  }
  for (const BrokerEndpoint& broker : options_.brokers) {
    if (broker.id != id) continue;
    net::RemoteOptions remote;
    remote.host = broker.host;
    remote.port = broker.port;
    remote.connect_timeout = options_.peer_connect_timeout;
    remote.request_timeout = options_.peer_request_timeout;
    remote.max_retries = 0;  // the fetch loop is its own retry machinery
    auto [it, inserted] = peers_.emplace(
        id, std::make_unique<net::ClientConnection>(std::move(remote)));
    return it->second.get();
  }
  return nullptr;
}

void ReplicationManager::Run() {
  while (true) {
    {
      std::unique_lock lock(stop_mu_);
      if (stop_cv_.wait_for(lock, options_.fetch_interval,
                            [this] { return stop_; })) {
        return;
      }
    }
    // Snapshot the follower work under the lock, RPC outside it. Led topics
    // get a watermark recompute instead: local appends (acks=leader, or a
    // quorum of one) advance the hw on this tick rather than waiting for
    // follower traffic that may never come.
    std::vector<std::pair<std::string, std::uint32_t>> to_fetch;
    PendingWakeups tick_pending;
    {
      std::lock_guard lock(mu_);
      for (auto& [name, state] : topics_) {
        if (state.leader != options_.self.id) {
          to_fetch.emplace_back(name, state.leader);
          continue;
        }
        for (int p = 0; p < state.config.partitions; ++p) {
          RecomputeHwLocked(name, state, static_cast<std::uint32_t>(p),
                            &tick_pending);
        }
      }
    }
    tick_pending.Fire(broker_);
    const TraceContext trace = obs::Tracer::Instance().MaybeStartTrace();
    obs::SpanScope span;
    if (trace.sampled()) {
      span = obs::SpanScope("repl.fetch", "repl", trace,
                            static_cast<std::uint64_t>(to_fetch.size()));
    }
    for (const auto& [topic, leader] : to_fetch) {
      const bool contacted = FetchRound(topic, leader);
      bool overdue = false;
      {
        std::lock_guard lock(mu_);
        const auto it = topics_.find(topic);
        if (it == topics_.end() || it->second.leader == options_.self.id) {
          continue;  // promoted (or re-pointed) while we were fetching
        }
        if (contacted) {
          it->second.last_leader_contact = Clock::now();
        } else {
          overdue = Clock::now() - it->second.last_leader_contact >
                    options_.leader_timeout;
        }
      }
      if (overdue) RunElection(topic);
    }
  }
}

bool ReplicationManager::FetchRound(const std::string& topic,
                                    std::uint32_t leader) {
  net::ClientConnection* conn = Peer(leader);
  if (conn == nullptr) return false;
  if (fetch_rounds_ != nullptr) fetch_rounds_->Inc();

  net::ReplicaFetchRequest req;
  req.follower = options_.self.id;
  req.topic = topic;
  int partitions = 0;
  {
    std::lock_guard lock(mu_);
    const auto it = topics_.find(topic);
    if (it == topics_.end()) return true;
    req.epoch = it->second.epoch;
    partitions = it->second.config.partitions;
  }
  for (int p = 0; p < partitions; ++p) {
    net::ReplicaFetchRequest::Entry entry;
    entry.partition = static_cast<std::uint32_t>(p);
    entry.offset = LocalEnd(topic, static_cast<std::uint32_t>(p));
    entry.max_records = options_.max_fetch_records;
    req.entries.push_back(entry);
  }

  std::string body;
  net::EncodeReplicaFetchRequest(req, &body);
  ps::Bytes response;
  if (Status call = conn->Call(net::ApiKey::kReplicaFetch, body, &response,
                               {}, /*retry=*/false);
      !call.ok()) {
    // A live peer that answers NotLeader (deposed, or ahead of us) is not a
    // heartbeat: without contact the election timer keeps aging, which is
    // exactly right — the metadata sweep will find the real leader.
    if (!IsServerError(call)) conn->Disconnect();
    return false;
  }
  net::ReplicaFetchResponse resp;
  if (!net::DecodeReplicaFetchResponse(response, &resp).ok()) return false;

  // A response carrying a newer epoch means the leader was (re-)promoted
  // while we fetched with a stale one — it answers such fetches with an
  // epoch-only response (no records, no ack credit). Adopt the epoch and
  // drop our uncommitted tail before fetching again: records above the hw
  // may have diverged during the missed leadership interval.
  {
    std::lock_guard lock(mu_);
    const auto it = topics_.find(topic);
    if (it == topics_.end()) return true;
    TopicState& state = it->second;
    if (resp.epoch > state.epoch) {
      if (resp.leader == leader && state.leader == leader) {
        LOG_INFO << "repl: " << topic << " adopting epoch " << resp.epoch
                 << " from leader " << leader << " (was epoch " << state.epoch
                 << ")";
        state.epoch = resp.epoch;
        state.last_leader_contact = Clock::now();
        TruncateUncommittedLocked(topic, state);
      }
      return true;  // refetch from the truncated ends next round
    }
  }

  // Append outside mu_: only this thread appends to topics we do not lead
  // (CheckProduce rejects client produces on followers), and holding the
  // manager lock across disk appends would stall the reactor's hooks.
  struct Applied {
    std::uint32_t partition;
    std::int64_t leader_end;
    std::int64_t leader_hw;
    std::int64_t local_end;
    bool stalled = false;
    std::int64_t leader_start = 0;
  };
  std::vector<Applied> applied;
  std::uint64_t replicated = 0;
  for (auto& entry : resp.entries) {
    auto log = broker_->GetLog(topic, static_cast<int>(entry.partition));
    if (!log.ok()) continue;
    std::int64_t local = (*log)->EndOffset();
    if (entry.base_offset != local) {
      // The leader cannot serve contiguously from our end: its retention
      // horizon moved past it (base_offset > local, whether or not records
      // came back), or a concurrent promotion truncated us mid-round.
      // Apply nothing; the stalled-flag transition is logged and surfaced
      // under mu_ below so the condition is visible even when the leader
      // answers with an empty batch every round.
      Applied gap{entry.partition, entry.log_end, entry.high_watermark,
                  local};
      gap.stalled = entry.base_offset > local;
      gap.leader_start = entry.base_offset;
      applied.push_back(gap);
      continue;
    }
    bool append_failed = false;
    for (ps::Record& record : entry.records) {
      if (Status fp = fault::Evaluate("repl.follower.append"); !fp.ok()) {
        LOG_WARN << "repl: injected follower append fault: " << fp.ToString();
        append_failed = true;
        break;
      }
      auto offset = (*log)->Append(std::move(record));
      if (!offset.ok()) {
        LOG_WARN << "repl: follower append failed on " << topic << "/"
                 << entry.partition << ": " << offset.status().ToString();
        append_failed = true;
        break;
      }
      local = *offset + 1;
      ++replicated;
    }
    applied.push_back(
        Applied{entry.partition, entry.log_end, entry.high_watermark, local});
    if (append_failed) break;
  }
  if (records_replicated_ != nullptr && replicated > 0) {
    records_replicated_->Inc(replicated);
  }

  net::ReplicaAckRequest ack;
  ack.follower = options_.self.id;
  ack.epoch = resp.epoch;
  ack.topic = topic;
  PendingWakeups pending;
  {
    std::lock_guard lock(mu_);
    const auto it = topics_.find(topic);
    if (it == topics_.end()) return true;
    TopicState& state = it->second;
    for (const Applied& a : applied) {
      const auto p = static_cast<std::size_t>(a.partition);
      if (p >= state.hw.size()) continue;
      state.leader_end[p] = a.leader_end;
      if (p < state.stalled.size() && state.stalled[p] != a.stalled) {
        state.stalled[p] = a.stalled;
        if (a.stalled) {
          LOG_WARN << "repl: " << topic << "/" << a.partition
                   << " stalled: leader log starts at " << a.leader_start
                   << " but local end is " << a.local_end
                   << " (retention outran replication)";
        } else {
          LOG_INFO << "repl: " << topic << "/" << a.partition
                   << " replication resumed (gap closed)";
        }
      }
      // Never expose past what we physically hold.
      const std::int64_t hw = std::min(a.leader_hw, a.local_end);
      if (hw > state.hw[p]) {
        state.hw[p] = hw;
        pending.advanced.push_back(
            ps::TopicPartition{topic, static_cast<int>(a.partition)});
      }
      ack.entries.push_back(
          net::ReplicaAckRequest::Entry{a.partition, a.local_end});
    }
  }
  pending.Fire(broker_);

  if (ack.entries.empty()) return true;
  body.clear();
  net::EncodeReplicaAckRequest(ack, &body);
  if (!conn->Call(net::ApiKey::kReplicaAck, body, &response, {},
                  /*retry=*/false)
           .ok()) {
    return true;
  }
  net::ReplicaAckResponse ack_resp;
  if (!net::DecodeReplicaAckResponse(response, &ack_resp).ok()) return true;
  // The ack answer can carry a fresher hw than the fetch did (our own ack
  // may have completed the quorum); collected into its own PendingWakeups
  // so the wakeups fired above never fire twice.
  PendingWakeups ack_pending;
  {
    std::lock_guard lock(mu_);
    const auto it = topics_.find(topic);
    if (it != topics_.end()) {
      TopicState& state = it->second;
      for (const auto& entry : ack_resp.entries) {
        const auto p = static_cast<std::size_t>(entry.partition);
        if (p >= state.hw.size()) continue;
        const std::int64_t hw = std::min(entry.high_watermark,
                                         LocalEnd(topic, entry.partition));
        if (hw > state.hw[p]) {
          state.hw[p] = hw;
          ack_pending.advanced.push_back(
              ps::TopicPartition{topic, static_cast<int>(entry.partition)});
        }
      }
    }
  }
  ack_pending.Fire(broker_);
  return true;
}

void ReplicationManager::RunElection(const std::string& topic) {
  if (elections_ != nullptr) elections_->Inc();

  net::ClusterMetaRequest req;
  req.topic = topic;
  std::string body;
  net::EncodeClusterMetaRequest(req, &body);

  struct PeerView {
    std::uint32_t id = 0;
    bool has_topic = false;
    std::uint32_t leader = 0;
    std::uint64_t epoch = 0;
    std::vector<std::int64_t> ends;  // per-partition log ends
    std::vector<std::int64_t> hw;    // per-partition high watermarks
  };
  std::vector<PeerView> reachable;
  for (const BrokerEndpoint& broker : options_.brokers) {
    if (broker.id == options_.self.id) continue;
    net::ClientConnection* conn = Peer(broker.id);
    if (conn == nullptr) continue;
    ps::Bytes response;
    if (Status call = conn->Call(net::ApiKey::kClusterMeta, body, &response,
                                 {}, /*retry=*/false);
        !call.ok()) {
      if (!IsServerError(call)) conn->Disconnect();
      continue;
    }
    net::ClusterMetaResponse meta;
    if (!net::DecodeClusterMetaResponse(response, &meta).ok()) continue;
    PeerView view;
    view.id = broker.id;
    for (const auto& t : meta.topics) {
      if (t.topic != topic) continue;
      view.has_topic = true;
      view.leader = t.leader;
      view.epoch = t.epoch;
      for (const auto& partition : t.partitions) {
        view.ends.push_back(partition.log_end);
        view.hw.push_back(partition.high_watermark);
      }
    }
    reachable.push_back(view);
  }

  std::uint64_t my_epoch = 0;
  std::uint32_t old_leader = 0;
  std::vector<std::int64_t> my_ends;
  std::vector<std::int64_t> my_hw;
  {
    std::lock_guard lock(mu_);
    const auto it = topics_.find(topic);
    if (it == topics_.end() || it->second.leader == options_.self.id) return;
    my_epoch = it->second.epoch;
    old_leader = it->second.leader;
    my_hw = it->second.hw;
    for (int p = 0; p < it->second.config.partitions; ++p) {
      my_ends.push_back(LocalEnd(topic, static_cast<std::uint32_t>(p)));
    }
  }

  // Someone already moved on: adopt the newest leadership we can see.
  std::uint64_t max_epoch = my_epoch;
  const PeerView* newer = nullptr;
  for (const PeerView& view : reachable) {
    if (!view.has_topic) continue;
    max_epoch = std::max(max_epoch, view.epoch);
    if (view.epoch > my_epoch && (newer == nullptr ||
                                  view.epoch > newer->epoch)) {
      newer = &view;
    }
  }
  if (newer != nullptr && newer->leader != old_leader) {
    std::lock_guard lock(mu_);
    const auto it = topics_.find(topic);
    if (it != topics_.end() && newer->epoch > it->second.epoch) {
      LOG_INFO << "repl: " << topic << " adopting leader " << newer->leader
               << " at epoch " << newer->epoch << " from peer " << newer->id;
      it->second.leader = newer->leader;
      it->second.epoch = newer->epoch;
      it->second.followers.clear();
      it->second.last_leader_contact = Clock::now();
      // We missed the (one-shot) PromoteLeader announcement, so no
      // truncation bound arrived with the news: drop our uncommitted tail
      // here, or the fetch loop would append the new leader's records
      // after diverged ones and the divergence would become permanent.
      TruncateUncommittedLocked(topic, it->second);
    }
    return;
  }

  // A reachable peer still believes the old leader at our epoch — and if
  // the old leader itself answered, it is alive and we just hit a blip.
  for (const PeerView& view : reachable) {
    if (view.id == old_leader) {
      std::lock_guard lock(mu_);
      const auto it = topics_.find(topic);
      if (it != topics_.end()) {
        it->second.last_leader_contact = Clock::now();
      }
      return;
    }
  }

  // Split-brain guard: only elect with a strict majority of the cluster
  // reachable (self included). A minority partition must stall, not fork.
  if (reachable.size() + 1 < quorum()) {
    LOG_WARN << "repl: " << topic << " election blocked: only "
             << reachable.size() + 1 << "/" << options_.brokers.size()
             << " brokers reachable (need " << quorum() << ")";
    std::lock_guard lock(mu_);
    const auto it = topics_.find(topic);
    if (it != topics_.end()) {
      it->second.last_leader_contact = Clock::now();  // back off, retry later
    }
    return;
  }

  // Committed floor: the highest high watermark any participant reports,
  // per partition. The hw is only ever advanced by a real quorum, so a
  // safe winner must hold every partition at least to this floor — electing
  // on a total-records score alone could crown a candidate that is ahead
  // overall yet behind the committed offset on one partition, and its
  // promotion would truncate quorum-acked records on a more-caught-up
  // survivor.
  const std::size_t partitions = my_ends.size();
  std::vector<std::int64_t> floor = my_hw;
  floor.resize(partitions, 0);
  for (const PeerView& view : reachable) {
    if (!view.has_topic) continue;
    for (std::size_t p = 0; p < partitions && p < view.hw.size(); ++p) {
      floor[p] = std::max(floor[p], view.hw[p]);
    }
  }
  const auto eligible = [&](const std::vector<std::int64_t>& ends) {
    for (std::size_t p = 0; p < partitions; ++p) {
      if ((p < ends.size() ? ends[p] : 0) < floor[p]) return false;
    }
    return true;
  };
  const auto total = [](const std::vector<std::int64_t>& ends) {
    std::int64_t sum = 0;
    for (const std::int64_t end : ends) sum += end;
    return sum;
  };

  // Deterministic winner among the eligible: most total log, ties to the
  // lowest broker id.
  bool found = false;
  std::uint32_t winner = 0;
  std::int64_t winner_total = 0;
  const auto consider = [&](std::uint32_t id, std::int64_t candidate_total) {
    if (!found || candidate_total > winner_total ||
        (candidate_total == winner_total && id < winner)) {
      found = true;
      winner = id;
      winner_total = candidate_total;
    }
  };
  if (eligible(my_ends)) consider(options_.self.id, total(my_ends));
  for (const PeerView& view : reachable) {
    if (view.has_topic && eligible(view.ends)) consider(view.id,
                                                        total(view.ends));
  }
  if (!found || winner != options_.self.id) {
    if (!found) {
      LOG_WARN << "repl: " << topic << " election blocked: no reachable "
               << "candidate covers the committed floor on every partition";
    } else {
      LOG_INFO << "repl: " << topic << " election defers to broker " << winner
               << " (" << winner_total << " >= " << total(my_ends)
               << " records)";
    }
    std::lock_guard lock(mu_);
    const auto it = topics_.find(topic);
    if (it != topics_.end()) {
      it->second.last_leader_contact = Clock::now();  // back off, retry later
    }
    return;
  }
  PromoteSelf(topic, max_epoch + 1);
}

void ReplicationManager::PromoteSelf(const std::string& topic,
                                     std::uint64_t epoch) {
  if (promotions_ != nullptr) promotions_->Inc();
  net::PromoteLeaderRequest req;
  req.leader = options_.self.id;
  req.epoch = epoch;
  req.topic = topic;
  {
    std::lock_guard lock(mu_);
    const auto it = topics_.find(topic);
    if (it == topics_.end() || it->second.epoch >= epoch) return;
    TopicState& state = it->second;
    LOG_INFO << "repl: broker " << options_.self.id << " promoting itself to "
             << topic << " leader at epoch " << epoch;
    state.leader = options_.self.id;
    state.epoch = epoch;
    state.followers.clear();
    state.last_leader_contact = Clock::now();
    for (int p = 0; p < state.config.partitions; ++p) {
      req.entries.push_back(net::PromoteLeaderRequest::Entry{
          static_cast<std::uint32_t>(p),
          LocalEnd(topic, static_cast<std::uint32_t>(p))});
    }
  }

  std::string body;
  net::EncodePromoteLeaderRequest(req, &body);
  for (const BrokerEndpoint& broker : options_.brokers) {
    if (broker.id == options_.self.id) continue;
    net::ClientConnection* conn = Peer(broker.id);
    if (conn == nullptr) continue;
    ps::Bytes response;
    if (Status call = conn->Call(net::ApiKey::kPromoteLeader, body, &response,
                                 {}, /*retry=*/false);
        !call.ok()) {
      if (!IsServerError(call)) conn->Disconnect();
      LOG_WARN << "repl: promote announce to broker " << broker.id
               << " failed: " << call.ToString();
      continue;
    }
    net::PromoteLeaderResponse resp;
    if (!net::DecodePromoteLeaderResponse(response, &resp).ok()) continue;
    // The peer's post-truncation ends are records it already holds: count
    // them as acks so the high watermark (and any parked quorum produce)
    // does not have to wait a full fetch round.
    PendingWakeups pending;
    {
      std::lock_guard lock(mu_);
      const auto it = topics_.find(topic);
      if (it == topics_.end() || it->second.leader != options_.self.id ||
          it->second.epoch != epoch) {
        return;  // deposed already
      }
      TopicState& state = it->second;
      Follower& follower = state.followers[broker.id];
      follower.acked.resize(
          static_cast<std::size_t>(state.config.partitions), 0);
      follower.last_contact = Clock::now();
      for (const auto& entry : resp.entries) {
        if (entry.partition >=
            static_cast<std::uint32_t>(state.config.partitions)) {
          continue;
        }
        follower.acked[entry.partition] =
            std::max(follower.acked[entry.partition], entry.log_end);
        RecomputeHwLocked(topic, state, entry.partition, &pending);
      }
    }
    pending.Fire(broker_);
  }
}

}  // namespace strata::repl
