#include "pubsub/broker.hpp"

#include <algorithm>
#include <condition_variable>
#include <functional>

#include "common/codec.hpp"
#include "common/crc32.hpp"
#include "common/fs.hpp"
#include "common/logging.hpp"
#include "fault/failpoint.hpp"

namespace strata::ps {

namespace {
constexpr const char* kOffsetsFile = "group-offsets";

std::uint32_t KeyHash(const std::string& key) {
  return Crc32c(key, 0x9e3779b9);
}
}  // namespace

Broker::Broker(BrokerOptions options) : options_(std::move(options)) {
  const std::size_t shard_count = std::max<std::size_t>(1, options_.shards);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (!options_.data_dir.empty()) {
    if (Status s = strata::fs::CreateDirs(options_.data_dir); !s.ok()) {
      throw std::runtime_error("Broker: " + s.ToString());
    }
    if (Status s = LoadOffsets(); !s.ok() && !s.IsNotFound()) {
      throw std::runtime_error("Broker: " + s.ToString());
    }
  }
}

Broker::~Broker() {
  BindMetrics(nullptr);
  Close();
}

Status Broker::CreateTopic(const std::string& name,
                           const TopicConfig& config) {
  if (config.partitions < 1) {
    return Status::InvalidArgument("topic needs >= 1 partition");
  }
  std::unique_lock lock(mu_);
  if (closed()) return Status::Closed("broker closed");
  if (auto it = topics_.find(name); it != topics_.end()) {
    if (it->second.config.partitions == config.partitions) {
      return Status::Ok();  // idempotent re-create
    }
    return Status::AlreadyExists("topic " + name +
                                 " exists with different partition count");
  }

  Topic topic;
  topic.config = config;
  for (int p = 0; p < config.partitions; ++p) {
    LogOptions log_options;
    if (!options_.data_dir.empty()) {
      log_options.dir =
          options_.data_dir / (name + "-" + std::to_string(p));
    }
    log_options.segment_bytes = options_.segment_bytes;
    log_options.retention_records = config.retention_records;
    log_options.sync_each_append = options_.sync_each_append;
    log_options.sync_on_roll = options_.sync_on_roll;
    log_options.disk_failure_policy = options_.disk_failure_policy;
    auto log = PartitionLog::Open(log_options);
    if (!log.ok()) return log.status();
    // Wake waiters parked on this partition's shard (WaitForAnyData and
    // reactor long-polls) whenever it gets data. Installed before the log
    // is shared; notifying only the owning shard is what keeps appends to
    // disjoint partitions from waking each other's waiters.
    Shard* shard = shards_[ShardOf(name, p)].get();
    log.value()->SetAppendListener([this, shard] { NotifyShard(*shard); });
    topic.logs.push_back(std::move(log).value());
  }
  if (metrics_ != nullptr) {
    topic.produced =
        metrics_->GetCounter("pubsub.topic.produced", {{"topic", name}});
  }
  topics_.emplace(name, std::move(topic));
  return Status::Ok();
}

bool Broker::HasTopic(const std::string& name) const {
  std::shared_lock lock(mu_);
  return topics_.contains(name);
}

Result<int> Broker::PartitionCount(const std::string& name) const {
  std::shared_lock lock(mu_);
  const auto it = topics_.find(name);
  if (it == topics_.end()) return Status::NotFound("topic " + name);
  return it->second.config.partitions;
}

std::vector<std::string> Broker::ListTopics() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(topics_.size());
  for (const auto& [name, topic] : topics_) names.push_back(name);
  return names;
}

Result<Broker::TopicStats> Broker::GetTopicStats(
    const std::string& name) const {
  std::vector<const PartitionLog*> logs;
  {
    std::shared_lock lock(mu_);
    const auto it = topics_.find(name);
    if (it == topics_.end()) return Status::NotFound("topic " + name);
    for (const auto& log : it->second.logs) logs.push_back(log.get());
  }
  TopicStats stats;
  stats.partitions = static_cast<int>(logs.size());
  for (const PartitionLog* log : logs) {
    const std::int64_t start = log->StartOffset();
    const std::int64_t end = log->EndOffset();
    stats.offsets.emplace_back(start, end);
    stats.total_records += end;
  }
  return stats;
}

Broker::BrokerStats Broker::Stats() const {
  std::vector<std::pair<std::size_t, const PartitionLog*>> logs;
  BrokerStats stats;
  {
    std::shared_lock lock(mu_);
    stats.topics = topics_.size();
    stats.groups = groups_.size();
    for (const auto& [name, topic] : topics_) {
      for (int p = 0; p < topic.config.partitions; ++p) {
        logs.emplace_back(ShardOf(name, p),
                          topic.logs[static_cast<std::size_t>(p)].get());
      }
    }
  }
  stats.shards.resize(shards_.size());
  for (const auto& [shard, log] : logs) {
    const std::uint64_t errors = log->disk_errors();
    const bool degraded = log->degraded();
    const bool fail_stopped = log->fail_stopped();
    stats.disk_append_errors += errors;
    stats.storage_degraded = stats.storage_degraded || degraded;
    stats.fail_stopped = stats.fail_stopped || fail_stopped;
    BrokerStats::ShardStats& s = stats.shards[shard];
    ++s.partitions;
    s.disk_errors += errors;
    s.degraded = s.degraded || degraded;
    s.fail_stopped = s.fail_stopped || fail_stopped;
  }
  return stats;
}

Result<std::pair<int, std::int64_t>> Broker::Produce(const std::string& topic,
                                                     Record record) {
  PartitionLog* log = nullptr;
  obs::Counter* produced = nullptr;
  int partition = 0;
  {
    // Shared lock: concurrent produces to disjoint partitions resolve their
    // logs without serializing on the broker; the append itself is guarded
    // by the partition log's own lock.
    std::shared_lock lock(mu_);
    if (closed()) return Status::Closed("broker closed");
    const auto it = topics_.find(topic);
    if (it == topics_.end()) return Status::NotFound("topic " + topic);
    Topic& t = it->second;
    const int n = t.config.partitions;
    partition =
        record.key.empty()
            ? static_cast<int>(t.round_robin.fetch_add(
                                   1, std::memory_order_relaxed) %
                               static_cast<std::uint64_t>(n))
            : static_cast<int>(KeyHash(record.key) %
                               static_cast<std::uint32_t>(n));
    log = t.logs[static_cast<std::size_t>(partition)].get();
    produced = t.produced;
  }
  auto offset = log->Append(std::move(record));
  if (!offset.ok()) {
    // Map storage failure modes onto distinct client-visible codes: a
    // fail-stopped partition rejects everything until the broker is rebuilt
    // (retrying cannot help), which is different from a transient IO error.
    if (offset.status().IsIoError() && log->fail_stopped()) {
      return Status::StorageFailed("partition " + std::to_string(partition) +
                                   " fail-stopped: " +
                                   offset.status().message());
    }
    if (offset.status().IsIoError() && log->degraded()) {
      // Defensive: kDegrade normally absorbs disk errors and keeps acking
      // from memory; only an error raised while already degraded lands here.
      return Status::StorageDegraded("partition " + std::to_string(partition) +
                                     " degraded: " +
                                     offset.status().message());
    }
    return offset.status();
  }
  if (produced != nullptr) produced->Inc();
  return std::make_pair(partition, *offset);
}

Result<PartitionLog*> Broker::GetLog(const std::string& topic,
                                     int partition) const {
  std::shared_lock lock(mu_);
  const auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound("topic " + topic);
  if (partition < 0 || partition >= it->second.config.partitions) {
    return Status::InvalidArgument("partition out of range");
  }
  return it->second.logs[static_cast<std::size_t>(partition)].get();
}

Status Broker::Read(const TopicPartition& tp, std::int64_t offset,
                    std::size_t max_records, PartitionRead* out,
                    std::int64_t limit) const {
  auto log = GetLog(tp.topic, tp.partition);
  if (!log.ok()) return log.status();
  out->tp = tp;
  out->records.clear();
  offset = std::max(offset, (*log)->StartOffset());
  out->next_offset = offset;
  const std::size_t budget = std::min<std::uint64_t>(
      max_records,
      limit > offset ? static_cast<std::uint64_t>(limit - offset) : 0);
  if (budget == 0) return Status::Ok();
  std::vector<Record> records;
  STRATA_RETURN_IF_ERROR(
      (*log)->ReadFrom(offset, budget, &records, &out->next_offset));
  out->records.reserve(records.size());
  for (Record& record : records) {
    ConsumedRecord& consumed = out->records.emplace_back();
    consumed.topic = tp.topic;
    consumed.partition = tp.partition;
    consumed.offset = offset++;
    consumed.key = std::move(record.key);
    consumed.value = std::move(record.value);
    consumed.timestamp = record.timestamp;
  }
  return Status::Ok();
}

std::size_t Broker::ShardOf(const std::string& topic,
                            int partition) const noexcept {
  const std::uint32_t h =
      Crc32c(topic, 0x517cc1b7) +
      static_cast<std::uint32_t>(partition) * 0x9e3779b9u;
  return h % shards_.size();
}

Broker::WaiterId Broker::AddDataWaiter(std::size_t shard,
                                       std::function<void()> callback) const {
  const WaiterId id = next_waiter_.fetch_add(1, std::memory_order_relaxed);
  Shard& s = *shards_[shard % shards_.size()];
  {
    std::lock_guard lock(s.mu);
    s.waiters.emplace(id, std::move(callback));
  }
  return id;
}

void Broker::RemoveDataWaiter(std::size_t shard, WaiterId id) const {
  Shard& s = *shards_[shard % shards_.size()];
  std::lock_guard lock(s.mu);
  s.waiters.erase(id);
}

void Broker::NotifyPartition(const std::string& topic, int partition) const {
  NotifyShard(*shards_[ShardOf(topic, partition)]);
}

void Broker::NotifyShard(Shard& shard) const {
  // Snapshot the callbacks under the shard lock, invoke them outside it: a
  // callback may re-enter the broker (re-run a fetch, remove its waiter).
  std::vector<std::function<void()>> callbacks;
  {
    std::lock_guard lock(shard.mu);
    callbacks.reserve(shard.waiters.size());
    for (const auto& [id, cb] : shard.waiters) callbacks.push_back(cb);
  }
  for (const auto& cb : callbacks) cb();
}

bool Broker::WaitForAnyData(
    const std::vector<TopicPartition>& partitions,
    const std::map<TopicPartition, std::int64_t>& positions,
    std::chrono::microseconds timeout) const {
  // Resolve the logs to watch once; topics are never removed, so the
  // pointers stay valid for the broker's lifetime.
  std::vector<std::pair<const PartitionLog*, std::int64_t>> watch;
  std::vector<std::size_t> involved;  // shard indices, deduplicated
  watch.reserve(partitions.size());
  {
    std::shared_lock lock(mu_);
    if (closed()) return true;
    for (const TopicPartition& tp : partitions) {
      const auto tit = topics_.find(tp.topic);
      if (tit == topics_.end()) continue;
      if (tp.partition < 0 || tp.partition >= tit->second.config.partitions) {
        continue;
      }
      std::int64_t position = 0;
      if (const auto pit = positions.find(tp); pit != positions.end()) {
        position = pit->second;
      }
      watch.emplace_back(
          tit->second.logs[static_cast<std::size_t>(tp.partition)].get(),
          position);
      const std::size_t shard = ShardOf(tp.topic, tp.partition);
      if (std::find(involved.begin(), involved.end(), shard) ==
          involved.end()) {
        involved.push_back(shard);
      }
    }
  }

  const auto has_data = [&watch] {
    for (const auto& [log, position] : watch) {
      if (log->EndOffset() > position) return true;
    }
    return false;
  };
  if (has_data()) return true;

  // Park one ephemeral waiter on each involved shard; they funnel into a
  // local signal this thread waits on. Registration happens before the
  // re-check inside wait_for's predicate, so an append racing us is never
  // lost: either the predicate sees its data or the callback fires after.
  struct LocalWait {
    std::mutex mu;
    std::condition_variable cv;
    bool fired = false;
  };
  auto local = std::make_shared<LocalWait>();
  const auto wake = [local] {
    {
      std::lock_guard lock(local->mu);
      local->fired = true;
    }
    local->cv.notify_all();
  };
  std::vector<std::pair<std::size_t, WaiterId>> registrations;
  registrations.reserve(involved.size());
  for (const std::size_t shard : involved) {
    registrations.emplace_back(shard, AddDataWaiter(shard, wake));
  }

  bool result = false;
  {
    std::unique_lock lock(local->mu);
    result = local->cv.wait_for(lock, timeout, [&] {
      if (closed()) return true;
      if (has_data()) return true;
      // Shard-level wake for a position we are already past (or another
      // waiter's partition): swallow it and keep waiting.
      local->fired = false;
      return false;
    });
  }
  for (const auto& [shard, id] : registrations) RemoveDataWaiter(shard, id);
  return result;
}

void Broker::BindMetrics(obs::MetricsRegistry* registry) {
  obs::MetricsRegistry* previous = nullptr;
  obs::MetricsRegistry::CallbackId previous_id = 0;
  {
    std::unique_lock lock(mu_);
    previous = metrics_;
    previous_id = metrics_callback_;
    metrics_ = registry;
    metrics_callback_ = 0;
    for (auto& [name, topic] : topics_) {
      topic.produced =
          registry == nullptr
              ? nullptr
              : registry->GetCounter("pubsub.topic.produced",
                                     {{"topic", name}});
    }
    if (registry != nullptr) {
      metrics_callback_ =
          registry->RegisterCallback([this](obs::MetricsSnapshot* snapshot) {
            std::shared_lock lock(mu_);
            AppendMetricsLocked(snapshot);
          });
    }
  }
  if (previous != nullptr) previous->Unregister(previous_id);
}

void Broker::AppendMetricsLocked(obs::MetricsSnapshot* snapshot) const {
  snapshot->AddGauge("pubsub.broker.topics", {},
                     static_cast<std::int64_t>(topics_.size()));
  snapshot->AddGauge("pubsub.broker.groups", {},
                     static_cast<std::int64_t>(groups_.size()));
  std::uint64_t disk_errors = 0;
  bool degraded = false;
  bool fail_stopped = false;
  for (const auto& [name, topic] : topics_) {
    for (const auto& log : topic.logs) {
      disk_errors += log->disk_errors();
      degraded = degraded || log->degraded();
      fail_stopped = fail_stopped || log->fail_stopped();
    }
  }
  snapshot->AddCounter("pubsub.broker.disk_errors", {}, disk_errors);
  snapshot->AddGauge("pubsub.broker.storage_degraded", {}, degraded ? 1 : 0);
  snapshot->AddGauge("pubsub.broker.fail_stopped", {}, fail_stopped ? 1 : 0);
  for (const auto& [name, topic] : topics_) {
    for (int p = 0; p < topic.config.partitions; ++p) {
      const PartitionLog* log = topic.logs[static_cast<std::size_t>(p)].get();
      const obs::Labels labels{{"topic", name},
                               {"partition", std::to_string(p)}};
      snapshot->AddGauge("pubsub.topic.end_offset", labels, log->EndOffset());
      snapshot->AddGauge("pubsub.topic.start_offset", labels,
                         log->StartOffset());
    }
  }
  for (const auto& [group_name, g] : groups_) {
    const auto tit = topics_.find(g.topic);
    if (tit == topics_.end()) continue;
    for (const auto& [tp, committed] : g.offsets) {
      if (tp.topic != g.topic || tp.partition < 0 ||
          tp.partition >= tit->second.config.partitions) {
        continue;
      }
      const PartitionLog* log =
          tit->second.logs[static_cast<std::size_t>(tp.partition)].get();
      snapshot->AddGauge("pubsub.group.lag",
                         {{"group", group_name},
                          {"topic", g.topic},
                          {"partition", std::to_string(tp.partition)}},
                         log->EndOffset() - committed);
    }
  }
}

Result<MemberId> Broker::JoinGroup(const std::string& group,
                                   const std::string& topic) {
  std::unique_lock lock(mu_);
  if (closed()) return Status::Closed("broker closed");
  if (!topics_.contains(topic)) return Status::NotFound("topic " + topic);
  Group& g = groups_[group];
  if (g.members.empty()) {
    g.topic = topic;
  } else if (g.topic != topic) {
    return Status::InvalidArgument("group " + group +
                                   " already bound to topic " + g.topic);
  }
  const MemberId member = next_member_++;
  g.members.push_back(member);
  ++g.generation;
  return member;
}

void Broker::LeaveGroup(const std::string& group, MemberId member) {
  std::unique_lock lock(mu_);
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;
  auto& members = it->second.members;
  const auto pos = std::find(members.begin(), members.end(), member);
  if (pos != members.end()) {
    members.erase(pos);
    ++it->second.generation;
  }
}

std::vector<TopicPartition> Broker::Assignment(
    const std::string& group, MemberId member,
    std::uint64_t* generation) const {
  std::shared_lock lock(mu_);
  *generation = 0;
  std::vector<TopicPartition> assigned;
  const auto git = groups_.find(group);
  if (git == groups_.end()) return assigned;
  const Group& g = git->second;
  *generation = g.generation;

  const auto tit = topics_.find(g.topic);
  if (tit == topics_.end()) return assigned;
  const int partitions = tit->second.config.partitions;

  const auto pos = std::find(g.members.begin(), g.members.end(), member);
  if (pos == g.members.end()) return assigned;
  const auto member_index =
      static_cast<int>(std::distance(g.members.begin(), pos));
  const auto member_count = static_cast<int>(g.members.size());

  for (int p = member_index; p < partitions; p += member_count) {
    assigned.push_back(TopicPartition{g.topic, p});
  }
  return assigned;
}

Status Broker::CommitOffset(const std::string& group,
                            const TopicPartition& tp, std::int64_t offset) {
  std::unique_lock lock(mu_);
  groups_[group].offsets[tp] = offset;
  if (!options_.data_dir.empty()) return PersistOffsetsLocked();
  return Status::Ok();
}

Result<std::int64_t> Broker::CommittedOffset(const std::string& group,
                                             const TopicPartition& tp) const {
  std::shared_lock lock(mu_);
  const auto git = groups_.find(group);
  if (git == groups_.end()) return Status::NotFound("group " + group);
  const auto oit = git->second.offsets.find(tp);
  if (oit == git->second.offsets.end()) {
    return Status::NotFound("no committed offset");
  }
  return oit->second;
}

Result<std::int64_t> Broker::ConsumerLag(const std::string& group,
                                         const TopicPartition& tp) const {
  const PartitionLog* log = nullptr;
  std::int64_t committed = -1;
  {
    std::shared_lock lock(mu_);
    const auto tit = topics_.find(tp.topic);
    if (tit == topics_.end()) return Status::NotFound("topic " + tp.topic);
    if (tp.partition < 0 || tp.partition >= tit->second.config.partitions) {
      return Status::InvalidArgument("partition out of range");
    }
    log = tit->second.logs[static_cast<std::size_t>(tp.partition)].get();
    const auto git = groups_.find(group);
    if (git != groups_.end()) {
      const auto oit = git->second.offsets.find(tp);
      if (oit != git->second.offsets.end()) committed = oit->second;
    }
  }
  const std::int64_t baseline =
      committed >= 0 ? committed : log->StartOffset();
  return log->EndOffset() - baseline;
}

Status Broker::PersistOffsetsLocked() const {
  std::string payload;
  std::uint32_t total = 0;
  std::string body;
  for (const auto& [group, g] : groups_) {
    for (const auto& [tp, offset] : g.offsets) {
      codec::PutLengthPrefixed(&body, group);
      codec::PutLengthPrefixed(&body, tp.topic);
      codec::PutVarint32(&body, static_cast<std::uint32_t>(tp.partition));
      codec::PutVarint64Signed(&body, offset);
      ++total;
    }
  }
  codec::PutVarint32(&payload, total);
  payload.append(body);
  std::string out;
  codec::PutFixed32(&out, MaskCrc(Crc32c(payload)));
  out.append(payload);
  return fault::WriteFileAtomic(options_.data_dir / kOffsetsFile, out,
                                "offsets.write", "offsets.rename");
}

Status Broker::LoadOffsets() {
  const auto path = options_.data_dir / kOffsetsFile;
  if (!std::filesystem::exists(path)) return Status::NotFound("no offsets");
  auto contents = strata::fs::ReadFile(path);
  if (!contents.ok()) return contents.status();
  std::string_view in(contents.value());

  std::uint32_t masked = 0;
  if (!codec::GetFixed32(&in, &masked) || Crc32c(in) != UnmaskCrc(masked)) {
    return Status::Corruption("group offsets file corrupt");
  }
  std::uint32_t total = 0;
  if (!codec::GetVarint32(&in, &total)) {
    return Status::Corruption("group offsets header");
  }
  for (std::uint32_t i = 0; i < total; ++i) {
    std::string_view group;
    std::string_view topic;
    std::uint32_t partition = 0;
    std::int64_t offset = 0;
    if (!codec::GetLengthPrefixed(&in, &group) ||
        !codec::GetLengthPrefixed(&in, &topic) ||
        !codec::GetVarint32(&in, &partition) ||
        !codec::GetVarint64Signed(&in, &offset)) {
      return Status::Corruption("group offsets entry truncated");
    }
    groups_[std::string(group)]
        .offsets[TopicPartition{std::string(topic),
                                static_cast<int>(partition)}] = offset;
  }
  return Status::Ok();
}

void Broker::Close() {
  {
    std::unique_lock lock(mu_);
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
    for (auto& [name, topic] : topics_) {
      for (auto& log : topic.logs) log->Close();
    }
  }
  // mu_ is released before signalling so waiter callbacks re-entering the
  // broker cannot deadlock against us.
  for (const auto& shard : shards_) NotifyShard(*shard);
}

}  // namespace strata::ps
