#include "net/protocol.hpp"

#include "common/codec.hpp"

namespace strata::net {

namespace {

constexpr std::uint32_t kMaxBatchEntries = 1u << 20;

Status Truncated(const char* what) {
  return Status::Corruption(std::string("protocol: truncated ") + what);
}

bool GetString(std::string_view* in, std::string* out) {
  std::string_view s;
  if (!codec::GetLengthPrefixed(in, &s)) return false;
  out->assign(s.data(), s.size());
  return true;
}

void PutTopicPartition(std::string* out, const ps::TopicPartition& tp) {
  codec::PutLengthPrefixed(out, tp.topic);
  codec::PutVarint32(out, static_cast<std::uint32_t>(tp.partition));
}

bool GetTopicPartition(std::string_view* in, ps::TopicPartition* tp) {
  std::uint32_t partition = 0;
  if (!GetString(in, &tp->topic) || !codec::GetVarint32(in, &partition)) {
    return false;
  }
  tp->partition = static_cast<int>(partition);
  return true;
}

Status ExpectDrained(std::string_view in) {
  if (!in.empty()) return Status::Corruption("protocol: trailing bytes");
  return Status::Ok();
}

/// A record value: its length into the owned bytes, its bytes by reference.
void PutValue(Pieces* out, const ps::Bytes& value) {
  codec::PutVarint64(out->out(), value.size());
  out->Append(value);
}

/// A length-prefixed value, as a slice of `buffer`, which `*in` views.
bool GetValue(const ps::Bytes& buffer, std::string_view* in,
              ps::Bytes* value) {
  std::string_view bytes;
  if (!codec::GetLengthPrefixed(in, &bytes)) return false;
  *value = buffer.Slice(bytes);
  return true;
}

}  // namespace

// --- pieces -----------------------------------------------------------------

std::size_t Pieces::size() const noexcept {
  std::size_t total = owned_.size();
  for (const Shared& shared : shared_) total += shared.bytes.size();
  return total;
}

void Pieces::AppendViews(std::vector<std::string_view>* views) const {
  std::size_t from = 0;
  const auto owned = [&](std::size_t to) {
    if (to > from) views->emplace_back(owned_.data() + from, to - from);
    from = to;
  };
  for (const Shared& shared : shared_) {
    owned(shared.at);
    if (!shared.bytes.empty()) views->push_back(shared.bytes);
  }
  owned(owned_.size());
}

std::string Pieces::Flatten() const {
  std::vector<std::string_view> views;
  AppendViews(&views);
  std::string flat;
  flat.reserve(size());
  for (const std::string_view view : views) flat.append(view);
  return flat;
}

const char* ApiKeyName(ApiKey api) noexcept {
  switch (api) {
    case ApiKey::kCreateTopic:
      return "create_topic";
    case ApiKey::kMetadata:
      return "metadata";
    case ApiKey::kProduce:
      return "produce";
    case ApiKey::kFetch:
      return "fetch";
    case ApiKey::kJoinGroup:
      return "join_group";
    case ApiKey::kLeaveGroup:
      return "leave_group";
    case ApiKey::kHeartbeat:
      return "heartbeat";
    case ApiKey::kCommitOffset:
      return "commit_offset";
    case ApiKey::kOffsetFetch:
      return "offset_fetch";
    case ApiKey::kHello:
      return "hello";
    case ApiKey::kReplicaFetch:
      return "replica_fetch";
    case ApiKey::kReplicaAck:
      return "replica_ack";
    case ApiKey::kPromoteLeader:
      return "promote_leader";
    case ApiKey::kClusterMeta:
      return "cluster_meta";
  }
  return "unknown";
}

// --- envelope ---------------------------------------------------------------

void EncodeRequest(ApiKey api, std::string_view body, std::string* out) {
  out->push_back(static_cast<char>(api));
  out->append(body.data(), body.size());
}

Status DecodeRequest(std::string_view payload, ApiKey* api,
                     std::string_view* body) {
  if (payload.empty()) return Truncated("request");
  const auto key = static_cast<std::uint8_t>(payload.front());
  if (key < static_cast<std::uint8_t>(ApiKey::kCreateTopic) ||
      key > static_cast<std::uint8_t>(kLastApiKey)) {
    return Status::Corruption("protocol: unknown api key " +
                              std::to_string(key));
  }
  *api = static_cast<ApiKey>(key);
  *body = payload.substr(1);
  return Status::Ok();
}

void EncodeResponse(const Status& status, std::string_view body,
                    std::string* out) {
  out->push_back(static_cast<char>(status.code()));
  codec::PutLengthPrefixed(out, status.message());
  if (status.ok()) out->append(body.data(), body.size());
}

Status DecodeResponse(std::string_view payload, std::string_view* body) {
  if (payload.empty()) return Truncated("response");
  const auto code = static_cast<StatusCode>(payload.front());
  payload.remove_prefix(1);
  std::string message;
  if (!GetString(&payload, &message)) return Truncated("response message");
  if (code != StatusCode::kOk) return Status(code, std::move(message));
  *body = payload;
  return Status::Ok();
}

// --- create topic -----------------------------------------------------------

void EncodeCreateTopic(const CreateTopicRequest& req, std::string* out) {
  codec::PutLengthPrefixed(out, req.topic);
  codec::PutVarint32(out, static_cast<std::uint32_t>(req.config.partitions));
  codec::PutVarint64(out, req.config.retention_records);
}

Status DecodeCreateTopic(std::string_view in, CreateTopicRequest* out) {
  std::uint32_t partitions = 0;
  std::uint64_t retention = 0;
  if (!GetString(&in, &out->topic) || !codec::GetVarint32(&in, &partitions) ||
      !codec::GetVarint64(&in, &retention)) {
    return Truncated("create_topic");
  }
  out->config.partitions = static_cast<int>(partitions);
  out->config.retention_records = retention;
  return ExpectDrained(in);
}

// --- metadata ---------------------------------------------------------------

void EncodeMetadataRequest(const MetadataRequest& req, std::string* out) {
  codec::PutLengthPrefixed(out, req.topic);
}

Status DecodeMetadataRequest(std::string_view in, MetadataRequest* out) {
  if (!GetString(&in, &out->topic)) return Truncated("metadata request");
  return ExpectDrained(in);
}

void EncodeMetadataResponse(const MetadataResponse& resp, std::string* out) {
  codec::PutVarint32(out, static_cast<std::uint32_t>(resp.topics.size()));
  for (const TopicMetadata& topic : resp.topics) {
    codec::PutLengthPrefixed(out, topic.topic);
    codec::PutVarint32(out, static_cast<std::uint32_t>(topic.partitions.size()));
    for (const auto& [start, end] : topic.partitions) {
      codec::PutVarint64Signed(out, start);
      codec::PutVarint64Signed(out, end);
    }
  }
}

Status DecodeMetadataResponse(std::string_view in, MetadataResponse* out) {
  std::uint32_t n = 0;
  if (!codec::GetVarint32(&in, &n) || n > kMaxBatchEntries) {
    return Truncated("metadata response");
  }
  out->topics.clear();
  out->topics.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TopicMetadata topic;
    std::uint32_t parts = 0;
    if (!GetString(&in, &topic.topic) || !codec::GetVarint32(&in, &parts) ||
        parts > kMaxBatchEntries) {
      return Truncated("metadata topic");
    }
    topic.partitions.reserve(parts);
    for (std::uint32_t p = 0; p < parts; ++p) {
      std::int64_t start = 0;
      std::int64_t end = 0;
      if (!codec::GetVarint64Signed(&in, &start) ||
          !codec::GetVarint64Signed(&in, &end)) {
        return Truncated("metadata offsets");
      }
      topic.partitions.emplace_back(start, end);
    }
    out->topics.push_back(std::move(topic));
  }
  return ExpectDrained(in);
}

// --- produce ----------------------------------------------------------------

void EncodeProduceRequest(const ProduceRequest& req, Pieces* out) {
  codec::PutLengthPrefixed(out->out(), req.topic);
  codec::PutLengthPrefixed(out->out(), req.record.key);
  PutValue(out, req.record.value);
  codec::PutVarint64Signed(out->out(), req.record.timestamp);
  out->out()->push_back(static_cast<char>(req.acks));
}

Status DecodeProduceRequest(const ps::Bytes& body, ProduceRequest* out) {
  std::string_view in = body;
  if (!GetString(&in, &out->topic) || !GetString(&in, &out->record.key) ||
      !GetValue(body, &in, &out->record.value) ||
      !codec::GetVarint64Signed(&in, &out->record.timestamp) || in.empty()) {
    return Truncated("produce request");
  }
  const auto acks = static_cast<std::uint8_t>(in.front());
  in.remove_prefix(1);
  if (acks > static_cast<std::uint8_t>(ProduceAcks::kQuorum)) {
    return Status::Corruption("protocol: unknown produce acks " +
                              std::to_string(acks));
  }
  out->acks = static_cast<ProduceAcks>(acks);
  return ExpectDrained(in);
}

void EncodeProduceResponse(const ProduceResponse& resp, std::string* out) {
  codec::PutVarint32(out, static_cast<std::uint32_t>(resp.partition));
  codec::PutVarint64Signed(out, resp.offset);
}

Status DecodeProduceResponse(std::string_view in, ProduceResponse* out) {
  std::uint32_t partition = 0;
  if (!codec::GetVarint32(&in, &partition) ||
      !codec::GetVarint64Signed(&in, &out->offset)) {
    return Truncated("produce response");
  }
  out->partition = static_cast<int>(partition);
  return ExpectDrained(in);
}

// --- fetch ------------------------------------------------------------------

void EncodeFetchRequest(const FetchRequest& req, std::string* out) {
  codec::PutVarint32(out, static_cast<std::uint32_t>(req.entries.size()));
  for (const FetchRequest::Entry& entry : req.entries) {
    PutTopicPartition(out, entry.tp);
    codec::PutVarint64Signed(out, entry.offset);
    codec::PutVarint64(out, entry.max_records);
  }
  codec::PutVarint64(out, req.max_wait_us);
}

Status DecodeFetchRequest(std::string_view in, FetchRequest* out) {
  std::uint32_t n = 0;
  if (!codec::GetVarint32(&in, &n) || n > kMaxBatchEntries) {
    return Truncated("fetch request");
  }
  out->entries.clear();
  out->entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    FetchRequest::Entry entry;
    if (!GetTopicPartition(&in, &entry.tp) ||
        !codec::GetVarint64Signed(&in, &entry.offset) ||
        !codec::GetVarint64(&in, &entry.max_records)) {
      return Truncated("fetch entry");
    }
    out->entries.push_back(std::move(entry));
  }
  if (!codec::GetVarint64(&in, &out->max_wait_us)) {
    return Truncated("fetch wait");
  }
  return ExpectDrained(in);
}

void EncodeFetchResponse(const FetchResponse& resp, Pieces* pieces) {
  std::string* out = pieces->out();
  codec::PutVarint32(out, static_cast<std::uint32_t>(resp.entries.size()));
  for (const FetchResponse::Entry& entry : resp.entries) {
    PutTopicPartition(out, entry.tp);
    codec::PutVarint64Signed(out, entry.next_offset);
    codec::PutVarint32(out, static_cast<std::uint32_t>(entry.records.size()));
    for (const ps::ConsumedRecord& record : entry.records) {
      codec::PutVarint64Signed(out, record.offset);
      codec::PutLengthPrefixed(out, record.key);
      PutValue(pieces, record.value);
      codec::PutVarint64Signed(out, record.timestamp);
    }
  }
}

Status DecodeFetchResponse(const ps::Bytes& body, FetchResponse* out) {
  std::string_view in = body;
  std::uint32_t n = 0;
  if (!codec::GetVarint32(&in, &n) || n > kMaxBatchEntries) {
    return Truncated("fetch response");
  }
  out->entries.clear();
  out->entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    FetchResponse::Entry entry;
    std::uint32_t records = 0;
    if (!GetTopicPartition(&in, &entry.tp) ||
        !codec::GetVarint64Signed(&in, &entry.next_offset) ||
        !codec::GetVarint32(&in, &records) || records > kMaxBatchEntries) {
      return Truncated("fetch response entry");
    }
    entry.records.reserve(records);
    for (std::uint32_t r = 0; r < records; ++r) {
      ps::ConsumedRecord record;
      record.topic = entry.tp.topic;
      record.partition = entry.tp.partition;
      if (!codec::GetVarint64Signed(&in, &record.offset) ||
          !GetString(&in, &record.key) ||
          !GetValue(body, &in, &record.value) ||
          !codec::GetVarint64Signed(&in, &record.timestamp)) {
        return Truncated("fetch record");
      }
      entry.records.push_back(std::move(record));
    }
    out->entries.push_back(std::move(entry));
  }
  return ExpectDrained(in);
}

// --- groups -----------------------------------------------------------------

void EncodeGroupRequest(const GroupRequest& req, std::string* out) {
  codec::PutLengthPrefixed(out, req.group);
  codec::PutLengthPrefixed(out, req.topic);
  codec::PutVarint64(out, req.member);
}

Status DecodeGroupRequest(std::string_view in, GroupRequest* out) {
  if (!GetString(&in, &out->group) || !GetString(&in, &out->topic) ||
      !codec::GetVarint64(&in, &out->member)) {
    return Truncated("group request");
  }
  return ExpectDrained(in);
}

void EncodeJoinGroupResponse(const JoinGroupResponse& resp, std::string* out) {
  codec::PutVarint64(out, resp.member);
}

Status DecodeJoinGroupResponse(std::string_view in, JoinGroupResponse* out) {
  if (!codec::GetVarint64(&in, &out->member)) {
    return Truncated("join_group response");
  }
  return ExpectDrained(in);
}

void EncodeHeartbeatResponse(const HeartbeatResponse& resp, std::string* out) {
  codec::PutVarint64(out, resp.generation);
  codec::PutVarint32(out, static_cast<std::uint32_t>(resp.assignment.size()));
  for (const ps::TopicPartition& tp : resp.assignment) {
    PutTopicPartition(out, tp);
  }
}

Status DecodeHeartbeatResponse(std::string_view in, HeartbeatResponse* out) {
  std::uint32_t n = 0;
  if (!codec::GetVarint64(&in, &out->generation) ||
      !codec::GetVarint32(&in, &n) || n > kMaxBatchEntries) {
    return Truncated("heartbeat response");
  }
  out->assignment.clear();
  out->assignment.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ps::TopicPartition tp;
    if (!GetTopicPartition(&in, &tp)) return Truncated("heartbeat assignment");
    out->assignment.push_back(std::move(tp));
  }
  return ExpectDrained(in);
}

// --- offsets ----------------------------------------------------------------

void EncodeCommitOffsetRequest(const CommitOffsetRequest& req,
                               std::string* out) {
  codec::PutLengthPrefixed(out, req.group);
  codec::PutVarint32(out, static_cast<std::uint32_t>(req.offsets.size()));
  for (const auto& [tp, offset] : req.offsets) {
    PutTopicPartition(out, tp);
    codec::PutVarint64Signed(out, offset);
  }
}

Status DecodeCommitOffsetRequest(std::string_view in,
                                 CommitOffsetRequest* out) {
  std::uint32_t n = 0;
  if (!GetString(&in, &out->group) || !codec::GetVarint32(&in, &n) ||
      n > kMaxBatchEntries) {
    return Truncated("commit request");
  }
  out->offsets.clear();
  out->offsets.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ps::TopicPartition tp;
    std::int64_t offset = 0;
    if (!GetTopicPartition(&in, &tp) ||
        !codec::GetVarint64Signed(&in, &offset)) {
      return Truncated("commit entry");
    }
    out->offsets.emplace_back(std::move(tp), offset);
  }
  return ExpectDrained(in);
}

void EncodeOffsetFetchRequest(const OffsetFetchRequest& req, std::string* out) {
  codec::PutLengthPrefixed(out, req.group);
  codec::PutVarint32(out, static_cast<std::uint32_t>(req.partitions.size()));
  for (const ps::TopicPartition& tp : req.partitions) {
    PutTopicPartition(out, tp);
  }
}

Status DecodeOffsetFetchRequest(std::string_view in, OffsetFetchRequest* out) {
  std::uint32_t n = 0;
  if (!GetString(&in, &out->group) || !codec::GetVarint32(&in, &n) ||
      n > kMaxBatchEntries) {
    return Truncated("offset_fetch request");
  }
  out->partitions.clear();
  out->partitions.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ps::TopicPartition tp;
    if (!GetTopicPartition(&in, &tp)) return Truncated("offset_fetch entry");
    out->partitions.push_back(std::move(tp));
  }
  return ExpectDrained(in);
}

void EncodeOffsetFetchResponse(const OffsetFetchResponse& resp,
                               std::string* out) {
  codec::PutVarint32(out, static_cast<std::uint32_t>(resp.offsets.size()));
  for (const std::int64_t offset : resp.offsets) {
    codec::PutVarint64Signed(out, offset);
  }
}

Status DecodeOffsetFetchResponse(std::string_view in,
                                 OffsetFetchResponse* out) {
  std::uint32_t n = 0;
  if (!codec::GetVarint32(&in, &n) || n > kMaxBatchEntries) {
    return Truncated("offset_fetch response");
  }
  out->offsets.clear();
  out->offsets.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::int64_t offset = 0;
    if (!codec::GetVarint64Signed(&in, &offset)) {
      return Truncated("offset_fetch offset");
    }
    out->offsets.push_back(offset);
  }
  return ExpectDrained(in);
}

// --- replication ------------------------------------------------------------

void EncodeReplicaFetchRequest(const ReplicaFetchRequest& req,
                               std::string* out) {
  codec::PutVarint32(out, req.follower);
  codec::PutVarint64(out, req.epoch);
  codec::PutLengthPrefixed(out, req.topic);
  codec::PutVarint32(out, static_cast<std::uint32_t>(req.entries.size()));
  for (const ReplicaFetchRequest::Entry& entry : req.entries) {
    codec::PutVarint32(out, entry.partition);
    codec::PutVarint64Signed(out, entry.offset);
    codec::PutVarint64(out, entry.max_records);
  }
}

Status DecodeReplicaFetchRequest(std::string_view in,
                                 ReplicaFetchRequest* out) {
  std::uint32_t n = 0;
  if (!codec::GetVarint32(&in, &out->follower) ||
      !codec::GetVarint64(&in, &out->epoch) || !GetString(&in, &out->topic) ||
      !codec::GetVarint32(&in, &n) || n > kMaxBatchEntries) {
    return Truncated("replica_fetch request");
  }
  out->entries.clear();
  out->entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ReplicaFetchRequest::Entry entry;
    if (!codec::GetVarint32(&in, &entry.partition) ||
        !codec::GetVarint64Signed(&in, &entry.offset) ||
        !codec::GetVarint64(&in, &entry.max_records)) {
      return Truncated("replica_fetch entry");
    }
    out->entries.push_back(entry);
  }
  return ExpectDrained(in);
}

void EncodeReplicaFetchResponse(const ReplicaFetchResponse& resp,
                                Pieces* pieces) {
  std::string* out = pieces->out();
  codec::PutVarint32(out, resp.leader);
  codec::PutVarint64(out, resp.epoch);
  codec::PutVarint32(out, static_cast<std::uint32_t>(resp.entries.size()));
  for (const ReplicaFetchResponse::Entry& entry : resp.entries) {
    codec::PutVarint32(out, entry.partition);
    codec::PutVarint64Signed(out, entry.base_offset);
    codec::PutVarint64Signed(out, entry.high_watermark);
    codec::PutVarint64Signed(out, entry.log_end);
    codec::PutVarint32(out, static_cast<std::uint32_t>(entry.records.size()));
    for (const ps::Record& record : entry.records) {
      codec::PutLengthPrefixed(out, record.key);
      PutValue(pieces, record.value);
      codec::PutVarint64Signed(out, record.timestamp);
    }
  }
}

Status DecodeReplicaFetchResponse(const ps::Bytes& body,
                                  ReplicaFetchResponse* out) {
  std::string_view in = body;
  std::uint32_t n = 0;
  if (!codec::GetVarint32(&in, &out->leader) ||
      !codec::GetVarint64(&in, &out->epoch) || !codec::GetVarint32(&in, &n) ||
      n > kMaxBatchEntries) {
    return Truncated("replica_fetch response");
  }
  out->entries.clear();
  out->entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ReplicaFetchResponse::Entry entry;
    std::uint32_t records = 0;
    if (!codec::GetVarint32(&in, &entry.partition) ||
        !codec::GetVarint64Signed(&in, &entry.base_offset) ||
        !codec::GetVarint64Signed(&in, &entry.high_watermark) ||
        !codec::GetVarint64Signed(&in, &entry.log_end) ||
        !codec::GetVarint32(&in, &records) || records > kMaxBatchEntries) {
      return Truncated("replica_fetch response entry");
    }
    entry.records.reserve(records);
    for (std::uint32_t r = 0; r < records; ++r) {
      ps::Record record;
      if (!GetString(&in, &record.key) ||
          !GetValue(body, &in, &record.value) ||
          !codec::GetVarint64Signed(&in, &record.timestamp)) {
        return Truncated("replica_fetch record");
      }
      entry.records.push_back(std::move(record));
    }
    out->entries.push_back(std::move(entry));
  }
  return ExpectDrained(in);
}

void EncodeReplicaAckRequest(const ReplicaAckRequest& req, std::string* out) {
  codec::PutVarint32(out, req.follower);
  codec::PutVarint64(out, req.epoch);
  codec::PutLengthPrefixed(out, req.topic);
  codec::PutVarint32(out, static_cast<std::uint32_t>(req.entries.size()));
  for (const ReplicaAckRequest::Entry& entry : req.entries) {
    codec::PutVarint32(out, entry.partition);
    codec::PutVarint64Signed(out, entry.log_end);
  }
}

Status DecodeReplicaAckRequest(std::string_view in, ReplicaAckRequest* out) {
  std::uint32_t n = 0;
  if (!codec::GetVarint32(&in, &out->follower) ||
      !codec::GetVarint64(&in, &out->epoch) || !GetString(&in, &out->topic) ||
      !codec::GetVarint32(&in, &n) || n > kMaxBatchEntries) {
    return Truncated("replica_ack request");
  }
  out->entries.clear();
  out->entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ReplicaAckRequest::Entry entry;
    if (!codec::GetVarint32(&in, &entry.partition) ||
        !codec::GetVarint64Signed(&in, &entry.log_end)) {
      return Truncated("replica_ack entry");
    }
    out->entries.push_back(entry);
  }
  return ExpectDrained(in);
}

void EncodeReplicaAckResponse(const ReplicaAckResponse& resp,
                              std::string* out) {
  codec::PutVarint32(out, static_cast<std::uint32_t>(resp.entries.size()));
  for (const ReplicaAckResponse::Entry& entry : resp.entries) {
    codec::PutVarint32(out, entry.partition);
    codec::PutVarint64Signed(out, entry.high_watermark);
  }
}

Status DecodeReplicaAckResponse(std::string_view in, ReplicaAckResponse* out) {
  std::uint32_t n = 0;
  if (!codec::GetVarint32(&in, &n) || n > kMaxBatchEntries) {
    return Truncated("replica_ack response");
  }
  out->entries.clear();
  out->entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ReplicaAckResponse::Entry entry;
    if (!codec::GetVarint32(&in, &entry.partition) ||
        !codec::GetVarint64Signed(&in, &entry.high_watermark)) {
      return Truncated("replica_ack response entry");
    }
    out->entries.push_back(entry);
  }
  return ExpectDrained(in);
}

void EncodePromoteLeaderRequest(const PromoteLeaderRequest& req,
                                std::string* out) {
  codec::PutVarint32(out, req.leader);
  codec::PutVarint64(out, req.epoch);
  codec::PutLengthPrefixed(out, req.topic);
  codec::PutVarint32(out, static_cast<std::uint32_t>(req.entries.size()));
  for (const PromoteLeaderRequest::Entry& entry : req.entries) {
    codec::PutVarint32(out, entry.partition);
    codec::PutVarint64Signed(out, entry.log_end);
  }
}

Status DecodePromoteLeaderRequest(std::string_view in,
                                  PromoteLeaderRequest* out) {
  std::uint32_t n = 0;
  if (!codec::GetVarint32(&in, &out->leader) ||
      !codec::GetVarint64(&in, &out->epoch) || !GetString(&in, &out->topic) ||
      !codec::GetVarint32(&in, &n) || n > kMaxBatchEntries) {
    return Truncated("promote_leader request");
  }
  out->entries.clear();
  out->entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    PromoteLeaderRequest::Entry entry;
    if (!codec::GetVarint32(&in, &entry.partition) ||
        !codec::GetVarint64Signed(&in, &entry.log_end)) {
      return Truncated("promote_leader entry");
    }
    out->entries.push_back(entry);
  }
  return ExpectDrained(in);
}

void EncodePromoteLeaderResponse(const PromoteLeaderResponse& resp,
                                 std::string* out) {
  codec::PutVarint32(out, static_cast<std::uint32_t>(resp.entries.size()));
  for (const PromoteLeaderResponse::Entry& entry : resp.entries) {
    codec::PutVarint32(out, entry.partition);
    codec::PutVarint64Signed(out, entry.log_end);
  }
}

Status DecodePromoteLeaderResponse(std::string_view in,
                                   PromoteLeaderResponse* out) {
  std::uint32_t n = 0;
  if (!codec::GetVarint32(&in, &n) || n > kMaxBatchEntries) {
    return Truncated("promote_leader response");
  }
  out->entries.clear();
  out->entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    PromoteLeaderResponse::Entry entry;
    if (!codec::GetVarint32(&in, &entry.partition) ||
        !codec::GetVarint64Signed(&in, &entry.log_end)) {
      return Truncated("promote_leader response entry");
    }
    out->entries.push_back(entry);
  }
  return ExpectDrained(in);
}

void EncodeClusterMetaRequest(const ClusterMetaRequest& req, std::string* out) {
  codec::PutLengthPrefixed(out, req.topic);
}

Status DecodeClusterMetaRequest(std::string_view in, ClusterMetaRequest* out) {
  if (!GetString(&in, &out->topic)) return Truncated("cluster_meta request");
  return ExpectDrained(in);
}

void EncodeClusterMetaResponse(const ClusterMetaResponse& resp,
                               std::string* out) {
  codec::PutVarint32(out, static_cast<std::uint32_t>(resp.brokers.size()));
  for (const ClusterMetaResponse::BrokerInfo& broker : resp.brokers) {
    codec::PutVarint32(out, broker.id);
    codec::PutLengthPrefixed(out, broker.host);
    codec::PutVarint32(out, broker.port);
  }
  codec::PutVarint32(out, resp.self);
  codec::PutVarint32(out, static_cast<std::uint32_t>(resp.topics.size()));
  for (const ClusterMetaResponse::Topic& topic : resp.topics) {
    codec::PutLengthPrefixed(out, topic.topic);
    codec::PutVarint32(out, topic.leader);
    codec::PutVarint64(out, topic.epoch);
    codec::PutVarint32(out, static_cast<std::uint32_t>(topic.isr.size()));
    for (const std::uint32_t id : topic.isr) codec::PutVarint32(out, id);
    codec::PutVarint32(out, static_cast<std::uint32_t>(topic.partitions.size()));
    for (const ClusterMetaResponse::Partition& p : topic.partitions) {
      codec::PutVarint64Signed(out, p.log_end);
      codec::PutVarint64Signed(out, p.high_watermark);
    }
  }
}

Status DecodeClusterMetaResponse(std::string_view in,
                                 ClusterMetaResponse* out) {
  std::uint32_t brokers = 0;
  if (!codec::GetVarint32(&in, &brokers) || brokers > kMaxBatchEntries) {
    return Truncated("cluster_meta response");
  }
  out->brokers.clear();
  out->brokers.reserve(brokers);
  for (std::uint32_t i = 0; i < brokers; ++i) {
    ClusterMetaResponse::BrokerInfo broker;
    std::uint32_t port = 0;
    if (!codec::GetVarint32(&in, &broker.id) || !GetString(&in, &broker.host) ||
        !codec::GetVarint32(&in, &port) || port > 0xffff) {
      return Truncated("cluster_meta broker");
    }
    broker.port = static_cast<std::uint16_t>(port);
    out->brokers.push_back(std::move(broker));
  }
  std::uint32_t topics = 0;
  if (!codec::GetVarint32(&in, &out->self) ||
      !codec::GetVarint32(&in, &topics) || topics > kMaxBatchEntries) {
    return Truncated("cluster_meta topics");
  }
  out->topics.clear();
  out->topics.reserve(topics);
  for (std::uint32_t i = 0; i < topics; ++i) {
    ClusterMetaResponse::Topic topic;
    std::uint32_t isr = 0;
    if (!GetString(&in, &topic.topic) ||
        !codec::GetVarint32(&in, &topic.leader) ||
        !codec::GetVarint64(&in, &topic.epoch) ||
        !codec::GetVarint32(&in, &isr) || isr > kMaxBatchEntries) {
      return Truncated("cluster_meta topic");
    }
    topic.isr.reserve(isr);
    for (std::uint32_t r = 0; r < isr; ++r) {
      std::uint32_t id = 0;
      if (!codec::GetVarint32(&in, &id)) return Truncated("cluster_meta isr");
      topic.isr.push_back(id);
    }
    std::uint32_t parts = 0;
    if (!codec::GetVarint32(&in, &parts) || parts > kMaxBatchEntries) {
      return Truncated("cluster_meta partitions");
    }
    topic.partitions.reserve(parts);
    for (std::uint32_t p = 0; p < parts; ++p) {
      ClusterMetaResponse::Partition part;
      if (!codec::GetVarint64Signed(&in, &part.log_end) ||
          !codec::GetVarint64Signed(&in, &part.high_watermark)) {
        return Truncated("cluster_meta offsets");
      }
      topic.partitions.push_back(part);
    }
    out->topics.push_back(std::move(topic));
  }
  return ExpectDrained(in);
}

void EncodeHelloRequest(const HelloRequest& req, std::string* out) {
  codec::PutVarint32(out, req.version);
}

Status DecodeHelloRequest(std::string_view in, HelloRequest* out) {
  if (!codec::GetVarint32(&in, &out->version) || out->version == 0) {
    return Truncated("hello request");
  }
  return ExpectDrained(in);
}

void EncodeHelloResponse(const HelloResponse& resp, std::string* out) {
  codec::PutVarint32(out, resp.version);
}

Status DecodeHelloResponse(std::string_view in, HelloResponse* out) {
  if (!codec::GetVarint32(&in, &out->version) || out->version == 0) {
    return Truncated("hello response");
  }
  return ExpectDrained(in);
}

}  // namespace strata::net
