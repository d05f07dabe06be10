// Request/response codecs of the broker protocol (one level above frames).
//
// Every request payload is `u8 api_key | body`; every response payload is
// `u8 status_code | status_message | body` with the body present only on Ok.
// Bodies use the common little-endian codec primitives, and every decoder
// returns Status::Corruption on truncated or trailing bytes — these bytes
// cross a network, so nothing here may crash or silently mis-parse.
//
// The Produce request, Fetch response and ReplicaFetch response carry record
// values. Their encoders write into a Pieces, which holds each value by
// reference to its shared buffer (ps::Bytes) instead of copying it, and
// their decoders hand out values as slices of the received payload buffer.
//
// A connection opens with a Hello carrying kProtocolVersion; the server
// answers anything else, or a different version, with an error and then
// severs the connection. After that a client may pipeline requests: each
// frame's correlation id (net/frame.hpp) comes back on its response, and
// responses are written as requests complete, not in request order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pubsub/broker.hpp"
#include "pubsub/record.hpp"

namespace strata::net {

enum class ApiKey : std::uint8_t {
  kCreateTopic = 1,
  kMetadata = 2,
  kProduce = 3,
  kFetch = 4,
  kJoinGroup = 5,
  kLeaveGroup = 6,
  kHeartbeat = 7,
  kCommitOffset = 8,
  kOffsetFetch = 9,
  kHello = 10,
  // strata::repl: leader-based partition replication.
  kReplicaFetch = 11,
  kReplicaAck = 12,
  kPromoteLeader = 13,
  kClusterMeta = 14,
};

/// The highest valid ApiKey; valid keys are 1..kLastApiKey.
inline constexpr ApiKey kLastApiKey = ApiKey::kClusterMeta;

/// The one protocol version this build speaks; both ends of a connection
/// must match it exactly. 5: fixed 32-byte frame header (frame.hpp) and the
/// acks byte always ends a Produce body.
inline constexpr std::uint32_t kProtocolVersion = 5;

/// Human-readable name for metrics labels and diagnostics.
[[nodiscard]] const char* ApiKeyName(ApiKey api) noexcept;

/// A payload (or body) as a list of pieces for a gathered write. Encoded
/// fields go into one owned string; record values join by reference to
/// their shared buffers, so a 4 MB Produce or Fetch body is assembled
/// without copying its values.
class Pieces {
 public:
  Pieces() = default;
  /// One owned piece.
  Pieces(std::string bytes)  // NOLINT(google-explicit-constructor)
      : owned_(std::move(bytes)) {}

  /// Where encoders append fields; they land after every piece so far.
  [[nodiscard]] std::string* out() noexcept { return &owned_; }
  /// Appends `value` by reference.
  void Append(const ps::Bytes& value) {
    shared_.push_back(Shared{owned_.size(), value});
  }

  /// Total bytes over every piece.
  [[nodiscard]] std::size_t size() const noexcept;
  /// Appends a view of each non-empty piece, in order, to `*views`; valid
  /// while *this lives unchanged.
  void AppendViews(std::vector<std::string_view>* views) const;
  /// Every piece concatenated.
  [[nodiscard]] std::string Flatten() const;

 private:
  /// A shared value that follows owned_[0, at).
  struct Shared {
    std::size_t at = 0;
    ps::Bytes bytes;
  };
  std::string owned_;
  std::vector<Shared> shared_;
};

// --- request bodies ---------------------------------------------------------

struct CreateTopicRequest {
  std::string topic;
  ps::TopicConfig config;
};

struct MetadataRequest {
  std::string topic;  // empty = all topics
};

/// Produce durability requirement. kLeader acks once the leader has
/// appended; kQuorum holds the response until a majority of the replica set
/// has the record (see src/repl/). Encoded as the last byte of the body.
enum class ProduceAcks : std::uint8_t {
  kLeader = 0,
  kQuorum = 1,
};

struct ProduceRequest {
  std::string topic;
  ps::Record record;
  ProduceAcks acks = ProduceAcks::kLeader;
};

struct FetchRequest {
  struct Entry {
    ps::TopicPartition tp;
    std::int64_t offset = 0;
    std::uint64_t max_records = 256;
  };
  std::vector<Entry> entries;
  /// Server-side long-poll budget when no entry has data (the server honors
  /// the broker's data signal and caps this with its own limit).
  std::uint64_t max_wait_us = 0;
};

struct GroupRequest {  // JoinGroup (member ignored), LeaveGroup, Heartbeat
  std::string group;
  std::string topic;  // JoinGroup only
  ps::MemberId member = 0;
};

struct CommitOffsetRequest {
  std::string group;
  std::vector<std::pair<ps::TopicPartition, std::int64_t>> offsets;
};

struct OffsetFetchRequest {
  std::string group;
  std::vector<ps::TopicPartition> partitions;
};

/// Follower -> leader: pull records for a topic's partitions starting
/// at the follower's local log end. The fetch offset doubles as a cumulative
/// ack ("everything below is appended here") and the request itself is the
/// follower's heartbeat to the leader.
struct ReplicaFetchRequest {
  std::uint32_t follower = 0;  // follower broker id
  std::uint64_t epoch = 0;     // follower's current leader epoch
  std::string topic;
  struct Entry {
    std::uint32_t partition = 0;
    std::int64_t offset = 0;  // follower log end = first offset it wants
    std::uint64_t max_records = 512;
  };
  std::vector<Entry> entries;
};

struct ReplicaFetchResponse {
  std::uint32_t leader = 0;  // leader broker id (as the leader believes)
  std::uint64_t epoch = 0;   // leader epoch; followers adopt newer values
  struct Entry {
    std::uint32_t partition = 0;
    /// First offset of `records`. When it differs from the requested offset
    /// the leader no longer holds that range (retention) — the follower
    /// cannot copy contiguously and must flag the gap.
    std::int64_t base_offset = 0;
    std::int64_t high_watermark = 0;  // quorum-committed end
    std::int64_t log_end = 0;         // leader's local end (lag = end - offset)
    std::vector<ps::Record> records;
  };
  std::vector<Entry> entries;
};

/// Follower -> leader: explicit ack after appending fetched records, so
/// the high watermark advances without waiting for the next fetch round.
struct ReplicaAckRequest {
  std::uint32_t follower = 0;
  std::uint64_t epoch = 0;
  std::string topic;
  struct Entry {
    std::uint32_t partition = 0;
    std::int64_t log_end = 0;  // follower's local end after the append
  };
  std::vector<Entry> entries;
};

struct ReplicaAckResponse {
  struct Entry {
    std::uint32_t partition = 0;
    std::int64_t high_watermark = 0;
  };
  std::vector<Entry> entries;
};

/// New leader -> everyone: announce leadership for a topic at a higher
/// epoch. Receivers with longer logs truncate to the new leader's ends
/// (uncommitted tail of the failed leader) and resume fetching.
struct PromoteLeaderRequest {
  std::uint32_t leader = 0;  // the broker claiming leadership
  std::uint64_t epoch = 0;   // must exceed the receiver's epoch to be adopted
  std::string topic;
  struct Entry {
    std::uint32_t partition = 0;
    std::int64_t log_end = 0;  // new leader's local end (truncation bound)
  };
  std::vector<Entry> entries;
};

struct PromoteLeaderResponse {
  struct Entry {
    std::uint32_t partition = 0;
    std::int64_t log_end = 0;  // receiver's local end after any truncation
  };
  std::vector<Entry> entries;
};

/// Client or peer -> any broker: the cluster metadata view — broker
/// endpoints plus per-topic leader, epoch, in-sync replica set, and
/// per-partition [end, high-watermark]. Producers/consumers use it to find
/// the leader; brokers use it during elections to pick the most caught-up
/// survivor.
struct ClusterMetaRequest {
  std::string topic;  // empty = all replicated topics
};

struct ClusterMetaResponse {
  struct BrokerInfo {
    std::uint32_t id = 0;
    std::string host;
    std::uint16_t port = 0;
  };
  std::vector<BrokerInfo> brokers;
  std::uint32_t self = 0;  // id of the responding broker
  struct Partition {
    std::int64_t log_end = 0;        // responder's local end
    std::int64_t high_watermark = 0;
  };
  struct Topic {
    std::string topic;
    std::uint32_t leader = 0;
    std::uint64_t epoch = 0;
    /// Leader's view of the in-sync replicas (itself included). Followers
    /// answering this request report an empty set — only log_end/epoch from
    /// them is meaningful.
    std::vector<std::uint32_t> isr;
    std::vector<Partition> partitions;
  };
  std::vector<Topic> topics;
};

/// The mandatory first request of every connection (see net::Handshake).
struct HelloRequest {
  std::uint32_t version = kProtocolVersion;
};

// --- response bodies --------------------------------------------------------

struct TopicMetadata {
  std::string topic;
  /// Per-partition [start, end) offsets.
  std::vector<std::pair<std::int64_t, std::int64_t>> partitions;
};

struct MetadataResponse {
  std::vector<TopicMetadata> topics;
};

struct ProduceResponse {
  int partition = 0;
  std::int64_t offset = 0;
};

struct FetchResponse {
  /// One partition's records: exactly what the broker's read pass returns.
  using Entry = ps::PartitionRead;
  std::vector<Entry> entries;
  [[nodiscard]] bool empty() const noexcept {
    for (const Entry& e : entries) {
      if (!e.records.empty()) return false;
    }
    return true;
  }
};

struct JoinGroupResponse {
  ps::MemberId member = 0;
};

struct HeartbeatResponse {
  std::uint64_t generation = 0;
  std::vector<ps::TopicPartition> assignment;
};

struct OffsetFetchResponse {
  /// Parallel to the request's partitions; kNone = no committed offset.
  static constexpr std::int64_t kNone = -1;
  std::vector<std::int64_t> offsets;
};

struct HelloResponse {
  std::uint32_t version = kProtocolVersion;
};

// --- envelope ---------------------------------------------------------------

/// `u8 api_key | body` -> request payload.
void EncodeRequest(ApiKey api, std::string_view body, std::string* out);
/// Splits a request payload; Corruption on an empty payload or unknown key.
[[nodiscard]] Status DecodeRequest(std::string_view payload, ApiKey* api,
                                   std::string_view* body);

/// `u8 code | message | body` -> response payload.
void EncodeResponse(const Status& status, std::string_view body,
                    std::string* out);
/// On Ok fills `*body`; otherwise returns the transported error Status.
[[nodiscard]] Status DecodeResponse(std::string_view payload,
                                    std::string_view* body);

// --- body codecs (encode infallible; decode returns Corruption) -------------

void EncodeCreateTopic(const CreateTopicRequest& req, std::string* out);
[[nodiscard]] Status DecodeCreateTopic(std::string_view in,
                                       CreateTopicRequest* out);

void EncodeMetadataRequest(const MetadataRequest& req, std::string* out);
[[nodiscard]] Status DecodeMetadataRequest(std::string_view in,
                                           MetadataRequest* out);
void EncodeMetadataResponse(const MetadataResponse& resp, std::string* out);
[[nodiscard]] Status DecodeMetadataResponse(std::string_view in,
                                            MetadataResponse* out);

/// The request's value joins `*out` by reference.
void EncodeProduceRequest(const ProduceRequest& req, Pieces* out);
/// The decoded value is a slice of `body`.
[[nodiscard]] Status DecodeProduceRequest(const ps::Bytes& body,
                                          ProduceRequest* out);
void EncodeProduceResponse(const ProduceResponse& resp, std::string* out);
[[nodiscard]] Status DecodeProduceResponse(std::string_view in,
                                           ProduceResponse* out);

void EncodeFetchRequest(const FetchRequest& req, std::string* out);
[[nodiscard]] Status DecodeFetchRequest(std::string_view in, FetchRequest* out);
/// Record values join `*out` by reference.
void EncodeFetchResponse(const FetchResponse& resp, Pieces* out);
/// Decoded values are slices of `body`.
[[nodiscard]] Status DecodeFetchResponse(const ps::Bytes& body,
                                         FetchResponse* out);

void EncodeGroupRequest(const GroupRequest& req, std::string* out);
[[nodiscard]] Status DecodeGroupRequest(std::string_view in, GroupRequest* out);

void EncodeJoinGroupResponse(const JoinGroupResponse& resp, std::string* out);
[[nodiscard]] Status DecodeJoinGroupResponse(std::string_view in,
                                             JoinGroupResponse* out);

void EncodeHeartbeatResponse(const HeartbeatResponse& resp, std::string* out);
[[nodiscard]] Status DecodeHeartbeatResponse(std::string_view in,
                                             HeartbeatResponse* out);

void EncodeCommitOffsetRequest(const CommitOffsetRequest& req,
                               std::string* out);
[[nodiscard]] Status DecodeCommitOffsetRequest(std::string_view in,
                                               CommitOffsetRequest* out);

void EncodeOffsetFetchRequest(const OffsetFetchRequest& req, std::string* out);
[[nodiscard]] Status DecodeOffsetFetchRequest(std::string_view in,
                                              OffsetFetchRequest* out);
void EncodeOffsetFetchResponse(const OffsetFetchResponse& resp,
                               std::string* out);
[[nodiscard]] Status DecodeOffsetFetchResponse(std::string_view in,
                                               OffsetFetchResponse* out);

void EncodeReplicaFetchRequest(const ReplicaFetchRequest& req,
                               std::string* out);
[[nodiscard]] Status DecodeReplicaFetchRequest(std::string_view in,
                                               ReplicaFetchRequest* out);
/// Record values join `*out` by reference.
void EncodeReplicaFetchResponse(const ReplicaFetchResponse& resp,
                                Pieces* out);
/// Decoded values are slices of `body`.
[[nodiscard]] Status DecodeReplicaFetchResponse(const ps::Bytes& body,
                                                ReplicaFetchResponse* out);

void EncodeReplicaAckRequest(const ReplicaAckRequest& req, std::string* out);
[[nodiscard]] Status DecodeReplicaAckRequest(std::string_view in,
                                             ReplicaAckRequest* out);
void EncodeReplicaAckResponse(const ReplicaAckResponse& resp,
                              std::string* out);
[[nodiscard]] Status DecodeReplicaAckResponse(std::string_view in,
                                              ReplicaAckResponse* out);

void EncodePromoteLeaderRequest(const PromoteLeaderRequest& req,
                                std::string* out);
[[nodiscard]] Status DecodePromoteLeaderRequest(std::string_view in,
                                                PromoteLeaderRequest* out);
void EncodePromoteLeaderResponse(const PromoteLeaderResponse& resp,
                                 std::string* out);
[[nodiscard]] Status DecodePromoteLeaderResponse(std::string_view in,
                                                 PromoteLeaderResponse* out);

void EncodeClusterMetaRequest(const ClusterMetaRequest& req, std::string* out);
[[nodiscard]] Status DecodeClusterMetaRequest(std::string_view in,
                                              ClusterMetaRequest* out);
void EncodeClusterMetaResponse(const ClusterMetaResponse& resp,
                               std::string* out);
[[nodiscard]] Status DecodeClusterMetaResponse(std::string_view in,
                                               ClusterMetaResponse* out);

void EncodeHelloRequest(const HelloRequest& req, std::string* out);
[[nodiscard]] Status DecodeHelloRequest(std::string_view in,
                                        HelloRequest* out);
void EncodeHelloResponse(const HelloResponse& resp, std::string* out);
[[nodiscard]] Status DecodeHelloResponse(std::string_view in,
                                         HelloResponse* out);

}  // namespace strata::net
