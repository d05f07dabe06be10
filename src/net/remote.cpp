#include "net/remote.hpp"

#include <algorithm>
#include <thread>

#include "common/logging.hpp"
#include "common/trace_context.hpp"
#include "net/frame.hpp"
#include "obs/trace.hpp"

namespace strata::net {

namespace {

bool IsTransportError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kIoError:
    case StatusCode::kTimeout:
    case StatusCode::kCorruption:
      return true;
    default:
      return false;
  }
}

/// True for errors the *server* answered with (they crossed the wire inside
/// a response frame and carry the "server: " marker) — as opposed to
/// transport faults of the connection itself.
bool IsServerError(const Status& status) {
  return !status.ok() && status.message().rfind("server: ", 0) == 0;
}

/// DecodeResponse, with the "server: " marker on a transported error so
/// retry loops treat it as final even if its code overlaps a transport one.
Status DecodeServerResponse(std::string_view payload, std::string_view* body) {
  const Status app = DecodeResponse(payload, body);
  if (!app.ok()) return Status(app.code(), "server: " + app.message());
  return Status::Ok();
}

}  // namespace

Status Handshake(Socket* socket, Deadline deadline) {
  std::string body;
  EncodeHelloRequest(HelloRequest{}, &body);
  std::string payload;
  EncodeRequest(ApiKey::kHello, body, &payload);
  STRATA_RETURN_IF_ERROR(WriteFrame(socket, payload, deadline));
  STRATA_RETURN_IF_ERROR(ReadFrame(socket, &payload, deadline));
  std::string_view out;
  STRATA_RETURN_IF_ERROR(DecodeServerResponse(payload, &out));
  HelloResponse resp;
  STRATA_RETURN_IF_ERROR(DecodeHelloResponse(out, &resp));
  if (resp.version != kProtocolVersion) {
    return Status::InvalidArgument(
        "protocol version mismatch: client speaks v" +
        std::to_string(kProtocolVersion) + ", server speaks v" +
        std::to_string(resp.version));
  }
  return Status::Ok();
}

// --- ClientConnection -------------------------------------------------------

ClientConnection::ClientConnection(RemoteOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    retries_ = options_.metrics->GetCounter("net.client.retries");
    reconnects_ = options_.metrics->GetCounter("net.client.connects");
  }
  // Seed from the object address and the clock: cheap entropy that differs
  // across the very clients that would otherwise retry in lockstep.
  rng_state_ = static_cast<std::uint64_t>(
                   std::chrono::steady_clock::now().time_since_epoch().count()) ^
               (reinterpret_cast<std::uintptr_t>(this) * 0x9e3779b97f4a7c15ull);
  if (rng_state_ == 0) rng_state_ = 0x9e3779b97f4a7c15ull;
}

std::chrono::microseconds ClientConnection::NextBackoff() {
  // xorshift64*: tiny, stateful, good enough for jitter.
  rng_state_ ^= rng_state_ >> 12;
  rng_state_ ^= rng_state_ << 25;
  rng_state_ ^= rng_state_ >> 27;
  const std::uint64_t r = rng_state_ * 0x2545f4914f6cdd1dull;

  const std::int64_t lo = std::max<std::int64_t>(1, options_.backoff_initial.count());
  const std::int64_t hi = std::max(lo + 1, prev_backoff_.count() * 3);
  std::chrono::microseconds next{
      lo + static_cast<std::int64_t>(r % static_cast<std::uint64_t>(hi - lo))};
  next = std::min(next, options_.backoff_max);
  prev_backoff_ = next;
  return next;
}

void ClientConnection::Cancel() {
  {
    std::lock_guard lock(cancel_mu_);
    cancelled_ = true;
  }
  cancel_cv_.notify_all();
}

Status ClientConnection::EnsureConnected() {
  if (socket_.valid()) return Status::Ok();
  auto socket =
      Socket::Connect(options_.host, options_.port, After(options_.connect_timeout));
  if (!socket.ok()) return socket.status();
  if (reconnects_ != nullptr) reconnects_->Inc();
  STRATA_RETURN_IF_ERROR(
      Handshake(&*socket, After(options_.request_timeout)));
  socket_ = std::move(*socket);
  last_correlation_ = 0;
  return Status::Ok();
}

Status ClientConnection::RoundTrip(ApiKey api, const Pieces& body,
                                   ps::Bytes* response_body,
                                   std::chrono::microseconds extra_wait) {
  const char key = static_cast<char>(api);
  std::vector<std::string_view> payload{std::string_view(&key, 1)};
  body.AppendViews(&payload);
  const Deadline deadline = After(options_.request_timeout + extra_wait);
  // Tag the frame with the caller's active span (if any) so the server's
  // dispatch span joins the same trace.
  const TraceContext trace =
      obs::TracingEnabled() ? ThreadTraceSlot() : TraceContext{};
  const std::uint64_t correlation = ++last_correlation_;
  STRATA_RETURN_IF_ERROR(
      WriteFrame(&socket_, payload, deadline, trace, correlation));

  std::string frame;
  std::uint64_t echoed = 0;
  STRATA_RETURN_IF_ERROR(
      ReadFrame(&socket_, &frame, deadline, nullptr, &echoed));
  if (echoed != correlation) {
    return Status::Corruption(
        "response correlation id " + std::to_string(echoed) +
        " does not match request " + std::to_string(correlation));
  }
  // The frame's buffer becomes the response: the body, and every record
  // value decoded from it, are slices of it.
  const ps::Bytes response(std::move(frame));
  std::string_view out;
  STRATA_RETURN_IF_ERROR(DecodeServerResponse(response, &out));
  *response_body = response.Slice(out);
  return Status::Ok();
}

Status ClientConnection::Call(ApiKey api, const Pieces& body,
                              ps::Bytes* response_body,
                              std::chrono::microseconds extra_wait,
                              bool retry) {
  {
    std::lock_guard lock(cancel_mu_);
    if (cancelled_) return Status::Closed("client connection cancelled");
  }
  prev_backoff_ = options_.backoff_initial;  // each Call restarts the ladder
  Status last = Status::Ok();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      if (!retry) break;
      if (retries_ != nullptr) retries_->Inc();
      // Decorrelated-jitter sleep, abortable by Cancel(): a closing client
      // must not sit out the full backoff before noticing.
      const auto backoff = NextBackoff();
      std::unique_lock lock(cancel_mu_);
      if (cancel_cv_.wait_for(lock, backoff, [this] { return cancelled_; })) {
        return Status::Closed("client connection cancelled");
      }
    }
    last = EnsureConnected();
    if (last.ok()) last = RoundTrip(api, body, response_body, extra_wait);
    if (last.ok()) return last;
    if (!IsTransportError(last) || IsServerError(last)) {
      // Application error from the server, or a failed Hello: never retry.
      return last;
    }
    // Transport fault: the stream cannot be trusted (a timeout may have left
    // half a frame in flight). Reconnect on the next attempt.
    socket_.Close();
    LOG_DEBUG << "net: " << ApiKeyName(api)
              << " transport error, will retry: " << last.ToString();
  }
  return last;
}

void ClientConnection::SetEndpoint(const std::string& host,
                                   std::uint16_t port) {
  if (host == options_.host && port == options_.port) return;
  socket_.Close();
  options_.host = host;
  options_.port = port;
}

void ClientConnection::CountRetry() noexcept {
  if (retries_ != nullptr) retries_->Inc();
}

// --- LeaderRouter -----------------------------------------------------------

LeaderRouter::LeaderRouter(RemoteOptions options)
    : options_(options), connection_(std::move(options)) {
  for (const auto& endpoint : options_.bootstrap) {
    if (std::find(endpoints_.begin(), endpoints_.end(), endpoint) ==
        endpoints_.end()) {
      endpoints_.push_back(endpoint);
    }
  }
  const std::pair<std::string, std::uint16_t> primary{options_.host,
                                                      options_.port};
  if (primary.second != 0 &&
      std::find(endpoints_.begin(), endpoints_.end(), primary) ==
          endpoints_.end()) {
    endpoints_.push_back(primary);
  }
  // Start on a seed, not on a possibly-zero RemoteOptions::port.
  if (options_.port == 0 && !endpoints_.empty()) {
    connection_.SetEndpoint(endpoints_.front().first,
                            endpoints_.front().second);
  }
}

void LeaderRouter::Refresh(const std::string& topic) {
  if (endpoints_.empty()) return;  // single-endpoint client: nothing to probe
  ClusterMetaRequest req;
  req.topic = topic;
  std::string body;
  EncodeClusterMetaRequest(req, &body);

  const std::vector<std::pair<std::string, std::uint16_t>> candidates =
      endpoints_;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& candidate =
        candidates[(probe_from_ + i) % candidates.size()];
    connection_.SetEndpoint(candidate.first, candidate.second);
    ps::Bytes response;
    const Status status = connection_.Call(ApiKey::kClusterMeta, body,
                                           &response, {}, /*retry=*/false);
    if (!status.ok() && !IsServerError(status)) continue;  // dead broker
    probe_from_ = (probe_from_ + i) % candidates.size();
    if (!status.ok()) {
      // Live, but no cluster view (a standalone broker answers
      // InvalidArgument): stay here.
      return;
    }
    ClusterMetaResponse meta;
    if (!DecodeClusterMetaResponse(response, &meta).ok()) return;
    // Fold every advertised broker into the endpoint pool; failover may
    // promote a broker that was never in the bootstrap list.
    for (const auto& broker : meta.brokers) {
      const std::pair<std::string, std::uint16_t> endpoint{broker.host,
                                                           broker.port};
      if (endpoint.second != 0 &&
          std::find(endpoints_.begin(), endpoints_.end(), endpoint) ==
              endpoints_.end()) {
        endpoints_.push_back(endpoint);
      }
    }
    for (const auto& t : meta.topics) {
      if (t.topic != topic) continue;
      for (const auto& broker : meta.brokers) {
        if (broker.id == t.leader && broker.port != 0) {
          LOG_DEBUG << "net: routing " << topic << " to leader " << t.leader
                    << " at " << broker.host << ":" << broker.port;
          connection_.SetEndpoint(broker.host, broker.port);
          return;
        }
      }
    }
    return;  // topic unknown to the cluster: any live broker will do
  }
  ++probe_from_;  // everything dead: start the next sweep elsewhere
}

Status LeaderRouter::Call(ApiKey api, const std::string& topic,
                          const Pieces& body, ps::Bytes* response_body,
                          std::chrono::microseconds extra_wait) {
  const int rounds = std::max(1, options_.cluster_refresh_rounds);
  Status last = Status::Ok();
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) {
      // Give an in-flight election time to conclude before re-probing.
      std::this_thread::sleep_for(options_.cluster_refresh_backoff);
    }
    if (round > 0) connection_.CountRetry();
    last = connection_.Call(api, body, response_body, extra_wait,
                            /*retry=*/endpoints_.empty());
    if (last.ok() || last.IsClosed()) return last;
    if (IsServerError(last) && !last.IsNotLeader()) {
      return last;  // genuine application error: re-routing cannot help
    }
    // NotLeader or transport fault: chase the (possibly new) leader.
    Refresh(topic);
  }
  return last;
}

// --- RemoteProducer ---------------------------------------------------------

Result<std::pair<int, std::int64_t>> RemoteProducer::Send(
    const std::string& topic, ps::Record record) {
  ProduceRequest req;
  req.topic = topic;
  req.record = std::move(record);
  req.acks = options_.acks;
  Pieces body;
  EncodeProduceRequest(req, &body);
  ps::Bytes response;
  STRATA_RETURN_IF_ERROR(
      router_.Call(ApiKey::kProduce, topic, body, &response));
  ProduceResponse resp;
  STRATA_RETURN_IF_ERROR(DecodeProduceResponse(response, &resp));
  return std::pair<int, std::int64_t>{resp.partition, resp.offset};
}

// --- Remote consumer transport ---------------------------------------------

namespace {

/// ps::ConsumerTransport over a LeaderRouter: each call is one routed
/// request on the consumer's own connection, led by its topic's leader.
class RemoteTransport final : public ps::ConsumerTransport {
 public:
  explicit RemoteTransport(RemoteOptions remote) : router_(std::move(remote)) {}

  ~RemoteTransport() override {
    if (!joined_) return;
    GroupRequest leave;
    leave.group = group_;
    leave.member = member_;
    std::string body;
    EncodeGroupRequest(leave, &body);
    ps::Bytes response;
    // Best effort, no retry: if the connection is gone the server's session
    // tracking already leaves the group for us.
    (void)router_.connection().Call(ApiKey::kLeaveGroup, body, &response,
                                    std::chrono::microseconds{},
                                    /*retry=*/false);
  }

  Status Join(const std::string& group, const std::string& topic) override {
    group_ = group;
    topic_ = topic;
    return JoinOnCurrentLeader();
  }

  Status Assignment(std::vector<ps::TopicPartition>* partitions) override {
    HeartbeatResponse resp;
    STRATA_RETURN_IF_ERROR(Heartbeat(&resp));
    if (resp.generation == 0) {
      // The broker answering us has no record of the group: leadership moved
      // and group state is not replicated. Re-join on the new leader; the
      // consumer's positions carry consumption forward, so nothing already
      // consumed is replayed (beyond the usual at-least-once window).
      LOG_DEBUG << "net: group " << group_
                << " unknown on current broker, re-joining after failover";
      STRATA_RETURN_IF_ERROR(JoinOnCurrentLeader());
      STRATA_RETURN_IF_ERROR(Heartbeat(&resp));
    }
    *partitions = std::move(resp.assignment);
    return Status::Ok();
  }

  Status Committed(const std::vector<ps::TopicPartition>& partitions,
                   std::vector<std::optional<std::int64_t>>* offsets) override {
    OffsetFetchRequest req;
    req.group = group_;
    req.partitions = partitions;
    std::string body;
    EncodeOffsetFetchRequest(req, &body);
    ps::Bytes response;
    STRATA_RETURN_IF_ERROR(Call(ApiKey::kOffsetFetch, body, &response));
    OffsetFetchResponse resp;
    STRATA_RETURN_IF_ERROR(DecodeOffsetFetchResponse(response, &resp));
    if (resp.offsets.size() != partitions.size()) {
      return Status::Corruption("offset_fetch: response size mismatch");
    }
    offsets->clear();
    for (const std::int64_t offset : resp.offsets) {
      offsets->push_back(offset == OffsetFetchResponse::kNone
                             ? std::nullopt
                             : std::optional(offset));
    }
    return Status::Ok();
  }

  Status Bounds(
      std::vector<std::pair<std::int64_t, std::int64_t>>* bounds) override {
    MetadataRequest req;
    req.topic = topic_;
    std::string body;
    EncodeMetadataRequest(req, &body);
    ps::Bytes response;
    STRATA_RETURN_IF_ERROR(Call(ApiKey::kMetadata, body, &response));
    MetadataResponse metadata;
    STRATA_RETURN_IF_ERROR(DecodeMetadataResponse(response, &metadata));
    if (metadata.topics.empty()) return Status::NotFound("topic " + topic_);
    *bounds = std::move(metadata.topics.front().partitions);
    return Status::Ok();
  }

  Status Commit(
      const std::map<ps::TopicPartition, std::int64_t>& offsets) override {
    CommitOffsetRequest req;
    req.group = group_;
    req.offsets.assign(offsets.begin(), offsets.end());
    std::string body;
    EncodeCommitOffsetRequest(req, &body);
    ps::Bytes response;
    // Committing the same offsets twice is idempotent, so retry is safe.
    return Call(ApiKey::kCommitOffset, body, &response);
  }

  /// One Fetch request; the server long-polls up to `wait` when no entry
  /// has data, and caps each entry at `max_records`.
  Status Fetch(const std::vector<ps::TopicPartition>& partitions,
               const std::map<ps::TopicPartition, std::int64_t>& positions,
               std::size_t max_records, std::chrono::microseconds wait,
               std::vector<ps::PartitionRead>* reads) override {
    FetchRequest req;
    req.entries.reserve(partitions.size());
    for (const ps::TopicPartition& tp : partitions) {
      FetchRequest::Entry& entry = req.entries.emplace_back();
      entry.tp = tp;
      const auto it = positions.find(tp);
      entry.offset = it == positions.end() ? 0 : it->second;
      entry.max_records = max_records;
    }
    req.max_wait_us = static_cast<std::uint64_t>(wait.count());
    std::string body;
    EncodeFetchRequest(req, &body);
    ps::Bytes response;
    STRATA_RETURN_IF_ERROR(Call(ApiKey::kFetch, body, &response,
                                wait + std::chrono::seconds(1)));
    FetchResponse resp;
    STRATA_RETURN_IF_ERROR(DecodeFetchResponse(response, &resp));
    *reads = std::move(resp.entries);
    return Status::Ok();
  }

 private:
  /// Routed call bound to this consumer's topic.
  Status Call(ApiKey api, const Pieces& body, ps::Bytes* response,
              std::chrono::microseconds extra_wait = {}) {
    return router_.Call(api, topic_, body, response, extra_wait);
  }

  /// Join (or, after a failover wiped the group's server-side state,
  /// re-join) the consumer group on whichever broker the router points at.
  Status JoinOnCurrentLeader() {
    GroupRequest join;
    join.group = group_;
    join.topic = topic_;
    std::string body;
    EncodeGroupRequest(join, &body);
    ps::Bytes response;
    STRATA_RETURN_IF_ERROR(Call(ApiKey::kJoinGroup, body, &response));
    JoinGroupResponse joined;
    STRATA_RETURN_IF_ERROR(DecodeJoinGroupResponse(response, &joined));
    member_ = joined.member;
    joined_ = true;
    return Status::Ok();
  }

  Status Heartbeat(HeartbeatResponse* resp) {
    GroupRequest heartbeat;
    heartbeat.group = group_;
    heartbeat.member = member_;
    std::string body;
    EncodeGroupRequest(heartbeat, &body);
    ps::Bytes response;
    STRATA_RETURN_IF_ERROR(Call(ApiKey::kHeartbeat, body, &response));
    return DecodeHeartbeatResponse(response, resp);
  }

  LeaderRouter router_;
  std::string group_;
  std::string topic_;
  ps::MemberId member_ = 0;
  bool joined_ = false;
};

}  // namespace

Result<std::unique_ptr<ps::Consumer>> NewRemoteConsumer(
    RemoteOptions remote, const std::string& topic,
    ps::ConsumerOptions options) {
  return ps::Consumer::Create(
      std::make_unique<RemoteTransport>(std::move(remote)), topic,
      std::move(options));
}

// --- RemoteBroker -----------------------------------------------------------

Status RemoteBroker::CreateTopic(const std::string& name,
                                 const ps::TopicConfig& config) {
  CreateTopicRequest req;
  req.topic = name;
  req.config = config;
  std::string body;
  EncodeCreateTopic(req, &body);
  ps::Bytes response;
  return control_.Call(ApiKey::kCreateTopic, body, &response);
}

Result<std::unique_ptr<ps::ProducerClient>> RemoteBroker::NewProducer() {
  return std::unique_ptr<ps::ProducerClient>(
      std::make_unique<RemoteProducer>(options_));
}

Result<MetadataResponse> RemoteBroker::Metadata(const std::string& topic) {
  MetadataRequest req;
  req.topic = topic;
  std::string body;
  EncodeMetadataRequest(req, &body);
  ps::Bytes response;
  STRATA_RETURN_IF_ERROR(control_.Call(ApiKey::kMetadata, body, &response));
  MetadataResponse resp;
  STRATA_RETURN_IF_ERROR(DecodeMetadataResponse(response, &resp));
  return resp;
}

}  // namespace strata::net
