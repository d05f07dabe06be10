#include "net/remote.hpp"

#include <algorithm>
#include <thread>

#include "common/logging.hpp"
#include "common/trace_context.hpp"
#include "net/frame.hpp"
#include "obs/trace.hpp"

namespace strata::net {

namespace {

/// Ceiling on one Fetch long-poll slice. Poll() loops slices up to its own
/// deadline, re-heartbeating between them so rebalances are noticed even
/// while blocked on an idle topic.
constexpr std::chrono::microseconds kFetchSlice{200'000};

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

Status ClientConnection::RoundTrip(ApiKey api, std::string_view body,
                                   std::string* response_body,
                                   std::chrono::microseconds extra_wait) {
  scratch_.clear();
  EncodeRequest(api, body, &scratch_);
  const Deadline deadline = After(options_.request_timeout + extra_wait);
  // Tag the frame with the caller's active span (if any) so the server's
  // dispatch span joins the same trace.
  const TraceContext trace =
      obs::TracingEnabled() ? ThreadTraceSlot() : TraceContext{};
  const std::uint64_t correlation = ++last_correlation_;
  STRATA_RETURN_IF_ERROR(
      WriteFrame(&socket_, scratch_, deadline, trace, correlation));

  std::string payload;
  std::uint64_t echoed = 0;
  STRATA_RETURN_IF_ERROR(
      ReadFrame(&socket_, &payload, deadline, nullptr, &echoed));
  if (echoed != correlation) {
    return Status::Corruption(
        "response correlation id " + std::to_string(echoed) +
        " does not match request " + std::to_string(correlation));
  }
  std::string_view out;
  STRATA_RETURN_IF_ERROR(DecodeServerResponse(payload, &out));
  response_body->assign(out.data(), out.size());
  return Status::Ok();
}

Status ClientConnection::Call(ApiKey api, std::string_view body,
                              std::string* response_body,
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
    std::string response;
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
                          std::string_view body, std::string* response_body,
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
  std::string body;
  EncodeProduceRequest(req, &body);
  std::string response;
  STRATA_RETURN_IF_ERROR(
      router_.Call(ApiKey::kProduce, topic, body, &response));
  ProduceResponse resp;
  STRATA_RETURN_IF_ERROR(DecodeProduceResponse(response, &resp));
  return std::pair<int, std::int64_t>{resp.partition, resp.offset};
}

// --- RemoteConsumer ---------------------------------------------------------

Result<std::unique_ptr<RemoteConsumer>> RemoteConsumer::Create(
    RemoteOptions remote, const std::string& topic,
    ps::ConsumerOptions options) {
  std::unique_ptr<RemoteConsumer> consumer(
      new RemoteConsumer(std::move(remote), topic, std::move(options)));
  STRATA_RETURN_IF_ERROR(consumer->JoinOnCurrentLeader());
  STRATA_RETURN_IF_ERROR(consumer->RefreshAssignment());
  return consumer;
}

RemoteConsumer::~RemoteConsumer() {
  if (!joined_) return;
  GroupRequest leave;
  leave.group = options_.group;
  leave.member = member_;
  std::string body;
  EncodeGroupRequest(leave, &body);
  std::string response;
  // Best effort, no retry: if the connection is gone the server's session
  // tracking already leaves the group for us.
  (void)router_.connection().Call(ApiKey::kLeaveGroup, body, &response,
                                  std::chrono::microseconds{},
                                  /*retry=*/false);
}

Status RemoteConsumer::Call(ApiKey api, const std::string& body,
                            std::string* response,
                            std::chrono::microseconds extra_wait) {
  return router_.Call(api, topic_, body, response, extra_wait);
}

Status RemoteConsumer::JoinOnCurrentLeader() {
  GroupRequest join;
  join.group = options_.group;
  join.topic = topic_;
  std::string body;
  EncodeGroupRequest(join, &body);
  std::string response;
  STRATA_RETURN_IF_ERROR(Call(ApiKey::kJoinGroup, body, &response));
  JoinGroupResponse joined;
  STRATA_RETURN_IF_ERROR(DecodeJoinGroupResponse(response, &joined));
  member_ = joined.member;
  joined_ = true;
  generation_ = 0;
  return Status::Ok();
}

Status RemoteConsumer::RefreshAssignment() {
  GroupRequest heartbeat;
  heartbeat.group = options_.group;
  heartbeat.member = member_;
  std::string body;
  EncodeGroupRequest(heartbeat, &body);
  std::string response;
  STRATA_RETURN_IF_ERROR(Call(ApiKey::kHeartbeat, body, &response));
  HeartbeatResponse resp;
  STRATA_RETURN_IF_ERROR(DecodeHeartbeatResponse(response, &resp));

  if (resp.generation == 0 && joined_) {
    // The broker answering us has no record of the group: leadership moved
    // and group state is not replicated. Re-join on the new leader; the
    // client-side positions_ map carries consumption forward, so nothing
    // already consumed is replayed (beyond the usual at-least-once window).
    LOG_DEBUG << "net: group " << options_.group
              << " unknown on current broker, re-joining after failover";
    STRATA_RETURN_IF_ERROR(JoinOnCurrentLeader());
    heartbeat.member = member_;
    body.clear();
    EncodeGroupRequest(heartbeat, &body);
    STRATA_RETURN_IF_ERROR(Call(ApiKey::kHeartbeat, body, &response));
    STRATA_RETURN_IF_ERROR(DecodeHeartbeatResponse(response, &resp));
  }

  if (resp.generation == generation_ && !assigned_.empty()) {
    return Status::Ok();
  }
  generation_ = resp.generation;
  assigned_ = std::move(resp.assignment);

  // Mirror the embedded consumer: drop uncommitted progress for revoked
  // partitions so we never clobber the new owner's committed offsets.
  for (auto it = uncommitted_.begin(); it != uncommitted_.end();) {
    const bool still_assigned =
        std::find(assigned_.begin(), assigned_.end(), it->first) !=
        assigned_.end();
    it = still_assigned ? std::next(it) : uncommitted_.erase(it);
  }

  // Keep in-flight positions of retained partitions; resolve fresh ones from
  // the committed offset (when resume_committed), falling back to the reset
  // policy against topic metadata.
  std::map<ps::TopicPartition, std::int64_t> positions;
  std::vector<ps::TopicPartition> fresh;
  for (const ps::TopicPartition& tp : assigned_) {
    if (const auto it = positions_.find(tp); it != positions_.end()) {
      positions[tp] = it->second;
    } else {
      fresh.push_back(tp);
    }
  }

  if (!fresh.empty()) {
    OffsetFetchRequest req;
    req.group = options_.group;
    req.partitions = fresh;
    body.clear();
    EncodeOffsetFetchRequest(req, &body);
    STRATA_RETURN_IF_ERROR(Call(ApiKey::kOffsetFetch, body, &response));
    OffsetFetchResponse offsets;
    STRATA_RETURN_IF_ERROR(DecodeOffsetFetchResponse(response, &offsets));
    if (offsets.offsets.size() != fresh.size()) {
      return Status::Corruption("offset_fetch: response size mismatch");
    }

    MetadataResponse metadata;
    bool have_metadata = false;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      if (options_.resume_committed &&
          offsets.offsets[i] != OffsetFetchResponse::kNone) {
        positions[fresh[i]] = offsets.offsets[i];
        continue;
      }
      if (!have_metadata) {
        MetadataRequest meta_req;
        meta_req.topic = topic_;
        body.clear();
        EncodeMetadataRequest(meta_req, &body);
        STRATA_RETURN_IF_ERROR(Call(ApiKey::kMetadata, body, &response));
        STRATA_RETURN_IF_ERROR(DecodeMetadataResponse(response, &metadata));
        have_metadata = true;
      }
      if (metadata.topics.empty() ||
          static_cast<std::size_t>(fresh[i].partition) >=
              metadata.topics.front().partitions.size()) {
        return Status::Corruption("metadata: missing partition " +
                                  std::to_string(fresh[i].partition));
      }
      const auto& [start, end] =
          metadata.topics.front().partitions[fresh[i].partition];
      positions[fresh[i]] =
          options_.reset == ps::ConsumerOptions::AutoOffsetReset::kLatest
              ? end
              : start;
    }
  }
  positions_ = std::move(positions);
  return Status::Ok();
}

Result<std::vector<ps::ConsumedRecord>> RemoteConsumer::Poll(
    std::chrono::microseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  STRATA_RETURN_IF_ERROR(RefreshAssignment());

  std::vector<ps::ConsumedRecord> out;
  while (true) {
    if (assigned_.empty()) {
      // Nothing assigned (mid-rebalance, or more members than partitions):
      // wait out a slice rather than hammering the server with heartbeats.
      const auto now = std::chrono::steady_clock::now();
      if (timeout.count() == 0 || now >= deadline) break;
      std::this_thread::sleep_for(std::min(
          std::chrono::duration_cast<std::chrono::microseconds>(deadline - now),
          kFetchSlice));
    } else {
      FetchRequest req;
      req.entries.reserve(assigned_.size());
      for (const ps::TopicPartition& tp : assigned_) {
        FetchRequest::Entry entry;
        entry.tp = tp;
        entry.offset = positions_[tp];
        entry.max_records = options_.max_poll_records;
        req.entries.push_back(std::move(entry));
      }
      const auto now = std::chrono::steady_clock::now();
      const auto remaining =
          now < deadline
              ? std::chrono::duration_cast<std::chrono::microseconds>(
                    deadline - now)
              : std::chrono::microseconds{};
      const auto wait = std::min(remaining, kFetchSlice);
      req.max_wait_us = static_cast<std::uint64_t>(wait.count());

      std::string body;
      EncodeFetchRequest(req, &body);
      std::string response;
      STRATA_RETURN_IF_ERROR(Call(ApiKey::kFetch, body, &response,
                                  wait + std::chrono::seconds(1)));
      FetchResponse resp;
      STRATA_RETURN_IF_ERROR(DecodeFetchResponse(response, &resp));

      for (FetchResponse::Entry& entry : resp.entries) {
        // The server may have answered for a partition we no longer own
        // (rebalance raced the fetch); discard those records unseen.
        if (std::find(assigned_.begin(), assigned_.end(), entry.tp) ==
            assigned_.end()) {
          continue;
        }
        const std::size_t room = options_.max_poll_records > out.size()
                                     ? options_.max_poll_records - out.size()
                                     : 0;
        const std::size_t take = std::min(entry.records.size(), room);
        for (std::size_t i = 0; i < take; ++i) {
          out.push_back(std::move(entry.records[i]));
        }
        const std::int64_t next = take == entry.records.size()
                                      ? entry.next_offset
                                      : entry.records[take].offset;
        positions_[entry.tp] = next;
        uncommitted_[entry.tp] = next;
      }
    }
    if (!out.empty()) break;
    if (timeout.count() == 0) break;  // probe: empty Ok batch
    if (std::chrono::steady_clock::now() >= deadline) break;
    // Between long-poll slices, pick up any rebalance that happened while we
    // were parked on an idle partition set.
    STRATA_RETURN_IF_ERROR(RefreshAssignment());
  }

  if (options_.auto_commit && !out.empty()) STRATA_RETURN_IF_ERROR(Commit());
  if (out.empty() && timeout.count() > 0) {
    return Status::Timeout("Poll: no data before deadline");
  }
  return out;
}

Status RemoteConsumer::Commit() {
  if (uncommitted_.empty()) return Status::Ok();
  CommitOffsetRequest req;
  req.group = options_.group;
  req.offsets.assign(uncommitted_.begin(), uncommitted_.end());
  std::string body;
  EncodeCommitOffsetRequest(req, &body);
  std::string response;
  // Committing the same offsets twice is idempotent, so retry is safe.
  STRATA_RETURN_IF_ERROR(Call(ApiKey::kCommitOffset, body, &response));
  uncommitted_.clear();
  return Status::Ok();
}

Status RemoteConsumer::SeekToEnd() {
  STRATA_RETURN_IF_ERROR(RefreshAssignment());
  MetadataRequest req;
  req.topic = topic_;
  std::string body;
  EncodeMetadataRequest(req, &body);
  std::string response;
  STRATA_RETURN_IF_ERROR(Call(ApiKey::kMetadata, body, &response));
  MetadataResponse metadata;
  STRATA_RETURN_IF_ERROR(DecodeMetadataResponse(response, &metadata));
  if (metadata.topics.empty()) {
    return Status::NotFound("SeekToEnd: topic " + topic_);
  }
  const auto& partitions = metadata.topics.front().partitions;
  for (const ps::TopicPartition& tp : assigned_) {
    if (static_cast<std::size_t>(tp.partition) >= partitions.size()) {
      return Status::Corruption("metadata: missing partition " +
                                std::to_string(tp.partition));
    }
    positions_[tp] = partitions[tp.partition].second;
    uncommitted_[tp] = positions_[tp];
  }
  return Commit();
}

Status RemoteConsumer::Seek(const ps::TopicPartition& tp,
                            std::int64_t offset) {
  STRATA_RETURN_IF_ERROR(RefreshAssignment());
  if (std::find(assigned_.begin(), assigned_.end(), tp) == assigned_.end()) {
    return Status::InvalidArgument("Seek: partition not assigned: " +
                                   tp.topic + "/" +
                                   std::to_string(tp.partition));
  }
  MetadataRequest req;
  req.topic = tp.topic;
  std::string body;
  EncodeMetadataRequest(req, &body);
  std::string response;
  STRATA_RETURN_IF_ERROR(Call(ApiKey::kMetadata, body, &response));
  MetadataResponse metadata;
  STRATA_RETURN_IF_ERROR(DecodeMetadataResponse(response, &metadata));
  if (metadata.topics.empty()) {
    return Status::NotFound("Seek: topic " + tp.topic);
  }
  const auto& partitions = metadata.topics.front().partitions;
  if (static_cast<std::size_t>(tp.partition) >= partitions.size()) {
    return Status::Corruption("metadata: missing partition " +
                              std::to_string(tp.partition));
  }
  const auto& [start, end] = partitions[tp.partition];
  if (offset < start) {
    return Status::OutOfRange(
        "Seek: offset " + std::to_string(offset) + " below retention start " +
        std::to_string(start) + " for " + tp.topic + "/" +
        std::to_string(tp.partition));
  }
  if (offset > end) {
    return Status::OutOfRange("Seek: offset " + std::to_string(offset) +
                              " past log end " + std::to_string(end) +
                              " for " + tp.topic + "/" +
                              std::to_string(tp.partition));
  }
  positions_[tp] = offset;
  // The seek itself is not progress: nothing to commit until data is
  // consumed from the new position.
  uncommitted_.erase(tp);
  return Status::Ok();
}

// --- RemoteBroker -----------------------------------------------------------

Status RemoteBroker::CreateTopic(const std::string& name,
                                 const ps::TopicConfig& config) {
  CreateTopicRequest req;
  req.topic = name;
  req.config = config;
  std::string body;
  EncodeCreateTopic(req, &body);
  std::string response;
  return control_.Call(ApiKey::kCreateTopic, body, &response);
}

Result<std::unique_ptr<ps::ProducerClient>> RemoteBroker::NewProducer() {
  return std::unique_ptr<ps::ProducerClient>(
      std::make_unique<RemoteProducer>(options_));
}

Result<std::unique_ptr<ps::ConsumerClient>> RemoteBroker::NewConsumer(
    const std::string& topic, ps::ConsumerOptions options) {
  auto consumer = RemoteConsumer::Create(options_, topic, std::move(options));
  if (!consumer.ok()) return consumer.status();
  return std::unique_ptr<ps::ConsumerClient>(std::move(*consumer));
}

Result<MetadataResponse> RemoteBroker::Metadata(const std::string& topic) {
  MetadataRequest req;
  req.topic = topic;
  std::string body;
  EncodeMetadataRequest(req, &body);
  std::string response;
  STRATA_RETURN_IF_ERROR(control_.Call(ApiKey::kMetadata, body, &response));
  MetadataResponse resp;
  STRATA_RETURN_IF_ERROR(DecodeMetadataResponse(response, &resp));
  return resp;
}

}  // namespace strata::net
