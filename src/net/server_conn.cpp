#include "net/server_conn.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <set>

#include "common/logging.hpp"
#include "fault/failpoint.hpp"
#include "net/frame.hpp"
#include "net/repl_hooks.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"

namespace strata::net {

namespace {

/// The read buffer: frame headers and the first bytes of their payloads.
constexpr std::size_t kReadBufferBytes = 64 * 1024;
/// Per-event read cap: level-triggered epoll re-notifies leftover data, so
/// bounding one event's work keeps one chatty client (or one 4 MB frame)
/// from starving the loop's other connections.
constexpr std::size_t kReadBytesPerEvent = 4 * kReadBufferBytes;
/// Upper bound on the views one gathered write hands to the socket.
constexpr std::size_t kWriteViews = 64;

/// Microseconds on the monotonic clock, for latency histograms.
std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Consumer-visible end of a partition: the local log end, clamped to the
/// replication high watermark when the broker is replicated — consumers must
/// never read records that a leader change could still truncate away.
std::int64_t VisibleEndOf(const ServerContext* ctx,
                          const ps::TopicPartition& tp, std::int64_t log_end) {
  ReplicationHooks* repl = ctx->options->repl;
  return repl != nullptr ? repl->VisibleEnd(tp, log_end) : log_end;
}

/// One non-blocking fetch pass over the request's partitions: the broker's
/// read pass, capped at the replication high watermark. It heals offsets
/// below the retention horizon upward, and an entry that read nothing
/// reports that healed offset as its next_offset, so the caller parks its
/// wait on offsets the log can actually reach — a wait keyed on the raw
/// client offset would see "data available" forever on a trimmed partition
/// and spin out its whole budget.
Status FetchOnce(const ServerContext* ctx, const FetchRequest& req,
                 FetchResponse* resp) {
  resp->entries.clear();
  resp->entries.reserve(req.entries.size());
  for (const FetchRequest::Entry& entry : req.entries) {
    // VisibleEnd of an unbounded end is the high watermark alone; the read
    // pass clamps to the log end itself.
    const std::int64_t limit = VisibleEndOf(
        ctx, entry.tp, std::numeric_limits<std::int64_t>::max());
    STRATA_RETURN_IF_ERROR(ctx->broker->Read(
        entry.tp, entry.offset, static_cast<std::size_t>(entry.max_records),
        &resp->entries.emplace_back(), limit));
  }
  return Status::Ok();
}

}  // namespace

ServerConnection::ServerConnection(ServerContext* ctx, EventLoop* loop,
                                   Socket socket)
    : ctx_(ctx),
      loop_(loop),
      socket_(std::move(socket)),
      wake_(std::make_shared<WakeTarget>()),
      rbuf_(kReadBufferBytes, '\0') {}

ServerConnection::~ServerConnection() = default;

Status ServerConnection::Register() {
  STRATA_RETURN_IF_ERROR(loop_->AddFd(
      socket_.fd(), EPOLLIN, [this](std::uint32_t ev) { OnIoEvent(ev); }));
  registered_ = true;
  {
    std::lock_guard lock(wake_->mu);
    wake_->loop = loop_;
  }
  wake_->conn = this;
  if (ctx_->connections_gauge != nullptr) ctx_->connections_gauge->Add(1);
  return Status::Ok();
}

void ServerConnection::Close() {
  if (closed_) return;
  closed_ = true;
  {
    std::lock_guard lock(wake_->mu);
    wake_->loop = nullptr;
  }
  wake_->conn = nullptr;
  for (ParkedFetch& parked : parked_) {
    for (const auto& [shard, id] : parked.waiters) {
      ctx_->broker->RemoveDataWaiter(shard, id);
    }
    if (parked.timer_id != 0) loop_->CancelTimer(parked.timer_id);
  }
  parked_.clear();
  for (ParkedProduce& parked : parked_produce_) {
    if (parked.timer_id != 0) loop_->CancelTimer(parked.timer_id);
    // The client is gone; the commit still completes server-side.
    ctx_->options->repl->CancelCommitWaiter(parked.waiter_id);
  }
  parked_produce_.clear();
  if (write_stall_timer_ != 0) {
    loop_->CancelTimer(write_stall_timer_);
    write_stall_timer_ = 0;
  }
  if (registered_) {
    loop_->DelFd(socket_.fd());
    if (ctx_->connections_gauge != nullptr) ctx_->connections_gauge->Sub(1);
  }
  // The connection is the group session: a dead client must release its
  // partitions so the remaining members rebalance instead of stalling.
  for (const auto& [group, member] : memberships_) {
    ctx_->broker->LeaveGroup(group, member);
  }
  memberships_.clear();
  socket_.Shutdown();
  socket_.Close();
  auto on_closed = ctx_->on_closed;
  if (on_closed) on_closed(this);  // may destroy *this; touch nothing after
}

void ServerConnection::ScheduleClose() {
  auto wake = wake_;
  loop_->Post([wake] {
    if (wake->conn != nullptr) wake->conn->Close();
  });
}

void ServerConnection::OnIoEvent(std::uint32_t events) {
  auto guard = wake_;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    Close();
    return;
  }
  if ((events & EPOLLIN) != 0) {
    OnReadable();
    if (guard->conn == nullptr) return;  // closed during read/dispatch
  }
  if ((events & EPOLLOUT) != 0) OnWritable();
}

void ServerConnection::OnReadable() {
  auto guard = wake_;
  std::size_t budget = kReadBytesPerEvent;
  while (!severing_ && budget > 0) {
    // A payload in progress is read straight into its own buffer; otherwise
    // the read buffer takes the next headers (only a partial header can be
    // left in it, so compacting moves at most a few bytes).
    char* dst = nullptr;
    std::size_t room = 0;
    if (partial_) {
      dst = partial_->data + partial_->filled;
      room = partial_->header.payload_len - partial_->filled;
    } else {
      if (rpos_ > 0) {
        std::memmove(rbuf_.data(), rbuf_.data() + rpos_, rend_ - rpos_);
        rend_ -= rpos_;
        rpos_ = 0;
      }
      dst = rbuf_.data() + rend_;
      room = rbuf_.size() - rend_;
    }
    const std::size_t want = std::min(room, budget);
    auto n = socket_.ReadSome(dst, want);
    if (!n.ok()) {
      // Orderly close, reset, or an injected net.recv fault: either way
      // this connection is done.
      Close();
      return;
    }
    if (*n == 0) break;  // drained
    budget -= *n;
    if (partial_) {
      partial_->filled += *n;
    } else {
      rend_ += *n;
    }
    ProcessInput();
    if (guard->conn == nullptr) return;  // closed during dispatch
    if (*n < want) break;  // the socket had no more for now
  }
}

void ServerConnection::ProcessInput() {
  auto guard = wake_;
  while (!severing_) {
    if (partial_) {
      if (partial_->filled < partial_->header.payload_len) return;
      const PartialFrame frame = std::move(*partial_);
      partial_.reset();
      const Status checked = CheckFramePayload(frame.header, frame.payload);
      if (!checked.ok()) {
        LOG_WARN << "net: dropping connection after corrupt frame: "
                 << checked.message();
        Close();
        return;
      }
      DispatchFrame(frame.payload, frame.header.trace,
                    frame.header.correlation);
      if (guard->conn == nullptr) return;  // closed during dispatch
      continue;
    }
    if (rend_ - rpos_ < kFrameHeaderBytes) return;
    FrameHeader header;
    const Status parsed = ParseFrameHeader(
        std::string_view(rbuf_).substr(rpos_, kFrameHeaderBytes), &header);
    if (!parsed.ok()) {
      // A corrupt length desynchronizes the stream; nothing after it can be
      // trusted, so drop the connection without answering.
      LOG_WARN << "net: dropping connection after corrupt frame: "
               << parsed.message();
      Close();
      return;
    }
    rpos_ += kFrameHeaderBytes;
    // Every payload gets a buffer of its own, because a Produce value stays
    // in the log as a slice of it. What already arrived moves over; the
    // rest is read into it directly.
    PartialFrame& frame = partial_.emplace();
    frame.header = header;
    frame.payload = ps::Bytes::Allocate(header.payload_len, &frame.data);
    frame.filled = std::min<std::size_t>(rend_ - rpos_, header.payload_len);
    std::memcpy(frame.data, rbuf_.data() + rpos_, frame.filled);
    rpos_ += frame.filled;
  }
}

void ServerConnection::DispatchFrame(const ps::Bytes& payload,
                                     const TraceContext& trace,
                                     std::uint64_t correlation) {
  if (ctx_->bytes_in != nullptr) {
    ctx_->bytes_in->Inc(kFrameHeaderBytes + payload.size());
  }
  std::optional<Reply> reply;
  Status handled;
  {
    // Server-side hop of a traced request: dur covers dispatch; the client
    // frame span is the parent.
    obs::SpanScope span;
    if (trace.sampled() && obs::TracingEnabled()) {
      span = obs::SpanScope("server.dispatch", "net", trace);
    }
    handled = HandleRequest(payload, trace, correlation, &reply);
  }
  // Failpoint "net.server.dispatch": sever the connection after the request
  // was applied but before the response goes out — the crash window that
  // makes produce at-least-once (the client retries an applied request).
  if (fault::AnyActive() && !fault::Evaluate("net.server.dispatch").ok()) {
    LOG_WARN << "net: dropping connection at net.server.dispatch failpoint";
    Close();
    return;
  }
  // A parked request is answered when the park resolves; an envelope that
  // did not decode leaves nothing to answer.
  if (reply) {
    QueueResponse(reply->status, std::move(reply->body), trace, correlation);
  }
  if (!handled.ok()) {
    // The error response (if any) is queued above; now sever — a corrupt
    // body means the next frame boundary cannot be trusted, and a client
    // that skipped or failed Hello does not speak this protocol.
    LOG_WARN << "net: dropping connection: " << handled.ToString();
    Sever();
  }
}

Status ServerConnection::HandleRequest(const ps::Bytes& payload,
                                       const TraceContext& trace,
                                       std::uint64_t correlation,
                                       std::optional<Reply>* reply) {
  ApiKey api{};
  std::string_view body;
  Status decoded = DecodeRequest(payload, &api, &body);
  if (!decoded.ok()) return decoded;  // cannot even answer: drop connection
  if (!hello_done_ && api != ApiKey::kHello) {
    const Status refused = Status::InvalidArgument(
        std::string("protocol: Hello required before ") + ApiKeyName(api));
    reply->emplace(Reply{refused, {}});
    return refused;
  }

  ps::Broker* broker = ctx_->broker;
  const auto [requests, latency] =
      ctx_->api_metrics[static_cast<std::size_t>(api)];
  const std::int64_t start_us = NowUs();

  Status status = Status::Ok();
  Pieces out;
  switch (api) {
    case ApiKey::kCreateTopic: {
      CreateTopicRequest req;
      status = DecodeCreateTopic(body, &req);
      if (status.ok()) status = broker->CreateTopic(req.topic, req.config);
      break;
    }
    case ApiKey::kMetadata: {
      MetadataRequest req;
      status = DecodeMetadataRequest(body, &req);
      if (status.ok()) {
        MetadataResponse resp;
        std::vector<std::string> topics;
        if (req.topic.empty()) {
          topics = broker->ListTopics();
        } else {
          topics.push_back(req.topic);
        }
        for (const std::string& topic : topics) {
          auto stats = broker->GetTopicStats(topic);
          if (!stats.ok()) {
            status = stats.status();
            break;
          }
          resp.topics.push_back(TopicMetadata{topic, stats->offsets});
        }
        if (status.ok()) EncodeMetadataResponse(resp, out.out());
      }
      break;
    }
    case ApiKey::kProduce: {
      // The value is a slice of the frame's buffer; the log keeps it so.
      ProduceRequest req;
      status = DecodeProduceRequest(payload.Slice(body), &req);
      ReplicationHooks* repl = ctx_->options->repl;
      if (status.ok() && repl != nullptr) {
        // Replicated topics only accept produces on the leader; the error
        // names the current leader so clients refresh metadata and re-route.
        status = repl->CheckProduce(req.topic);
      }
      if (status.ok()) {
        auto appended = broker->Produce(req.topic, std::move(req.record));
        status = appended.status();
        if (status.ok()) {
          const ProduceResponse resp{appended->first, appended->second};
          if (req.acks == ProduceAcks::kQuorum && repl != nullptr &&
              repl->ManagesTopic(req.topic)) {
            // The append succeeded locally; hold the response until a
            // majority of the replica set confirms it (or the quorum
            // timeout answers Timeout — the client retry is at-least-once).
            ParkProduce(req.topic, resp, trace, correlation);
            if (requests != nullptr) requests->Inc();
            return Status::Ok();
          }
          EncodeProduceResponse(resp, out.out());
        }
      }
      break;
    }
    case ApiKey::kFetch: {
      bool parked = false;
      status = HandleFetch(body, trace, correlation, &out, &parked);
      if (parked) {
        // The response is queued when the park resolves; count the request
        // now (latency histograms cover only non-parked requests).
        if (requests != nullptr) requests->Inc();
        return Status::Ok();
      }
      break;
    }
    case ApiKey::kJoinGroup: {
      GroupRequest req;
      status = DecodeGroupRequest(body, &req);
      if (status.ok()) {
        auto member = broker->JoinGroup(req.group, req.topic);
        status = member.status();
        if (status.ok()) {
          memberships_.emplace_back(req.group, *member);
          EncodeJoinGroupResponse(JoinGroupResponse{*member}, out.out());
        }
      }
      break;
    }
    case ApiKey::kLeaveGroup: {
      GroupRequest req;
      status = DecodeGroupRequest(body, &req);
      if (status.ok()) {
        broker->LeaveGroup(req.group, req.member);
        std::erase(memberships_, std::pair{req.group, req.member});
      }
      break;
    }
    case ApiKey::kHeartbeat: {
      GroupRequest req;
      status = DecodeGroupRequest(body, &req);
      if (status.ok()) {
        HeartbeatResponse resp;
        resp.assignment =
            broker->Assignment(req.group, req.member, &resp.generation);
        EncodeHeartbeatResponse(resp, out.out());
      }
      break;
    }
    case ApiKey::kCommitOffset: {
      CommitOffsetRequest req;
      status = DecodeCommitOffsetRequest(body, &req);
      for (const auto& [tp, offset] : req.offsets) {
        if (!status.ok()) break;
        status = broker->CommitOffset(req.group, tp, offset);
      }
      break;
    }
    case ApiKey::kOffsetFetch: {
      OffsetFetchRequest req;
      status = DecodeOffsetFetchRequest(body, &req);
      if (status.ok()) {
        OffsetFetchResponse resp;
        resp.offsets.reserve(req.partitions.size());
        for (const ps::TopicPartition& tp : req.partitions) {
          auto committed = broker->CommittedOffset(req.group, tp);
          if (committed.ok()) {
            resp.offsets.push_back(*committed);
          } else if (committed.status().IsNotFound()) {
            resp.offsets.push_back(OffsetFetchResponse::kNone);
          } else {
            status = committed.status();
            break;
          }
        }
        if (status.ok()) EncodeOffsetFetchResponse(resp, out.out());
      }
      break;
    }
    case ApiKey::kHello: {
      HelloRequest req;
      status = DecodeHelloRequest(body, &req);
      if (status.ok() && req.version != kProtocolVersion) {
        status = Status::InvalidArgument(
            "protocol version mismatch: client speaks v" +
            std::to_string(req.version) + ", server speaks v" +
            std::to_string(kProtocolVersion));
      }
      hello_done_ = status.ok();
      if (hello_done_) EncodeHelloResponse(HelloResponse{}, out.out());
      break;
    }
    case ApiKey::kReplicaFetch: {
      ReplicaFetchRequest req;
      status = DecodeReplicaFetchRequest(body, &req);
      if (status.ok()) {
        ReplicationHooks* repl = ctx_->options->repl;
        if (repl == nullptr) {
          status = Status::InvalidArgument("replication not enabled");
        } else {
          ReplicaFetchResponse resp;
          status = repl->HandleReplicaFetch(req, &resp);
          if (status.ok()) EncodeReplicaFetchResponse(resp, &out);
        }
      }
      break;
    }
    case ApiKey::kReplicaAck: {
      ReplicaAckRequest req;
      status = DecodeReplicaAckRequest(body, &req);
      if (status.ok()) {
        ReplicationHooks* repl = ctx_->options->repl;
        if (repl == nullptr) {
          status = Status::InvalidArgument("replication not enabled");
        } else {
          ReplicaAckResponse resp;
          status = repl->HandleReplicaAck(req, &resp);
          if (status.ok()) EncodeReplicaAckResponse(resp, out.out());
        }
      }
      break;
    }
    case ApiKey::kPromoteLeader: {
      PromoteLeaderRequest req;
      status = DecodePromoteLeaderRequest(body, &req);
      if (status.ok()) {
        ReplicationHooks* repl = ctx_->options->repl;
        if (repl == nullptr) {
          status = Status::InvalidArgument("replication not enabled");
        } else {
          PromoteLeaderResponse resp;
          status = repl->HandlePromoteLeader(req, &resp);
          if (status.ok()) EncodePromoteLeaderResponse(resp, out.out());
        }
      }
      break;
    }
    case ApiKey::kClusterMeta: {
      ClusterMetaRequest req;
      status = DecodeClusterMetaRequest(body, &req);
      if (status.ok()) {
        ReplicationHooks* repl = ctx_->options->repl;
        if (repl == nullptr) {
          status = Status::InvalidArgument("replication not enabled");
        } else {
          ClusterMetaResponse resp;
          status = repl->HandleClusterMeta(req, &resp);
          if (status.ok()) EncodeClusterMetaResponse(resp, out.out());
        }
      }
      break;
    }
  }

  if (requests != nullptr) requests->Inc();
  if (latency != nullptr) latency->Record(NowUs() - start_us);

  // A malformed body means the client and server disagree about the protocol
  // (or the frame CRC missed something), and so does a failed Hello: answer
  // with the error once, then sever.
  const bool sever = status.IsCorruption() || !hello_done_;
  reply->emplace(Reply{status, std::move(out)});
  return sever ? status : Status::Ok();
}

Status ServerConnection::HandleFetch(std::string_view body,
                                     const TraceContext& trace,
                                     std::uint64_t correlation, Pieces* out,
                                     bool* parked) {
  FetchRequest req;
  STRATA_RETURN_IF_ERROR(DecodeFetchRequest(body, &req));

  const auto wait_budget = std::min(
      std::chrono::microseconds(static_cast<std::int64_t>(req.max_wait_us)),
      ctx_->options->max_fetch_wait);

  ps::Broker* broker = ctx_->broker;
  FetchResponse resp;
  STRATA_RETURN_IF_ERROR(FetchOnce(ctx_, req, &resp));
  const bool stopping = ctx_->stopping->load(std::memory_order_relaxed);
  if (!resp.empty() || req.entries.empty() ||
      wait_budget <= std::chrono::microseconds::zero() || stopping ||
      broker->closed()) {
    EncodeFetchResponse(resp, out);
    return Status::Ok();
  }

  // Park: register one waiter per involved shard, whose wake-up posts a
  // retry onto this loop; a timer bounds the wait at the deadline.
  ParkedFetch parked_fetch;
  parked_fetch.id = next_parked_id_++;
  parked_fetch.req = std::move(req);
  parked_fetch.deadline = After(wait_budget);
  parked_fetch.trace = trace;
  parked_fetch.correlation = correlation;
  parked_.push_back(std::move(parked_fetch));
  auto it = std::prev(parked_.end());

  std::set<std::size_t> shards;
  for (const FetchRequest::Entry& entry : it->req.entries) {
    shards.insert(broker->ShardOf(entry.tp.topic, entry.tp.partition));
  }
  auto wake = wake_;
  for (std::size_t shard : shards) {
    const ps::Broker::WaiterId id = broker->AddDataWaiter(shard, [wake] {
      // Any thread. Collapse bursts: one retry covers every append that
      // landed before it runs.
      if (wake->retry_pending.exchange(true, std::memory_order_acq_rel)) {
        return;
      }
      std::lock_guard lock(wake->mu);
      if (wake->loop == nullptr) return;  // connection closed
      wake->loop->Post([wake] {
        wake->retry_pending.store(false, std::memory_order_release);
        if (wake->conn != nullptr) wake->conn->RetryParkedFetches();
      });
    });
    it->waiters.emplace_back(shard, id);
  }

  // Recheck after registering — an append between the empty pass above and
  // the registration would otherwise be missed until the next one. The
  // check keys on the *healed* offsets: the raw client offset can sit below
  // the retention horizon, where "end > offset" is forever true even though
  // the pass above already proved there is nothing readable, and waiting on
  // it would spin the whole budget away.
  bool data_now = broker->closed() ||
                  ctx_->stopping->load(std::memory_order_relaxed);
  if (!data_now) {
    for (const ps::PartitionRead& read : resp.entries) {
      auto log = broker->GetLog(read.tp.topic, read.tp.partition);
      // Like FetchOnce, "data available" means visible data: records above
      // the replication high watermark wake us (the hooks notify on HW
      // advance) but must not complete the long-poll early.
      if (!log.ok() || VisibleEndOf(ctx_, read.tp, (*log)->EndOffset()) >
                           read.next_offset) {
        data_now = true;
        break;
      }
    }
  }
  if (data_now) {
    FetchResponse now_resp;
    Status st = broker->closed() ? Status::Closed("broker closed")
                                 : FetchOnce(ctx_, it->req, &now_resp);
    FinishParked(it, st, now_resp);
  } else {
    const std::uint64_t parked_id = it->id;
    it->timer_id = loop_->AddTimer(it->deadline, [this, parked_id] {
      // Timers are canceled on Close(), so `this` is alive here.
      for (auto pit = parked_.begin(); pit != parked_.end(); ++pit) {
        if (pit->id != parked_id) continue;
        pit->timer_id = 0;  // firing now; nothing to cancel
        FetchResponse resp;
        Status st = ctx_->broker->closed()
                        ? Status::Closed("broker closed")
                        : FetchOnce(ctx_, pit->req, &resp);
        FinishParked(pit, st, resp);
        break;
      }
    });
  }
  *parked = true;
  return Status::Ok();
}

void ServerConnection::RetryParkedFetches() {
  auto guard = wake_;
  if (ctx_->fetch_wakeups != nullptr) ctx_->fetch_wakeups->Inc();
  const auto now = std::chrono::steady_clock::now();
  const bool stopping = ctx_->stopping->load(std::memory_order_relaxed);
  for (auto it = parked_.begin(); it != parked_.end();) {
    auto next = std::next(it);
    if (ctx_->broker->closed()) {
      FinishParked(it, Status::Closed("broker closed"), FetchResponse{});
    } else {
      FetchResponse resp;
      Status st = FetchOnce(ctx_, it->req, &resp);
      if (!st.ok()) {
        FinishParked(it, st, FetchResponse{});
      } else if (!resp.empty() || now >= it->deadline || stopping) {
        FinishParked(it, Status::Ok(), resp);
      }
    }
    if (guard->conn == nullptr) return;
    it = next;
  }
}

void ServerConnection::FinishParked(std::list<ParkedFetch>::iterator it,
                                    const Status& status,
                                    const FetchResponse& resp) {
  for (const auto& [shard, id] : it->waiters) {
    ctx_->broker->RemoveDataWaiter(shard, id);
  }
  if (it->timer_id != 0) loop_->CancelTimer(it->timer_id);
  Pieces body;
  if (status.ok()) EncodeFetchResponse(resp, &body);
  const TraceContext trace = it->trace;
  const std::uint64_t correlation = it->correlation;
  parked_.erase(it);
  QueueResponse(status, std::move(body), trace, correlation);
}

void ServerConnection::CompleteAllParked() {
  auto guard = wake_;
  while (!parked_.empty()) {
    auto it = parked_.begin();
    FetchResponse resp;
    Status st = ctx_->broker->closed() ? Status::Closed("broker closed")
                                       : FetchOnce(ctx_, it->req, &resp);
    FinishParked(it, st, resp);
    if (guard->conn == nullptr) return;
  }
}

void ServerConnection::ParkProduce(const std::string& topic,
                                   const ProduceResponse& resp,
                                   const TraceContext& trace,
                                   std::uint64_t correlation) {
  ParkedProduce parked;
  parked.id = next_parked_id_++;
  parked.resp = resp;
  parked.trace = trace;
  parked.correlation = correlation;
  parked_produce_.push_back(std::move(parked));
  auto it = std::prev(parked_produce_.end());
  const std::uint64_t parked_id = it->id;

  // The commit callback may fire on any thread — inline included, when the
  // quorum already covers the offset — so it only posts through the wake
  // bridge; the posted task runs on this loop after the current dispatch.
  auto wake = wake_;
  it->waiter_id = ctx_->options->repl->AddCommitWaiter(
      ps::TopicPartition{topic, resp.partition}, resp.offset,
      [wake, parked_id](Status st) {
        std::lock_guard lock(wake->mu);
        if (wake->loop == nullptr) return;  // connection closed
        wake->loop->Post([wake, parked_id, st = std::move(st)] {
          if (wake->conn != nullptr) {
            wake->conn->FinishParkedProduce(parked_id, st);
          }
        });
      });
  it->timer_id =
      loop_->AddTimer(After(ctx_->options->quorum_ack_timeout), [this, parked_id] {
        // Timers are canceled on Close(), so `this` is alive here.
        for (auto pit = parked_produce_.begin(); pit != parked_produce_.end();
             ++pit) {
          if (pit->id != parked_id) continue;
          pit->timer_id = 0;  // firing now; nothing to cancel
          FinishParkedProduce(
              parked_id,
              Status::Timeout("quorum ack timeout: append applied on the "
                              "leader but a majority has not confirmed it"));
          break;
        }
      });
}

void ServerConnection::FinishParkedProduce(std::uint64_t id,
                                           const Status& status) {
  for (auto it = parked_produce_.begin(); it != parked_produce_.end(); ++it) {
    if (it->id != id) continue;
    if (it->timer_id != 0) loop_->CancelTimer(it->timer_id);
    // No-op when the waiter already fired; required when the timer won the
    // race so a late commit cannot resurrect the erased entry.
    ctx_->options->repl->CancelCommitWaiter(it->waiter_id);
    Pieces body;
    if (status.ok()) EncodeProduceResponse(it->resp, body.out());
    const TraceContext trace = it->trace;
    const std::uint64_t correlation = it->correlation;
    parked_produce_.erase(it);
    QueueResponse(status, std::move(body), trace, correlation);
    return;
  }
}

void ServerConnection::QueueResponse(const Status& status, Pieces body,
                                     const TraceContext& trace,
                                     std::uint64_t correlation) {
  // Echo the request's trace, so the reply leg is attributable to the same
  // trace, and its correlation id, so a pipelining client can match
  // out-of-order completions. The body (record values included) is queued
  // as it is and goes out in gathered writes.
  OutFrame& frame = wqueue_.emplace_back();
  frame.head.assign(kFrameHeaderBytes, '\0');
  EncodeResponse(status, {}, &frame.head);  // the body follows only on Ok
  if (status.ok()) frame.body = std::move(body);
  wviews_.assign(
      {std::string_view(frame.head).substr(kFrameHeaderBytes)});
  frame.body.AppendViews(&wviews_);
  EncodeFrameHeader(wviews_, trace, correlation, frame.head.data());
  frame.bytes = frame.head.size() + frame.body.size();
  if (ctx_->bytes_out != nullptr) ctx_->bytes_out->Inc(frame.bytes);
  StartWrite();
}

void ServerConnection::StartWrite() {
  while (!wqueue_.empty()) {
    // Gather the queued frames' pieces, resuming where the last write
    // stopped inside the front frame.
    wviews_.clear();
    for (const OutFrame& frame : wqueue_) {
      wviews_.push_back(frame.head);
      frame.body.AppendViews(&wviews_);
      if (wviews_.size() >= kWriteViews) break;
    }
    auto first = wviews_.begin();
    std::size_t skip = wpos_;
    while (skip >= first->size()) {
      skip -= first->size();
      ++first;
    }
    first->remove_prefix(skip);
    auto n = socket_.WriteSome(std::span(first, wviews_.end()));
    if (!n.ok()) {
      ScheduleClose();
      return;
    }
    if (*n == 0) break;  // kernel buffer full
    last_write_progress_ = std::chrono::steady_clock::now();
    wpos_ += *n;
    while (!wqueue_.empty() && wpos_ >= wqueue_.front().bytes) {
      wpos_ -= wqueue_.front().bytes;
      wqueue_.pop_front();
    }
  }
  if (wqueue_.empty()) {
    ArmWrite(false);
    // A severed connection closes once everything queued went out.
    if (severing_) ScheduleClose();
  } else {
    ArmWrite(true);
    EnsureWriteStallTimer();
  }
}

void ServerConnection::OnWritable() { StartWrite(); }

void ServerConnection::ArmWrite(bool want) {
  if (want == want_write_) return;
  want_write_ = want;
  std::uint32_t events = 0;
  if (want) events |= EPOLLOUT;
  if (!severing_) events |= EPOLLIN;
  (void)loop_->ModFd(socket_.fd(), events);
}

void ServerConnection::EnsureWriteStallTimer() {
  if (write_stall_timer_ != 0) return;
  const auto timeout = ctx_->options->write_timeout;
  write_stall_timer_ =
      loop_->AddTimer(last_write_progress_ + timeout, [this, timeout] {
        write_stall_timer_ = 0;
        if (!want_write_) return;  // drained in the meantime
        const auto now = std::chrono::steady_clock::now();
        if (now - last_write_progress_ >= timeout) {
          LOG_WARN << "net: dropping connection: write stalled";
          Close();
          return;
        }
        EnsureWriteStallTimer();
      });
}

void ServerConnection::Sever() {
  if (severing_ || closed_) return;
  severing_ = true;
  // Stop reading (level-triggered epoll would spin on unread bytes).
  (void)loop_->ModFd(socket_.fd(),
                     want_write_ ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  auto guard = wake_;
  // Earlier pipelined fetches still get answered — with whatever data
  // exists right now — before the connection goes away.
  CompleteAllParked();
  if (guard->conn == nullptr) return;
  StartWrite();  // closes once the queued responses have drained
}

}  // namespace strata::net
