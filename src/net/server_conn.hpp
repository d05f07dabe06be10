// Per-connection state machine for the BrokerServer's epoll reactor.
//
// A ServerConnection lives on exactly one EventLoop; every member is
// touched only by that loop's thread, so there are no locks on the hot
// path. The machine is: readable socket -> frame parser (incremental, see
// net/frame.hpp) -> dispatch -> response queue -> writable socket.
//
// The first frame must be a Hello with a matching protocol version; anything
// else is answered with an error and the connection is severed.
//
// Pipelining: a client may send many requests without reading responses.
// Each response is written the moment it is ready and echoes its request's
// correlation id (which tells the client which request completed), so a
// parked Fetch never delays a pipelined Produce.
//
// Long-poll Fetch never blocks a thread: when a fetch finds no data and has
// wait budget, the connection registers a waiter callback on each broker
// shard involved (ps::Broker::AddDataWaiter) and parks the request. An
// append to any watched shard posts a retry onto the connection's loop; a
// loop timer bounds the wait at the request's deadline.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/trace_context.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "pubsub/broker.hpp"

namespace strata::net {

struct BrokerServerOptions;
class ServerConnection;

/// Server-wide state shared (read-only or internally synchronized) by every
/// connection. Owned by the BrokerServer, which outlives all connections.
struct ServerContext {
  ps::Broker* broker = nullptr;
  const BrokerServerOptions* options = nullptr;
  std::atomic<bool>* stopping = nullptr;
  obs::Gauge* connections_gauge = nullptr;
  obs::Counter* bytes_in = nullptr;
  obs::Counter* bytes_out = nullptr;
  /// Parked long-poll fetch retries (one per shard wake-up that reached a
  /// connection). Bounded per fetch when waits park on healed offsets; the
  /// regression tests assert it stays small.
  obs::Counter* fetch_wakeups = nullptr;
  /// net.server.requests{api} and net.server.request_latency_us{api},
  /// resolved once per ApiKey (indexed by its value) so a request never
  /// takes the registry mutex. Null without a registry.
  struct ApiMetrics {
    obs::Counter* requests = nullptr;
    obs::HistogramMetric* latency = nullptr;
  };
  std::array<ApiMetrics, static_cast<std::size_t>(kLastApiKey) + 1>
      api_metrics{};
  /// Invoked on the connection's loop thread as the connection's very last
  /// act; must drop the owning reference (may destroy the connection).
  std::function<void(ServerConnection*)> on_closed;
};

class ServerConnection {
 public:
  /// Takes ownership of the accepted socket. `ctx` and `loop` must outlive
  /// the connection.
  ServerConnection(ServerContext* ctx, EventLoop* loop, Socket socket);
  ~ServerConnection();
  ServerConnection(const ServerConnection&) = delete;
  ServerConnection& operator=(const ServerConnection&) = delete;

  /// Register the socket with the loop. Loop thread only.
  [[nodiscard]] Status Register();

  /// Tear down immediately: unregister broker waiters, cancel timers, leave
  /// groups, close the socket, and hand the connection back through
  /// ServerContext::on_closed. Loop thread only; idempotent.
  void Close();

  [[nodiscard]] EventLoop* loop() const noexcept { return loop_; }

 private:
  /// A long-poll Fetch waiting for data: holds its response routing (trace
  /// and correlation id), the broker waiters it registered, and its
  /// deadline timer.
  struct ParkedFetch {
    std::uint64_t id = 0;
    FetchRequest req;
    Deadline deadline;
    TraceContext trace;
    std::uint64_t correlation = 0;
    std::vector<std::pair<std::size_t, ps::Broker::WaiterId>> waiters;
    std::uint64_t timer_id = 0;
  };

  /// An acks=quorum Produce whose append succeeded on the leader, parked
  /// until the replication high watermark covers its offset (or the quorum
  /// ack timeout fires). Mirrors ParkedFetch: holds its response routing
  /// plus the repl commit waiter and the deadline timer.
  struct ParkedProduce {
    std::uint64_t id = 0;
    ProduceResponse resp;
    TraceContext trace;
    std::uint64_t correlation = 0;
    std::uint64_t waiter_id = 0;
    std::uint64_t timer_id = 0;
  };

  /// Bridge for broker waiter callbacks and deferred tasks, which can fire
  /// from any thread and outlive the connection. `loop` is guarded by `mu`
  /// and nulled when the connection closes; `conn` is loop-thread-only and
  /// nulled at the same point, so a late callback or task degrades to a
  /// no-op instead of a use-after-free.
  struct WakeTarget {
    std::mutex mu;
    EventLoop* loop = nullptr;  // guarded by mu
    ServerConnection* conn = nullptr;  // loop thread only
    std::atomic<bool> retry_pending{false};
  };

  /// A response to queue: the application status and, on Ok, its body.
  struct Reply {
    Status status;
    Pieces body;
  };

  /// A frame whose header is parsed and whose payload is being read
  /// straight into its own buffer (`data` is that buffer's one writer).
  struct PartialFrame {
    FrameHeader header;
    ps::Bytes payload;
    char* data = nullptr;
    std::size_t filled = 0;
  };

  /// A queued outgoing frame: the 32-byte header and the response envelope
  /// in `head`, then the body's pieces (record values by reference).
  struct OutFrame {
    std::string head;
    Pieces body;
    std::size_t bytes = 0;  // head + body
  };

  void OnIoEvent(std::uint32_t events);
  void OnReadable();
  void OnWritable();
  /// Parse frame headers out of the read buffer and dispatch every frame
  /// whose payload is complete.
  void ProcessInput();
  void DispatchFrame(const ps::Bytes& payload, const TraceContext& trace,
                     std::uint64_t correlation);

  /// Decode, dispatch, and encode one request. The returned status is the
  /// *transport* outcome; application errors travel inside the reply. Leaves
  /// `*reply` empty when the envelope did not decode (nothing to answer) or
  /// when the request parked (it is answered when the park resolves).
  [[nodiscard]] Status HandleRequest(const ps::Bytes& payload,
                                     const TraceContext& trace,
                                     std::uint64_t correlation,
                                     std::optional<Reply>* reply);
  [[nodiscard]] Status HandleFetch(std::string_view body,
                                   const TraceContext& trace,
                                   std::uint64_t correlation, Pieces* out,
                                   bool* parked);

  /// Re-run every parked fetch after a shard wake-up; completes the ready
  /// ones.
  void RetryParkedFetches();
  /// Complete one parked fetch: unregister waiters, cancel its timer, and
  /// queue the response.
  void FinishParked(std::list<ParkedFetch>::iterator it, const Status& status,
                    const FetchResponse& resp);
  /// Complete every parked fetch with whatever data exists right now (used
  /// when severing, so earlier pipelined fetches still get answered).
  void CompleteAllParked();

  /// Park an applied acks=quorum produce on the replication hooks' commit
  /// waiter; the response goes out when the quorum confirms (or Timeout).
  void ParkProduce(const std::string& topic, const ProduceResponse& resp,
                   const TraceContext& trace, std::uint64_t correlation);
  /// Complete one parked produce by id (commit callback or timeout); no-op
  /// when the other of the two already resolved it.
  void FinishParkedProduce(std::uint64_t id, const Status& status);

  /// Frame a response (`status`, then `body` on Ok), echoing the request's
  /// trace and correlation id, and queue it for writing.
  void QueueResponse(const Status& status, Pieces body,
                     const TraceContext& trace, std::uint64_t correlation);
  /// Push the queued frames out in gathered writes; arms EPOLLOUT when the
  /// socket backpressures and schedules the close once a severed
  /// connection fully drains.
  void StartWrite();
  void ArmWrite(bool want);
  void EnsureWriteStallTimer();

  /// Stop reading, answer everything in flight, close once drained.
  void Sever();
  /// Post a Close() onto the loop (safe from inside list iteration).
  void ScheduleClose();

  ServerContext* ctx_;
  EventLoop* loop_;
  Socket socket_;
  std::shared_ptr<WakeTarget> wake_;

  /// Bytes read but not yet parsed: [rpos_, rend_) of a fixed-size buffer.
  /// Only frame headers are parsed here; every payload is moved to its own
  /// buffer (partial_) at once.
  std::string rbuf_;
  std::size_t rpos_ = 0;
  std::size_t rend_ = 0;
  std::optional<PartialFrame> partial_;
  std::deque<OutFrame> wqueue_;
  std::size_t wpos_ = 0;  // bytes of wqueue_.front() already written
  std::vector<std::string_view> wviews_;  // StartWrite's gather list
  bool want_write_ = false;
  bool severing_ = false;
  bool closed_ = false;
  bool registered_ = false;

  /// Set by a Hello with a matching version; until then every other request
  /// is refused and severs the connection.
  bool hello_done_ = false;
  /// Groups joined through this connection; auto-left on disconnect.
  std::vector<std::pair<std::string, ps::MemberId>> memberships_;

  std::list<ParkedFetch> parked_;
  std::list<ParkedProduce> parked_produce_;
  std::uint64_t next_parked_id_ = 1;

  std::uint64_t write_stall_timer_ = 0;
  std::chrono::steady_clock::time_point last_write_progress_{};
};

}  // namespace strata::net
