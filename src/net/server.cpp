#include "net/server.hpp"

#include <sys/epoll.h>

#include <algorithm>

#include "common/logging.hpp"
#include "net/server_conn.hpp"

namespace strata::net {

BrokerServer::BrokerServer(ps::Broker* broker, BrokerServerOptions options)
    : broker_(broker),
      options_(std::move(options)),
      ctx_(std::make_unique<ServerContext>()) {
  ctx_->broker = broker_;
  ctx_->options = &options_;
  ctx_->stopping = &stopping_;
  if (options_.metrics != nullptr) {
    ctx_->connections_gauge =
        options_.metrics->GetGauge("net.server.connections");
    ctx_->bytes_in = options_.metrics->GetCounter("net.server.bytes_in");
    ctx_->bytes_out = options_.metrics->GetCounter("net.server.bytes_out");
    ctx_->fetch_wakeups =
        options_.metrics->GetCounter("net.server.fetch_wakeups");
    for (auto key = static_cast<std::uint8_t>(ApiKey::kCreateTopic);
         key <= static_cast<std::uint8_t>(kLastApiKey); ++key) {
      const obs::Labels labels{{"api", ApiKeyName(static_cast<ApiKey>(key))}};
      ctx_->api_metrics[key] = {
          options_.metrics->GetCounter("net.server.requests", labels),
          options_.metrics->GetHistogram("net.server.request_latency_us",
                                         labels)};
    }
  }
  ctx_->on_closed = [this](ServerConnection* conn) {
    std::lock_guard lock(conns_mu_);
    conns_.erase(conn);
  };
}

BrokerServer::~BrokerServer() { Stop(); }

Status BrokerServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  auto listener = ListenSocket::Listen(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  port_ = listener_.port();
  stopping_.store(false, std::memory_order_relaxed);

  const std::size_t workers = std::max<std::size_t>(1, options_.event_loop_workers);
  loops_.clear();
  next_loop_ = 0;
  for (std::size_t i = 0; i < workers; ++i) {
    auto loop = std::make_unique<EventLoop>();
    if (Status s = loop->Start(); !s.ok()) {
      for (auto& started : loops_) started->Stop();
      loops_.clear();
      listener_.Close();
      return s;
    }
    loops_.push_back(std::move(loop));
  }

  Status armed = Status::Ok();
  loops_[0]->PostAndWait([this, &armed] {
    armed = loops_[0]->AddFd(listener_.fd(), EPOLLIN,
                             [this](std::uint32_t) { OnAcceptReady(); });
  });
  if (!armed.ok()) {
    for (auto& loop : loops_) loop->Stop();
    loops_.clear();
    listener_.Close();
    return armed;
  }

  started_ = true;
  LOG_INFO << "net: broker server listening on " << options_.host << ":"
           << port_ << " (" << workers << " event loops)";
  return Status::Ok();
}

void BrokerServer::OnAcceptReady() {
  for (;;) {
    if (stopping_.load(std::memory_order_relaxed)) return;
    // An already-expired deadline makes Accept non-blocking: it tries
    // accept(2) once (running the net.accept failpoint) and reports Timeout
    // when nothing is pending.
    auto accepted = listener_.Accept(std::chrono::steady_clock::now());
    if (!accepted.ok()) {
      if (accepted.status().IsTimeout()) return;  // listener drained
      if (!stopping_.load(std::memory_order_relaxed)) {
        LOG_ERROR << "net: accept failed: " << accepted.status().ToString();
      }
      // Hard accept error: stop accepting (connections keep being served).
      loops_[0]->DelFd(listener_.fd());
      return;
    }
    EventLoop* loop = loops_[next_loop_++ % loops_.size()].get();
    auto conn =
        std::make_shared<ServerConnection>(ctx_.get(), loop, std::move(*accepted));
    {
      std::lock_guard lock(conns_mu_);
      conns_.emplace(conn.get(), conn);
    }
    loop->Post([this, conn] {
      if (stopping_.load(std::memory_order_relaxed)) {
        conn->Close();
        return;
      }
      if (Status s = conn->Register(); !s.ok()) {
        LOG_WARN << "net: failed to register connection: " << s.ToString();
        conn->Close();
      }
    });
  }
}

void BrokerServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);

  // Disarm the accept handler before closing the listener fd: the barrier
  // also orders after any in-flight OnAcceptReady, so every adoption was
  // posted by the time it returns.
  loops_[0]->PostAndWait([this] { loops_[0]->DelFd(listener_.fd()); });
  listener_.Close();

  // Close every connection on its own loop; severed sockets promptly fail
  // any client blocked in a long-poll.
  std::vector<std::shared_ptr<ServerConnection>> snapshot;
  {
    std::lock_guard lock(conns_mu_);
    snapshot.reserve(conns_.size());
    for (const auto& [raw, shared] : conns_) snapshot.push_back(shared);
  }
  for (const auto& conn : snapshot) {
    conn->loop()->Post([conn] { conn->Close(); });
  }
  // Barrier: the close tasks queued above have run once this returns.
  for (auto& loop : loops_) loop->PostAndWait([] {});
  for (auto& loop : loops_) loop->Stop();
  snapshot.clear();
  {
    std::lock_guard lock(conns_mu_);
    conns_.clear();
  }
  loops_.clear();
  started_ = false;
}

}  // namespace strata::net
