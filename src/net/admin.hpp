// AdminServer: a minimal embedded HTTP endpoint for scraping and debugging.
//
// Serves GET requests only, HTTP/1.0 style: one request per connection,
// `Connection: close` on every response. That is all a Prometheus scraper,
// curl, or a load balancer health check needs, and it keeps the server free
// of keep-alive bookkeeping — the handler thread reads one request, writes
// one response, and exits.
//
// Thread-per-connection (unlike the epoll-reactor BrokerServer, which a
// scrape-rate endpoint does not need): Stop() closes the listener and shuts
// every connection socket down, which unblocks any handler parked in a read.
//
// The admin plane must never endanger the data plane: requests are parsed
// defensively (8 KiB header cap, 5 s read deadline), handler exceptions are
// turned into 500s, and the `net.admin.accept` / `net.admin.write`
// failpoints let chaos tests prove a dying admin endpoint cannot stall or
// crash the pipeline it observes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace strata::net {

struct AdminOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; the chosen one is available via port().
  std::uint16_t port = 0;
  /// Optional registry for net.admin.* metrics (request counters by path).
  obs::MetricsRegistry* metrics = nullptr;
};

class AdminServer {
 public:
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  /// Receives the raw query string (bytes after '?', possibly empty).
  /// Runs on the connection's handler thread; must be thread-safe.
  using Handler = std::function<Response(std::string_view query)>;

  explicit AdminServer(AdminOptions options = {});
  ~AdminServer();
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Register `handler` for exact-match `path` (e.g. "/metrics").
  /// Must be called before Start().
  void Route(std::string path, Handler handler);

  /// Bind, listen, and start the accept loop.
  [[nodiscard]] Status Start();

  /// Stop accepting, shut down every connection, join all threads.
  /// Idempotent.
  void Stop();

  /// Port actually bound (resolves an ephemeral bind). Valid after Start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const std::string& host() const noexcept {
    return options_.host;
  }

 private:
  struct Connection {
    explicit Connection(Socket s) : socket(std::move(s)) {}
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// Read the request head (line + headers) up to the size cap / deadline.
  [[nodiscard]] Status ReadRequestHead(Socket* socket, std::string* head);
  [[nodiscard]] Response Dispatch(std::string_view method,
                                  std::string_view target);

  void ReapFinishedLocked();  // REQUIRES mu_

  AdminOptions options_;
  std::map<std::string, Handler> routes_;
  ListenSocket listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::mutex mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace strata::net
