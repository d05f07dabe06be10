// Minimal POSIX TCP socket wrapper used by the strata::net wire layer.
//
// Sockets are non-blocking internally; every operation takes an absolute
// monotonic deadline and multiplexes with poll(2), so callers get uniform
// Status::Timeout semantics for connect, read, and write without touching
// SO_RCVTIMEO. kNoDeadline blocks indefinitely (until the peer closes or
// Shutdown() is called from another thread).
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace strata::net {

/// Absolute deadline on the monotonic clock.
using Deadline = std::chrono::steady_clock::time_point;

/// Sentinel: no deadline, block until progress or peer close.
inline constexpr Deadline kNoDeadline = Deadline::max();

/// Deadline `timeout` from now.
[[nodiscard]] inline Deadline After(std::chrono::microseconds timeout) {
  return std::chrono::steady_clock::now() + timeout;
}

/// Splits "host:port" at the last ':'. The port must be all decimal digits
/// in 0–65535 (0 asks a listener for an ephemeral port); anything else —
/// no colon, an empty, signed, non-numeric or out-of-range port — returns
/// false and leaves `*host` and `*port` untouched.
[[nodiscard]] bool ParseHostPort(std::string_view addr, std::string* host,
                                 std::uint16_t* port);

/// A connected TCP stream. Move-only RAII over the file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connect to host:port (numeric or resolvable name). Status::Timeout when
  /// the deadline expires first, Unavailable when the peer refuses.
  [[nodiscard]] static Result<Socket> Connect(const std::string& host,
                                              std::uint16_t port,
                                              Deadline deadline);

  /// Read exactly `n` bytes into `buf`. Unavailable on orderly peer close,
  /// IoError on transport errors, Timeout past the deadline.
  [[nodiscard]] Status ReadFully(void* buf, std::size_t n, Deadline deadline);

  /// Write all of `pieces`, in order, as one byte stream: gathered writes
  /// (sendmsg), so the pieces are never copied into one buffer. Handles
  /// partial writes; SIGPIPE suppressed.
  [[nodiscard]] Status WriteAll(std::span<const std::string_view> pieces,
                                Deadline deadline);
  [[nodiscard]] Status WriteAll(std::string_view data, Deadline deadline) {
    return WriteAll(std::span(&data, 1), deadline);
  }

  /// One non-blocking read of at most `n` bytes. Returns the byte count
  /// (> 0), 0 when the socket would block, Unavailable on orderly peer
  /// close. Shares the "net.recv" failpoint with ReadFully.
  [[nodiscard]] Result<std::size_t> ReadSome(void* buf, std::size_t n);

  /// One non-blocking gathered write of `pieces` taken as one stream.
  /// Returns the bytes accepted (possibly 0 when the socket would block);
  /// Unavailable once the peer is gone. Shares the "net.send" failpoint
  /// (torn writes included) with WriteAll.
  [[nodiscard]] Result<std::size_t> WriteSome(
      std::span<const std::string_view> pieces);

  /// Half-close both directions: unblocks any thread inside ReadFully.
  void Shutdown() noexcept;
  void Close() noexcept;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
};

/// A listening TCP socket (SO_REUSEADDR, non-blocking accept loop).
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket() { Close(); }
  ListenSocket(ListenSocket&& other) noexcept : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
  }
  ListenSocket& operator=(ListenSocket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      port_ = other.port_;
      other.fd_ = -1;
    }
    return *this;
  }
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Bind and listen on host:port. Port 0 picks an ephemeral port; the
  /// chosen one is available via port().
  [[nodiscard]] static Result<ListenSocket> Listen(const std::string& host,
                                                   std::uint16_t port,
                                                   int backlog = 64);

  /// Wait up to `deadline` for one connection. Timeout when none arrives.
  [[nodiscard]] Result<Socket> Accept(Deadline deadline);

  void Close() noexcept;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace strata::net
