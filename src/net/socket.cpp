#include "net/socket.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

#include "fault/failpoint.hpp"

namespace strata::net {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// At most this many iovecs per sendmsg; a longer list goes out in turns.
constexpr std::size_t kMaxIov = 64;

/// Fills `iov` with the bytes [from, to) of `pieces` taken as one stream,
/// at most kMaxIov entries; returns how many it filled.
std::size_t FillIov(std::span<const std::string_view> pieces, std::size_t from,
                    std::size_t to, struct iovec* iov) {
  std::size_t count = 0;
  std::size_t at = 0;  // stream offset of the current piece
  for (const std::string_view piece : pieces) {
    if (at >= to || count == kMaxIov) break;
    const std::size_t end = at + piece.size();
    if (end > from) {
      const std::size_t skip = from > at ? from - at : 0;
      iov[count].iov_base = const_cast<char*>(piece.data() + skip);
      iov[count].iov_len = std::min(end, to) - at - skip;
      ++count;
    }
    at = end;
  }
  return count;
}

std::size_t TotalSize(std::span<const std::string_view> pieces) {
  std::size_t total = 0;
  for (const std::string_view piece : pieces) total += piece.size();
  return total;
}

/// One sendmsg of the bytes [from, to) of `pieces`; the raw return value.
ssize_t SendPieces(int fd, std::span<const std::string_view> pieces,
                   std::size_t from, std::size_t to) {
  struct iovec iov[kMaxIov];
  struct msghdr msg = {};
  msg.msg_iov = iov;
  msg.msg_iovlen = FillIov(pieces, from, to, iov);
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

/// Wait for `events` on fd until the deadline. Ok = ready, Timeout = not.
Status PollFor(int fd, short events, Deadline deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline != kNoDeadline) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return Status::Timeout("socket deadline exceeded");
      const auto remaining =
          std::chrono::ceil<std::chrono::milliseconds>(deadline - now);
      timeout_ms = static_cast<int>(
          std::min<std::int64_t>(remaining.count(), 60'000));
    }
    struct pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = events;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return Status::Ok();  // readiness (or error, surfaced by I/O)
    if (rc == 0) {
      if (deadline == kNoDeadline) continue;  // spurious cap expiry
      if (std::chrono::steady_clock::now() >= deadline) {
        return Status::Timeout("socket deadline exceeded");
      }
      continue;
    }
    if (errno == EINTR) continue;
    return Errno("poll");
  }
}

}  // namespace

bool ParseHostPort(std::string_view addr, std::string* host,
                   std::uint16_t* port) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string_view::npos) return false;
  const std::string_view digits = addr.substr(colon + 1);
  // Unsigned from_chars takes no sign or whitespace and fails out of range;
  // the end check rejects a trailing non-digit ("80x").
  std::uint16_t value = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc() || end != digits.data() + digits.size()) return false;
  host->assign(addr.substr(0, colon));
  *port = value;
  return true;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Socket> Socket::Connect(const std::string& host, std::uint16_t port,
                               Deadline deadline) {
  struct addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* addrs = nullptr;
  const std::string service = std::to_string(port);
  if (const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &addrs);
      rc != 0) {
    return Status::Unavailable("getaddrinfo(" + host + "): " +
                               ::gai_strerror(rc));
  }

  Status last = Status::Unavailable("no address for " + host);
  for (struct addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    Socket sock(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!sock.valid()) {
      last = Errno("socket");
      continue;
    }
    if (Status s = SetNonBlocking(sock.fd()); !s.ok()) {
      last = s;
      continue;
    }
    if (::connect(sock.fd(), ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(addrs);
      return sock;
    }
    if (errno != EINPROGRESS) {
      last = Status::Unavailable("connect(" + host + ":" + service +
                                 "): " + std::strerror(errno));
      continue;
    }
    if (Status s = PollFor(sock.fd(), POLLOUT, deadline); !s.ok()) {
      last = s;
      continue;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      last = Errno("getsockopt(SO_ERROR)");
      continue;
    }
    if (err != 0) {
      last = Status::Unavailable("connect(" + host + ":" + service +
                                 "): " + std::strerror(err));
      continue;
    }
    const int one = 1;
    ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::freeaddrinfo(addrs);
    return sock;
  }
  ::freeaddrinfo(addrs);
  return last;
}

Status Socket::ReadFully(void* buf, std::size_t n, Deadline deadline) {
  STRATA_FAILPOINT("net.recv");
  auto* out = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::recv(fd_, out + got, n - got, 0);
    if (rc > 0) {
      got += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) return Status::Unavailable("connection closed by peer");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      STRATA_RETURN_IF_ERROR(PollFor(fd_, POLLIN, deadline));
      continue;
    }
    return Errno("recv");
  }
  return Status::Ok();
}

Status Socket::WriteAll(std::span<const std::string_view> pieces,
                        Deadline deadline) {
  // Failpoint "net.send": error sends nothing, torn-write(n) pushes only the
  // first n bytes of the stream (wherever the piece boundaries are) before
  // failing — the peer sees a truncated frame, the caller the injected error.
  std::size_t total = TotalSize(pieces);
  Status injected = Status::Ok();
  if (fault::AnyActive()) injected = fault::InjectWrite("net.send", &total);
  std::size_t sent = 0;
  while (sent < total) {
    const ssize_t rc = SendPieces(fd_, pieces, sent, total);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      STRATA_RETURN_IF_ERROR(PollFor(fd_, POLLOUT, deadline));
      continue;
    }
    if (rc < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return Status::Unavailable("connection closed by peer");
    }
    return Errno("send");
  }
  return injected;
}

Result<std::size_t> Socket::ReadSome(void* buf, std::size_t n) {
  STRATA_FAILPOINT("net.recv");
  for (;;) {
    const ssize_t rc = ::recv(fd_, buf, n, 0);
    if (rc > 0) return static_cast<std::size_t>(rc);
    if (rc == 0) return Status::Unavailable("connection closed by peer");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::size_t{0};
    return Errno("recv");
  }
}

Result<std::size_t> Socket::WriteSome(
    std::span<const std::string_view> pieces) {
  std::size_t total = TotalSize(pieces);
  Status injected = Status::Ok();
  if (fault::AnyActive()) injected = fault::InjectWrite("net.send", &total);
  for (;;) {
    const ssize_t rc = SendPieces(fd_, pieces, 0, total);
    if (rc >= 0) {
      if (!injected.ok()) return injected;
      return static_cast<std::size_t>(rc);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!injected.ok()) return injected;
      return std::size_t{0};
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return Status::Unavailable("connection closed by peer");
    }
    return Errno("send");
  }
}

void Socket::Shutdown() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<ListenSocket> ListenSocket::Listen(const std::string& host,
                                          std::uint16_t port, int backlog) {
  struct addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  struct addrinfo* addrs = nullptr;
  const std::string service = std::to_string(port);
  if (const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                                   service.c_str(), &hints, &addrs);
      rc != 0) {
    return Status::Unavailable("getaddrinfo(" + host + "): " +
                               ::gai_strerror(rc));
  }

  Status last = Status::Unavailable("no bindable address for " + host);
  for (struct addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (Status s = SetNonBlocking(fd); !s.ok()) {
      ::close(fd);
      last = s;
      continue;
    }
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) < 0 ||
        ::listen(fd, backlog) < 0) {
      last = Errno("bind/listen " + host + ":" + service);
      ::close(fd);
      continue;
    }
    // Recover the actual port for ephemeral binds.
    struct sockaddr_storage bound = {};
    socklen_t len = sizeof(bound);
    std::uint16_t actual = port;
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) ==
        0) {
      if (bound.ss_family == AF_INET) {
        actual = ntohs(reinterpret_cast<struct sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        actual =
            ntohs(reinterpret_cast<struct sockaddr_in6*>(&bound)->sin6_port);
      }
    }
    ::freeaddrinfo(addrs);
    ListenSocket listener;
    listener.fd_ = fd;
    listener.port_ = actual;
    return listener;
  }
  ::freeaddrinfo(addrs);
  return last;
}

Result<Socket> ListenSocket::Accept(Deadline deadline) {
  STRATA_FAILPOINT("net.accept");
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      Socket sock(fd);
      if (Status s = SetNonBlocking(fd); !s.ok()) return s;
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return sock;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      STRATA_RETURN_IF_ERROR(PollFor(fd_, POLLIN, deadline));
      continue;
    }
    return Errno("accept");
  }
}

void ListenSocket::Close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace strata::net
