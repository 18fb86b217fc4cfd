#include "src/net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <climits>
#include <cstring>

#include "src/util/metrics.h"

namespace pvcdb {
namespace {

bool IsTcpAddress(const std::string& address) {
  return address.find(':') != std::string::npos;
}

uint64_t MonotonicMillis() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1000000;
}

// Waits for `events` on `fd` until the absolute monotonic `deadline`:
// 1 ready, 0 deadline expired, -1 poll error. POLLERR/POLLHUP count as
// ready — the following syscall surfaces the actual error/EOF.
int WaitReadyUntil(int fd, short events, uint64_t deadline) {
  while (true) {
    uint64_t now = MonotonicMillis();
    if (now >= deadline) return 0;
    uint64_t remaining = deadline - now;
    if (remaining > static_cast<uint64_t>(INT_MAX)) remaining = INT_MAX;
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (rc > 0) return 1;
    if (rc == 0) return 0;
    if (errno == EINTR) continue;
    return -1;
  }
}

// Splits "host:port" at the last ':' (so a future "[::1]:80" keeps working
// for the host part as written).
bool SplitHostPort(const std::string& address, std::string* host,
                   std::string* port) {
  size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon + 1 >= address.size()) return false;
  *host = address.substr(0, colon);
  *port = address.substr(colon + 1);
  if (host->empty()) *host = "127.0.0.1";
  return true;
}

bool FillUnixAddr(const std::string& path, sockaddr_un* addr,
                  std::string* error) {
  if (path.size() >= sizeof(addr->sun_path)) {
    *error = "unix socket path too long: " + path;
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size());
  return true;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Socket::Release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::SendAll(const void* data, size_t n) {
  return SendAllDeadline(data, n, kNoDeadline) == IoStatus::kOk;
}

IoStatus Socket::SendAllDeadline(const void* data, size_t n,
                                 int deadline_ms) {
  const uint64_t deadline =
      deadline_ms < 0 ? 0 : MonotonicMillis() + static_cast<uint64_t>(deadline_ms);
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    if (deadline_ms >= 0) {
      int ready = WaitReadyUntil(fd_, POLLOUT, deadline);
      if (ready == 0) return IoStatus::kTimeout;
      if (ready < 0) return IoStatus::kError;
    }
    // MSG_NOSIGNAL: a send to a dead peer must surface as kError, never as
    // a process-killing SIGPIPE -- the fault plane turns it into a down
    // worker. (IgnoreSigPipe() still covers non-socket write paths.)
    ssize_t sent = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      // Poll said ready but the buffer filled again (or the socket is
      // non-blocking): spend the deadline waiting, not spinning.
      if (deadline_ms >= 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;
      }
      return IoStatus::kError;
    }
    p += sent;
    n -= static_cast<size_t>(sent);
  }
  return IoStatus::kOk;
}

IoStatus Socket::RecvAll(void* data, size_t n, int deadline_ms) {
  const uint64_t deadline =
      deadline_ms < 0 ? 0 : MonotonicMillis() + static_cast<uint64_t>(deadline_ms);
  char* p = static_cast<char*>(data);
  while (n > 0) {
    if (deadline_ms >= 0) {
      int ready = WaitReadyUntil(fd_, POLLIN, deadline);
      if (ready == 0) return IoStatus::kTimeout;
      if (ready < 0) return IoStatus::kError;
    }
    ssize_t got = ::recv(fd_, p, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (deadline_ms >= 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;
      }
      return IoStatus::kError;
    }
    if (got == 0) return IoStatus::kClosed;
    p += got;
    n -= static_cast<size_t>(got);
  }
  return IoStatus::kOk;
}

ssize_t Socket::SendSome(const void* data, size_t n) {
  while (true) {
    ssize_t sent = ::send(fd_, data, n, MSG_NOSIGNAL);
    if (sent >= 0) return sent;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kIoWouldBlock;
    return -1;
  }
}

ssize_t Socket::RecvSome(void* data, size_t n) {
  while (true) {
    ssize_t got = ::recv(fd_, data, n, 0);
    if (got >= 0) return got;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kIoWouldBlock;
    return -1;
  }
}

bool Socket::SetNonBlocking(bool nonblocking) {
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return false;
  if (nonblocking) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  return ::fcntl(fd_, F_SETFL, flags) == 0;
}

Listener Listener::Listen(const std::string& address, std::string* error) {
  Listener listener;
  listener.address_ = address;
  if (IsTcpAddress(address)) {
    std::string host, port;
    if (!SplitHostPort(address, &host, &port)) {
      *error = "bad tcp address (want host:port): " + address;
      return listener;
    }
    addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo* res = nullptr;
    int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
    if (rc != 0) {
      *error = std::string("getaddrinfo: ") + gai_strerror(rc);
      return listener;
    }
    int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
    if (fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      ::freeaddrinfo(res);
      return listener;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, res->ai_addr, res->ai_addrlen) != 0) {
      *error = std::string("bind ") + address + ": " + std::strerror(errno);
      ::close(fd);
      ::freeaddrinfo(res);
      return listener;
    }
    ::freeaddrinfo(res);
    if (::listen(fd, SOMAXCONN) != 0) {
      *error = std::string("listen: ") + std::strerror(errno);
      ::close(fd);
      return listener;
    }
    listener.sock_ = Socket(fd);
  } else {
    sockaddr_un addr;
    if (!FillUnixAddr(address, &addr, error)) return listener;
    // A previous server that died without cleanup leaves the socket file
    // behind; bind would fail with EADDRINUSE forever.
    ::unlink(address.c_str());
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return listener;
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = std::string("bind ") + address + ": " + std::strerror(errno);
      ::close(fd);
      return listener;
    }
    if (::listen(fd, SOMAXCONN) != 0) {
      *error = std::string("listen: ") + std::strerror(errno);
      ::close(fd);
      return listener;
    }
    listener.sock_ = Socket(fd);
    listener.unix_path_ = address;
  }
  return listener;
}

Socket Listener::Accept() {
  while (true) {
    int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    return Socket();
  }
}

void Listener::UnlinkSocketFile() {
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

namespace {

// connect(2) on `fd` bounded by `deadline_ms` via the non-blocking
// connect + poll(POLLOUT) + SO_ERROR dance. 0 on success; -1 with errno
// set on failure (ETIMEDOUT when the deadline expired). Restores the
// blocking flag on success.
int ConnectFdDeadline(int fd, const sockaddr* addr, socklen_t len,
                      int deadline_ms) {
  if (deadline_ms < 0) {
    int rc;
    do {
      rc = ::connect(fd, addr, len);
    } while (rc != 0 && errno == EINTR);
    return rc;
  }
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) return -1;
  int rc;
  do {
    rc = ::connect(fd, addr, len);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) return -1;
    uint64_t deadline = MonotonicMillis() + static_cast<uint64_t>(deadline_ms);
    int ready = WaitReadyUntil(fd, POLLOUT, deadline);
    if (ready == 0) {
      errno = ETIMEDOUT;
      return -1;
    }
    if (ready < 0) return -1;
    int soerr = 0;
    socklen_t soerr_len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &soerr_len) != 0) {
      return -1;
    }
    if (soerr != 0) {
      errno = soerr;
      return -1;
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) return -1;
  return 0;
}

}  // namespace

Socket ConnectAddress(const std::string& address, std::string* error,
                      int deadline_ms) {
  if (IsTcpAddress(address)) {
    std::string host, port;
    if (!SplitHostPort(address, &host, &port)) {
      *error = "bad tcp address (want host:port): " + address;
      return Socket();
    }
    addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
    if (rc != 0) {
      *error = std::string("getaddrinfo: ") + gai_strerror(rc);
      return Socket();
    }
    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) continue;
      if (ConnectFdDeadline(fd, ai->ai_addr, ai->ai_addrlen, deadline_ms) ==
          0) {
        break;
      }
      ::close(fd);
      fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
      *error = std::string("connect ") + address + ": " + std::strerror(errno);
      return Socket();
    }
    // Request/response frames are small; Nagle only adds latency here.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Socket(fd);
  }
  sockaddr_un addr;
  if (!FillUnixAddr(address, &addr, error)) return Socket();
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return Socket();
  }
  if (ConnectFdDeadline(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr),
                        deadline_ms) != 0) {
    *error = std::string("connect ") + address + ": " + std::strerror(errno);
    ::close(fd);
    return Socket();
  }
  return Socket(fd);
}

Socket ConnectWithRetry(const std::string& address, int attempts,
                        std::string* error, int deadline_ms,
                        const BackoffPolicy& policy, Clock* clock) {
  if (clock == nullptr) clock = Clock::Real();
  ExponentialBackoff backoff(policy);
  for (int i = 0; i < attempts; ++i) {
    if (i > 0) {
      PVCDB_COUNTER_ADD("net.retries", 1);
      clock->SleepMillis(backoff.NextDelayMs());
    }
    Socket sock = ConnectAddress(address, error, deadline_ms);
    if (sock.valid()) return sock;
  }
  return Socket();
}

bool MakeSocketPair(Socket* parent_end, Socket* child_end) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
  *parent_end = Socket(fds[0]);
  *child_end = Socket(fds[1]);
  return true;
}

void IgnoreSigPipe() { ::signal(SIGPIPE, SIG_IGN); }

}  // namespace pvcdb
