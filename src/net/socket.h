// POSIX socket primitives for the out-of-process serving layer
// (src/engine/remote_shard.h, src/serve/server.h): an RAII fd wrapper with
// EINTR-retrying full-buffer I/O, listeners over Unix-domain and TCP
// endpoints, and a socketpair factory for forked in-process workers.
//
// Address convention (used by every tool flag and config field): a string
// containing ':' is a TCP endpoint "host:port"; anything else is a
// Unix-domain socket path. Unix sockets are the default for local
// deployments (no port allocation, filesystem permissions); TCP serves
// multi-host setups.
//
// Blocking vs non-blocking: RemoteShard and the shell client use the
// blocking SendAll/RecvAll pair (a request/response conversation). The
// front-end server switches accepted client sockets to non-blocking and
// uses SendSome/RecvSome from its poll loop (src/serve/server.cc). Every
// call retries EINTR internally; sends use MSG_NOSIGNAL (and entry points
// additionally IgnoreSigPipe process-wide), so a peer death surfaces as an
// EPIPE error return, never a signal.
//
// Deadlines: every blocking call takes an optional `deadline_ms` budget
// enforced with poll(2) before each syscall, surfacing IoStatus::kTimeout
// distinct from EOF and errors. This is the bottom of the fault-tolerance
// plane: no RPC above this layer is issued without a deadline once one is
// configured (see docs/ARCHITECTURE.md, cross-cutting invariant 6).

#ifndef PVCDB_NET_SOCKET_H_
#define PVCDB_NET_SOCKET_H_

#include <sys/types.h>

#include <cstddef>
#include <string>

#include "src/net/backoff.h"

namespace pvcdb {

/// Outcome of an exact-length I/O call.
enum class IoStatus : uint8_t {
  kOk,       ///< The full buffer was transferred.
  kClosed,   ///< Orderly peer shutdown before (or mid-) buffer.
  kError,    ///< I/O error (errno-level failure).
  kTimeout,  ///< Deadline expired before the buffer completed.
};

/// Result code SendSome/RecvSome use for "would block" (EAGAIN) so the
/// poll loop can distinguish it from EOF (0) and errors (-1).
constexpr ssize_t kIoWouldBlock = -2;

/// "No deadline" sentinel for every `deadline_ms` parameter in this layer:
/// block indefinitely, exactly the pre-deadline behaviour.
constexpr int kNoDeadline = -1;

/// Move-only RAII wrapper of a connected (or listening) socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Releases ownership of the fd (caller closes it).
  int Release();
  void Close();

  /// Writes exactly `n` bytes (looping over partial writes, retrying
  /// EINTR). False on any error, including EPIPE from a dead peer.
  bool SendAll(const void* data, size_t n);

  /// SendAll under a poll-based deadline covering the whole transfer.
  /// kTimeout when `deadline_ms` elapses first; kNoDeadline blocks forever.
  IoStatus SendAllDeadline(const void* data, size_t n, int deadline_ms);

  /// Reads exactly `n` bytes. kClosed when the peer shut down before the
  /// buffer was complete (a torn frame and an orderly close both land
  /// here; the framing layer's CRC separates them). `deadline_ms` bounds
  /// the whole transfer (poll-based); kTimeout when it elapses first.
  IoStatus RecvAll(void* data, size_t n, int deadline_ms = kNoDeadline);

  /// One send(2) call on a non-blocking socket: bytes written (>= 0),
  /// kIoWouldBlock, or -1 on error.
  ssize_t SendSome(const void* data, size_t n);

  /// One recv(2) call on a non-blocking socket: bytes read (> 0), 0 on
  /// orderly EOF, kIoWouldBlock, or -1 on error.
  ssize_t RecvSome(void* data, size_t n);

  /// Switches O_NONBLOCK; false on fcntl failure.
  bool SetNonBlocking(bool nonblocking);

 private:
  int fd_ = -1;
};

/// A bound, listening endpoint.
class Listener {
 public:
  /// Listens on `address` (see the address convention above). Unix paths
  /// are unlinked first so a stale socket file from a dead server does not
  /// block the bind; TCP listeners set SO_REUSEADDR. Invalid socket +
  /// `*error` on failure.
  static Listener Listen(const std::string& address, std::string* error);

  bool valid() const { return sock_.valid(); }
  int fd() const { return sock_.fd(); }
  const std::string& address() const { return address_; }

  /// Accepts one connection (blocking; retries EINTR). Invalid socket on
  /// error.
  Socket Accept();

  /// Removes the socket file of a Unix listener (no-op for TCP).
  void UnlinkSocketFile();

 private:
  Socket sock_;
  std::string address_;
  std::string unix_path_;  ///< Empty for TCP listeners.
};

/// Connects to `address`. `deadline_ms` bounds the connect itself
/// (non-blocking connect + poll + SO_ERROR); kNoDeadline blocks. Invalid
/// socket + `*error` on failure or timeout.
Socket ConnectAddress(const std::string& address, std::string* error,
                      int deadline_ms = kNoDeadline);

/// ConnectAddress with up to `attempts` retries paced by a seeded
/// exponential-backoff schedule (fast early attempts for a server still
/// binding its listener, capped delays so long attempt counts stay
/// bounded). Each retry counts `net.retries`. `deadline_ms` bounds each
/// individual connect attempt. Tests pass a mock `clock` to assert the
/// schedule without sleeping. Invalid socket + the last error on
/// exhaustion.
Socket ConnectWithRetry(const std::string& address, int attempts,
                        std::string* error,
                        int deadline_ms = kNoDeadline,
                        const BackoffPolicy& policy = BackoffPolicy(),
                        Clock* clock = nullptr);

/// A connected AF_UNIX stream pair (fork hand-off for in-process-spawned
/// shard workers). False on failure.
bool MakeSocketPair(Socket* parent_end, Socket* child_end);

/// Ignores SIGPIPE process-wide (idempotent). Every server/client entry
/// point calls this so peer deaths surface as EPIPE errors.
void IgnoreSigPipe();

}  // namespace pvcdb

#endif  // PVCDB_NET_SOCKET_H_
