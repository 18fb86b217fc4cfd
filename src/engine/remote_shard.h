// RemoteShard: the coordinator's stub for one out-of-process shard worker
// (src/engine/shard_worker.h). One connected socket, strict one-request /
// one-reply sequencing, plus a split send/receive pair so the coordinator
// can scatter a request to every live worker before collecting any reply
// (the parallel fan-out of Coordinator::Scatter).
//
// Failure semantics: any transport failure -- send error, torn frame, CRC
// mismatch, peer close, or a deadline expiry under RpcOptions -- marks the
// stub down and throws WorkerDown. A worker-side kError reply is
// different: the worker is healthy and stays up; the error text is
// rethrown as CheckError, exactly as the in-process engine would have
// thrown it. Once down, a stub stays down until the server respawns the
// worker and hands the coordinator a fresh connection
// (Coordinator::Respawn). A timed-out request is NEVER resent on the
// same connection: a late reply would desync the one-request/one-reply
// conversation, and a timeout can strike mid-frame, losing the stream
// position entirely. Recovery happens at resync, where the worker's
// (lsn, chain) position decides what (if anything) must be replayed.

#ifndef PVCDB_ENGINE_REMOTE_SHARD_H_
#define PVCDB_ENGINE_REMOTE_SHARD_H_

#include <stdexcept>
#include <string>
#include <sys/types.h>

#include "src/net/backoff.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"

namespace pvcdb {

/// Per-stub RPC discipline. `deadline_ms` bounds every frame send and
/// receive of every RPC (kNoDeadline blocks forever — the pre-deadline
/// behaviour and the default). `retries` + `backoff` govern *reconnect*
/// attempts (ConnectWithRetry pacing when the coordinator respawns or
/// re-dials the worker) — never the resend of a request: a timed-out RPC
/// poisons its connection (the reply stream's alignment is lost), so the
/// stub is marked down and mutations are resolved through the worker's
/// (lsn, chain) position at resync, not by blind retry.
struct RpcOptions {
  int deadline_ms = kNoDeadline;
  int retries = 100;
  BackoffPolicy backoff;
};

/// Thrown by RemoteShard calls on transport failure (not on worker-side
/// engine errors, which surface as CheckError). Catching it is how the
/// coordinator triggers coordinator-local fallback.
class WorkerDown : public std::runtime_error {
 public:
  WorkerDown(uint32_t shard, const std::string& what)
      : std::runtime_error("worker " + std::to_string(shard) + " down: " +
                           what),
        shard_(shard) {}

  uint32_t shard() const { return shard_; }

 private:
  uint32_t shard_;
};

class RemoteShard {
 public:
  /// Takes ownership of a connected socket. `pid` is the worker process id
  /// when the server forked it (0 for standalone workers we only dialed).
  RemoteShard(uint32_t shard_index, Socket sock, pid_t pid);

  RemoteShard(RemoteShard&&) = default;
  RemoteShard& operator=(RemoteShard&&) = default;

  uint32_t shard_index() const { return shard_index_; }
  pid_t pid() const { return pid_; }
  bool down() const { return down_; }

  /// RPC discipline for every subsequent call on this stub (deadline per
  /// frame I/O; retry pacing for reconnects). Stubs default to blocking
  /// forever, matching the pre-fault-tolerance behaviour.
  void set_rpc_options(const RpcOptions& options) { options_ = options; }
  const RpcOptions& rpc_options() const { return options_; }

  /// Closes the socket and marks the stub down (the coordinator's view of
  /// a worker it decided to stop trusting).
  void MarkDown();

  /// kHello / kHelloAck handshake. Returns false (and marks the stub
  /// down) on any failure.
  bool Handshake(const HelloMsg& hello);

  /// One request, one reply. Throws WorkerDown on transport failure,
  /// CheckError on a worker-side kError, and WorkerDown("protocol
  /// confusion") if the reply kind is neither `expect` nor kError.
  /// Returns the reply payload.
  std::string Call(MsgKind request, const std::string& payload,
                   MsgKind expect);

  /// Scatter half of Call: just sends the request frame. Throws WorkerDown
  /// on failure. Every SendRequest must be paired with one RecvReply
  /// before the next request.
  void SendRequest(MsgKind request, const std::string& payload);

  /// Gather half of Call; same contract as Call's reply handling.
  std::string RecvReply(MsgKind expect);

  /// Heartbeat. Sends kPing{nonce}; on success fills `*pong` (if non-null)
  /// with the worker's echoed nonce and (lsn, chain) position. False — and
  /// the stub marked down — on any transport failure, timeout, or nonce
  /// mismatch (a mismatch means reply alignment was lost).
  bool Ping(uint64_t nonce, PongMsg* pong);
  bool Ping() { return Ping(0, nullptr); }

  /// Best-effort kShutdown; never throws. The worker exits its serve loop
  /// after replying.
  void Shutdown();

 private:
  uint32_t shard_index_ = 0;
  Socket sock_;
  pid_t pid_ = 0;
  bool down_ = false;
  RpcOptions options_;
};

}  // namespace pvcdb

#endif  // PVCDB_ENGINE_REMOTE_SHARD_H_
