#include "src/engine/remote_shard.h"

#include <utility>

#include "src/net/frame.h"
#include "src/util/check.h"

namespace pvcdb {

RemoteShard::RemoteShard(uint32_t shard_index, Socket sock, pid_t pid)
    : shard_index_(shard_index), sock_(std::move(sock)), pid_(pid) {
  down_ = !sock_.valid();
}

void RemoteShard::MarkDown() {
  down_ = true;
  sock_.Close();
}

bool RemoteShard::Handshake(const HelloMsg& hello) {
  if (down_) return false;
  if (!SendFrame(&sock_, static_cast<uint8_t>(MsgKind::kHello),
                 hello.Encode(), options_.deadline_ms)) {
    MarkDown();
    return false;
  }
  uint8_t kind = 0;
  std::string payload;
  if (RecvFrame(&sock_, &kind, &payload, options_.deadline_ms) !=
          FrameResult::kOk ||
      static_cast<MsgKind>(kind) != MsgKind::kHelloAck) {
    MarkDown();
    return false;
  }
  return true;
}

void RemoteShard::SendRequest(MsgKind request, const std::string& payload) {
  if (down_) throw WorkerDown(shard_index_, "already marked down");
  if (!SendFrame(&sock_, static_cast<uint8_t>(request), payload,
                 options_.deadline_ms)) {
    MarkDown();
    throw WorkerDown(shard_index_, "send failed or timed out");
  }
}

std::string RemoteShard::RecvReply(MsgKind expect) {
  if (down_) throw WorkerDown(shard_index_, "already marked down");
  uint8_t kind = 0;
  std::string payload;
  FrameResult r = RecvFrame(&sock_, &kind, &payload, options_.deadline_ms);
  if (r != FrameResult::kOk) {
    // Includes kTimeout: a timeout may have struck mid-frame, so the
    // stream position is gone — the connection is poisoned and must never
    // carry another request (no blind retry; see the header comment).
    MarkDown();
    throw WorkerDown(
        shard_index_,
        r == FrameResult::kTimeout
            ? "timed out after " + std::to_string(options_.deadline_ms) +
                  "ms"
            : (r == FrameResult::kClosed ? "connection closed"
                                         : "corrupt reply frame"));
  }
  if (static_cast<MsgKind>(kind) == MsgKind::kError) {
    // The worker is healthy; the engine over there rejected the request.
    ErrorMsg err;
    if (!ErrorMsg::Decode(payload, &err)) {
      MarkDown();
      throw WorkerDown(shard_index_, "undecodable error reply");
    }
    throw CheckError(err.text);
  }
  if (static_cast<MsgKind>(kind) != expect) {
    MarkDown();
    throw WorkerDown(shard_index_, "protocol confusion: unexpected reply kind " +
                                       std::to_string(kind));
  }
  return payload;
}

std::string RemoteShard::Call(MsgKind request, const std::string& payload,
                              MsgKind expect) {
  SendRequest(request, payload);
  return RecvReply(expect);
}

bool RemoteShard::Ping(uint64_t nonce, PongMsg* pong) {
  if (down_) return false;
  PingMsg ping;
  ping.nonce = nonce;
  try {
    std::string reply = Call(MsgKind::kPing, ping.Encode(), MsgKind::kPong);
    PongMsg decoded;
    if (!PongMsg::Decode(reply, &decoded) || decoded.nonce != nonce) {
      // An undecodable or mismatched pong means reply alignment is lost.
      MarkDown();
      return false;
    }
    if (pong != nullptr) *pong = decoded;
    return true;
  } catch (const WorkerDown&) {
    return false;
  } catch (const CheckError&) {
    // The worker rejected the ping (it is alive but confused — e.g. a
    // version skew); treat it as a failed heartbeat without trusting the
    // connection further.
    MarkDown();
    return false;
  }
}

void RemoteShard::Shutdown() {
  if (down_) return;
  try {
    Call(MsgKind::kShutdown, std::string(), MsgKind::kOk);
  } catch (const WorkerDown&) {
  } catch (const CheckError&) {
  }
  MarkDown();
}

}  // namespace pvcdb
