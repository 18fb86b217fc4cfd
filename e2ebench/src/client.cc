#include "e2ebench/src/client.h"

#include <unistd.h>

#include <chrono>
#include <cstdint>

#include "src/net/frame.h"
#include "src/net/protocol.h"

namespace e2ebench {

namespace {

// No single command of any workload comes near this; a reply slower than
// it means the server is wedged, and the call fails instead of hanging.
constexpr int kCallDeadlineMs = 60000;

}  // namespace

pvcdb::Socket Dial(const std::string& address, int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  std::string error;
  while (true) {
    pvcdb::Socket sock = pvcdb::ConnectAddress(address, &error, 1000);
    if (sock.valid() || std::chrono::steady_clock::now() >= deadline) {
      return sock;
    }
    usleep(100);
  }
}

bool Client::Connect(const std::string& address, int timeout_ms) {
  sock_ = Dial(address, timeout_ms);
  return sock_.valid();
}

bool Client::Call(const std::string& line, Reply* reply, size_t* wire_bytes) {
  if (!pvcdb::SendFrame(&sock_,
                        static_cast<uint8_t>(pvcdb::MsgKind::kClientCommand),
                        line, kCallDeadlineMs)) {
    return false;
  }
  uint8_t kind = 0;
  std::string payload;
  if (pvcdb::RecvFrame(&sock_, &kind, &payload, kCallDeadlineMs) !=
          pvcdb::FrameResult::kOk ||
      static_cast<pvcdb::MsgKind>(kind) != pvcdb::MsgKind::kClientReply) {
    return false;
  }
  pvcdb::ClientReplyMsg msg;
  if (!pvcdb::ClientReplyMsg::Decode(payload, &msg)) return false;
  reply->ok = msg.ok;
  reply->text = std::move(msg.text);
  // Frame header: u32 length + u32 crc + u8 kind.
  if (wire_bytes != nullptr) *wire_bytes = 9 + payload.size();
  return true;
}

}  // namespace e2ebench
