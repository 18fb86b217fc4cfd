// One shell-client connection to pvcdb_server: each command line travels
// as one kClientCommand frame and its rendered reply comes back as one
// kClientReply, exactly as `pvcdb_shell --connect` does it.

#ifndef E2EBENCH_CLIENT_H_
#define E2EBENCH_CLIENT_H_

#include <cstddef>
#include <string>

#include "src/net/socket.h"

namespace e2ebench {

/// A reply as the benchmark compares it: the ok flag and the text. Two
/// replies are equal only when both agree byte for byte.
struct Reply {
  bool ok = false;
  std::string text;

  bool operator==(const Reply& o) const { return ok == o.ok && text == o.text; }
};

/// How long a client waits for a server or worker to start listening.
constexpr int kConnectTimeoutMs = 30000;

/// Dials `address` every 0.1 ms until it accepts or `timeout_ms`
/// passes (a process still starting has not bound its socket yet).
pvcdb::Socket Dial(const std::string& address, int timeout_ms);

class Client {
 public:
  /// Dial() into this client; false on timeout.
  bool Connect(const std::string& address, int timeout_ms);

  /// Sends one command and waits (bounded) for its reply. False on a
  /// transport failure or timeout; the connection is unusable afterwards.
  /// `wire_bytes` (optional) receives the reply frame's size on the wire.
  bool Call(const std::string& line, Reply* reply,
            size_t* wire_bytes = nullptr);

  void Close() { sock_.Close(); }

 private:
  pvcdb::Socket sock_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_CLIENT_H_
