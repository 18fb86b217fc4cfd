// pvcdb_shell -- an interactive / batch shell for the pvcdb engine.
//
// The shell is a REPL over RunCommand (src/serve/server.h), the one
// implementation of the command language; `help` lists every command. It
// prints through std::cout at its default precision (6 digits), where the
// server's wire replies carry 17.
//
// Local mode (the default) hosts the engine in this process: a single
// Database at first. Two session-topology commands live here and nowhere
// else, because they rebuild or wrap the engine itself:
//   shards [n]   show or set the shard count: n >= 1 rebuilds the session
//                as a ShardedDatabase with rows placed on n shards
//                (re-importing every loaded CSV and replaying mutations +
//                views), 0 returns to a single database. Results are
//                bit-identical either way.
//   open <dir>   make the session durable (WAL + snapshots; recovers <dir>
//                when it already holds state)
//
// Client mode: `pvcdb_shell --connect <addr>` attaches to a running
// pvcdb_server (tools/pvcdb_server.cc) instead of hosting an engine. Each
// line travels as one kClientCommand frame and the server's rendered reply
// is printed verbatim; the server runs the same RunCommand (see
// docs/SERVING.md for the commands that differ between the two modes).
//
// Example session:
//   load items data/items.csv
//   view pricey SELECT * FROM items WHERE price >= 1000
//   insert items tool drill 1450 0.7
//   view pricey
//
// Batch use: pipe commands through stdin (the shell detects non-tty input
// and suppresses prompts).

#include <unistd.h>

#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/shard.h"
#include "src/engine/snapshot.h"
#include "src/net/frame.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/serve/server.h"
#include "src/util/check.h"

namespace {

using namespace pvcdb;

// The local session: a single Database, or a ShardedDatabase when `shards
// n` is active, behind the backend RunCommand executes against. Every
// successful state-changing command (load / insert / delete / setprob /
// view registration) is logged verbatim, in order, so resharding replays
// the exact session history onto the new topology -- preserving the
// interleaving (a reload between mutations, a view redefined after
// inserts) is what makes the rebuilt state, and hence every printed
// result, bit-identical across shard counts.
// With `open <dir>` the session becomes durable: the engines move into a
// DurableSession (WAL + snapshot generations, src/engine/snapshot.h),
// every mutation is logged before it reports success, `save` writes a
// checkpoint, and reopening the directory recovers the exact state --
// including a torn tail from a crash mid-write. Resharding then logs a
// kReshard record instead of replaying the history.
struct LocalSession {
  std::unique_ptr<Database> db = std::make_unique<Database>();
  std::unique_ptr<ShardedDatabase> sharded;
  std::unique_ptr<DurableSession> durable;
  std::unique_ptr<ServeBackend> backend;
  ServeSession serve;  ///< Thread knobs and the durable pointer.
  std::vector<std::string> history;  ///< State-changing lines, in order.

  LocalSession() { Rebind(); }

  // Points the backend at the current engine (after any rebuild) and
  // pushes the session's thread knobs into it.
  void Rebind() {
    if (active_sharded() != nullptr) {
      backend = std::make_unique<InProcessBackend>(active_sharded());
    } else {
      backend = std::make_unique<DatabaseBackend>(
          durable != nullptr ? durable->db() : db.get());
    }
    serve.durable = durable.get();
    backend->SetEvalOptions(serve.num_threads, serve.intra_tree_threads);
  }

  // The sharded engine in use, or null in single-database mode.
  ShardedDatabase* active_sharded() const {
    return durable != nullptr ? durable->sharded() : sharded.get();
  }
};

// True when `line` changes engine state and so belongs in the reshard
// history: a mutation, a load, or a view registration (`view <name>
// SELECT ...`, not the bare `view <name>` print).
bool IsStateChange(const std::string& line) {
  std::istringstream stream(line);
  std::string command;
  std::string name;
  std::string sql;
  stream >> command >> name >> sql;
  if (command == "view") return !sql.empty();
  return command == "load" || command == "insert" || command == "delete" ||
         command == "setprob";
}

void Reshard(LocalSession* session, int n) {
  // A durable session reshards through its WAL: the kReshard record is
  // logged and the engine rebuilt from its own captured state -- no
  // history replay, and the topology survives a restart.
  if (session->durable != nullptr) {
    std::string error;
    if (!session->durable->Reshard(static_cast<uint64_t>(n), &error)) {
      std::cout << "error: " << error << "\n";
      return;
    }
    session->Rebind();
    std::cout << "shards = " << n << " (durable reshard logged)\n";
    return;
  }

  // The new engine is built and the session history replayed onto it, in
  // the original command order, before the old engine is torn down. The
  // history survives failed replays (e.g. a CSV that has vanished), so a
  // broken line only skips its effect for this topology instead of
  // dropping it from the session for good.
  std::unique_ptr<Database> db;
  std::unique_ptr<ShardedDatabase> sharded;
  if (n >= 1) {
    sharded = std::make_unique<ShardedDatabase>(static_cast<size_t>(n));
  } else {
    db = std::make_unique<Database>();
  }
  std::swap(session->db, db);
  std::swap(session->sharded, sharded);
  session->Rebind();
  size_t reloaded = 0;
  size_t replayed = 0;
  size_t views = 0;
  for (const std::string& line : session->history) {
    std::istringstream stream(line);
    std::string command;
    stream >> command;
    // Replayed loads report as they did the first time; replayed
    // mutations and view registrations only speak when they fail.
    std::ostringstream quiet;
    bool shutdown = false;
    const bool is_load = command == "load";
    if (!RunCommand(session->backend.get(), line, &shutdown, &session->serve,
                    is_load ? std::cout : quiet)) {
      std::cout << quiet.str();
    } else if (is_load) {
      ++reloaded;
    } else if (command == "view") {
      ++views;
    } else {
      ++replayed;
    }
  }
  std::cout << "shards = " << n << " (" << reloaded
            << " tables re-imported, " << replayed
            << " mutations replayed, " << views << " views)\n";
}

void ShowShards(const LocalSession& session) {
  ShardedDatabase* sharded = session.active_sharded();
  std::cout << "shards = "
            << (sharded != nullptr ? static_cast<int>(sharded->num_shards())
                                   : 0)
            << " (0 = single database; router fnv1a)\n";
}

void OpenDurable(LocalSession* session, const std::string& dir) {
  if (session->durable != nullptr) {
    std::cout << "already durable at " << session->durable->dir()
              << " (one directory per session)\n";
    return;
  }
  DurableConfig config;
  config.dir = dir;
  std::string error;
  std::unique_ptr<DurableSession> durable;
  const bool recovered = DurableSession::HasState(DefaultFileSystem(), dir);
  try {
    durable = recovered ? DurableSession::Recover(config, &error)
                        : DurableSession::Create(
                              config,
                              session->sharded != nullptr
                                  ? CaptureState(*session->sharded)
                                  : CaptureState(*session->db),
                              &error);
  } catch (const CheckError& e) {
    std::cout << "error: " << e.what() << "\n";
    return;
  }
  if (durable == nullptr) {
    std::cout << "error: " << error << "\n";
    return;
  }
  // The durable engine was rebuilt from the captured / recovered state
  // (bit-identical to the live one); the undurable engines retire.
  session->durable = std::move(durable);
  session->Rebind();
  session->db.reset();
  session->sharded.reset();
  DurableStats stats = session->durable->stats();
  if (recovered) {
    std::cout << "recovered " << dir << " (generation " << stats.generation
              << ", " << stats.replayed_records << " WAL records replayed"
              << (stats.tail_truncated ? ", torn tail truncated" : "")
              << ")\n";
  } else {
    std::cout << "opened " << dir << " (generation " << stats.generation
              << ", " << session->backend->catalog().TableNames().size()
              << " tables snapshotted)\n";
  }
}

// One local command line. Returns false when the session should end.
bool RunLocal(LocalSession* session, const std::string& line,
              const std::string& command) {
  std::istringstream stream(line);
  std::string word;
  stream >> word;  // `command` itself; the arguments follow.
  if (command == "shards") {
    int n = 0;
    if (!(stream >> n)) {
      ShowShards(*session);
    } else if (n < 0) {
      std::cout << "usage: shards <n >= 0>\n";
    } else {
      Reshard(session, n);
    }
    return true;
  }
  if (command == "open") {
    std::string dir;
    stream >> dir;
    if (dir.empty()) {
      std::cout << "usage: open <dir>\n";
    } else {
      OpenDurable(session, dir);
    }
    return true;
  }
  bool shutdown = false;
  if (RunCommand(session->backend.get(), line, &shutdown, &session->serve,
                 std::cout) &&
      IsStateChange(line)) {
    session->history.push_back(line);
  }
  return !shutdown;
}

// Client mode: one request/reply conversation per input line against a
// running pvcdb_server. `shutdown` is forwarded, its reply printed, and the
// session ends. Returns false (with *status = 1) on a transport failure.
bool RunRemote(Socket* sock, const std::string& address,
               const std::string& line, const std::string& command,
               int* status) {
  *status = 1;
  if (!SendFrame(sock, static_cast<uint8_t>(MsgKind::kClientCommand), line)) {
    std::cout << "error: connection to " << address << " lost\n";
    return false;
  }
  uint8_t kind = 0;
  std::string payload;
  FrameResult r = RecvFrame(sock, &kind, &payload);
  if (r == FrameResult::kClosed) {
    // Orderly close on a frame boundary: the server evicted this client
    // (idle timeout) or shut down. Distinct from a torn connection.
    std::cout << "error: server closed connection to " << address << "\n";
    return false;
  }
  if (r != FrameResult::kOk ||
      static_cast<MsgKind>(kind) != MsgKind::kClientReply) {
    std::cout << "error: connection to " << address << " lost\n";
    return false;
  }
  ClientReplyMsg reply;
  if (!ClientReplyMsg::Decode(payload, &reply)) {
    std::cout << "error: malformed reply from server\n";
    return false;
  }
  std::cout << reply.text << std::flush;
  *status = 0;
  return command != "shutdown";
}

// The REPL shared by both modes: reads lines until end of input or
// quit/exit (which end the session without a reply), handing every other
// non-empty line and its command word to `step`; a step returning false
// ends the session.
void Repl(const std::string& banner,
          const std::function<bool(const std::string& line,
                                   const std::string& command)>& step) {
  const bool interactive = isatty(fileno(stdin)) != 0;
  if (interactive) std::cout << banner << "\n";
  std::string line;
  while (true) {
    if (interactive) std::cout << "pvcdb> " << std::flush;
    if (!std::getline(std::cin, line)) break;
    std::istringstream stream(line);
    std::string command;
    stream >> command;
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (!step(line, command)) break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect_address;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect_address = argv[++i];
    } else {
      std::cout << "usage: pvcdb_shell [--connect <addr>]\n";
      return 2;
    }
  }

  if (!connect_address.empty()) {
    IgnoreSigPipe();
    std::string error;
    Socket sock = ConnectWithRetry(connect_address, 100, &error);
    if (!sock.valid()) {
      std::cout << "error: " << error << "\n";
      return 1;
    }
    int status = 0;
    Repl("pvcdb shell -- connected to " + connect_address +
             " ('help' for commands)",
         [&](const std::string& line, const std::string& command) {
           return RunRemote(&sock, connect_address, line, command, &status);
         });
    return status;
  }

  LocalSession session;
  Repl("pvcdb shell -- 'help' for commands",
       [&](const std::string& line, const std::string& command) {
         return RunLocal(&session, line, command);
       });
  return 0;
}
