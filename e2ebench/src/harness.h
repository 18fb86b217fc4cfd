// Pieces both run modes share: the reference engine, a server process
// under the benchmark's control, set-up and recovery timing, and the
// tally of attempted and failed operations.

#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "e2ebench/src/client.h"
#include "e2ebench/src/workload.h"
#include "src/engine/shard.h"
#include "src/serve/server.h"

namespace e2ebench {

/// Where a run works: the pvcdb_server binary and a scratch directory
/// (relative to the checkout root, so Unix socket paths stay short).
struct Env {
  std::string server_bin;
  std::string dir;
  /// Traced runs write their spans here (JSON Lines).
  std::string trace_path;
};

/// Counts every checked operation; prints each failure with its request.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Counts one operation; on `!ok` counts a failure and prints `what`.
  bool Check(bool ok, const std::string& what, const std::string& request);
  /// Compares a served reply with the expected one, byte for byte.
  bool Compare(const Reply& got, const Reply& want, const std::string& request);
};

/// The oracle: ExecuteCommand over a serial, single-shard in-process
/// engine fed the same inputs and commands as the server.
class Reference {
 public:
  Reference() : db_(1), backend_(&db_) {}
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  Reply Exec(const std::string& line);

 private:
  pvcdb::ShardedDatabase db_;
  pvcdb::InProcessBackend backend_;
  pvcdb::ServeSession session_;
};

/// A pvcdb_server front end (`--open`, fsync per mutation) with its forked
/// workers, all in one process group that Kill() SIGKILLs and reaps.
class Server {
 public:
  Server() = default;
  ~Server() { Kill(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Starts a server over durable directory `store` listening on
  /// `<env.dir>/<tag>.sock`, with `extra_flags` appended to its command
  /// line. False when the process cannot be spawned.
  bool Start(const Env& env, const std::string& store, int shards,
             const std::string& tag);

  std::vector<std::string> extra_flags;
  void Kill();

  const std::string& address() const { return address_; }
  /// The server's stderr (with --quiet: warnings and slow-query lines).
  const std::string& log_path() const { return log_; }
  /// Summed VmHWM of the front end and the workers `workers` lists, MiB.
  double PeakRssMib(Client* client);

 private:
  pid_t pid_ = -1;
  std::string address_;
  std::string log_;
};

/// Writes the workload's input files into env.dir.
bool WriteInputs(const Workload& w, const Env& env);

/// The reference's replies to the set-up commands and to the check read.
struct Expected {
  std::vector<Reply> setup;
  Reply check;
};
Expected ReferenceSetUp(const Workload& w, const Env& env, Reference* ref);

/// Starts a fresh server over `store`, runs set-up and the check read.
/// Returns the seconds from spawn to the first correct reply, or -1 on
/// failure. Leaves `server` running and `client` connected.
double SetUp(const Workload& w, const Env& env, const Expected& expected,
             const std::string& store, const std::string& tag, Server* server,
             Client* client, Tally* tally);

/// Restarts a server on an existing `store` and reads `check` until the
/// first reply; returns the seconds to it, or -1 when it is wrong.
double Recover(const Env& env, const std::string& store,
               const std::string& check, const Reply& expected,
               const std::string& tag, Server* server, Client* client,
               Tally* tally);

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* values, double p);
double Median(std::vector<double> values);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
