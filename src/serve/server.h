// The pvcdb command language and the front-end server that serves it.
//
// RunCommand is the one implementation of the engine's command language
// (load / tables / show / tractable / SELECT / insert / delete / setprob /
// view / views / stats / threads / intratree / save / log / help, plus the
// server-only workers / respawn / shutdown). It renders every reply into a
// caller-owned stream, against a ServeBackend:
//   - DatabaseBackend over one plain Database (the local shell's default
//     single-database mode);
//   - InProcessBackend, a DatabaseBackend over the one Database of an
//     in-process ShardedDatabase (the shell after `shards n`, and the
//     server's bit-identity reference mode);
//   - RemoteBackend over a Coordinator of out-of-process shard workers
//     (the server's normal mode).
// tools/pvcdb_shell.cc is a REPL over RunCommand writing to std::cout
// (default precision 6). The server runs ExecuteCommand, which renders
// into a precision-17 buffer, so reply-text equality between two backends
// is double bit-equality.
//
// Server consistency model: commands execute one at a time on the server's
// single thread (the poll loop dispatches a complete command frame, runs it
// to completion, sends the reply, then returns to poll). Reads are
// therefore snapshot-consistent -- a SELECT never observes a half-applied
// mutation -- and mutations from concurrent clients serialize in arrival
// order, streaming through the IVM delta path. Parallelism lives *inside*
// a command: the distributed scatter fans out to every worker before
// collecting any reply.
//
// Durability is wired in through ServerConfig::open_dir: the server opens
// (or recovers) a DurableSession over the durable directory, logs every
// served mutation to its WAL before acknowledging, and -- in the default
// remote mode -- attaches the session to the Coordinator so recovery
// replays history into the coordinator's replica and shard logs without
// touching workers (ReconcileWorkers then tail- or full-resyncs each one).
// ServerConfig::group_commit_ms batches WAL fsyncs: replies to commands
// that appended unsynced WAL records are queued and sent only after one
// fsync covering the whole commit window.

#ifndef PVCDB_SERVE_SERVER_H_
#define PVCDB_SERVE_SERVER_H_

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/engine/coordinator.h"
#include "src/engine/csv.h"
#include "src/engine/shard.h"
#include "src/engine/snapshot.h"
#include "src/net/protocol.h"

namespace pvcdb {

/// The command surface RunCommand runs against. Every implementation
/// computes each number through the same per-row step II pipeline, so
/// their rendered replies agree bit for bit.
class ServeBackend {
 public:
  virtual ~ServeBackend() = default;

  /// The logical catalog (schemas, variable registry, gathered tables).
  virtual const Database& catalog() const = 0;
  virtual size_t num_shards() const = 0;
  virtual std::vector<size_t> ShardRowCounts(const std::string& name) = 0;

  virtual CsvResult LoadCsv(const std::string& table,
                            const std::string& path) = 0;
  virtual QueryRun RunQuery(const Query& q) = 0;
  virtual Distribution ConditionalAgg(const QueryRun& run, size_t row_index,
                                      const std::string& column) = 0;
  virtual void Insert(const std::string& table, std::vector<Cell> cells,
                      double p) = 0;
  virtual size_t Delete(const std::string& table, const Cell& key) = 0;
  virtual void SetProb(VarId var, double p) = 0;
  virtual size_t RegisterView(const std::string& name, QueryPtr query,
                              std::vector<std::string>* warnings) = 0;
  virtual bool HasView(const std::string& name) = 0;
  virtual QueryRun PrintView(const std::string& name) = 0;
  virtual std::vector<ViewInfo> ViewInfos() = 0;

  /// Text of the `workers` command (worker liveness / pids).
  virtual std::string Workers() = 0;
  /// `respawn <s>`: replaces a down worker. False + message on failure.
  virtual bool Respawn(size_t shard, std::string* message) = 0;

  /// `threads` / `intratree`: pushes the evaluation thread knobs into the
  /// engine (and, for remote workers, over the wire via kSetOptions).
  virtual void SetEvalOptions(int num_threads, int intra_tree_threads) = 0;

  /// `stats`: one snapshot of every metric this backend can see. The
  /// in-process backend reads the process registry; the remote backend
  /// additionally gathers each live worker's registry over kStatsRequest
  /// (entries prefixed "shard<N>."). Pure observation -- never logged,
  /// never advances worker (lsn, chain).
  virtual std::vector<MetricSnapshot> StatsSnapshot() = 0;
};

/// Backend over one plain Database (does not own it): the local shell's
/// single-database mode. num_shards() is 0, so `tables` prints no
/// per-shard counts.
class DatabaseBackend : public ServeBackend {
 public:
  explicit DatabaseBackend(Database* db) : db_(db) {}

  const Database& catalog() const override { return *db_; }
  size_t num_shards() const override { return 0; }
  std::vector<size_t> ShardRowCounts(const std::string& name) override {
    (void)name;
    return {};
  }
  CsvResult LoadCsv(const std::string& table,
                    const std::string& path) override {
    return LoadCsvTableFromFile(db_, table, path);
  }
  QueryRun RunQuery(const Query& q) override;
  Distribution ConditionalAgg(const QueryRun& run, size_t row_index,
                              const std::string& column) override {
    return db_->ConditionalAggregateDistribution(run.local_result, row_index,
                                                 column);
  }
  void Insert(const std::string& table, std::vector<Cell> cells,
              double p) override {
    db_->InsertTuple(table, std::move(cells), p);
  }
  size_t Delete(const std::string& table, const Cell& key) override {
    return db_->DeleteTuple(table, key);
  }
  void SetProb(VarId var, double p) override {
    db_->UpdateProbability(var, p);
  }
  size_t RegisterView(const std::string& name, QueryPtr query,
                      std::vector<std::string>* warnings) override {
    (void)warnings;  // A single database has no degraded mode.
    return db_->RegisterView(name, std::move(query)).NumRows();
  }
  bool HasView(const std::string& name) override { return db_->HasView(name); }
  QueryRun PrintView(const std::string& name) override;
  std::vector<ViewInfo> ViewInfos() override;
  std::string Workers() override {
    return "in-process engine (single database); no worker processes\n";
  }
  bool Respawn(size_t shard, std::string* message) override {
    (void)shard;
    *message = "respawn requires out-of-process workers\n";
    return false;
  }
  void SetEvalOptions(int num_threads, int intra_tree_threads) override {
    db_->eval_options().num_threads = num_threads;
    db_->eval_options().intra_tree_threads = intra_tree_threads;
  }
  std::vector<MetricSnapshot> StatsSnapshot() override {
    return MetricsRegistry::Global().Snapshot();
  }

 private:
  Database* db_;
};

/// Backend over an in-process ShardedDatabase (does not own it): the
/// DatabaseBackend over its one Database, plus the placement upkeep and
/// shard-aware diagnostics. Loads and row mutations go through the
/// ShardedDatabase so the placement follows them.
class InProcessBackend : public DatabaseBackend {
 public:
  explicit InProcessBackend(ShardedDatabase* db)
      : DatabaseBackend(&db->coordinator()), sharded_(db) {}

  size_t num_shards() const override { return sharded_->num_shards(); }
  std::vector<size_t> ShardRowCounts(const std::string& name) override {
    return sharded_->ShardRowCounts(name);
  }
  CsvResult LoadCsv(const std::string& table,
                    const std::string& path) override {
    return LoadCsvTableFromFile(sharded_, table, path);
  }
  void Insert(const std::string& table, std::vector<Cell> cells,
              double p) override {
    sharded_->InsertTuple(table, std::move(cells), p);
  }
  size_t Delete(const std::string& table, const Cell& key) override {
    return sharded_->DeleteTuple(table, key);
  }
  std::vector<ViewInfo> ViewInfos() override { return sharded_->ViewInfos(); }
  std::string Workers() override;

 private:
  ShardedDatabase* sharded_;
};

/// Serving backend over a Coordinator of remote workers (does not own it).
class RemoteBackend : public ServeBackend {
 public:
  explicit RemoteBackend(Coordinator* coordinator)
      : coordinator_(coordinator) {}

  const Database& catalog() const override { return coordinator_->local(); }
  size_t num_shards() const override { return coordinator_->num_shards(); }
  std::vector<size_t> ShardRowCounts(const std::string& name) override {
    return coordinator_->ShardRowCounts(name);
  }
  CsvResult LoadCsv(const std::string& table,
                    const std::string& path) override {
    return LoadCsvTableFromFile(coordinator_, table, path);
  }
  QueryRun RunQuery(const Query& q) override { return coordinator_->Run(q); }
  Distribution ConditionalAgg(const QueryRun& run, size_t row_index,
                              const std::string& column) override {
    return coordinator_->ConditionalAggregateDistribution(run, row_index,
                                                          column);
  }
  void Insert(const std::string& table, std::vector<Cell> cells,
              double p) override {
    coordinator_->InsertTuple(table, std::move(cells), p);
  }
  size_t Delete(const std::string& table, const Cell& key) override {
    return coordinator_->DeleteTuple(table, key);
  }
  void SetProb(VarId var, double p) override {
    coordinator_->UpdateProbability(var, p);
  }
  size_t RegisterView(const std::string& name, QueryPtr query,
                      std::vector<std::string>* warnings) override {
    return coordinator_->RegisterView(name, std::move(query), warnings);
  }
  bool HasView(const std::string& name) override {
    return coordinator_->HasView(name);
  }
  QueryRun PrintView(const std::string& name) override {
    return coordinator_->PrintView(name);
  }
  std::vector<ViewInfo> ViewInfos() override {
    return coordinator_->ViewInfos();
  }
  std::string Workers() override;
  bool Respawn(size_t shard, std::string* message) override;
  void SetEvalOptions(int num_threads, int intra_tree_threads) override {
    coordinator_->SetEvalOptions(num_threads, intra_tree_threads);
  }
  std::vector<MetricSnapshot> StatsSnapshot() override {
    return coordinator_->AggregatedStats();
  }

 private:
  Coordinator* coordinator_;
};

/// Mutable per-session state beyond the backend: the durable session (for
/// `save` / `log`) and the session-level thread knobs (`threads` /
/// `intratree` display these values, not the engine's resolved counts).
/// Null members render those commands unavailable.
struct ServeSession {
  DurableSession* durable = nullptr;
  int num_threads = 0;
  int intra_tree_threads = 0;
};

/// Parses and executes one command line against `backend`, rendering the
/// full reply text into `out` (numbers print at `out`'s precision). Returns
/// false when the command failed. Sets `*shutdown` when the command was
/// `shutdown`. Never throws. `session` may be null (a surface with no
/// durable directory and no thread knobs, as in unit tests). The
/// session-topology commands `shards` and `open` belong to the local shell
/// and are rejected here.
bool RunCommand(ServeBackend* backend, const std::string& line,
                bool* shutdown, ServeSession* session, std::ostream& out);

/// RunCommand rendered into a reply message, with probabilities at
/// precision 17 (the wire format).
ClientReplyMsg ExecuteCommand(ServeBackend* backend, const std::string& line,
                              bool* shutdown, ServeSession* session = nullptr);

struct ServerConfig {
  std::string listen_address;
  size_t num_shards = 1;
  SemiringKind semiring = SemiringKind::kBool;
  /// Reference mode: serve an in-process ShardedDatabase instead of
  /// out-of-process workers (bit-identity baseline).
  bool in_process = false;
  /// Standalone worker endpoints to dial, one per shard. Empty: fork one
  /// worker process per shard over a socketpair.
  std::vector<std::string> worker_addresses;
  bool quiet = false;
  /// Durable directory: recover it when it holds state, else create it,
  /// and log every served mutation before acknowledging. Empty: volatile.
  std::string open_dir;
  /// Group-commit window in milliseconds. Negative: fsync on every WAL
  /// append, acknowledge immediately. >= 0: appends stay unsynced and the
  /// affected replies queue until one fsync at window expiry covers them
  /// all (0 = sync on the next poll-loop pass). Ignored without open_dir.
  int group_commit_ms = -1;
  /// Slow-query threshold in milliseconds. Commands whose total wall time
  /// meets it emit one structured line on stderr and bump
  /// `server.slow_queries`. Negative: disabled.
  double slow_query_ms = -1.0;
  /// When non-empty: the final metrics snapshot is written here as JSON
  /// Lines (one metric per line) on clean shutdown.
  std::string metrics_dump;
  /// Deadline (ms) for every coordinator -> worker RPC frame send/receive.
  /// Negative: block forever (the pre-fault-tolerance behaviour). A
  /// timed-out worker is marked down and served around (degraded replies
  /// from the local replica); mutations are never blind-retried.
  int rpc_timeout_ms = -1;
  /// Heartbeat interval (ms): the poll loop pings every worker this often,
  /// walking failures suspect -> down. Negative: disabled.
  int heartbeat_ms = -1;
  /// Respawn down workers from the heartbeat cycle (backoff-paced, circuit
  /// breaker on repeated failures). Requires heartbeat_ms >= 0 to fire.
  bool auto_respawn = false;
  /// Evict clients idle (no bytes received) for this long (ms). Negative:
  /// never. Evicted clients see an orderly close ("server closed
  /// connection" in the shell).
  int client_idle_ms = -1;
};

/// Runs the front-end server until a client sends `shutdown`. Returns 0 on
/// clean shutdown, 1 on a startup failure.
int RunServer(const ServerConfig& config);

}  // namespace pvcdb

#endif  // PVCDB_SERVE_SERVER_H_
