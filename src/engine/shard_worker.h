// The shard worker: one shard of the Coordinator's scatter-gather engine
// (src/engine/coordinator.h), serving the wire protocol of
// src/net/protocol.h over one coordinator connection.
//
// A worker holds a Database with its partition tables (the rows
// ShardPlacement assigns to this shard, annotated by re-interned shared
// variables), a replica of the shared VariableTable (replayed in Add order
// through kSyncVars, so ids line up by construction), and the
// provenance-extended partitions of tables serving distributed plans. It
// keeps no materialized views: every view lives in the coordinator's
// replica.
//
//  - kEvalChain evaluates a Select/Rename chain with a QueryEvaluator over
//    the partition extended with the hidden kShardRowIdColumn; surviving
//    rows are reported with their global driving row, annotation variable,
//    and a probability from IsolatedAnnotationDistribution -- the single
//    per-row step II pipeline every engine shares, which clones into a
//    task-private pool and is therefore independent of this worker's pool
//    history. That is the whole bit-identity argument: the coordinator's
//    merge of these rows on driving-row order equals the serial
//    single-database result bit for bit (chains preserve row order and
//    leave annotations untouched).
//  - kAppendRow / kDeleteRow apply the coordinator's routed deltas
//    (including the broadcast global-row shift on deletes), and kUpdateVar
//    its marginal updates.
//
// A worker never crashes its connection on bad input: malformed payloads
// and failed engine invariants (CheckError) become kError replies.
//
// Durability plane (protocol v2): the worker tracks an (lsn, chain) pair
// over every state-mutating request it applies -- lsn counts applied
// mutations, chain is a running CRC32C over (kind, payload digest). The
// coordinator keeps the same pair per shard in its in-memory log, so after
// a coordinator restart kReplayTail can prove the worker's state is a
// prefix of the log and kShipWal replays just the missing tail; any
// mismatch falls back to kReset + full resync, which is always correct.

#ifndef PVCDB_ENGINE_SHARD_WORKER_H_
#define PVCDB_ENGINE_SHARD_WORKER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"

namespace pvcdb {

/// One shard's serving state and request handlers. Construct from the
/// coordinator's kHello, then either drive Serve() on a connected socket
/// or feed Handle() directly (the unit-test hook).
class ShardWorker {
 public:
  explicit ShardWorker(const HelloMsg& hello);

  /// Outcome of a Serve() loop.
  enum class ServeStatus : uint8_t {
    kShutdown,      ///< Coordinator sent kShutdown; reply was sent.
    kDisconnected,  ///< Peer closed the connection.
    kProtocolError, ///< Corrupt frame or transport error; connection dead.
  };

  /// Request/reply loop: one frame in, one frame out, until shutdown or
  /// disconnect.
  ServeStatus Serve(Socket* sock);

  /// Handles one decoded frame, producing the reply frame. Never throws:
  /// engine failures become kError replies. Returns false only for
  /// kShutdown (reply still valid; the caller stops serving).
  bool Handle(MsgKind kind, const std::string& payload, MsgKind* reply_kind,
              std::string* reply_payload);

  /// Accepts coordinator connections on `address` until a kShutdown
  /// arrives (standalone worker process mode, `pvcdb_server --worker`).
  /// The worker state *persists across connections*: a reconnecting
  /// coordinator whose kHello matches the previous session (semiring,
  /// shard index, shard count) finds the applied state still there and can
  /// resync with a kReplayTail/kShipWal tail replay instead of a full
  /// retransfer; a mismatched kHello gets a fresh blank worker. Returns 0,
  /// or 1 on a listen failure.
  static int RunStandalone(const std::string& address, bool quiet);

  /// Applied-mutation position (the kTailInfo pair); test hooks.
  uint64_t lsn() const { return lsn_; }
  uint32_t chain() const { return chain_; }

  /// True when `kind` is a state-mutating request the durability chain
  /// covers (the set the coordinator logs and ships).
  static bool IsLoggedMutation(MsgKind kind);

  /// Advances `chain` by one applied entry: the exact formula both sides
  /// of kReplayTail must share.
  static uint32_t NextChain(uint32_t chain, MsgKind kind,
                            const std::string& payload);

 private:
  struct TableState {
    std::vector<int64_t> global;  ///< Global row id per local row.
    bool augmented_valid = false;
    PvcTable augmented{Schema{}};  ///< Partition + provenance column.
  };

  void HandleSyncVars(const SyncVarsMsg& msg);
  void HandleUpdateVar(const UpdateVarMsg& msg);
  uint64_t HandleLoadPartition(const LoadPartitionMsg& msg);
  void HandleAppendRow(const AppendRowMsg& msg);
  void HandleDeleteRow(const DeleteRowMsg& msg);
  ChainResultMsg HandleEvalChain(const EvalChainMsg& msg);

  /// The partition extended with kShardRowIdColumn (built lazily, kept
  /// across queries, extended in place on appends, invalidated on deletes
  /// and reloads).
  const PvcTable& AugmentedPartition(const std::string& table);

  TableState& StateOf(const std::string& table);

  /// Drops every table, variable and the (lsn, chain) position:
  /// kReset, the precondition of a full resync.
  void ResetState();

  /// True when a reconnecting coordinator's hello describes this worker's
  /// configuration (standalone reuse check).
  bool MatchesHello(const HelloMsg& hello) const;

  std::unique_ptr<Database> db_;
  SemiringKind semiring_ = SemiringKind::kBool;
  uint32_t shard_index_ = 0;
  uint32_t num_shards_ = 1;
  std::map<std::string, TableState> tables_;
  uint64_t lsn_ = 0;
  uint32_t chain_ = 0;
};

}  // namespace pvcdb

#endif  // PVCDB_ENGINE_SHARD_WORKER_H_
