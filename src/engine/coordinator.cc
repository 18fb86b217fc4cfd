#include "src/engine/coordinator.h"

#include <algorithm>

#include "src/engine/delta.h"
#include "src/engine/shard_worker.h"
#include "src/util/check.h"
#include "src/util/metrics.h"
#include "src/util/timer.h"

namespace pvcdb {
namespace {

/// Retained bytes per shard log. A worker whose position predates the
/// trimmed base simply takes the full-resync path; correctness never
/// depends on retention.
constexpr uint64_t kMaxShardLogBytes = 64ull << 20;

/// Target kShipWal batch size: tails stream in ~1 MiB request frames so a
/// long tail neither builds one giant frame nor pays a round-trip per
/// entry.
constexpr uint64_t kShipBatchBytes = 1ull << 20;

}  // namespace

// -- ShardLog ---------------------------------------------------------------

uint32_t Coordinator::ShardLog::chain_at(uint64_t lsn) const {
  PVC_CHECK_MSG(lsn >= base_lsn && lsn <= end_lsn(),
                "lsn " << lsn << " outside retained log ["
                       << base_lsn << ", " << end_lsn() << "]");
  if (lsn == base_lsn) return base_chain;
  return entries[lsn - base_lsn - 1].chain;
}

void Coordinator::ShardLog::Append(MsgKind kind, std::string payload) {
  uint32_t next = ShardWorker::NextChain(end_chain(), kind, payload);
  bytes += payload.size();
  entries.push_back(Entry{kind, std::move(payload), next});
}

void Coordinator::ShardLog::TrimTo(uint64_t max_bytes) {
  while (bytes > max_bytes && !entries.empty()) {
    Entry& front = entries.front();
    bytes -= front.payload.size();
    base_chain = front.chain;
    ++base_lsn;
    entries.pop_front();
  }
}

void Coordinator::ShardLog::Clear() {
  base_lsn = 0;
  base_chain = 0;
  entries.clear();
  bytes = 0;
}

// -- Coordinator ------------------------------------------------------------

Coordinator::Coordinator(SemiringKind semiring,
                         std::vector<RemoteShard> workers,
                         WorkerSpawner spawner)
    : semiring_(semiring),
      local_(semiring),
      workers_(std::move(workers)),
      placement_(workers_.size()),
      spawner_(std::move(spawner)),
      logs_(workers_.size()) {
  PVC_CHECK_MSG(!workers_.empty(), "a coordinator needs >= 1 worker");
  for (size_t s = 0; s < workers_.size(); ++s) {
    HelloMsg hello;
    hello.semiring = semiring_;
    hello.shard_index = static_cast<uint32_t>(s);
    hello.num_shards = static_cast<uint32_t>(workers_.size());
    workers_[s].Handshake(hello);  // Failure marks the worker down.
  }
}

std::string Coordinator::DownWarning(const char* what) const {
  PVCDB_COUNTER_ADD("coord.degraded_fallbacks", 1);
  std::string warning = "warning:";
  for (size_t s = 0; s < workers_.size(); ++s) {
    if (workers_[s].down()) warning += " worker " + std::to_string(s);
  }
  warning += " down; ";
  warning += what;
  return warning;
}

void Coordinator::MarkDiverged(size_t s, const std::string& why) {
  // A healthy worker rejecting a replicated mutation means its state no
  // longer mirrors the replica's; keep the connection out of every future
  // scatter until a respawn rebuilds it. (The engine invariant message is
  // intentionally dropped: the replica already applied the mutation, and
  // correctness is preserved by the fallback path.)
  (void)why;
  workers_[s].MarkDown();
}

void Coordinator::FlushVars() {
  const VariableTable& variables = local_.variables();
  if (logged_vars_ >= variables.size()) return;
  SyncVarsMsg msg;
  msg.first_id = static_cast<VarId>(logged_vars_);
  msg.entries.reserve(variables.size() - logged_vars_);
  for (size_t v = logged_vars_; v < variables.size(); ++v) {
    VarSyncEntry entry;
    entry.name = variables.NameOf(static_cast<VarId>(v));
    entry.distribution = variables.DistributionOf(static_cast<VarId>(v));
    msg.entries.push_back(std::move(entry));
  }
  logged_vars_ = variables.size();
  std::string payload = msg.Encode();
  for (size_t s = 0; s < workers_.size(); ++s) {
    LogAndShip(s, MsgKind::kSyncVars, payload);
  }
}

bool Coordinator::LogAndShip(size_t s, MsgKind kind,
                             const std::string& payload) {
  ShardLog& log = logs_[s];
  log.Append(kind, payload);
  log.TrimTo(kMaxShardLogBytes);
  if (replaying_ || workers_[s].down()) return false;
  try {
    workers_[s].Call(kind, payload, MsgKind::kOk);
    return true;
  } catch (const WorkerDown&) {
    return false;
  } catch (const CheckError& e) {
    MarkDiverged(s, e.what());
    return false;
  }
}

template <typename Reply>
bool Coordinator::Scatter(MsgKind kind, const std::string& payload,
                          MsgKind expect, std::vector<Reply>* replies) {
  WallTimer scatter_timer;
  PVCDB_COUNTER_ADD("coord.scatters", 1);
  size_t n = workers_.size();
  replies->assign(n, Reply{});
  std::vector<bool> sent(n, false);
  bool complete = true;
  for (size_t s = 0; s < n; ++s) {
    if (workers_[s].down()) {
      complete = false;
      continue;
    }
    try {
      workers_[s].SendRequest(kind, payload);
      sent[s] = true;
      CountShardRequest(s);
    } catch (const WorkerDown&) {
      complete = false;
    }
  }
  // Drain every pending reply even after a failure: the request/reply
  // sequencing of the surviving connections must stay aligned.
  std::string request_error;
  for (size_t s = 0; s < n; ++s) {
    if (!sent[s]) continue;
    try {
      std::string reply = workers_[s].RecvReply(expect);
      if (!Reply::Decode(reply, &(*replies)[s])) {
        workers_[s].MarkDown();
        complete = false;
      }
    } catch (const WorkerDown&) {
      complete = false;
    } catch (const CheckError& e) {
      // The worker is healthy; the request itself was bad. Surface the
      // first such error to the caller once the scatter is drained.
      if (request_error.empty()) request_error = e.what();
    }
  }
  if (!request_error.empty()) throw CheckError(request_error);
  PVCDB_HIST_OBSERVE("coord.scatter.ms", scatter_timer.ElapsedMillis());
  return complete;
}

void Coordinator::CountShardRequest(size_t s) {
  if (!MetricsEnabled()) return;
  if (shard_request_counters_.empty()) {
    shard_request_counters_.resize(workers_.size(), nullptr);
  }
  if (shard_request_counters_[s] == nullptr) {
    shard_request_counters_[s] = MetricsRegistry::Global().GetCounter(
        "coord.shard" + std::to_string(s) + ".requests");
  }
  shard_request_counters_[s]->Increment(1);
}

// -- Catalog ----------------------------------------------------------------

void Coordinator::PartitionAndShip(const std::string& name, size_t key_index,
                                   std::vector<VarId> vars) {
  // The kSyncVars entry for the table's variables must precede its
  // kLoadPartition entries in every shard log.
  FlushVars();

  placement_.Place(name, local_.table(name), key_index);
  table_vars_[name] = std::move(vars);
  for (size_t s = 0; s < workers_.size(); ++s) {
    // The worker re-seeds its views of a replaced table itself.
    LogAndShip(s, MsgKind::kLoadPartition, PartitionFor(name, s).Encode());
  }
}

void Coordinator::AddTupleIndependentTable(
    const std::string& name, Schema schema,
    std::vector<std::vector<Cell>> rows, std::vector<double> probabilities) {
  PVC_CHECK_MSG(schema.NumColumns() > 0, "cannot shard a zero-column table");
  const size_t key_index = 0;  // CSV loads route by the primary key.
  VarId var_base = static_cast<VarId>(local_.variables().size());
  size_t num_rows = rows.size();
  std::vector<VarId> vars;
  vars.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    vars.push_back(var_base + static_cast<VarId>(i));
  }
  // The replica performs the exact load an unsharded Database would:
  // Bernoulli variables in global row order, VarIds matching.
  local_.AddTupleIndependentTable(name, std::move(schema), std::move(rows),
                                  std::move(probabilities));
  PartitionAndShip(name, key_index, std::move(vars));
}

void Coordinator::AddVariableAnnotatedTable(
    const std::string& name, Schema schema,
    std::vector<std::vector<Cell>> rows, const std::vector<VarId>& vars,
    const std::string& key_column) {
  size_t key_index = 0;
  if (!key_column.empty()) {
    std::optional<size_t> found = schema.Find(key_column);
    PVC_CHECK_MSG(found.has_value(),
                  "table '" << name << "' has no key column '" << key_column
                            << "'");
    key_index = *found;
  }
  local_.AddVariableAnnotatedTable(name, std::move(schema), std::move(rows),
                                   vars);
  PartitionAndShip(name, key_index, vars);
}

std::vector<size_t> Coordinator::ShardRowCounts(
    const std::string& name) const {
  return placement_.ShardRowCounts(name);
}

// -- Mutations --------------------------------------------------------------

void Coordinator::ShipAppendedRow(const std::string& table,
                                  const std::vector<Cell>& cells, VarId var,
                                  size_t global_row) {
  FlushVars();
  table_vars_[table].push_back(var);
  size_t s = placement_.Append(table, cells).first;

  AppendRowMsg msg;
  msg.table = table;
  msg.cells = cells;
  msg.var = var;
  msg.global_row = global_row;
  LogAndShip(s, MsgKind::kAppendRow, msg.Encode());
}

size_t Coordinator::InsertTuple(const std::string& table,
                                std::vector<Cell> cells, double p) {
  PVC_CHECK_MSG(placement_.table(table).key_index < cells.size(),
                "row is missing its key cell");

  // The replica replays the unsharded mutation first (fresh Bernoulli
  // variable with the next global id, replica-registered views absorb the
  // delta), then the owning worker gets the routed append.
  VarId x = static_cast<VarId>(local_.variables().size());
  size_t global_row = local_.InsertTuple(table, cells, p);
  ShipAppendedRow(table, cells, x, global_row);
  return global_row;
}

void Coordinator::DeleteRowAt(const std::string& table, size_t row_index) {
  auto [s, shard_row] = placement_.Erase(table, row_index);
  local_.DeleteRowAt(table, row_index);
  std::vector<VarId>& vars = table_vars_[table];
  vars.erase(vars.begin() + static_cast<ptrdiff_t>(row_index));

  // Broadcast: the owner drops its local row, everyone shifts global ids.
  for (size_t w = 0; w < workers_.size(); ++w) {
    DeleteRowMsg msg;
    msg.table = table;
    msg.has_local_row = (w == s);
    msg.local_row = shard_row;
    msg.global_row = row_index;
    LogAndShip(w, MsgKind::kDeleteRow, msg.Encode());
  }
}

size_t Coordinator::DeleteTuple(const std::string& table, const Cell& key) {
  return DeleteRowsMatchingKey(
      local_.table(table), key,
      [&](size_t index) { DeleteRowAt(table, index); });
}

void Coordinator::UpdateProbability(VarId var, double p) {
  local_.UpdateProbability(var, p);
  // The update entry must land after the kSyncVars entry that introduces
  // the variable (a no-op unless a load is mid-flight).
  FlushVars();
  UpdateVarMsg msg;
  msg.var = var;
  msg.probability = p;
  std::string payload = msg.Encode();
  for (size_t s = 0; s < workers_.size(); ++s) {
    LogAndShip(s, MsgKind::kUpdateVar, payload);
  }
}

// -- Recovery replay --------------------------------------------------------

void Coordinator::ApplyRecoveredOp(const WalOp& op) {
  switch (op.type) {
    case WalOpType::kRegisterVariable: {
      // Mirrors the Database-level ApplyWalOp: creation-order Add plus the
      // pool interning an unsharded load performs.
      VarId id = local_.variables().Add(op.distribution, op.name);
      local_.pool().Var(id);
      return;
    }
    case WalOpType::kCreateTable:
      AddVariableAnnotatedTable(op.name, op.schema, op.rows, op.vars,
                                op.key_column);
      return;
    case WalOpType::kInsertRow: {
      PVC_CHECK_MSG(op.var < local_.variables().size(),
                    "kInsertRow references unregistered variable x"
                        << op.var);
      PVC_CHECK_MSG(placement_.Has(op.name),
                    "kInsertRow for unknown sharded table '" << op.name
                                                             << "'");
      size_t global_row = local_.AppendRowToTable(
          op.name, op.cells, local_.pool().Var(op.var));
      ShipAppendedRow(op.name, op.cells, op.var, global_row);
      return;
    }
    case WalOpType::kDeleteRow:
      DeleteRowAt(op.name, op.row_index);
      return;
    case WalOpType::kUpdateProbability:
      UpdateProbability(op.var, op.probability);
      return;
    case WalOpType::kRegisterView:
      RegisterView(op.name, op.query, nullptr);
      return;
    case WalOpType::kDropView:
      DropView(op.name);
      return;
    case WalOpType::kReshard:
      // Server-mode topology is deployment configuration, not durable
      // state: the recovered history replays against the current worker
      // set (placements recompute; mismatched workers full-resync).
      return;
  }
  PVC_FAIL("unknown WAL op type");
}

// -- Queries ----------------------------------------------------------------

QueryRun Coordinator::GatherChainRows(const Schema& schema,
                                      std::vector<ChainResultMsg> replies) {
  std::vector<ChainRow> merged;
  for (ChainResultMsg& reply : replies) {
    for (ChainRow& row : reply.rows) merged.push_back(std::move(row));
  }
  std::sort(merged.begin(), merged.end(),
            [](const ChainRow& a, const ChainRow& b) {
              return a.global_row < b.global_row;
            });

  QueryRun run;
  run.schema = schema;
  run.distributed = true;
  // Render through a scratch pool: annotations of the distributable
  // fragment are single variables, so the text matches the replica's
  // rendering exactly.
  ExprPool scratch(semiring_);
  PvcTable gathered{schema};
  run.probabilities.reserve(merged.size());
  for (const ChainRow& row : merged) {
    gathered.AddRow(row.cells, scratch.Var(row.var));
    run.probabilities.push_back(row.probability);
  }
  run.text = gathered.ToString(&scratch);
  return run;
}

QueryRun Coordinator::EvalChainLocally(const Query& q) {
  QueryRun run;
  PvcTable result = local_.Run(q);
  run.schema = result.schema();
  run.text = result.ToString(&local_.pool());
  run.probabilities = local_.TupleProbabilities(result);
  run.local_result = std::move(result);
  return run;
}

QueryRun Coordinator::Run(const Query& q) {
  if (std::optional<std::string> driving = placement_.DrivingTable(q, local_)) {
    EvalChainMsg msg;
    msg.table = *driving;
    // Non-owning alias: the message only lives for this call, and Encode
    // just serializes the query.
    msg.query = QueryPtr(&q, [](const Query*) {});
    std::string payload = msg.Encode();
    std::vector<ChainResultMsg> replies;
    if (Scatter<ChainResultMsg>(MsgKind::kEvalChain, payload,
                                MsgKind::kChainResult, &replies)) {
      Schema schema = replies.empty() ? Schema{} : replies[0].schema;
      return GatherChainRows(schema, std::move(replies));
    }
    QueryRun run = EvalChainLocally(q);
    run.warnings.push_back(DownWarning("evaluated on coordinator"));
    return run;
  }
  // Gather shapes (joins, aggregates, projections, unions) always run on
  // the replica.
  return EvalChainLocally(q);
}

Distribution Coordinator::ConditionalAggregateDistribution(
    const QueryRun& run, size_t row_index, const std::string& column) {
  PVC_CHECK_MSG(!run.distributed,
                "aggregation columns only occur on coordinator-evaluated "
                "results (aggregates always gather)");
  return local_.ConditionalAggregateDistribution(run.local_result, row_index,
                                                 column);
}

// -- Materialized views -----------------------------------------------------

Coordinator::RemoteView* Coordinator::FindRemoteView(const std::string& name) {
  for (RemoteView& view : remote_views_) {
    if (view.name == name) return &view;
  }
  return nullptr;
}

size_t Coordinator::RegisterView(const std::string& name, QueryPtr query,
                                 std::vector<std::string>* warnings) {
  if (std::optional<std::string> driving =
          placement_.DrivingTable(*query, local_)) {
    // Validate the chain on the replica first (bad column names and the
    // like fail here, before any worker state changes; chains intern
    // nothing, so the replica's pool is undisturbed). The row count of the
    // materialization is the local count in every case.
    size_t rows = local_.Run(*query).NumRows();

    FlushVars();
    RegisterChainViewMsg msg;
    msg.name = name;
    msg.table = *driving;
    msg.query = query;
    std::string payload = msg.Encode();
    bool complete = true;
    for (size_t s = 0; s < workers_.size(); ++s) {
      if (!LogAndShip(s, MsgKind::kRegisterChainView, payload)) {
        complete = false;
      }
    }
    if (!complete && !replaying_ && warnings != nullptr) {
      warnings->push_back(
          DownWarning("view registered; down workers resync on respawn"));
    }
    if (RemoteView* existing = FindRemoteView(name)) {
      existing->driving = *driving;
      existing->query = query;
    } else {
      remote_views_.push_back({name, *driving, query});
    }
    // Remote chain views never materialize on the replica, so the replica
    // cannot log them: one coordinator-level kRegisterView record covers
    // the whole branch (its replay re-runs this function).
    if (WalWriter* wal = local_.wal()) {
      WalRecord record;
      record.ops.push_back(WalOp::RegisterView(name, query));
      LogWalRecord(wal, record);
    }
    // A replica view previously under this name retires WITHOUT its own
    // kDropView record: the kRegisterView replay performs the drop again,
    // and a paired record would fail replay (the view is already gone).
    if (local_.HasView(name)) {
      WalWriter* wal = local_.wal();
      local_.set_wal(nullptr);
      local_.DropView(name);
      local_.set_wal(wal);
    }
    return rows;
  }

  size_t rows = local_.RegisterView(name, std::move(query)).NumRows();
  // Retire a same-name remote view only now that the replacement exists.
  for (auto it = remote_views_.begin(); it != remote_views_.end(); ++it) {
    if (it->name == name) {
      remote_views_.erase(it);
      NameMsg msg;
      msg.name = name;
      std::string payload = msg.Encode();
      for (size_t s = 0; s < workers_.size(); ++s) {
        LogAndShip(s, MsgKind::kDropChainView, payload);
      }
      break;
    }
  }
  return rows;
}

bool Coordinator::HasView(const std::string& name) const {
  for (const RemoteView& view : remote_views_) {
    if (view.name == name) return true;
  }
  return local_.HasView(name);
}

void Coordinator::DropView(const std::string& name) {
  for (auto it = remote_views_.begin(); it != remote_views_.end(); ++it) {
    if (it->name == name) {
      remote_views_.erase(it);
      NameMsg msg;
      msg.name = name;
      std::string payload = msg.Encode();
      for (size_t s = 0; s < workers_.size(); ++s) {
        LogAndShip(s, MsgKind::kDropChainView, payload);
      }
      // Remote views live only in coordinator-level records, so their drop
      // must log at this level too.
      if (WalWriter* wal = local_.wal()) {
        WalRecord record;
        record.ops.push_back(WalOp::DropView(name));
        LogWalRecord(wal, record);
      }
      return;
    }
  }
  local_.DropView(name);  // Logs its own kDropView when a WAL is attached.
}

QueryRun Coordinator::PrintView(const std::string& name) {
  if (RemoteView* view = FindRemoteView(name)) {
    NameMsg msg;
    msg.name = name;
    std::string payload = msg.Encode();
    std::vector<ChainResultMsg> replies;
    if (Scatter<ChainResultMsg>(MsgKind::kViewProbs, payload,
                                MsgKind::kChainResult, &replies)) {
      Schema schema = replies.empty() ? Schema{} : replies[0].schema;
      return GatherChainRows(schema, std::move(replies));
    }
    // Fallback: recompute on the replica (no cache, identical values).
    QueryRun run = EvalChainLocally(*view->query);
    run.warnings.push_back(DownWarning("evaluated on coordinator"));
    return run;
  }
  QueryRun run;
  PvcTable result = local_.ViewTable(name);  // Copy: refresh + snapshot.
  run.schema = result.schema();
  run.text = result.ToString(&local_.pool());
  run.probabilities = local_.ViewProbabilities(name);
  run.local_result = std::move(result);
  return run;
}

std::vector<ViewInfo> Coordinator::ViewInfos() {
  std::vector<ViewInfo> infos;
  for (RemoteView& view : remote_views_) {
    ViewInfo info;
    info.name = view.name;
    info.plan = "chain (per shard)";
    NameMsg msg;
    msg.name = view.name;
    std::string payload = msg.Encode();
    std::vector<ViewInfoMsg> replies;
    if (Scatter<ViewInfoMsg>(MsgKind::kViewInfo, payload,
                             MsgKind::kViewInfoResult, &replies)) {
      for (const ViewInfoMsg& reply : replies) {
        info.rows += reply.rows;
        info.cache_entries += reply.cache_entries;
      }
    } else {
      // Degraded: the row count comes from the replica, cache entries
      // from whatever workers answered.
      info.rows = local_.Run(*view.query).NumRows();
      for (const ViewInfoMsg& reply : replies) {
        info.cache_entries += reply.cache_entries;
      }
    }
    infos.push_back(std::move(info));
  }
  for (const std::string& name : local_.ViewNames()) {
    infos.push_back(DescribeView(&local_, name));
  }
  return infos;
}

// -- Snapshot-capture hooks -------------------------------------------------

std::string Coordinator::KeyColumnName(const std::string& name) const {
  size_t key_index = placement_.table(name).key_index;
  return local_.table(name).schema().column(key_index).name;
}

std::vector<std::pair<std::string, QueryPtr>> Coordinator::ViewCatalog()
    const {
  std::vector<std::pair<std::string, QueryPtr>> catalog;
  for (const RemoteView& view : remote_views_) {
    catalog.emplace_back(view.name, view.query);
  }
  for (const std::string& name : local_.ViewNames()) {
    catalog.emplace_back(name, local_.views().view(name).query());
  }
  return catalog;
}

// -- Evaluation knobs -------------------------------------------------------

void Coordinator::SetEvalOptions(int num_threads, int intra_tree_threads) {
  local_.eval_options().num_threads = num_threads;
  local_.eval_options().intra_tree_threads = intra_tree_threads;
  for (size_t s = 0; s < workers_.size(); ++s) SendOptionsTo(s);
}

void Coordinator::SendOptionsTo(size_t s) {
  if (replaying_ || workers_[s].down()) return;
  EvalOptionsMsg msg;
  // Round-trips negative counts (-1 = all cores) through the u32 field.
  msg.num_threads = static_cast<uint32_t>(local_.eval_options().num_threads);
  msg.intra_tree_threads =
      static_cast<uint32_t>(local_.eval_options().intra_tree_threads);
  try {
    workers_[s].Call(MsgKind::kSetOptions, msg.Encode(), MsgKind::kOk);
  } catch (const WorkerDown&) {
  } catch (const CheckError& e) {
    MarkDiverged(s, e.what());
  }
}

// -- Worker management ------------------------------------------------------

LoadPartitionMsg Coordinator::PartitionFor(const std::string& name,
                                           size_t s) const {
  const PvcTable& logical = local_.table(name);
  const ShardPlacement::Table& placed = placement_.table(name);
  const std::vector<VarId>& vars = table_vars_.at(name);
  LoadPartitionMsg msg;
  msg.table = name;
  msg.key_column = logical.schema().column(placed.key_index).name;
  msg.schema = logical.schema();
  for (size_t i = 0; i < placed.slots.size(); ++i) {
    if (placed.slots[i].first != s) continue;
    msg.rows.push_back(logical.row(i).cells);
    msg.vars.push_back(vars[i]);
    msg.global_rows.push_back(i);
  }
  return msg;
}

bool Coordinator::ResyncWorker(size_t s, ResyncStats* stats,
                               std::string* error) {
  *stats = ResyncStats{};
  // Record what this resync shipped on exit, whichever path ran.
  struct ResyncRecorder {
    const ResyncStats* stats;
    ~ResyncRecorder() {
      PVCDB_COUNTER_ADD("coord.resyncs", 1);
      if (stats->full) PVCDB_COUNTER_ADD("coord.resync.full", 1);
      PVCDB_COUNTER_ADD("coord.resync.entries", stats->entries);
      PVCDB_COUNTER_ADD("coord.resync.bytes", stats->bytes);
    }
  } recorder{stats};
  ShardLog& log = logs_[s];

  // Position probe + tail replay. The worker's (lsn, chain) pair must name
  // a retained log position AND reproduce the chain CRC at that position:
  // that proves its applied history is a prefix of this log, so shipping
  // entries [lsn, end) brings it exactly current. lsn 0 (a blank worker)
  // always takes the full path -- the consolidated rebuild is cheaper than
  // a from-zero tail. Any CheckError here (a rejected tail entry) falls
  // through to the full rebuild, which is always correct.
  try {
    ReplayTailMsg probe;
    probe.base_lsn = log.base_lsn;
    std::string reply = workers_[s].Call(MsgKind::kReplayTail, probe.Encode(),
                                         MsgKind::kTailInfo);
    TailInfoMsg info;
    if (TailInfoMsg::Decode(reply, &info) && info.lsn > 0 &&
        info.lsn >= log.base_lsn && info.lsn <= log.end_lsn() &&
        info.chain == log.chain_at(info.lsn)) {
      ShipWalMsg batch;
      batch.first_lsn = info.lsn;
      uint64_t batch_bytes = 0;
      auto flush = [&]() {
        if (batch.entries.empty()) return;
        uint64_t shipped = batch.entries.size();
        workers_[s].Call(MsgKind::kShipWal, batch.Encode(), MsgKind::kOk);
        batch.first_lsn += shipped;
        batch.entries.clear();
        batch_bytes = 0;
      };
      for (uint64_t lsn = info.lsn; lsn < log.end_lsn(); ++lsn) {
        const ShardLog::Entry& entry = log.entries[lsn - log.base_lsn];
        WalEntry wire;
        wire.kind = static_cast<uint8_t>(entry.kind);
        wire.payload = entry.payload;
        batch_bytes += entry.payload.size();
        stats->entries += 1;
        stats->bytes += entry.payload.size();
        batch.entries.push_back(std::move(wire));
        if (batch_bytes >= kShipBatchBytes) flush();
      }
      flush();
      SendOptionsTo(s);
      return true;
    }
  } catch (const WorkerDown& e) {
    *error = e.what();
    return false;
  } catch (const CheckError&) {
    // Fall through to the full rebuild.
  }

  // Full rebuild: reset the worker, then replay the replica's consolidated
  // state. Every entry is appended to the REBASED log as it ships, so the
  // worker's restarted (lsn, chain) stays aligned with the log and future
  // resyncs can tail again.
  try {
    workers_[s].Call(MsgKind::kReset, std::string(), MsgKind::kOk);
    log.Clear();
    stats->full = true;
    auto ship = [&](MsgKind kind, std::string payload) {
      stats->entries += 1;
      stats->bytes += payload.size();
      log.Append(kind, std::move(payload));
      workers_[s].Call(kind, log.entries.back().payload, MsgKind::kOk);
    };
    // Only variables already covered by kSyncVars entries: any newer ones
    // reach every log (including this rebased one) with the next
    // FlushVars, and no retained data entry can reference them yet.
    if (logged_vars_ > 0) {
      const VariableTable& variables = local_.variables();
      SyncVarsMsg msg;
      msg.first_id = 0;
      msg.entries.reserve(logged_vars_);
      for (size_t v = 0; v < logged_vars_; ++v) {
        VarSyncEntry entry;
        entry.name = variables.NameOf(static_cast<VarId>(v));
        entry.distribution = variables.DistributionOf(static_cast<VarId>(v));
        msg.entries.push_back(std::move(entry));
      }
      ship(MsgKind::kSyncVars, msg.Encode());
    }
    // Map order: placement and annotations reproduce the original load.
    for (const auto& [name, placed] : placement_.tables()) {
      (void)placed;
      ship(MsgKind::kLoadPartition, PartitionFor(name, s).Encode());
    }
    for (const RemoteView& view : remote_views_) {
      RegisterChainViewMsg msg;
      msg.name = view.name;
      msg.table = view.driving;
      msg.query = view.query;
      ship(MsgKind::kRegisterChainView, msg.Encode());
    }
    SendOptionsTo(s);
    return true;
  } catch (const WorkerDown& e) {
    *error = e.what();
    return false;
  } catch (const CheckError& e) {
    workers_[s].MarkDown();
    *error = e.what();
    return false;
  }
}

void Coordinator::ReconcileWorkers(std::vector<std::string>* lines) {
  for (size_t s = 0; s < workers_.size(); ++s) {
    std::string line = "worker " + std::to_string(s) + ": ";
    if (workers_[s].down()) {
      if (lines != nullptr) {
        lines->push_back(line + "down (respawn to resync)");
      }
      continue;
    }
    ResyncStats stats;
    std::string error;
    if (ResyncWorker(s, &stats, &error)) {
      line += (stats.full ? "full resync, " : "tail resync, ") +
              std::to_string(stats.entries) + " entries, " +
              std::to_string(stats.bytes) + " bytes";
    } else {
      line += "resync failed (" + error + ")";
    }
    if (lines != nullptr) lines->push_back(line);
  }
}

bool Coordinator::Respawn(size_t s, std::string* error, ResyncStats* stats) {
  if (s >= workers_.size()) {
    *error = "no worker " + std::to_string(s);
    return false;
  }
  if (spawner_ == nullptr) {
    *error = "no worker spawner configured";
    return false;
  }
  RemoteShard fresh(static_cast<uint32_t>(s), Socket(), 0);
  if (!spawner_(static_cast<uint32_t>(s), &fresh, error)) return false;
  // The replacement stub inherits the RPC deadline BEFORE the handshake: a
  // SIGSTOP'd standalone worker accepts the connect (kernel backlog) and
  // only the handshake recv would reveal the hang.
  fresh.set_rpc_options(workers_[s].rpc_options());
  HelloMsg hello;
  hello.semiring = semiring_;
  hello.shard_index = static_cast<uint32_t>(s);
  hello.num_shards = static_cast<uint32_t>(workers_.size());
  if (!fresh.Handshake(hello)) {
    *error = "handshake with respawned worker failed";
    return false;
  }
  workers_[s] = std::move(fresh);

  // A forked replacement is blank and takes the full rebuild; a standalone
  // worker that kept its state across the reconnect proves its position
  // and gets just the tail.
  ResyncStats local_stats;
  if (!ResyncWorker(s, &local_stats, error)) return false;
  if (stats != nullptr) *stats = local_stats;
  return true;
}

void Coordinator::Shutdown() {
  for (RemoteShard& worker : workers_) worker.Shutdown();
}

// -- Fault tolerance ---------------------------------------------------------

const char* WorkerHealthName(WorkerHealth health) {
  switch (health) {
    case WorkerHealth::kHealthy:
      return "healthy";
    case WorkerHealth::kSuspect:
      return "suspect";
    case WorkerHealth::kDown:
      return "down";
    case WorkerHealth::kDegraded:
      return "degraded";
  }
  return "unknown";
}

void Coordinator::ConfigureFaultTolerance(
    const FaultToleranceOptions& options) {
  ft_options_ = options;
  if (ft_options_.clock == nullptr) ft_options_.clock = Clock::Real();
  RpcOptions rpc;
  rpc.deadline_ms = ft_options_.rpc_deadline_ms;
  for (RemoteShard& worker : workers_) worker.set_rpc_options(rpc);
  health_.clear();
  health_.resize(workers_.size());
  for (size_t s = 0; s < health_.size(); ++s) {
    // Decorrelate the jittered respawn schedules so a mass outage does not
    // hammer the spawner in lockstep.
    BackoffPolicy policy = ft_options_.respawn_backoff;
    policy.seed += s;
    health_[s].respawn_backoff = ExponentialBackoff(policy);
    health_[s].breaker = std::make_unique<CircuitBreaker>(
        ft_options_.respawn_max_failures, ft_options_.respawn_window_ms,
        ft_options_.clock);
  }
}

WorkerHealth Coordinator::Health(size_t s) const {
  if (s >= workers_.size()) return WorkerHealth::kDown;
  if (!workers_[s].down()) return WorkerHealth::kHealthy;
  if (s >= health_.size()) return WorkerHealth::kDown;
  const WorkerHealthState& h = health_[s];
  if (h.circuit_open) return WorkerHealth::kDegraded;
  return h.misses < ft_options_.down_after_misses ? WorkerHealth::kSuspect
                                                  : WorkerHealth::kDown;
}

void Coordinator::HeartbeatTick(std::vector<std::string>* lines) {
  if (health_.empty()) return;
  auto note = [lines](std::string text) {
    if (lines != nullptr) lines->push_back(std::move(text));
  };
  int open_circuits = 0;
  for (size_t s = 0; s < workers_.size(); ++s) {
    WorkerHealthState& h = health_[s];
    std::string who = "worker " + std::to_string(s);
    if (!workers_[s].down()) {
      PVCDB_COUNTER_ADD("coordinator.heartbeats_sent", 1);
      PongMsg pong;
      if (workers_[s].Ping(next_ping_nonce_++, &pong)) {
        if (h.misses != 0) note(who + ": healthy (heartbeat restored)");
        h.misses = 0;
        h.circuit_open = false;
        h.respawn_backoff.Reset();
        h.breaker->RecordSuccess();
        continue;
      }
      // Ping marked the stub down (the transport is poisoned); the walk
      // below decides suspect vs down and whether to respawn next ticks.
      PVCDB_COUNTER_ADD("coordinator.heartbeats_missed", 1);
      ++h.misses;
      note("warning: " + who + " " +
           WorkerHealthName(h.misses < ft_options_.down_after_misses
                                ? WorkerHealth::kSuspect
                                : WorkerHealth::kDown) +
           " (heartbeat missed, " + std::to_string(h.misses) + "/" +
           std::to_string(ft_options_.down_after_misses) + ")");
      continue;
    }
    // Transport already down: a ping failed on an earlier tick, or a query
    // RPC timed out in between (a miss count of zero means the latter).
    // Every tick spent down is a missed beat, so the suspect -> down walk
    // advances even when nothing can be pinged.
    int before = h.misses;
    if (h.misses < ft_options_.down_after_misses) ++h.misses;
    if (before == 0) {
      note("warning: " + who + " suspect (rpc failure)");
    } else if (before < ft_options_.down_after_misses &&
               h.misses >= ft_options_.down_after_misses) {
      note("warning: " + who + " down (" + std::to_string(h.misses) +
           " heartbeats missed)");
    }
    if (!ft_options_.auto_respawn) {
      if (h.circuit_open) ++open_circuits;
      continue;
    }
    if (h.breaker->open()) {
      if (!h.circuit_open) {
        note("warning: " + who + " circuit open (" +
             std::to_string(h.breaker->failures_in_window()) +
             " respawn failures in " +
             std::to_string(ft_options_.respawn_window_ms) +
             "ms); shard degraded, serving from local replica");
      }
      h.circuit_open = true;
      ++open_circuits;
      continue;
    }
    h.circuit_open = false;
    if (ft_options_.clock->NowMillis() < h.next_respawn_at_ms) continue;
    std::string error;
    ResyncStats stats;
    if (Respawn(s, &error, &stats)) {
      PVCDB_COUNTER_ADD("coordinator.auto_respawns", 1);
      h.misses = 0;
      h.respawn_backoff.Reset();
      h.breaker->RecordSuccess();
      note(who + ": respawned (" + (stats.full ? "full" : "tail") +
           " resync, " + std::to_string(stats.entries) + " entries)");
    } else {
      h.breaker->RecordFailure();
      uint64_t delay = h.respawn_backoff.NextDelayMs();
      h.next_respawn_at_ms = ft_options_.clock->NowMillis() + delay;
      if (h.breaker->open()) {
        h.circuit_open = true;
        ++open_circuits;
        note("warning: " + who + " circuit open (" +
             std::to_string(h.breaker->failures_in_window()) +
             " respawn failures in " +
             std::to_string(ft_options_.respawn_window_ms) +
             "ms); shard degraded, serving from local replica");
      } else {
        note("warning: " + who + " respawn failed (" + error +
             "); next attempt in " + std::to_string(delay) + "ms");
      }
    }
  }
  PVCDB_GAUGE_SET("coordinator.circuit_open",
                  static_cast<int64_t>(open_circuits));
}

std::vector<std::pair<uint64_t, uint32_t>> Coordinator::ShardTails() const {
  std::vector<std::pair<uint64_t, uint32_t>> tails;
  tails.reserve(logs_.size());
  for (const ShardLog& log : logs_) {
    tails.emplace_back(log.end_lsn(), log.end_chain());
  }
  return tails;
}

void Coordinator::RebaseShardLogs(
    const std::vector<std::pair<uint64_t, uint32_t>>& tails) {
  if (tails.size() != logs_.size()) return;
  for (size_t s = 0; s < logs_.size(); ++s) {
    logs_[s].Clear();
    logs_[s].base_lsn = tails[s].first;
    logs_[s].base_chain = tails[s].second;
  }
  // Every variable the snapshot rebuilt was covered by kSyncVars entries
  // in the live logs the tails describe; only genuinely newer variables
  // (from the WAL tail about to replay) still need flushing.
  logged_vars_ = local_.variables().size();
}

// -- Observability ----------------------------------------------------------

std::vector<MetricSnapshot> Coordinator::AggregatedStats() {
  std::vector<MetricSnapshot> out = MetricsRegistry::Global().Snapshot();
  for (size_t s = 0; s < workers_.size(); ++s) {
    if (workers_[s].down()) continue;
    std::string reply;
    try {
      reply = workers_[s].Call(MsgKind::kStatsRequest, std::string(),
                               MsgKind::kStatsReply);
    } catch (const WorkerDown&) {
      continue;
    } catch (const CheckError&) {
      continue;
    }
    StatsReplyMsg msg;
    if (!StatsReplyMsg::Decode(reply, &msg)) continue;
    std::string prefix = "shard" + std::to_string(s) + ".";
    for (MetricSnapshot& entry : msg.entries) {
      entry.name = prefix + entry.name;
      out.push_back(std::move(entry));
    }
  }
  return out;
}

bool Coordinator::WorkerTail(size_t s, uint64_t* lsn, uint32_t* chain) {
  if (s >= workers_.size() || workers_[s].down()) return false;
  try {
    ReplayTailMsg probe;
    probe.base_lsn = logs_[s].base_lsn;
    std::string reply = workers_[s].Call(MsgKind::kReplayTail, probe.Encode(),
                                         MsgKind::kTailInfo);
    TailInfoMsg info;
    if (!TailInfoMsg::Decode(reply, &info)) return false;
    *lsn = info.lsn;
    *chain = info.chain;
    return true;
  } catch (const WorkerDown&) {
    return false;
  } catch (const CheckError&) {
    return false;
  }
}

}  // namespace pvcdb
