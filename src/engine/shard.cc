#include "src/engine/shard.h"

#include <utility>

#include "src/engine/delta.h"
#include "src/engine/wal.h"
#include "src/util/check.h"

namespace pvcdb {

const char kShardRowIdColumn[] = "__pvcdb_rowid";

namespace {

/// Detaches the coordinator's WAL writer for the guarded scope: table loads
/// log a richer record themselves (it carries the routing key column), so
/// the coordinator's own logging must stay quiet.
class WalDetachGuard {
 public:
  explicit WalDetachGuard(Database* db) : db_(db), wal_(db->wal()) {
    db_->set_wal(nullptr);
  }
  ~WalDetachGuard() { db_->set_wal(wal_); }

 private:
  Database* db_;
  WalWriter* wal_;
};

}  // namespace

// -- ShardPlacement -----------------------------------------------------------

ShardPlacement::ShardPlacement(size_t num_shards) : num_shards_(num_shards) {}

size_t ShardPlacement::Route(const Cell& key) const {
  return static_cast<size_t>(key.StableHash() % num_shards_);
}

void ShardPlacement::Place(const std::string& name, const PvcTable& table,
                           size_t key_index) {
  PVC_CHECK_MSG(key_index < table.schema().NumColumns(),
                "shard key column " << key_index << " out of range");
  Table placed;
  placed.key_index = key_index;
  placed.counts.assign(num_shards_, 0);
  placed.slots.reserve(table.NumRows());
  for (const Row& row : table.rows()) {
    size_t s = Route(row.cells[key_index]);
    placed.slots.emplace_back(static_cast<uint32_t>(s),
                              static_cast<uint32_t>(placed.counts[s]++));
  }
  tables_[name] = std::move(placed);
}

const ShardPlacement::Table& ShardPlacement::table(
    const std::string& name) const {
  auto it = tables_.find(name);
  PVC_CHECK_MSG(it != tables_.end(), "no sharded table named '" << name << "'");
  return it->second;
}

ShardPlacement::Table& ShardPlacement::Mutable(const std::string& name) {
  return const_cast<Table&>(table(name));
}

ShardPlacement::Slot ShardPlacement::Append(const std::string& name,
                                            const std::vector<Cell>& cells) {
  Table& placed = Mutable(name);
  PVC_CHECK_MSG(placed.key_index < cells.size(), "row is missing its key cell");
  size_t s = Route(cells[placed.key_index]);
  Slot slot(static_cast<uint32_t>(s),
            static_cast<uint32_t>(placed.counts[s]++));
  placed.slots.push_back(slot);
  return slot;
}

ShardPlacement::Slot ShardPlacement::Erase(const std::string& name,
                                           size_t row) {
  Table& placed = Mutable(name);
  PVC_CHECK_MSG(row < placed.slots.size(),
                "row index " << row << " out of range");
  Slot slot = placed.slots[row];
  placed.slots.erase(placed.slots.begin() + static_cast<ptrdiff_t>(row));
  // Partitions preserve table order, so only later rows of the same shard
  // sit above the removed one in its partition.
  for (size_t i = row; i < placed.slots.size(); ++i) {
    if (placed.slots[i].first == slot.first) --placed.slots[i].second;
  }
  --placed.counts[slot.first];
  return slot;
}

std::vector<size_t> ShardPlacement::ShardRowCounts(
    const std::string& name) const {
  return table(name).counts;
}

std::optional<std::string> ShardPlacement::DrivingTable(
    const Query& q, const Database& catalog) const {
  std::optional<std::string> driving = ShardDrivingTable(q);
  if (!driving.has_value() || !Has(*driving) ||
      catalog.table(*driving).schema().Find(kShardRowIdColumn).has_value() ||
      QueryMentionsColumn(q, kShardRowIdColumn)) {
    return std::nullopt;
  }
  return driving;
}

// -- ShardedDatabase ----------------------------------------------------------

ShardedDatabase::ShardedDatabase(size_t num_shards, SemiringKind semiring)
    : coordinator_(semiring), placement_(num_shards) {
  PVC_CHECK_MSG(num_shards >= 1, "a sharded database needs >= 1 shard");
}

void ShardedDatabase::AddTupleIndependentTable(
    const std::string& name, Schema schema,
    std::vector<std::vector<Cell>> rows, std::vector<double> probabilities,
    const std::string& key_column) {
  PVC_CHECK_MSG(schema.NumColumns() > 0, "cannot shard a zero-column table");
  size_t key_index = key_column.empty() ? 0 : schema.IndexOf(key_column);
  WalRecord record;
  if (wal() != nullptr) {
    // The variables the load is about to create, in row order.
    VarId var_base = static_cast<VarId>(variables().size());
    std::vector<VarId> vars;
    for (size_t i = 0; i < rows.size(); ++i) {
      vars.push_back(var_base + static_cast<VarId>(i));
      record.ops.push_back(
          WalOp::RegisterVariable(name + "#" + std::to_string(i),
                                  Distribution::Bernoulli(probabilities[i])));
    }
    record.ops.push_back(WalOp::CreateTable(
        name, schema, schema.column(key_index).name, rows, vars));
  }
  {
    WalDetachGuard guard(&coordinator_);
    coordinator_.AddTupleIndependentTable(name, std::move(schema),
                                          std::move(rows),
                                          std::move(probabilities));
  }
  PlaceLoadedTable(name, key_index, record);
}

void ShardedDatabase::AddVariableAnnotatedTable(
    const std::string& name, Schema schema,
    std::vector<std::vector<Cell>> rows, const std::vector<VarId>& vars,
    const std::string& key_column) {
  PVC_CHECK_MSG(schema.NumColumns() > 0, "cannot shard a zero-column table");
  size_t key_index = key_column.empty() ? 0 : schema.IndexOf(key_column);
  WalRecord record;
  if (wal() != nullptr) {
    record.ops.push_back(WalOp::CreateTable(
        name, schema, schema.column(key_index).name, rows, vars));
  }
  {
    WalDetachGuard guard(&coordinator_);
    coordinator_.AddVariableAnnotatedTable(name, std::move(schema),
                                           std::move(rows), vars);
  }
  PlaceLoadedTable(name, key_index, record);
}

void ShardedDatabase::PlaceLoadedTable(const std::string& name,
                                       size_t key_index,
                                       const WalRecord& record) {
  placement_.Place(name, coordinator_.table(name), key_index);
  if (wal() != nullptr) LogWalRecord(wal(), record);
}

std::string ShardedDatabase::KeyColumnName(const std::string& name) const {
  size_t key_index = placement_.table(name).key_index;
  return coordinator_.table(name).schema().column(key_index).name;
}

// -- Mutations ----------------------------------------------------------------

size_t ShardedDatabase::InsertTuple(const std::string& table,
                                    std::vector<Cell> cells, double p) {
  PVC_CHECK_MSG(placement_.table(table).key_index < cells.size(),
                "row is missing its key cell");
  size_t row = coordinator_.InsertTuple(table, cells, p);
  placement_.Append(table, cells);
  return row;
}

size_t ShardedDatabase::AppendRowToTable(const std::string& table,
                                         std::vector<Cell> cells, VarId var) {
  PVC_CHECK_MSG(placement_.table(table).key_index < cells.size(),
                "row is missing its key cell");
  PVC_CHECK_MSG(var < variables().size(), "unknown variable id " << var);
  size_t row = coordinator_.AppendRowToTable(table, cells,
                                             coordinator_.pool().Var(var));
  placement_.Append(table, cells);
  return row;
}

void ShardedDatabase::DeleteRowAt(const std::string& table,
                                  size_t row_index) {
  placement_.Erase(table, row_index);
  coordinator_.DeleteRowAt(table, row_index);
}

size_t ShardedDatabase::DeleteTuple(const std::string& table,
                                    const Cell& key) {
  return DeleteRowsMatchingKey(
      coordinator_.table(table), key,
      [&](size_t index) { DeleteRowAt(table, index); });
}

}  // namespace pvcdb
