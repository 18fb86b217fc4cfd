// Shard placement and the in-process sharded facade. The paper's
// tuple-independent model makes per-tuple step II work independent, so a
// table's rows can be spread over shards without changing any probability.
//
// ShardPlacement is the one record of which shard owns which row: FNV-1a
// over the row's key cell (Cell::StableHash) modulo the shard count, a pure
// function of (key, N) that agrees across processes and reloads. It also
// decides which queries scatter: Select/Rename chains over one placed table
// (ShardDrivingTable) map each row to at most one row and leave annotations
// untouched. The Coordinator (src/engine/coordinator.h), pvcdb's one
// scatter-gather engine, partitions tables and routes deltas with it.
//
// ShardedDatabase is the in-process reference: one Database that every
// evaluation, mutation, view and step II pass delegates to, plus the
// placement that gives shard-aware surfaces (`tables` per-shard counts, the
// "chain (per shard)" view plan, snapshot key columns) the Coordinator's
// answers. Its results are the serial single-database engine's -- the
// oracle every sharded and threaded path must match bit for bit.
// Parallelism comes from EvalOptions::num_threads, as on a plain Database.

#ifndef PVCDB_ENGINE_SHARD_H_
#define PVCDB_ENGINE_SHARD_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/database.h"

namespace pvcdb {

/// Hidden provenance column carried through a shard worker's chain
/// evaluation (src/engine/shard_worker.h) so the gather can merge per-shard
/// results back into global row order. Tables or queries using this name
/// never scatter.
extern const char kShardRowIdColumn[];

/// Row placement of every sharded table: FNV-1a routing on a key column,
/// global row -> (shard, row within the shard's partition), and per-shard
/// row counts. Partitions are order-preserving subsequences of the table.
class ShardPlacement {
 public:
  /// (shard, row within the shard's partition) of one global row.
  using Slot = std::pair<uint32_t, uint32_t>;

  struct Table {
    size_t key_index = 0;        ///< Column rows are routed by.
    std::vector<Slot> slots;     ///< Per global row, in table order.
    std::vector<size_t> counts;  ///< Rows per shard.
  };

  explicit ShardPlacement(size_t num_shards);

  size_t num_shards() const { return num_shards_; }

  /// Shard owning a row with key cell `key`.
  size_t Route(const Cell& key) const;

  /// (Re)places every row of `table` under `name`, routed by the cell in
  /// column `key_index`.
  void Place(const std::string& name, const PvcTable& table,
             size_t key_index);

  bool Has(const std::string& name) const { return tables_.count(name) > 0; }
  const Table& table(const std::string& name) const;
  /// Every placed table, by name.
  const std::map<std::string, Table>& tables() const { return tables_; }

  /// Places a row appended at the end of `name` (O(1)); returns its slot.
  Slot Append(const std::string& name, const std::vector<Cell>& cells);

  /// Removes global row `row` of `name`; later rows of the same shard move
  /// down one partition row. Returns the removed row's slot.
  Slot Erase(const std::string& name, size_t row);

  /// Rows per shard of `name` (sums to the table's row count).
  std::vector<size_t> ShardRowCounts(const std::string& name) const;

  /// The table `q` scatters over, or nullopt when it must evaluate on the
  /// full catalog: `q` is a Select/Rename chain over a placed table, and
  /// neither the table nor the query uses kShardRowIdColumn.
  std::optional<std::string> DrivingTable(const Query& q,
                                          const Database& catalog) const;

 private:
  Table& Mutable(const std::string& name);

  size_t num_shards_;
  std::map<std::string, Table> tables_;
};

/// The `views` diagnostics line of one view.
struct ViewInfo {
  std::string name;
  std::string plan;  ///< "chain (per shard)" or the view's plan name.
  size_t rows = 0;
  size_t cache_entries = 0;  ///< Live step II cache entries.
};

/// ViewInfo of the view `name` registered on `db` (refreshes a stale
/// view's result).
ViewInfo DescribeView(Database* db, const std::string& name);

/// A database whose tables are placed across `num_shards` shards, over one
/// Database that does all the work. See the file comment; the API mirrors
/// the Database facade.
class ShardedDatabase {
 public:
  using ViewInfo = ::pvcdb::ViewInfo;

  explicit ShardedDatabase(size_t num_shards,
                           SemiringKind semiring = SemiringKind::kBool);

  size_t num_shards() const { return placement_.num_shards(); }
  const ShardPlacement& placement() const { return placement_; }

  VariableTable& variables() { return coordinator_.variables(); }
  const VariableTable& variables() const { return coordinator_.variables(); }
  EvalOptions& eval_options() { return coordinator_.eval_options(); }
  const EvalOptions& eval_options() const {
    return coordinator_.eval_options();
  }
  CompileOptions& compile_options() { return coordinator_.compile_options(); }

  /// The one Database every call delegates to.
  Database& coordinator() { return coordinator_; }
  const Database& coordinator() const { return coordinator_; }

  /// Durability hook (src/engine/wal.h): the coordinator logs every
  /// mutation and view registration; table loads log here, because their
  /// record carries the routing key column.
  void set_wal(WalWriter* wal) { coordinator_.set_wal(wal); }
  WalWriter* wal() const { return coordinator_.wal(); }

  // -- Catalog ------------------------------------------------------------

  /// Registers a tuple-independent table (fresh Bernoulli variables in row
  /// order, as an unsharded load), placed by the cell in `key_column`
  /// (default: the first column, the conventional primary key).
  void AddTupleIndependentTable(const std::string& name, Schema schema,
                                std::vector<std::vector<Cell>> rows,
                                std::vector<double> probabilities,
                                const std::string& key_column = "");

  /// Rebuild hook mirroring Database::AddVariableAnnotatedTable, placed by
  /// `key_column`.
  void AddVariableAnnotatedTable(const std::string& name, Schema schema,
                                 std::vector<std::vector<Cell>> rows,
                                 const std::vector<VarId>& vars,
                                 const std::string& key_column = "");

  bool HasTable(const std::string& name) const {
    return coordinator_.HasTable(name);
  }
  std::vector<std::string> TableNames() const {
    return coordinator_.TableNames();
  }
  size_t NumRows(const std::string& name) const {
    return coordinator_.table(name).NumRows();
  }

  /// Name of the column rows of `name` are placed by (snapshot capture:
  /// reloading with this key reproduces the placement).
  std::string KeyColumnName(const std::string& name) const;

  /// Rows per shard for `name` (skew diagnostics; sums to NumRows).
  std::vector<size_t> ShardRowCounts(const std::string& name) const {
    return placement_.ShardRowCounts(name);
  }

  // -- Mutations (the IVM delta engine; see src/engine/view.h) --------------

  /// Appends a tuple with a fresh Bernoulli variable, placed by its key
  /// cell. Returns the new global row index.
  size_t InsertTuple(const std::string& table, std::vector<Cell> cells,
                     double p);

  /// Replay hook mirroring Database::AppendRowToTable: appends a row
  /// annotated with the existing variable `var`. Never writes to the WAL.
  size_t AppendRowToTable(const std::string& table, std::vector<Cell> cells,
                          VarId var);

  /// Removes the row at global index `row_index`.
  void DeleteRowAt(const std::string& table, size_t row_index);

  /// Removes every row whose first-column cell equals `key`; returns the
  /// number of rows removed.
  size_t DeleteTuple(const std::string& table, const Cell& key);

  void UpdateProbability(VarId var, double p) {
    coordinator_.UpdateProbability(var, p);
  }

  // -- Materialized views (src/engine/view.h) -------------------------------

  const PvcTable& RegisterView(const std::string& name, QueryPtr query) {
    return coordinator_.RegisterView(name, std::move(query));
  }
  bool HasView(const std::string& name) const {
    return coordinator_.HasView(name);
  }
  void DropView(const std::string& name) { coordinator_.DropView(name); }

  /// View names, chain views (those a shard tier maintains per shard)
  /// first, each group in registration order.
  std::vector<std::string> ViewNames() const;

  /// (name, query) of every view in ViewNames() order: the order snapshot
  /// capture records and recovery re-registers them in.
  std::vector<std::pair<std::string, QueryPtr>> ViewCatalog() const;

  /// The view's cached step I result.
  PvcTable ViewResult(const std::string& name) {
    return coordinator_.ViewTable(name);
  }

  /// Cached per-row P[Phi != 0_S] of the view.
  std::vector<double> ViewProbabilities(const std::string& name) {
    return coordinator_.ViewProbabilities(name);
  }

  /// One diagnostics line per view, in ViewNames() order; chain views carry
  /// the plan "chain (per shard)", as on the Coordinator.
  std::vector<ViewInfo> ViewInfos();

  // -- Step I ---------------------------------------------------------------

  PvcTable Run(const Query& q) { return coordinator_.Run(q); }
  PvcTable RunDeterministic(const Query& q) {
    return coordinator_.RunDeterministic(q);
  }

  // -- Step II: batch passes, fanned across eval_options().num_threads ------

  std::vector<double> TupleProbabilities(const PvcTable& result) {
    return coordinator_.TupleProbabilities(result);
  }
  std::vector<Distribution> AnnotationDistributions(const PvcTable& result) {
    return coordinator_.AnnotationDistributions(result);
  }
  std::vector<ProbabilityBounds> ApproximateTupleProbabilities(
      const PvcTable& result,
      ApproximateOptions options = ApproximateOptions()) {
    return coordinator_.ApproximateTupleProbabilities(result, options);
  }

  /// Base-table overloads: the same passes over the table `name`.
  std::vector<double> TupleProbabilities(const std::string& name) {
    return TupleProbabilities(coordinator_.table(name));
  }
  std::vector<Distribution> AnnotationDistributions(const std::string& name) {
    return AnnotationDistributions(coordinator_.table(name));
  }
  std::vector<ProbabilityBounds> ApproximateTupleProbabilities(
      const std::string& name,
      ApproximateOptions options = ApproximateOptions()) {
    return ApproximateTupleProbabilities(coordinator_.table(name), options);
  }

  /// P[alpha = v | Phi != 0_S] for an aggregation column of `result`.
  Distribution ConditionalAggregateDistribution(const PvcTable& result,
                                                size_t row_index,
                                                const std::string& column) {
    return coordinator_.ConditionalAggregateDistribution(result, row_index,
                                                         column);
  }

  /// Tabular rendering of a result.
  std::string ResultToString(const PvcTable& result) const {
    return result.ToString(&coordinator_.pool());
  }

 private:
  /// True when view `name` is a chain view (see ViewNames).
  bool IsChainView(const std::string& name) const;

  /// Places the coordinator's freshly (re)loaded `name`, logging `record`.
  void PlaceLoadedTable(const std::string& name, size_t key_index,
                        const WalRecord& record);

  Database coordinator_;
  ShardPlacement placement_;
};

}  // namespace pvcdb

#endif  // PVCDB_ENGINE_SHARD_H_
