// The pvcdb engine facade: a database of named pvc-tables over one shared
// probability space, evaluating Q queries in the paper's two logical steps:
//   step I  (Section 4): [[.]] computes result tuples with semiring
//                        annotations and semimodule values;
//   step II (Section 5): probabilities via d-tree compilation.
// The Q0 / [[.]] / P(.) split of Experiment F maps to RunDeterministic(),
// Run(), and the probability methods respectively.

#ifndef PVCDB_ENGINE_DATABASE_H_
#define PVCDB_ENGINE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dtree/approximate.h"
#include "src/dtree/compile.h"
#include "src/dtree/joint.h"
#include "src/dtree/probability.h"
#include "src/engine/view.h"
#include "src/expr/expr.h"
#include "src/prob/variable.h"
#include "src/query/ast.h"
#include "src/query/eval.h"
#include "src/table/pvc_table.h"

namespace pvcdb {

class WalWriter;
struct WalRecord;

/// The per-row step II pipeline used by every batch probability pass, in
/// Database and the shard workers alike: clone the annotation from `source`
/// into a task-private pool, compile it, run the bottom-up probability
/// pass. Both must call this one function -- the sharded engine's
/// bit-identity contract depends on the pipelines not drifting apart.
/// `source` is only read, so concurrent calls against one pool are safe.
/// `intra_tree_threads` fans the probability pass across subtrees of this
/// one d-tree (EvalOptions::intra_tree_threads; bit-identical to serial
/// and automatically serial inside an outer parallel batch).
Distribution IsolatedAnnotationDistribution(const ExprPool& source,
                                            const VariableTable& variables,
                                            ExprId annotation,
                                            const CompileOptions& options,
                                            int intra_tree_threads = 0);

/// A probabilistic database: named pvc-tables + the variable table X + the
/// expression pool, plus query evaluation and probability computation.
class Database {
 public:
  explicit Database(SemiringKind semiring = SemiringKind::kBool);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  ExprPool& pool() { return pool_; }
  const ExprPool& pool() const { return pool_; }
  VariableTable& variables() { return variables_; }
  const VariableTable& variables() const { return variables_; }
  const Semiring& semiring() const { return pool_.semiring(); }

  /// D-tree compilation knobs used by the probability methods.
  CompileOptions& compile_options() { return compile_options_; }

  /// Durability hook (src/engine/wal.h): with a writer attached, every
  /// logical mutation appends one WAL record; an append failure fails the
  /// mutation's PVC_CHECK, so no mutation reports success without being
  /// durable. nullptr (the default) disables logging. Replay and rebuild
  /// paths run with the writer detached. The low-level hooks AddTable and
  /// AppendRowToTable are themselves replay targets and never log.
  void set_wal(WalWriter* wal) { wal_ = wal; }
  WalWriter* wal() const { return wal_; }

  /// Engine-wide evaluation knobs. Set `eval_options().num_threads` to fan
  /// query evaluation and the batch probability methods across threads;
  /// 0 (the default) keeps every path serial, so existing callers are
  /// unchanged. All parallel paths produce bit-identical results to the
  /// serial ones (see EvalOptions).
  EvalOptions& eval_options() { return eval_options_; }
  const EvalOptions& eval_options() const { return eval_options_; }

  // -- Catalog ------------------------------------------------------------

  /// Registers `table` under `name` (replacing any previous table).
  void AddTable(const std::string& name, PvcTable table);

  bool HasTable(const std::string& name) const;
  const PvcTable& table(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Builds and registers a tuple-independent table: one fresh Bernoulli
  /// variable per row. `rows[i]` are the data cells, `probabilities[i]` is
  /// P[tuple i present].
  void AddTupleIndependentTable(const std::string& name, Schema schema,
                                std::vector<std::vector<Cell>> rows,
                                std::vector<double> probabilities);

  /// Rebuild / replication hook: registers a table whose row annotations
  /// are *existing* variables of the registry (`vars[i]` annotates row i).
  /// Together with replaying the variable registry in creation order, this
  /// reconstructs a mutated database's logical state from scratch with
  /// bit-identical downstream results (the IVM bit-identity contract of
  /// src/engine/view.h is verified against exactly this rebuild).
  void AddVariableAnnotatedTable(const std::string& name, Schema schema,
                                 std::vector<std::vector<Cell>> rows,
                                 const std::vector<VarId>& vars);

  // -- Mutations (the IVM delta engine, src/engine/view.h) ------------------
  //
  // Each mutation routes a TableDelta through the registered views, which
  // maintain their cached results incrementally (or mark themselves stale
  // when their plan cannot absorb the delta). Results stay bit-identical to
  // a from-scratch rebuild and re-evaluation on the final state.

  /// Appends a tuple with a fresh Bernoulli variable (P[present] = `p`).
  /// Cell types must match the schema. Returns the new row's index.
  size_t InsertTuple(const std::string& table, std::vector<Cell> cells,
                     double p);

  /// Low-level catalog hook: appends a row annotated with an existing
  /// expression (WAL replay re-interns a logged variable). Routes the delta
  /// through the views.
  size_t AppendRowToTable(const std::string& table, std::vector<Cell> cells,
                          ExprId annotation);

  /// Removes the row at `row_index`; later rows shift down by one.
  void DeleteRowAt(const std::string& table, size_t row_index);

  /// Removes every row whose first-column cell equals `key`; returns the
  /// number of rows removed.
  size_t DeleteTuple(const std::string& table, const Cell& key);

  /// Replaces variable `var`'s distribution with Bernoulli(p). Step I
  /// results are unaffected (annotations are symbolic); cached step II
  /// results mentioning `var` are re-evaluated (same support) or dropped.
  void UpdateProbability(VarId var, double p);

  // -- Materialized views (src/engine/view.h) -------------------------------

  /// Registers (or replaces) a materialized view over `query`; evaluates
  /// it eagerly and returns the cached result.
  const PvcTable& RegisterView(const std::string& name, QueryPtr query);

  bool HasView(const std::string& name) const { return views_.Has(name); }
  void DropView(const std::string& name);
  std::vector<std::string> ViewNames() const { return views_.Names(); }

  /// The view's cached step I result (recomputed first when stale).
  const PvcTable& ViewTable(const std::string& name);

  /// Cached per-row P[Phi != 0_S] of the view, bit-identical to
  /// TupleProbabilities(ViewTable(name)).
  std::vector<double> ViewProbabilities(const std::string& name);

  /// Registry access for diagnostics (plan kinds, cache stats).
  const ViewRegistry& views() const { return views_; }

  // -- Step I: computing result tuples ------------------------------------

  /// Evaluates `q` with the [[.]] rewriting (Figure 4).
  PvcTable Run(const Query& q);

  /// Evaluates `q` on the deterministic database (the Q0 baseline): every
  /// tuple present, aggregates folded to constants.
  PvcTable RunDeterministic(const Query& q);

  // -- Step II: probability computation ------------------------------------

  /// P[Phi != 0_S] for the row's annotation: the probability that the tuple
  /// appears in a randomly drawn world.
  double TupleProbability(const Row& row);

  /// Distribution of the row's annotation (multiplicities under bag
  /// semantics; {0,1} under the Boolean semiring).
  Distribution AnnotationDistribution(const Row& row);

  // -- Batch step II: one result per row, fanned across threads -----------
  //
  // The batch methods process every row of `table`, compiling each row's
  // d-tree in a task-private expression pool and fanning rows across
  // eval_options().num_threads threads. Because the serial path (the
  // default) runs the identical per-row pipeline, results are bit-identical
  // for every thread count. The database must not be mutated concurrently.

  /// P[Phi != 0_S] for every row of `table`.
  std::vector<double> TupleProbabilities(const PvcTable& table);

  /// Annotation distribution of every row of `table`.
  std::vector<Distribution> AnnotationDistributions(const PvcTable& table);

  /// Interval bounds on P[Phi != 0_S] for every row of `table` under the
  /// given approximation budget (Boolean semiring only).
  std::vector<ProbabilityBounds> ApproximateTupleProbabilities(
      const PvcTable& table, ApproximateOptions options = ApproximateOptions());

  /// Distribution of the semimodule value in `column` (unconditioned).
  Distribution AggregateDistribution(const PvcTable& table, size_t row_index,
                                     const std::string& column);

  /// Distribution of the aggregate conditioned on the tuple being present:
  /// P[alpha = v | Phi != 0_S].
  Distribution ConditionalAggregateDistribution(const PvcTable& table,
                                                size_t row_index,
                                                const std::string& column);

  /// Joint distribution of all aggregation columns and the annotation of
  /// one result row (annotation last).
  JointDistribution RowJointDistribution(const PvcTable& table,
                                         size_t row_index);

 private:
  Distribution DistributionOfExpr(ExprId e);
  PvcTable& MutableTable(const std::string& name);
  ViewContext Context();

  ExprPool pool_;
  VariableTable variables_;
  std::map<std::string, PvcTable> tables_;
  CompileOptions compile_options_;
  EvalOptions eval_options_;
  ViewRegistry views_;
  WalWriter* wal_ = nullptr;
};

}  // namespace pvcdb

#endif  // PVCDB_ENGINE_DATABASE_H_
