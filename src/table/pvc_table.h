// pvc-tables: probabilistic value-conditioned tables (Definition 6).
//
// A pvc-table is a relation with an annotation column Phi holding semiring
// expressions over the random variables X, and whose tuple values can be
// constants or semimodule expressions. Its semantics is the set of possible
// worlds {nu(T) | nu in Omega}; MaterializeWorld() below produces one world.

#ifndef PVCDB_TABLE_PVC_TABLE_H_
#define PVCDB_TABLE_PVC_TABLE_H_

#include <string>
#include <vector>

#include "src/expr/eval.h"
#include "src/expr/expr.h"
#include "src/table/cell.h"
#include "src/table/schema.h"

namespace pvcdb {

/// One tuple plus its annotation Phi (a semiring expression id).
struct Row {
  std::vector<Cell> cells;
  ExprId annotation = kInvalidExpr;
};

/// A pvc-table: schema + annotated rows. Expression ids refer to the
/// owning database's ExprPool.
class PvcTable {
 public:
  PvcTable() = default;
  explicit PvcTable(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  size_t NumRows() const { return rows_.size(); }
  const Row& row(size_t i) const;
  const std::vector<Row>& rows() const { return rows_; }

  /// Appends a row; its arity must match the schema.
  void AddRow(Row row);

  /// Convenience: appends a row of cells with annotation `annotation`.
  void AddRow(std::vector<Cell> cells, ExprId annotation);

  // -- Row mutation (incremental view maintenance, src/engine/view.h) ------

  /// Removes row `index`; later rows shift down by one. O(rows).
  void DeleteRow(size_t index);

  /// Inserts `row` so that it becomes row `index` (existing rows from
  /// `index` on shift up). `index` may equal NumRows() (append). O(rows).
  void InsertRowAt(size_t index, Row row);

  /// Replaces the annotation of row `index` (projection-style views merge
  /// annotations in place when a delta touches an existing group).
  void SetAnnotation(size_t index, ExprId annotation);

  /// The cell of row `row_index` in the column named `column`.
  const Cell& CellAt(size_t row_index, const std::string& column) const;

  /// One possible world: keeps the rows whose annotation evaluates to a
  /// non-zero semiring value under `nu`, with semimodule cells evaluated to
  /// constants. The annotation column of the result holds the evaluated
  /// multiplicities (1 for the Boolean semiring).
  PvcTable MaterializeWorld(const ExprPool& pool, const Valuation& nu) const;

  /// Tabular rendering including the annotation column.
  std::string ToString(const ExprPool* pool = nullptr) const;

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

}  // namespace pvcdb

#endif  // PVCDB_TABLE_PVC_TABLE_H_
