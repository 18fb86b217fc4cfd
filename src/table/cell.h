// Cells of pvc-tables: constants or semimodule expressions (Definition 6).
//
// Tuple values in a pvc-table are either ordinary constants (integers,
// fixed-point decimals, strings) or semimodule expressions representing
// aggregated values; the latter are references into the database's
// ExprPool.

#ifndef PVCDB_TABLE_CELL_H_
#define PVCDB_TABLE_CELL_H_

#include <cstdint>
#include <string>
#include <variant>

#include "src/expr/expr.h"

namespace pvcdb {

/// Runtime type of a cell / column.
enum class CellType : uint8_t {
  kNull,
  kInt,
  kDouble,
  kString,
  kAggExpr,  ///< A semimodule expression (aggregation column).
};

/// One tuple value.
class Cell {
 public:
  Cell() : value_(std::monostate{}) {}
  explicit Cell(int64_t v) : value_(v) {}
  explicit Cell(double v) : value_(v) {}
  explicit Cell(std::string v) : value_(std::move(v)) {}
  explicit Cell(const char* v) : value_(std::string(v)) {}

  /// A semimodule-expression cell (aggregation value).
  static Cell Agg(ExprId e);

  CellType type() const;

  bool is_null() const { return type() == CellType::kNull; }

  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;
  ExprId AsAgg() const;

  /// Structural equality (used for grouping; exact double equality).
  bool operator==(const Cell& other) const { return value_ == other.value_; }
  bool operator!=(const Cell& other) const { return !(*this == other); }

  /// Hash for grouping hash tables.
  size_t Hash() const;

  /// Platform-independent FNV-1a hash of the cell's canonical byte
  /// representation (type tag + little-endian value bytes). Unlike Hash(),
  /// which delegates to std::hash, this value is stable across processes
  /// and platforms -- shard placement (src/engine/shard.h) depends on that,
  /// so partitions computed on different machines agree.
  uint64_t StableHash() const;

  /// Rendering; aggregation cells print their expression when `pool` is
  /// provided, otherwise a placeholder.
  std::string ToString(const ExprPool* pool = nullptr) const;

 private:
  struct AggRef {
    ExprId expr;
    bool operator==(const AggRef& other) const { return expr == other.expr; }
  };

  std::variant<std::monostate, int64_t, double, std::string, AggRef> value_;
};

/// Parses the whole of `token` as a double; rejects trailing garbage.
bool ParseFullDouble(const std::string& token, double* out);

/// Parses the whole of `token` as a cell of column type `type` (int,
/// double or string). Partial parses like "14.99" for an int column are
/// rejected, not truncated. Shared by the command language and the CSV
/// loader, so both accept exactly the same tokens.
bool ParseCellToken(const std::string& token, CellType type, Cell* out);

}  // namespace pvcdb

#endif  // PVCDB_TABLE_CELL_H_
