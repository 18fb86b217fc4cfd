#include "src/table/pvc_table.h"

#include <algorithm>
#include <sstream>

#include "src/expr/print.h"
#include "src/util/check.h"

namespace pvcdb {

const Row& PvcTable::row(size_t i) const {
  PVC_CHECK_MSG(i < rows_.size(), "row index " << i << " out of range");
  return rows_[i];
}

void PvcTable::AddRow(Row row) {
  PVC_CHECK_MSG(row.cells.size() == schema_.NumColumns(),
                "row arity " << row.cells.size() << " does not match schema "
                             << schema_.NumColumns());
  PVC_CHECK_MSG(row.annotation != kInvalidExpr, "row needs an annotation");
  rows_.push_back(std::move(row));
}

void PvcTable::AddRow(std::vector<Cell> cells, ExprId annotation) {
  Row r;
  r.cells = std::move(cells);
  r.annotation = annotation;
  AddRow(std::move(r));
}

void PvcTable::DeleteRow(size_t index) {
  PVC_CHECK_MSG(index < rows_.size(),
                "row index " << index << " out of range");
  rows_.erase(rows_.begin() + index);
}

void PvcTable::InsertRowAt(size_t index, Row row) {
  PVC_CHECK_MSG(index <= rows_.size(),
                "insert position " << index << " out of range");
  PVC_CHECK_MSG(row.cells.size() == schema_.NumColumns(),
                "row arity " << row.cells.size() << " does not match schema "
                             << schema_.NumColumns());
  PVC_CHECK_MSG(row.annotation != kInvalidExpr, "row needs an annotation");
  rows_.insert(rows_.begin() + index, std::move(row));
}

void PvcTable::SetAnnotation(size_t index, ExprId annotation) {
  PVC_CHECK_MSG(index < rows_.size(),
                "row index " << index << " out of range");
  PVC_CHECK_MSG(annotation != kInvalidExpr, "row needs an annotation");
  rows_[index].annotation = annotation;
}

const Cell& PvcTable::CellAt(size_t row_index, const std::string& column) const {
  return row(row_index).cells[schema_.IndexOf(column)];
}

PvcTable PvcTable::MaterializeWorld(const ExprPool& pool,
                                    const Valuation& nu) const {
  // Aggregation columns become plain integers in a world.
  std::vector<Column> columns = schema_.columns();
  for (Column& c : columns) {
    if (c.type == CellType::kAggExpr) c.type = CellType::kInt;
  }
  PvcTable world{Schema(std::move(columns))};
  for (const Row& r : rows_) {
    int64_t multiplicity = EvalExpr(pool, r.annotation, nu);
    if (multiplicity == 0) continue;
    Row out;
    out.cells.reserve(r.cells.size());
    for (const Cell& c : r.cells) {
      if (c.type() == CellType::kAggExpr) {
        out.cells.emplace_back(EvalExpr(pool, c.AsAgg(), nu));
      } else {
        out.cells.push_back(c);
      }
    }
    // The evaluated annotation is the tuple's multiplicity in this world.
    // (Representable as a constant expression, but a world is deterministic,
    // so we keep the numeric value in the annotation slot via a ConstS-like
    // convention: the caller reads it from ToString or via multiplicities.)
    out.annotation = r.annotation;
    world.rows_.push_back(std::move(out));
  }
  return world;
}

std::string PvcTable::ToString(const ExprPool* pool) const {
  std::ostringstream out;
  // Header.
  std::vector<size_t> widths;
  std::vector<std::vector<std::string>> grid;
  std::vector<std::string> header;
  for (const Column& c : schema_.columns()) header.push_back(c.name);
  header.push_back("Phi");
  grid.push_back(header);
  for (const Row& r : rows_) {
    std::vector<std::string> line;
    for (const Cell& c : r.cells) line.push_back(c.ToString(pool));
    line.push_back(pool != nullptr ? ExprToString(*pool, r.annotation)
                                   : "<expr#" + std::to_string(r.annotation) +
                                         ">");
    grid.push_back(std::move(line));
  }
  widths.resize(grid[0].size(), 0);
  for (const auto& line : grid) {
    for (size_t i = 0; i < line.size(); ++i) {
      widths[i] = std::max(widths[i], line[i].size());
    }
  }
  for (size_t li = 0; li < grid.size(); ++li) {
    for (size_t i = 0; i < grid[li].size(); ++i) {
      out << grid[li][i];
      out << std::string(widths[i] - grid[li][i].size() + 2, ' ');
    }
    out << "\n";
    if (li == 0) {
      size_t total = 0;
      for (size_t w : widths) total += w + 2;
      out << std::string(total, '-') << "\n";
    }
  }
  return out.str();
}

}  // namespace pvcdb
