#include "src/engine/csv.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "src/dtree/compile.h"
#include "src/dtree/probability.h"
#include "src/engine/coordinator.h"
#include "src/engine/shard.h"

namespace pvcdb {

namespace {

// Splits one CSV line honouring double-quoted fields.
std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // Tolerate CRLF input.
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

bool ParseColumnSpec(const std::string& spec, Column* out,
                     std::string* error) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    *error = "column '" + spec + "' is missing its ':type' suffix";
    return false;
  }
  out->name = spec.substr(0, colon);
  std::string type = spec.substr(colon + 1);
  if (type == "int") {
    out->type = CellType::kInt;
  } else if (type == "double") {
    out->type = CellType::kDouble;
  } else if (type == "string") {
    out->type = CellType::kString;
  } else {
    *error = "unknown column type '" + type + "'";
    return false;
  }
  return true;
}

// Parsed-but-unregistered CSV content; shared by the Database and
// ShardedDatabase front-ends so both register byte-identical tables.
struct ParsedCsv {
  CsvResult status;
  std::vector<Column> columns;
  std::vector<std::vector<Cell>> rows;
  std::vector<double> probs;
};

ParsedCsv ParseCsv(std::istream& input) {
  ParsedCsv parsed;
  CsvResult& result = parsed.status;
  std::string line;
  if (!std::getline(input, line)) {
    result.error = "empty input";
    return parsed;
  }
  std::vector<std::string> header = SplitCsvLine(line);
  bool has_prob = !header.empty() && header.back() == "_prob";
  size_t num_columns = header.size() - (has_prob ? 1 : 0);
  if (num_columns == 0) {
    result.error = "header declares no data columns";
    return parsed;
  }
  std::vector<Column>& columns = parsed.columns;
  for (size_t i = 0; i < num_columns; ++i) {
    Column col;
    if (!ParseColumnSpec(header[i], &col, &result.error)) return parsed;
    columns.push_back(col);
  }

  std::vector<std::vector<Cell>>& rows = parsed.rows;
  std::vector<double>& probs = parsed.probs;
  size_t line_number = 1;
  while (std::getline(input, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != header.size()) {
      std::ostringstream out;
      out << "line " << line_number << ": expected " << header.size()
          << " fields, got " << fields.size();
      result.error = out.str();
      return parsed;
    }
    std::vector<Cell> cells(num_columns);
    for (size_t i = 0; i < num_columns; ++i) {
      if (!ParseCellToken(fields[i], columns[i].type, &cells[i])) {
        std::ostringstream out;
        out << "line " << line_number << ": cannot parse '" << fields[i]
            << "' for column " << columns[i].name;
        result.error = out.str();
        return parsed;
      }
    }
    double p = 1.0;
    if (has_prob) {
      const bool parsed_p = ParseFullDouble(fields.back(), &p);
      // The negated >= form also rejects NaN (every NaN comparison is false).
      if (!parsed_p || !(p >= 0.0 && p <= 1.0)) {
        std::ostringstream out;
        out << "line " << line_number << ": bad probability '"
            << fields.back() << "'" << (parsed_p ? " (out of [0, 1])" : "");
        result.error = out.str();
        return parsed;
      }
    }
    rows.push_back(std::move(cells));
    probs.push_back(p);
  }
  result.rows = rows.size();
  result.ok = true;
  return parsed;
}

}  // namespace

CsvResult LoadCsvTable(Database* db, const std::string& table_name,
                       std::istream& input) {
  ParsedCsv parsed = ParseCsv(input);
  if (!parsed.status.ok) return parsed.status;
  db->AddTupleIndependentTable(table_name, Schema(std::move(parsed.columns)),
                               std::move(parsed.rows),
                               std::move(parsed.probs));
  return parsed.status;
}

CsvResult LoadCsvTable(ShardedDatabase* db, const std::string& table_name,
                       std::istream& input) {
  ParsedCsv parsed = ParseCsv(input);
  if (!parsed.status.ok) return parsed.status;
  db->AddTupleIndependentTable(table_name, Schema(std::move(parsed.columns)),
                               std::move(parsed.rows),
                               std::move(parsed.probs));
  return parsed.status;
}

CsvResult LoadCsvTable(Coordinator* db, const std::string& table_name,
                       std::istream& input) {
  ParsedCsv parsed = ParseCsv(input);
  if (!parsed.status.ok) return parsed.status;
  db->AddTupleIndependentTable(table_name, Schema(std::move(parsed.columns)),
                               std::move(parsed.rows),
                               std::move(parsed.probs));
  return parsed.status;
}

CsvResult LoadCsvTableFromFile(Database* db, const std::string& table_name,
                               const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    CsvResult result;
    result.error = "cannot open file '" + path + "'";
    return result;
  }
  return LoadCsvTable(db, table_name, file);
}

CsvResult LoadCsvTableFromFile(ShardedDatabase* db,
                               const std::string& table_name,
                               const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    CsvResult result;
    result.error = "cannot open file '" + path + "'";
    return result;
  }
  return LoadCsvTable(db, table_name, file);
}

CsvResult LoadCsvTableFromFile(Coordinator* db, const std::string& table_name,
                               const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    CsvResult result;
    result.error = "cannot open file '" + path + "'";
    return result;
  }
  return LoadCsvTable(db, table_name, file);
}

bool WriteCsvTable(const Database& db, const PvcTable& table,
                   std::ostream& output) {
  for (const Column& c : table.schema().columns()) {
    if (c.type == CellType::kAggExpr) return false;
  }
  bool first = true;
  for (const Column& c : table.schema().columns()) {
    if (!first) output << ",";
    first = false;
    output << c.name << ":";
    switch (c.type) {
      case CellType::kInt:
        output << "int";
        break;
      case CellType::kDouble:
        output << "double";
        break;
      case CellType::kString:
        output << "string";
        break;
      default:
        output << "string";
        break;
    }
  }
  output << ",_prob\n";
  for (const Row& r : table.rows()) {
    // Exact per-tuple probability via the d-tree pipeline. The const_cast
    // is confined to the expression pool, which grows monotonically.
    Database& mutable_db = const_cast<Database&>(db);
    for (size_t i = 0; i < r.cells.size(); ++i) {
      if (i > 0) output << ",";
      const Cell& c = r.cells[i];
      if (c.type() == CellType::kString &&
          c.AsString().find(',') != std::string::npos) {
        output << '"' << c.AsString() << '"';
      } else {
        output << c.ToString();
      }
    }
    output << "," << mutable_db.TupleProbability(r) << "\n";
  }
  return true;
}

}  // namespace pvcdb
