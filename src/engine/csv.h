// CSV import/export for tuple-independent pvc-tables.
//
// Format: the header names each column as "name:type" with type in
// {int, double, string}; an optional final column named "_prob" (no type)
// holds the tuple's marginal probability (default 1.0 -- a deterministic
// table). Values are comma-separated; string values may be quoted with
// double quotes to include commas.
//
//   item:string,price:int,_prob
//   widget,1999,0.9
//   gadget,450,0.75

#ifndef PVCDB_ENGINE_CSV_H_
#define PVCDB_ENGINE_CSV_H_

#include <iosfwd>
#include <string>

#include "src/engine/database.h"

namespace pvcdb {

class Coordinator;
class ShardedDatabase;

/// Outcome of a CSV import.
struct CsvResult {
  bool ok = false;
  std::string error;
  size_t rows = 0;
};

/// Parses CSV from `input` and registers it as a tuple-independent table
/// named `table_name` in `db` (one fresh Bernoulli variable per row).
CsvResult LoadCsvTable(Database* db, const std::string& table_name,
                       std::istream& input);

/// Convenience overload reading from a file path.
CsvResult LoadCsvTableFromFile(Database* db, const std::string& table_name,
                               const std::string& path);

/// Sharded-catalog overloads: the same format, registered through
/// ShardedDatabase::AddTupleIndependentTable (placed by the first column;
/// variable creation order matches the unsharded load).
CsvResult LoadCsvTable(ShardedDatabase* db, const std::string& table_name,
                       std::istream& input);
CsvResult LoadCsvTableFromFile(ShardedDatabase* db,
                               const std::string& table_name,
                               const std::string& path);

/// Out-of-process serving overloads (src/engine/coordinator.h): registered
/// through Coordinator::AddTupleIndependentTable, which loads the local
/// replica and partitions across the shard workers.
CsvResult LoadCsvTable(Coordinator* db, const std::string& table_name,
                       std::istream& input);
CsvResult LoadCsvTableFromFile(Coordinator* db, const std::string& table_name,
                               const std::string& path);

/// Writes `table` (data columns only; aggregation columns are rejected)
/// with per-tuple probabilities into CSV with a "_prob" column.
/// `probability_of` is invoked per row -- pass Database::TupleProbability.
bool WriteCsvTable(const Database& db, const PvcTable& table,
                   std::ostream& output);

}  // namespace pvcdb

#endif  // PVCDB_ENGINE_CSV_H_
