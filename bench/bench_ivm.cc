// Incremental view maintenance vs. full recompute (src/engine/view.h):
// latency of keeping a registered view's tuples + probabilities current
// under single-tuple update batches, against re-running step I + step II
// from scratch on the same database state.
//
// Series:
//   ivm_select -- a selection view over the 1000-tuple stress table,
//                 unsharded (shards=0) and per-shard cached (shards=4).
//   ivm_join   -- an equi-join view with cached hash sides (unsharded).
//
// Every batch applies one update (rotating insert / setprob / delete),
// then measures (a) the incremental path: delta maintenance + the cached
// probability pass, and (b) the recompute path: Run + TupleProbabilities
// on the same state. The two probability vectors are compared bit for bit
// each batch; any divergence -- or an incremental path that is not
// strictly faster on average -- fails the run, so a "fast but wrong" or
// "cached but pointless" configuration cannot produce a trajectory file.
// CI captures the JSON-lines output as BENCH_ivm.json and gates the
// recorded speedup against the committed baseline
// (scripts/check_bench_trajectory.py --metric speedup).
//
// Flags: --smoke (few batches, for ctest), --full (larger grid), --json,
// --threads=N.

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/engine/database.h"
#include "src/engine/shard.h"
#include "src/query/ast.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace {

using namespace pvcdb;
using namespace pvcdb_bench;

struct Config {
  int64_t rows;
  int batches;
  int threads;
};

struct Summary {
  double inc_mean_seconds = 0.0;
  double full_mean_seconds = 0.0;
  bool identical = true;
};

Schema StressSchema() {
  return Schema({{"id", CellType::kInt},
                 {"g", CellType::kInt},
                 {"v", CellType::kInt}});
}

template <typename DB>
void LoadStressTable(DB* db, const char* name, int64_t rows, Rng* rng) {
  std::vector<std::vector<Cell>> data;
  std::vector<double> probs;
  data.reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    data.push_back({Cell(i), Cell(i % 50), Cell(rng->UniformInt(0, 100))});
    probs.push_back(rng->UniformDouble(0.05, 0.95));
  }
  db->AddTupleIndependentTable(name, StressSchema(), std::move(data),
                               std::move(probs));
}

// One deterministic single-tuple update per batch, rotating kinds.
template <typename DB>
void ApplyUpdate(DB* db, const char* table, int batch, int64_t* next_id,
                 Rng* rng) {
  switch (batch % 4) {
    case 0:
    case 2:
      db->InsertTuple(table,
                      {Cell((*next_id)++), Cell(rng->UniformInt(0, 50)),
                       Cell(rng->UniformInt(0, 100))},
                      rng->UniformDouble(0.05, 0.95));
      break;
    case 1: {
      VarId var = static_cast<VarId>(
          rng->UniformInt(0, static_cast<int64_t>(db->variables().size()) - 1));
      db->UpdateProbability(var, rng->UniformDouble(0.05, 0.95));
      break;
    }
    default:
      db->DeleteTuple(table, Cell(rng->UniformInt(0, *next_id)));
      break;
  }
}

void ReportBatch(const char* series, const JsonParams& base, int batch,
                 double inc_seconds, double full_seconds, bool identical,
                 bool json, TablePrinter* table) {
  double speedup = inc_seconds > 0.0 ? full_seconds / inc_seconds : 0.0;
  if (json) {
    JsonParams params = base;
    params.Set("batch", batch)
        .Set("incremental_seconds", inc_seconds)
        .Set("recompute_seconds", full_seconds)
        .Set("speedup_incremental_vs_recompute", speedup)
        .Set("bit_identical", identical ? "true" : "false");
    RunStats stats;
    stats.mean_seconds = inc_seconds;
    PrintJsonRecord(std::string(series) + "_batch", params, stats);
  } else {
    table->PrintRow({std::to_string(batch), FormatSeconds(inc_seconds),
                     FormatSeconds(full_seconds), FormatDouble(speedup, 1),
                     identical ? "yes" : "NO"});
  }
}

void ReportSummary(const char* series, JsonParams base, const Config& config,
                   const Summary& summary, bool json) {
  double speedup = summary.inc_mean_seconds > 0.0
                       ? summary.full_mean_seconds / summary.inc_mean_seconds
                       : 0.0;
  if (json) {
    base.Set("rows", config.rows)
        .Set("batches", config.batches)
        .Set("incremental_mean_seconds", summary.inc_mean_seconds)
        .Set("recompute_mean_seconds", summary.full_mean_seconds)
        .Set("speedup_incremental_vs_recompute", speedup)
        .Set("bit_identical", summary.identical ? "true" : "false")
        .Set("hardware_threads", static_cast<int64_t>(DefaultThreadCount()));
    RunStats stats;
    stats.mean_seconds = summary.inc_mean_seconds;
    PrintJsonRecord(series, base, stats);
  } else {
    std::cout << "mean incremental " << FormatSeconds(summary.inc_mean_seconds)
              << " s vs recompute " << FormatSeconds(summary.full_mean_seconds)
              << " s -- speedup " << FormatDouble(speedup, 1) << "x\n";
  }
  if (!summary.identical) {
    std::cerr << "ERROR: " << series
              << " diverged from the from-scratch recompute\n";
    std::exit(1);
  }
  if (speedup <= 1.0) {
    std::cerr << "ERROR: " << series
              << " incremental maintenance was not strictly faster than "
                 "full recompute (speedup "
              << FormatDouble(speedup, 2) << "x)\n";
    std::exit(1);
  }
}

bool SameVector(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// -- ivm_select -------------------------------------------------------------

QueryPtr SelectQuery() {
  return Query::Select(Query::Scan("T"),
                       Predicate::ColCmpInt("v", CmpOp::kGe, 15));
}

void RunSelectSeries(const Config& config, size_t shards, bool json) {
  QueryPtr query = SelectQuery();
  Rng rng(171717);
  std::unique_ptr<Database> single;
  std::unique_ptr<ShardedDatabase> sharded;
  if (shards == 0) {
    single = std::make_unique<Database>();
    single->eval_options().num_threads = config.threads;
    LoadStressTable(single.get(), "T", config.rows, &rng);
    single->RegisterView("v", query);
    single->ViewProbabilities("v");  // Warm the step II cache.
  } else {
    sharded = std::make_unique<ShardedDatabase>(shards);
    sharded->eval_options().num_threads = config.threads;
    LoadStressTable(sharded.get(), "T", config.rows, &rng);
    sharded->RegisterView("v", query);
    sharded->ViewProbabilities("v");
  }

  JsonParams base;
  base.Set("shards", static_cast<int64_t>(shards))
      .Set("threads", config.threads);
  std::unique_ptr<TablePrinter> table;
  if (!json) {
    std::cout << "\n### ivm_select (rows=" << config.rows
              << ", shards=" << shards << ", threads=" << config.threads
              << ")\n\n";
    table = std::make_unique<TablePrinter>(std::vector<std::string>{
        "batch", "incremental [s]", "recompute [s]", "speedup",
        "bit-identical"});
  }

  Summary summary;
  int64_t next_id = config.rows;
  for (int batch = 0; batch < config.batches; ++batch) {
    double inc_seconds = 0.0;
    double full_seconds = 0.0;
    std::vector<double> inc_probs;
    std::vector<double> full_probs;
    if (single != nullptr) {
      WallTimer inc;
      ApplyUpdate(single.get(), "T", batch, &next_id, &rng);
      inc_probs = single->ViewProbabilities("v");
      inc_seconds = inc.ElapsedSeconds();
      WallTimer full;
      PvcTable result = single->Run(*query);
      full_probs = single->TupleProbabilities(result);
      full_seconds = full.ElapsedSeconds();
    } else {
      WallTimer inc;
      ApplyUpdate(sharded.get(), "T", batch, &next_id, &rng);
      inc_probs = sharded->ViewProbabilities("v");
      inc_seconds = inc.ElapsedSeconds();
      WallTimer full;
      PvcTable result = sharded->Run(*query);
      full_probs = sharded->TupleProbabilities(result);
      full_seconds = full.ElapsedSeconds();
    }
    bool identical = SameVector(inc_probs, full_probs);
    summary.identical = summary.identical && identical;
    summary.inc_mean_seconds += inc_seconds / config.batches;
    summary.full_mean_seconds += full_seconds / config.batches;
    ReportBatch("ivm_select", base, batch, inc_seconds, full_seconds,
                identical, json, table.get());
  }
  ReportSummary("ivm_select", base, config, summary, json);
}

// -- ivm_join ---------------------------------------------------------------

QueryPtr JoinQuery() {
  return Query::Select(Query::Product(Query::Scan("L"), Query::Scan("R")),
                       Predicate::ColEqCol("lk", "rk"));
}

void RunJoinSeries(const Config& config, bool json) {
  QueryPtr query = JoinQuery();
  Rng rng(232323);
  Database db;
  db.eval_options().num_threads = config.threads;
  // Key ranges sized so each side matches a handful of rows.
  int64_t side_rows = config.rows / 2;
  Schema l_schema({{"lk", CellType::kInt}, {"lv", CellType::kInt}});
  Schema r_schema({{"rk", CellType::kInt}, {"rv", CellType::kInt}});
  std::vector<std::vector<Cell>> l_rows, r_rows;
  std::vector<double> l_probs, r_probs;
  for (int64_t i = 0; i < side_rows; ++i) {
    l_rows.push_back({Cell(rng.UniformInt(0, side_rows / 4)),
                      Cell(rng.UniformInt(0, 100))});
    l_probs.push_back(rng.UniformDouble(0.05, 0.95));
    r_rows.push_back({Cell(rng.UniformInt(0, side_rows / 4)),
                      Cell(rng.UniformInt(0, 100))});
    r_probs.push_back(rng.UniformDouble(0.05, 0.95));
  }
  db.AddTupleIndependentTable("L", l_schema, std::move(l_rows),
                              std::move(l_probs));
  db.AddTupleIndependentTable("R", r_schema, std::move(r_rows),
                              std::move(r_probs));
  db.RegisterView("v", query);
  db.ViewProbabilities("v");

  JsonParams base;
  base.Set("shards", static_cast<int64_t>(0)).Set("threads", config.threads);
  std::unique_ptr<TablePrinter> table;
  if (!json) {
    std::cout << "\n### ivm_join (rows=" << side_rows << " per side"
              << ", threads=" << config.threads << ")\n\n";
    table = std::make_unique<TablePrinter>(std::vector<std::string>{
        "batch", "incremental [s]", "recompute [s]", "speedup",
        "bit-identical"});
  }

  Summary summary;
  for (int batch = 0; batch < config.batches; ++batch) {
    const char* side = batch % 2 == 0 ? "L" : "R";
    const char* key_col = batch % 2 == 0 ? "lk" : "rk";
    (void)key_col;
    WallTimer inc;
    if (batch % 4 == 3) {
      VarId var = static_cast<VarId>(
          rng.UniformInt(0, static_cast<int64_t>(db.variables().size()) - 1));
      db.UpdateProbability(var, rng.UniformDouble(0.05, 0.95));
    } else {
      db.InsertTuple(side,
                     {Cell(rng.UniformInt(0, side_rows / 4)),
                      Cell(rng.UniformInt(0, 100))},
                     rng.UniformDouble(0.05, 0.95));
    }
    std::vector<double> inc_probs = db.ViewProbabilities("v");
    double inc_seconds = inc.ElapsedSeconds();
    WallTimer full;
    PvcTable result = db.Run(*query);
    std::vector<double> full_probs = db.TupleProbabilities(result);
    double full_seconds = full.ElapsedSeconds();

    bool identical = SameVector(inc_probs, full_probs);
    summary.identical = summary.identical && identical;
    summary.inc_mean_seconds += inc_seconds / config.batches;
    summary.full_mean_seconds += full_seconds / config.batches;
    ReportBatch("ivm_join", base, batch, inc_seconds, full_seconds,
                identical, json, table.get());
  }
  ReportSummary("ivm_join", base, config, summary, json);
}

}  // namespace

int main(int argc, char** argv) {
  bool full = FullMode(argc, argv);
  bool smoke = SmokeMode(argc, argv);
  bool json = JsonMode(argc, argv);
  int threads = ThreadsArg(argc, argv, 1);
  if (!json) {
    std::cout << "# Incremental view maintenance vs full recompute "
              << "(bit-identity enforced per batch)\n";
  }

  // The acceptance scale: single-tuple update batches against the
  // 1000-tuple stress table (also in --smoke, where only the batch count
  // shrinks).
  Config config;
  if (smoke) {
    config = {1000, 6, threads};
  } else if (full) {
    config = {4000, 40, threads};
  } else {
    config = {1000, 20, threads};
  }

  RunSelectSeries(config, /*shards=*/0, json);
  RunSelectSeries(config, /*shards=*/4, json);
  RunJoinSeries(config, json);
  return 0;
}
