// Tests for shard placement and the in-process sharded facade
// (src/engine/shard.h): placement invariants under load, append and
// delete, the distributable-fragment predicate, and the contract that
// every result of ShardedDatabase -- step I, exact and approximate step II
// -- is *bit-identical* to the unsharded engine for shards in
// {1, 2, 4, 8} x threads in {1, 4}.

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/csv.h"
#include "src/engine/database.h"
#include "src/engine/shard.h"
#include "src/query/ast.h"
#include "src/util/rng.h"

namespace pvcdb {
namespace {

constexpr size_t kShardGrid[] = {1, 2, 4, 8};
constexpr int kThreadGrid[] = {1, 4};

void ExpectBitIdentical(const Distribution& a, const Distribution& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].first, b.entries()[i].first);
    EXPECT_EQ(a.entries()[i].second, b.entries()[i].second);
  }
}

// Loads the Figure 1 database as tuple-independent tables through the
// uniform load API, so the unsharded reference and the sharded database
// create identical variables in identical order. Routing keys are the
// first columns (sid / ps_sid / p_pid).
template <typename DB>
void LoadFigure1(DB* db, double p) {
  Schema s_schema({{"sid", CellType::kInt}, {"shop", CellType::kString}});
  db->AddTupleIndependentTable(
      "S", s_schema,
      {{Cell(int64_t{1}), Cell("M&S")},
       {Cell(int64_t{2}), Cell("M&S")},
       {Cell(int64_t{3}), Cell("M&S")},
       {Cell(int64_t{4}), Cell("Gap")},
       {Cell(int64_t{5}), Cell("Gap")}},
      {p, p, p, p, p});
  Schema ps_schema({{"ps_sid", CellType::kInt},
                    {"pid", CellType::kInt},
                    {"price", CellType::kInt}});
  std::vector<std::vector<Cell>> ps_rows;
  const int64_t entries[][3] = {{1, 1, 10}, {1, 2, 50}, {2, 1, 11},
                                {2, 2, 60}, {3, 3, 15}, {3, 4, 40},
                                {4, 1, 15}, {4, 3, 60}, {5, 1, 10}};
  for (const auto& e : entries) {
    ps_rows.push_back({Cell(e[0]), Cell(e[1]), Cell(e[2])});
  }
  db->AddTupleIndependentTable("PS", ps_schema, std::move(ps_rows),
                               std::vector<double>(9, p));
  Schema p_schema({{"p_pid", CellType::kInt}, {"weight", CellType::kInt}});
  db->AddTupleIndependentTable("P1", p_schema,
                               {{Cell(int64_t{1}), Cell(int64_t{4})},
                                {Cell(int64_t{2}), Cell(int64_t{8})},
                                {Cell(int64_t{3}), Cell(int64_t{7})},
                                {Cell(int64_t{4}), Cell(int64_t{6})}},
                               {p, p, p, p});
  db->AddTupleIndependentTable("P2", p_schema,
                               {{Cell(int64_t{1}), Cell(int64_t{5})}}, {p});
}

// Q1 and Q2 of Figure 1 (joins, union, projection, grouped aggregation --
// all operators that force the coordinator gather).
QueryPtr Figure1Q1() {
  QueryPtr products = Query::Union(Query::Scan("P1"), Query::Scan("P2"));
  QueryPtr joined = Query::Join(Query::Scan("S"), Query::Scan("PS"),
                                Predicate::ColEqCol("sid", "ps_sid"));
  joined = Query::Join(joined, products, Predicate::ColEqCol("pid", "p_pid"));
  return Query::Project(joined, {"shop", "price"});
}

QueryPtr Figure1Q2() {
  QueryPtr agg = Query::GroupAgg(Figure1Q1(), {"shop"},
                                 {{AggKind::kMax, "price", "P"}});
  QueryPtr filtered =
      Query::Select(agg, Predicate::ColCmpInt("P", CmpOp::kLe, 50));
  return Query::Project(filtered, {"shop"});
}

// A Select/Rename chain: the shard-distributable fragment.
QueryPtr Figure1Chain() {
  QueryPtr q = Query::Select(Query::Scan("PS"),
                             Predicate::ColCmpInt("price", CmpOp::kLe, 40));
  q = Query::Rename(q, "price", "price2");
  return Query::Select(q, Predicate::ColCmpInt("ps_sid", CmpOp::kGe, 2));
}

// The 1000-tuple stress table: integer primary key, a grouping column and
// a value column, random probabilities.
template <typename DB>
void LoadStressTable(DB* db) {
  Rng rng(12345);
  Schema schema({{"id", CellType::kInt},
                 {"g", CellType::kInt},
                 {"v", CellType::kInt}});
  std::vector<std::vector<Cell>> rows;
  std::vector<double> probs;
  for (int64_t i = 0; i < 1000; ++i) {
    rows.push_back({Cell(i), Cell(i % 37), Cell(rng.UniformInt(0, 20))});
    probs.push_back(rng.UniformDouble(0.05, 0.95));
  }
  db->AddTupleIndependentTable("T", schema, std::move(rows),
                               std::move(probs));
}

// Checks `name`'s placement against the table's rows: every row placed,
// routed by FNV-1a (Cell::StableHash) over its key cell mod N, and each
// shard's partition rows numbered densely in table order, with exact
// per-shard counts.
void ExpectDensePlacement(const ShardedDatabase& db, const std::string& name) {
  const ShardPlacement& placement = db.placement();
  const ShardPlacement::Table& placed = placement.table(name);
  const PvcTable& table = db.coordinator().table(name);
  ASSERT_EQ(placed.slots.size(), table.NumRows());
  std::vector<size_t> next(placement.num_shards(), 0);
  for (size_t i = 0; i < table.NumRows(); ++i) {
    const Cell& key = table.row(i).cells[placed.key_index];
    auto [s, r] = placed.slots[i];
    EXPECT_EQ(s, key.StableHash() % placement.num_shards()) << "row " << i;
    EXPECT_EQ(r, next[s]++) << "row " << i;
  }
  EXPECT_EQ(placed.counts, next);
  EXPECT_EQ(db.ShardRowCounts(name), next);
}

TEST(ShardPlacementTest, StableHashSeparatesTypesAndValues) {
  EXPECT_EQ(Cell(int64_t{7}).StableHash(), Cell(int64_t{7}).StableHash());
  EXPECT_NE(Cell(int64_t{7}).StableHash(), Cell(int64_t{8}).StableHash());
  EXPECT_NE(Cell(int64_t{7}).StableHash(), Cell("7").StableHash());
  EXPECT_NE(Cell("a").StableHash(), Cell("b").StableHash());
}

TEST(ShardPlacementTest, LoadIsCompleteOrderPreservingAndRoutedByFnv) {
  for (size_t shards : kShardGrid) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    ShardedDatabase db(shards);
    LoadStressTable(&db);
    ASSERT_EQ(db.NumRows("T"), 1000u);
    ExpectDensePlacement(db, "T");
    EXPECT_EQ(db.KeyColumnName("T"), "id");
  }
}

TEST(ShardPlacementTest, AppendAndDeleteKeepPartitionsDenseAndCountsExact) {
  ShardedDatabase db(4);
  LoadStressTable(&db);
  const ShardPlacement& placement = db.placement();
  for (int64_t id = 1000; id < 1020; ++id) {
    db.InsertTuple("T", {Cell(id), Cell(id % 37), Cell(int64_t{5})}, 0.5);
    ExpectDensePlacement(db, "T");
  }
  // Deletes at the front, in the middle and at the end.
  for (size_t pick : {0, 1, 2}) {
    size_t rows = db.NumRows("T");
    db.DeleteRowAt("T", pick == 0 ? 0 : pick == 1 ? rows / 2 : rows - 1);
    ExpectDensePlacement(db, "T");
  }

  // Empty one shard from the middle of its partition, down to its last row.
  const uint32_t victim = 2;
  while (placement.table("T").counts[victim] > 0) {
    std::vector<size_t> owned;
    const auto& slots = placement.table("T").slots;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].first == victim) owned.push_back(i);
    }
    db.DeleteRowAt("T", owned[owned.size() / 2]);
    ExpectDensePlacement(db, "T");
  }
  size_t total = 0;
  for (size_t count : db.ShardRowCounts("T")) total += count;
  EXPECT_EQ(total, db.NumRows("T"));

  // The emptied shard takes the next row routed to it as its row 0.
  int64_t key = 5000;
  while (placement.Route(Cell(key)) != victim) ++key;
  db.InsertTuple("T", {Cell(key), Cell(int64_t{0}), Cell(int64_t{0})}, 0.5);
  EXPECT_EQ(placement.table("T").slots.back(),
            ShardPlacement::Slot(victim, 0));
  ExpectDensePlacement(db, "T");
  EXPECT_EQ(db.DeleteTuple("T", Cell(key)), 1u);
  EXPECT_EQ(placement.table("T").counts[victim], 0u);
  ExpectDensePlacement(db, "T");
}

TEST(ShardedDatabaseTest, VariablesMatchTheUnshardedLoad) {
  ShardedDatabase sharded(4);
  LoadFigure1(&sharded, 0.5);
  Database reference;
  LoadFigure1(&reference, 0.5);
  EXPECT_EQ(sharded.variables().size(), reference.variables().size());
  EXPECT_EQ(&sharded.coordinator().variables(), &sharded.variables());
}

// Select/Rename chains over a placed table scatter; every other shape, and
// any chain touching the reserved provenance column, evaluates in full.
TEST(ShardPlacementTest, DrivingTablePicksTheDistributableFragment) {
  ShardedDatabase db(2);
  LoadFigure1(&db, 0.5);
  const ShardPlacement& placement = db.placement();
  const Database& catalog = db.coordinator();
  EXPECT_EQ(placement.DrivingTable(*Figure1Chain(), catalog),
            std::optional<std::string>("PS"));
  EXPECT_EQ(placement.DrivingTable(*Figure1Q1(), catalog), std::nullopt);
  EXPECT_EQ(placement.DrivingTable(*Figure1Q2(), catalog), std::nullopt);
  QueryPtr provenance =
      Query::Rename(Figure1Chain(), "price2", kShardRowIdColumn);
  EXPECT_EQ(placement.DrivingTable(*provenance, catalog), std::nullopt);
}

// The acceptance grid on the paper's running example: for every shard and
// thread count, the sharded engine reproduces the unsharded engine's
// result tables, exact probabilities, annotation distributions and
// approximation bounds bit for bit -- across coordinator plans (Q1, Q2)
// and distributed plans (the Select/Rename chain).
TEST(ShardedDatabaseTest, Figure1BitIdenticalAcrossShardAndThreadGrid) {
  Database reference;
  LoadFigure1(&reference, 0.3);
  std::vector<QueryPtr> queries = {Figure1Q1(), Figure1Q2(), Figure1Chain()};

  struct Expected {
    PvcTable table;
    std::vector<double> probabilities;
    std::vector<Distribution> distributions;
    std::vector<ProbabilityBounds> bounds;
  };
  ApproximateOptions approx;
  approx.node_budget = 64;
  std::vector<Expected> expected;
  for (const QueryPtr& q : queries) {
    Expected e;
    e.table = reference.Run(*q);
    e.probabilities = reference.TupleProbabilities(e.table);
    e.distributions = reference.AnnotationDistributions(e.table);
    e.bounds = reference.ApproximateTupleProbabilities(e.table, approx);
    expected.push_back(std::move(e));
  }

  for (size_t shards : kShardGrid) {
    for (int threads : kThreadGrid) {
      ShardedDatabase db(shards);
      LoadFigure1(&db, 0.3);
      db.eval_options().num_threads = threads;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        SCOPED_TRACE(::testing::Message() << "shards=" << shards
                                          << " threads=" << threads
                                          << " query=" << qi);
        const Expected& e = expected[qi];
        PvcTable result = db.Run(*queries[qi]);
        ASSERT_EQ(result.NumRows(), e.table.NumRows());
        EXPECT_EQ(result.schema(), e.table.schema());
        for (size_t i = 0; i < result.NumRows(); ++i) {
          EXPECT_EQ(result.row(i).cells, e.table.row(i).cells) << "row " << i;
        }
        std::vector<double> probabilities = db.TupleProbabilities(result);
        ASSERT_EQ(probabilities.size(), e.probabilities.size());
        for (size_t i = 0; i < probabilities.size(); ++i) {
          EXPECT_EQ(probabilities[i], e.probabilities[i]) << "row " << i;
        }
        std::vector<Distribution> distributions =
            db.AnnotationDistributions(result);
        for (size_t i = 0; i < distributions.size(); ++i) {
          ExpectBitIdentical(distributions[i], e.distributions[i]);
        }
        std::vector<ProbabilityBounds> bounds =
            db.ApproximateTupleProbabilities(result, approx);
        ASSERT_EQ(bounds.size(), e.bounds.size());
        for (size_t i = 0; i < bounds.size(); ++i) {
          EXPECT_EQ(bounds[i].low, e.bounds[i].low) << "row " << i;
          EXPECT_EQ(bounds[i].high, e.bounds[i].high) << "row " << i;
        }
      }
    }
  }
}

// The same grid on the 1000-tuple stress table: base-table scatter-gather,
// a distributed selection, and a cross-shard grouped aggregate.
TEST(ShardedDatabaseTest, StressTableBitIdenticalAcrossShardAndThreadGrid) {
  Database reference;
  LoadStressTable(&reference);
  std::vector<double> expected_base =
      reference.TupleProbabilities(reference.table("T"));

  QueryPtr select = Query::Select(Query::Scan("T"),
                                  Predicate::ColCmpInt("v", CmpOp::kGe, 10));
  QueryPtr group = Query::GroupAgg(Query::Scan("T"), {"g"},
                                   {{AggKind::kCount, "", "n"}});
  PvcTable expected_select = reference.Run(*select);
  std::vector<double> expected_select_probs =
      reference.TupleProbabilities(expected_select);
  PvcTable expected_group = reference.Run(*group);
  ASSERT_EQ(expected_group.NumRows(), 37u);
  std::vector<double> expected_group_probs =
      reference.TupleProbabilities(expected_group);
  std::vector<Distribution> expected_group_dists =
      reference.AnnotationDistributions(expected_group);

  for (size_t shards : kShardGrid) {
    for (int threads : kThreadGrid) {
      SCOPED_TRACE(::testing::Message() << "shards=" << shards
                                        << " threads=" << threads);
      ShardedDatabase db(shards);
      LoadStressTable(&db);
      db.eval_options().num_threads = threads;

      std::vector<double> base = db.TupleProbabilities("T");
      ASSERT_EQ(base.size(), expected_base.size());
      for (size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(base[i], expected_base[i]) << "row " << i;
      }

      EXPECT_TRUE(
          db.placement().DrivingTable(*select, db.coordinator()).has_value());
      PvcTable selected = db.Run(*select);
      ASSERT_EQ(selected.NumRows(), expected_select.NumRows());
      std::vector<double> select_probs = db.TupleProbabilities(selected);
      for (size_t i = 0; i < select_probs.size(); ++i) {
        EXPECT_EQ(selected.row(i).cells, expected_select.row(i).cells);
        EXPECT_EQ(select_probs[i], expected_select_probs[i]) << "row " << i;
      }

      EXPECT_FALSE(
          db.placement().DrivingTable(*group, db.coordinator()).has_value());
      PvcTable grouped = db.Run(*group);
      ASSERT_EQ(grouped.NumRows(), expected_group.NumRows());
      std::vector<double> group_probs = db.TupleProbabilities(grouped);
      std::vector<Distribution> group_dists =
          db.AnnotationDistributions(grouped);
      for (size_t i = 0; i < group_probs.size(); ++i) {
        EXPECT_EQ(grouped.row(i).cells, expected_group.row(i).cells);
        EXPECT_EQ(group_probs[i], expected_group_probs[i]) << "row " << i;
        ExpectBitIdentical(group_dists[i], expected_group_dists[i]);
      }
    }
  }
}

TEST(ShardedDatabaseTest, ConditionalAggregatesMatchTheUnshardedEngine) {
  Database reference;
  LoadFigure1(&reference, 0.4);
  QueryPtr q = Query::GroupAgg(Figure1Q1(), {"shop"},
                               {{AggKind::kMax, "price", "P"}});
  PvcTable expected = reference.Run(*q);

  ShardedDatabase db(4);
  LoadFigure1(&db, 0.4);
  db.eval_options().num_threads = 4;
  PvcTable result = db.Run(*q);
  ASSERT_EQ(result.NumRows(), expected.NumRows());
  for (size_t i = 0; i < result.NumRows(); ++i) {
    Distribution a = db.ConditionalAggregateDistribution(result, i, "P");
    Distribution b =
        reference.ConditionalAggregateDistribution(expected, i, "P");
    ExpectBitIdentical(a, b);
  }
}

TEST(ShardedDatabaseTest, CsvLoadsShardTheSameRowsAsTheUnshardedLoad) {
  const char* csv =
      "kind:string,item:string,price:int,_prob\n"
      "tool,hammer,1299,0.9\n"
      "tool,wrench,899,0.7\n"
      "garden,shovel,2399,0.6\n";
  Database reference;
  {
    std::istringstream in(csv);
    CsvResult r = LoadCsvTable(&reference, "items", in);
    ASSERT_TRUE(r.ok) << r.error;
  }
  ShardedDatabase db(2);
  {
    std::istringstream in(csv);
    CsvResult r = LoadCsvTable(&db, "items", in);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.rows, 3u);
  }
  std::vector<double> expected =
      reference.TupleProbabilities(reference.table("items"));
  std::vector<double> actual = db.TupleProbabilities("items");
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]);
  }
  std::vector<size_t> counts = db.ShardRowCounts("items");
  EXPECT_EQ(counts[0] + counts[1], 3u);
}

TEST(ShardedDatabaseTest, DeterministicBaselineMatches) {
  Database reference;
  LoadFigure1(&reference, 0.5);
  PvcTable expected = reference.RunDeterministic(*Figure1Q1());

  ShardedDatabase db(4);
  LoadFigure1(&db, 0.5);
  PvcTable result = db.RunDeterministic(*Figure1Q1());
  ASSERT_EQ(result.NumRows(), expected.NumRows());
  for (size_t i = 0; i < result.NumRows(); ++i) {
    EXPECT_EQ(result.row(i).cells, expected.row(i).cells);
  }
}

}  // namespace
}  // namespace pvcdb
