#include "src/engine/csv.h"

#include <gtest/gtest.h>

#include <sstream>

namespace pvcdb {
namespace {

TEST(CsvTest, LoadBasicTable) {
  Database db;
  std::istringstream input(
      "item:string,price:int,_prob\n"
      "widget,1999,0.9\n"
      "gadget,450,0.75\n");
  CsvResult r = LoadCsvTable(&db, "items", input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.rows, 2u);
  const PvcTable& t = db.table("items");
  EXPECT_EQ(t.CellAt(0, "item").AsString(), "widget");
  EXPECT_EQ(t.CellAt(1, "price").AsInt(), 450);
  EXPECT_NEAR(db.TupleProbability(t.row(0)), 0.9, 1e-12);
  EXPECT_NEAR(db.TupleProbability(t.row(1)), 0.75, 1e-12);
}

TEST(CsvTest, MissingProbColumnDefaultsToOne) {
  Database db;
  std::istringstream input("k:int\n1\n2\n");
  CsvResult r = LoadCsvTable(&db, "t", input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NEAR(db.TupleProbability(db.table("t").row(0)), 1.0, 1e-12);
}

TEST(CsvTest, QuotedStringsWithCommas) {
  Database db;
  std::istringstream input(
      "name:string,_prob\n"
      "\"Smith, John\",0.5\n"
      "\"say \"\"hi\"\"\",0.5\n");
  CsvResult r = LoadCsvTable(&db, "people", input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(db.table("people").CellAt(0, "name").AsString(), "Smith, John");
  EXPECT_EQ(db.table("people").CellAt(1, "name").AsString(), "say \"hi\"");
}

TEST(CsvTest, DoubleColumns) {
  Database db;
  std::istringstream input("x:double\n1.5\n-2.25\n");
  CsvResult r = LoadCsvTable(&db, "d", input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(db.table("d").CellAt(1, "x").AsDouble(), -2.25);
}

TEST(CsvTest, Diagnostics) {
  Database db;
  {
    std::istringstream input("");
    EXPECT_FALSE(LoadCsvTable(&db, "t", input).ok);
  }
  {
    std::istringstream input("notype\n1\n");
    CsvResult r = LoadCsvTable(&db, "t", input);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("':type'"), std::string::npos);
  }
  {
    std::istringstream input("x:int\n1,2\n");
    CsvResult r = LoadCsvTable(&db, "t", input);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("expected 1 fields"), std::string::npos);
  }
  {
    std::istringstream input("x:int\nnot_a_number\n");
    EXPECT_FALSE(LoadCsvTable(&db, "t", input).ok);
  }
  {
    std::istringstream input("x:int,_prob\n1,1.5\n");
    CsvResult r = LoadCsvTable(&db, "t", input);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("out of [0, 1]"), std::string::npos);
  }
  {
    std::istringstream input("x:widget\n1\n");
    CsvResult r = LoadCsvTable(&db, "t", input);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unknown column type"), std::string::npos);
  }
}

// Cells and probabilities parse in full through the same token parser as
// the shell's `insert`: a partial parse is an error, never a truncation.
TEST(CsvTest, PartialTokensRejected) {
  const char* bad_cells[] = {"14.99", "7x"};
  for (const char* cell : bad_cells) {
    Database db;
    std::istringstream input(std::string("price:int,_prob\n1,0.5\n") + cell +
                             ",0.5\n");
    CsvResult r = LoadCsvTable(&db, "t", input);
    EXPECT_FALSE(r.ok) << cell;
    EXPECT_NE(r.error.find(std::string("line 3: cannot parse '") + cell),
              std::string::npos)
        << r.error;
    EXPECT_FALSE(db.HasTable("t"));
  }
  const char* bad_probs[] = {"0.25abc", "nan", "-nan", "1.5"};
  for (const char* prob : bad_probs) {
    Database db;
    std::istringstream input(std::string("price:int,_prob\n3,") + prob +
                             "\n");
    CsvResult r = LoadCsvTable(&db, "t", input);
    EXPECT_FALSE(r.ok) << prob;
    EXPECT_NE(r.error.find(std::string("line 2: bad probability '") + prob),
              std::string::npos)
        << r.error;
    EXPECT_FALSE(db.HasTable("t"));
  }
}

TEST(CsvTest, CrLfTolerated) {
  Database db;
  std::istringstream input("k:int,_prob\r\n7,0.25\r\n");
  CsvResult r = LoadCsvTable(&db, "t", input);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(db.table("t").CellAt(0, "k").AsInt(), 7);
}

TEST(CsvTest, RoundTripThroughWrite) {
  Database db;
  std::istringstream input(
      "item:string,price:int,_prob\nwidget,10,0.5\ngadget,20,0.25\n");
  ASSERT_TRUE(LoadCsvTable(&db, "items", input).ok);
  std::ostringstream out;
  ASSERT_TRUE(WriteCsvTable(db, db.table("items"), out));
  Database db2;
  std::istringstream back(out.str());
  CsvResult r = LoadCsvTable(&db2, "items", back);
  ASSERT_TRUE(r.ok) << r.error;
  const PvcTable& t = db2.table("items");
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_NEAR(db2.TupleProbability(t.row(0)), 0.5, 1e-9);
  EXPECT_NEAR(db2.TupleProbability(t.row(1)), 0.25, 1e-9);
}

TEST(CsvTest, WriteRejectsAggregateColumns) {
  Database db;
  std::istringstream input("v:int,_prob\n1,0.5\n2,0.5\n");
  ASSERT_TRUE(LoadCsvTable(&db, "t", input).ok);
  QueryPtr q = Query::GroupAgg(Query::Scan("t"), {},
                               {{AggKind::kSum, "v", "s"}});
  PvcTable result = db.Run(*q);
  std::ostringstream out;
  EXPECT_FALSE(WriteCsvTable(db, result, out));
}

TEST(CsvTest, MissingFileDiagnosed) {
  Database db;
  CsvResult r = LoadCsvTableFromFile(&db, "t", "/nonexistent/path.csv");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace pvcdb
