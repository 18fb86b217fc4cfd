#include "src/table/cell.h"

#include <gtest/gtest.h>

#include "src/util/check.h"

namespace pvcdb {
namespace {

TEST(CellTest, TypesAndAccessors) {
  EXPECT_EQ(Cell().type(), CellType::kNull);
  EXPECT_TRUE(Cell().is_null());
  Cell i(int64_t{42});
  EXPECT_EQ(i.type(), CellType::kInt);
  EXPECT_EQ(i.AsInt(), 42);
  Cell d(2.5);
  EXPECT_EQ(d.type(), CellType::kDouble);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 2.5);
  Cell s("M&S");
  EXPECT_EQ(s.type(), CellType::kString);
  EXPECT_EQ(s.AsString(), "M&S");
}

TEST(CellTest, AggCellHoldsExpression) {
  ExprPool pool(SemiringKind::kBool);
  ExprId e = pool.Tensor(pool.Var(0), pool.ConstM(AggKind::kMin, 10));
  Cell c = Cell::Agg(e);
  EXPECT_EQ(c.type(), CellType::kAggExpr);
  EXPECT_EQ(c.AsAgg(), e);
}

TEST(CellTest, WrongAccessorThrows) {
  Cell i(int64_t{1});
  EXPECT_THROW(i.AsString(), CheckError);
  EXPECT_THROW(i.AsDouble(), CheckError);
  EXPECT_THROW(i.AsAgg(), CheckError);
  EXPECT_THROW(Cell("x").AsInt(), CheckError);
}

TEST(CellTest, EqualityIsStructural) {
  EXPECT_EQ(Cell(int64_t{3}), Cell(int64_t{3}));
  EXPECT_NE(Cell(int64_t{3}), Cell(int64_t{4}));
  EXPECT_NE(Cell(int64_t{3}), Cell(3.0)) << "types distinguish";
  EXPECT_EQ(Cell("a"), Cell("a"));
  EXPECT_EQ(Cell(), Cell());
}

TEST(CellTest, HashConsistentWithEquality) {
  EXPECT_EQ(Cell(int64_t{3}).Hash(), Cell(int64_t{3}).Hash());
  EXPECT_EQ(Cell("abc").Hash(), Cell("abc").Hash());
  // Different types should (overwhelmingly) hash differently.
  EXPECT_NE(Cell(int64_t{0}).Hash(), Cell().Hash());
}

TEST(CellTest, ToStringRendering) {
  EXPECT_EQ(Cell(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Cell("Gap").ToString(), "Gap");
  EXPECT_EQ(Cell().ToString(), "NULL");
  ExprPool pool(SemiringKind::kBool);
  ExprId e = pool.Var(3);
  EXPECT_EQ(Cell::Agg(e).ToString(&pool), "x3");
  EXPECT_NE(Cell::Agg(e).ToString(nullptr).find("agg#"), std::string::npos);
}

TEST(CellTest, ParseCellTokenAcceptsWholeTokensOnly) {
  Cell c;
  ASSERT_TRUE(ParseCellToken("-42", CellType::kInt, &c));
  EXPECT_EQ(c, Cell(int64_t{-42}));
  ASSERT_TRUE(ParseCellToken("2.5", CellType::kDouble, &c));
  EXPECT_EQ(c, Cell(2.5));
  ASSERT_TRUE(ParseCellToken("14.99", CellType::kString, &c));
  EXPECT_EQ(c, Cell("14.99"));
  EXPECT_FALSE(ParseCellToken("14.99", CellType::kInt, &c));
  EXPECT_FALSE(ParseCellToken("7x", CellType::kInt, &c));
  EXPECT_FALSE(ParseCellToken("", CellType::kInt, &c));
  EXPECT_FALSE(ParseCellToken("99999999999999999999", CellType::kInt, &c));
  EXPECT_FALSE(ParseCellToken("2.5.1", CellType::kDouble, &c));
  EXPECT_FALSE(ParseCellToken("1", CellType::kAggExpr, &c));

  double d = 0.0;
  EXPECT_TRUE(ParseFullDouble("0.25", &d));
  EXPECT_EQ(d, 0.25);
  EXPECT_FALSE(ParseFullDouble("0.25abc", &d));
  EXPECT_FALSE(ParseFullDouble("0..5", &d));
  EXPECT_FALSE(ParseFullDouble("", &d));
}

}  // namespace
}  // namespace pvcdb
