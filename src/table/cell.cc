#include "src/table/cell.h"

#include <cstring>
#include <exception>

#include "src/expr/print.h"
#include "src/util/check.h"
#include "src/util/hash.h"

namespace pvcdb {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t FnvByte(uint64_t h, uint8_t byte) { return (h ^ byte) * kFnvPrime; }

// Feeds `v` little-endian, byte by byte, independent of host endianness.
uint64_t FnvUint64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) h = FnvByte(h, static_cast<uint8_t>(v >> (8 * i)));
  return h;
}

}  // namespace

Cell Cell::Agg(ExprId e) {
  Cell c;
  c.value_ = AggRef{e};
  return c;
}

CellType Cell::type() const {
  switch (value_.index()) {
    case 0:
      return CellType::kNull;
    case 1:
      return CellType::kInt;
    case 2:
      return CellType::kDouble;
    case 3:
      return CellType::kString;
    case 4:
      return CellType::kAggExpr;
  }
  PVC_FAIL("corrupt cell variant");
}

int64_t Cell::AsInt() const {
  PVC_CHECK_MSG(type() == CellType::kInt, "cell is not an integer");
  return std::get<int64_t>(value_);
}

double Cell::AsDouble() const {
  PVC_CHECK_MSG(type() == CellType::kDouble, "cell is not a double");
  return std::get<double>(value_);
}

const std::string& Cell::AsString() const {
  PVC_CHECK_MSG(type() == CellType::kString, "cell is not a string");
  return std::get<std::string>(value_);
}

ExprId Cell::AsAgg() const {
  PVC_CHECK_MSG(type() == CellType::kAggExpr,
                "cell is not an aggregation expression");
  return std::get<AggRef>(value_).expr;
}

size_t Cell::Hash() const {
  size_t seed = HashCombine(0, value_.index());
  switch (type()) {
    case CellType::kNull:
      return seed;
    case CellType::kInt:
      return HashCombine(seed, std::hash<int64_t>()(std::get<int64_t>(value_)));
    case CellType::kDouble:
      return HashCombine(seed, std::hash<double>()(std::get<double>(value_)));
    case CellType::kString:
      return HashCombine(seed,
                         std::hash<std::string>()(std::get<std::string>(value_)));
    case CellType::kAggExpr:
      return HashCombine(seed, std::get<AggRef>(value_).expr);
  }
  PVC_FAIL("corrupt cell variant");
}

uint64_t Cell::StableHash() const {
  uint64_t h = FnvByte(kFnvOffset, static_cast<uint8_t>(type()));
  switch (type()) {
    case CellType::kNull:
      return h;
    case CellType::kInt:
      return FnvUint64(h, static_cast<uint64_t>(std::get<int64_t>(value_)));
    case CellType::kDouble: {
      uint64_t bits = 0;
      double v = std::get<double>(value_);
      std::memcpy(&bits, &v, sizeof(bits));
      return FnvUint64(h, bits);
    }
    case CellType::kString: {
      for (char c : std::get<std::string>(value_)) {
        h = FnvByte(h, static_cast<uint8_t>(c));
      }
      return h;
    }
    case CellType::kAggExpr:
      // Aggregation cells reference a pool-local id; there is no canonical
      // byte representation, and shard keys are data columns anyway.
      PVC_FAIL("aggregation expressions have no stable hash");
  }
  PVC_FAIL("corrupt cell variant");
}

std::string Cell::ToString(const ExprPool* pool) const {
  switch (type()) {
    case CellType::kNull:
      return "NULL";
    case CellType::kInt:
      return std::to_string(std::get<int64_t>(value_));
    case CellType::kDouble:
      return std::to_string(std::get<double>(value_));
    case CellType::kString:
      return std::get<std::string>(value_);
    case CellType::kAggExpr:
      if (pool != nullptr) {
        return ExprToString(*pool, std::get<AggRef>(value_).expr);
      }
      return "<agg#" + std::to_string(std::get<AggRef>(value_).expr) + ">";
  }
  PVC_FAIL("corrupt cell variant");
}

bool ParseFullDouble(const std::string& token, double* out) {
  try {
    size_t pos = 0;
    *out = std::stod(token, &pos);
    return pos == token.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool ParseCellToken(const std::string& token, CellType type, Cell* out) {
  try {
    size_t pos = 0;
    switch (type) {
      case CellType::kInt: {
        int64_t v = std::stoll(token, &pos);
        if (pos != token.size()) return false;
        *out = Cell(v);
        return true;
      }
      case CellType::kDouble: {
        double v = std::stod(token, &pos);
        if (pos != token.size()) return false;
        *out = Cell(v);
        return true;
      }
      case CellType::kString:
        *out = Cell(token);
        return true;
      default:
        return false;
    }
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace pvcdb
