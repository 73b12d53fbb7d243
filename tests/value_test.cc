// Unit tests for types/value: construction, comparison, SQL semantics,
// rendering, hashing.

#include <gtest/gtest.h>

#include "types/value.h"

namespace galois {
namespace {

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), DataType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_EQ(Value::Null(), Value());
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_EQ(Value::Bool(true).bool_value(), true);
  EXPECT_EQ(Value::Int(-5).int_value(), -5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("abc").string_value(), "abc");
  EXPECT_EQ(Value::Date(1962, 8, 4).date_packed(), 19620804);
}

TEST(ValueTest, DatePackingRoundTrip) {
  int64_t packed = PackDate(2024, 3, 25);
  int y, m, d;
  UnpackDate(packed, &y, &m, &d);
  EXPECT_EQ(y, 2024);
  EXPECT_EQ(m, 3);
  EXPECT_EQ(d, 25);
}

TEST(ValueTest, AsDoubleCoercions) {
  EXPECT_DOUBLE_EQ(Value::Int(7).AsDouble().value(), 7.0);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).AsDouble().value(), 1.5);
  EXPECT_DOUBLE_EQ(Value::Bool(true).AsDouble().value(), 1.0);
  EXPECT_FALSE(Value::String("x").AsDouble().ok());
  EXPECT_FALSE(Value::Null().AsDouble().ok());
}

TEST(ValueTest, SqlEqualsNullSemantics) {
  EXPECT_FALSE(Value::Null().SqlEquals(Value::Null()));
  EXPECT_FALSE(Value::Null().SqlEquals(Value::Int(1)));
  EXPECT_TRUE(Value::Int(1).SqlEquals(Value::Int(1)));
}

TEST(ValueTest, StructuralEqualityNullEqualsNull) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int(0));
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(4.1).Compare(Value::Int(4)), 0);
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
}

TEST(ValueTest, TotalOrderAcrossTypeGroups) {
  // NULL < bool < numeric < date < string.
  Value null = Value::Null();
  Value b = Value::Bool(true);
  Value n = Value::Int(999999);
  Value d = Value::Date(1900, 1, 1);
  Value s = Value::String("a");
  EXPECT_LT(null.Compare(b), 0);
  EXPECT_LT(b.Compare(n), 0);
  EXPECT_LT(n.Compare(d), 0);
  EXPECT_LT(d.Compare(s), 0);
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("abc").Compare(Value::String("abc")), 0);
}

TEST(ValueTest, DateOrdering) {
  EXPECT_LT(Value::Date(1990, 5, 1).Compare(Value::Date(1990, 5, 2)), 0);
  EXPECT_LT(Value::Date(1989, 12, 31).Compare(Value::Date(1990, 1, 1)), 0);
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value::Int(1234).ToString(), "1234");
  EXPECT_EQ(Value::Double(2.0).ToString(), "2");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Date(1962, 8, 4).ToString(), "1962-08-04");
  EXPECT_EQ(Value::String("Rome").ToString(), "Rome");
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(ValueTest, HashAgreesWithCompareOnEqualValues) {
  // The hash join matches pairs by Hash, then Compare() == 0: every pair
  // Compare calls equal must hash equally.
  const std::vector<std::pair<Value, Value>> equal = {
      {Value::Int(5), Value::Double(5.0)},
      {Value::Double(0.0), Value::Double(-0.0)},
      {Value::Int(0), Value::Double(-0.0)},
      // Large ints compare as doubles, so they hash as doubles too.
      {Value::Int(9007199254740993), Value::Int(9007199254740992)},
      {Value::Bool(true), Value::Bool(true)},
      {Value::Date(1962, 8, 4), Value::DatePacked(19620804)},
  };
  for (const auto& [a, b] : equal) {
    ASSERT_EQ(a.Compare(b), 0) << a << " vs " << b;
    EXPECT_EQ(a.Hash(), b.Hash()) << a << " vs " << b;
  }
  EXPECT_NE(Value::String("Italy").Compare(Value::String("italy")), 0);
}

struct CompareCase {
  Value lhs;
  Value rhs;
  int expected_sign;
};

class ValueCompareTest : public ::testing::TestWithParam<CompareCase> {};

TEST_P(ValueCompareTest, CompareMatchesExpectation) {
  const CompareCase& c = GetParam();
  int got = c.lhs.Compare(c.rhs);
  int sign = got < 0 ? -1 : (got > 0 ? 1 : 0);
  EXPECT_EQ(sign, c.expected_sign);
  // Antisymmetry.
  int rev = c.rhs.Compare(c.lhs);
  int rev_sign = rev < 0 ? -1 : (rev > 0 ? 1 : 0);
  EXPECT_EQ(rev_sign, -c.expected_sign);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ValueCompareTest,
    ::testing::Values(
        CompareCase{Value::Int(1), Value::Int(2), -1},
        CompareCase{Value::Int(2), Value::Int(2), 0},
        CompareCase{Value::Double(1.5), Value::Int(1), 1},
        CompareCase{Value::String("a"), Value::String("b"), -1},
        CompareCase{Value::Bool(false), Value::Bool(true), -1},
        CompareCase{Value::Date(2000, 1, 1), Value::Date(1999, 12, 31), 1},
        CompareCase{Value::Null(), Value::Int(0), -1},
        CompareCase{Value::Int(0), Value::String(""), -1}));

}  // namespace
}  // namespace galois
