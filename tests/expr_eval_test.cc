// Unit tests for the expression evaluator: literals, refs, arithmetic,
// three-valued logic, LIKE, BETWEEN, IN, IS NULL, aggregate environments.

#include <gtest/gtest.h>

#include "engine/expr_eval.h"
#include "sql/parser.h"

namespace galois::engine {
namespace {

using sql::ParseSelect;

Schema TestSchema() {
  return Schema({Column("name", DataType::kString, "t"),
                 Column("pop", DataType::kInt64, "t"),
                 Column("gdp", DataType::kDouble, "t"),
                 Column("maybe", DataType::kInt64, "t")});
}

Tuple TestRow() {
  return {Value::String("Rome"), Value::Int(2800000), Value::Double(2.1),
          Value::Null()};
}

/// Evaluates the WHERE expression of "SELECT x FROM t WHERE <pred>".
Value EvalWhere(const std::string& pred, const AggregateEnv* env = nullptr) {
  auto stmt = ParseSelect("SELECT name FROM t WHERE " + pred);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  auto v = EvalExpr(*stmt.value().where, TestSchema(), TestRow(), env);
  EXPECT_TRUE(v.ok()) << pred << " -> " << v.status();
  return v.value_or(Value::Null());
}

TEST(ExprEvalTest, ColumnRefQualifiedAndNot) {
  EXPECT_EQ(EvalWhere("name = 'Rome'"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("t.name = 'Rome'"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("t.name = 'Paris'"), Value::Bool(false));
}

TEST(ExprEvalTest, NumericComparisons) {
  EXPECT_EQ(EvalWhere("pop > 1000000"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("pop <= 1000000"), Value::Bool(false));
  EXPECT_EQ(EvalWhere("gdp >= 2.1"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("pop != 2800000"), Value::Bool(false));
}

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(EvalWhere("pop + 1 = 2800001"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("pop * 2 = 5600000"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("pop - 2800000 = 0"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("pop % 7 = 2800000 % 7"), Value::Bool(true));
  // Division always yields double.
  EXPECT_EQ(EvalWhere("pop / 2 = 1400000"), Value::Bool(true));
}

TEST(ExprEvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(EvalWhere("pop / 0 = 1").is_null());
  EXPECT_TRUE(EvalWhere("pop % 0 = 1").is_null());
}

TEST(ExprEvalTest, NullPropagation) {
  EXPECT_TRUE(EvalWhere("maybe + 1 = 2").is_null());
  EXPECT_TRUE(EvalWhere("maybe = maybe").is_null());
  EXPECT_TRUE(EvalWhere("maybe > 0").is_null());
}

TEST(ExprEvalTest, ThreeValuedAndOr) {
  // false AND NULL = false; true AND NULL = NULL.
  EXPECT_EQ(EvalWhere("pop < 0 AND maybe = 1"), Value::Bool(false));
  EXPECT_TRUE(EvalWhere("pop > 0 AND maybe = 1").is_null());
  // true OR NULL = true; false OR NULL = NULL.
  EXPECT_EQ(EvalWhere("pop > 0 OR maybe = 1"), Value::Bool(true));
  EXPECT_TRUE(EvalWhere("pop < 0 OR maybe = 1").is_null());
}

TEST(ExprEvalTest, NotSemantics) {
  EXPECT_EQ(EvalWhere("NOT pop > 0"), Value::Bool(false));
  EXPECT_TRUE(EvalWhere("NOT maybe = 1").is_null());
}

TEST(ExprEvalTest, UnaryNegate) {
  EXPECT_EQ(EvalWhere("-pop = -2800000"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("-gdp < 0"), Value::Bool(true));
}

TEST(ExprEvalTest, Between) {
  EXPECT_EQ(EvalWhere("pop BETWEEN 1000000 AND 3000000"),
            Value::Bool(true));
  EXPECT_EQ(EvalWhere("pop BETWEEN 1 AND 2"), Value::Bool(false));
  EXPECT_TRUE(EvalWhere("maybe BETWEEN 1 AND 2").is_null());
}

TEST(ExprEvalTest, InList) {
  EXPECT_EQ(EvalWhere("name IN ('Paris', 'Rome')"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("name IN ('Paris', 'Berlin')"), Value::Bool(false));
  EXPECT_EQ(EvalWhere("name NOT IN ('Paris')"), Value::Bool(true));
  // NULL in the list keeps the unknown semantics when no match found.
  EXPECT_TRUE(EvalWhere("name IN ('Paris', NULL)").is_null());
  EXPECT_EQ(EvalWhere("name IN ('Rome', NULL)"), Value::Bool(true));
}

TEST(ExprEvalTest, IsNull) {
  EXPECT_EQ(EvalWhere("maybe IS NULL"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("maybe IS NOT NULL"), Value::Bool(false));
  EXPECT_EQ(EvalWhere("name IS NULL"), Value::Bool(false));
}

TEST(ExprEvalTest, LikeOperator) {
  EXPECT_EQ(EvalWhere("name LIKE 'Ro%'"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("name LIKE 'R_me'"), Value::Bool(true));
  EXPECT_EQ(EvalWhere("name LIKE 'Ro'"), Value::Bool(false));
  EXPECT_EQ(EvalWhere("name LIKE '%e'"), Value::Bool(true));
}

TEST(ExprEvalTest, LikeMatchFunction) {
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_TRUE(LikeMatch("abc", "a%c"));
  EXPECT_TRUE(LikeMatch("abbbc", "a%c"));
  EXPECT_FALSE(LikeMatch("abd", "a%c"));
  EXPECT_TRUE(LikeMatch("abc", "___"));
  EXPECT_FALSE(LikeMatch("abc", "__"));
  EXPECT_TRUE(LikeMatch("a%b", "a%b"));
}

TEST(ExprEvalTest, AggregateEnvLookup) {
  AggregateEnv env;
  env["COUNT(*)"] = Value::Int(5);
  EXPECT_EQ(EvalWhere("COUNT(*) > 3", &env), Value::Bool(true));
  EXPECT_EQ(EvalWhere("COUNT(*) + 1 = 6", &env), Value::Bool(true));
}

TEST(ExprEvalTest, AggregateWithoutEnvIsError) {
  auto stmt = ParseSelect("SELECT name FROM t WHERE COUNT(*) > 3");
  ASSERT_TRUE(stmt.ok());
  auto v = EvalExpr(*stmt.value().where, TestSchema(), TestRow(), nullptr);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kExecutionError);
}

TEST(ExprEvalTest, UnknownColumnIsBindError) {
  auto stmt = ParseSelect("SELECT name FROM t WHERE nosuch = 1");
  ASSERT_TRUE(stmt.ok());
  auto v = EvalExpr(*stmt.value().where, TestSchema(), TestRow());
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kBindError);
}

TEST(ExprEvalTest, PredicateCollapsesNullToFalse) {
  auto stmt = ParseSelect("SELECT name FROM t WHERE maybe > 0");
  ASSERT_TRUE(stmt.ok());
  auto keep = EvalPredicate(*stmt.value().where, TestSchema(), TestRow());
  ASSERT_TRUE(keep.ok());
  EXPECT_FALSE(keep.value());
}

TEST(ExprEvalTest, LikeOnNonStringIsTypeError) {
  auto stmt = ParseSelect("SELECT name FROM t WHERE pop LIKE 'x%'");
  ASSERT_TRUE(stmt.ok());
  auto v = EvalExpr(*stmt.value().where, TestSchema(), TestRow());
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kTypeError);
}

bool WhereCannotFail(const std::string& pred) {
  auto stmt = ParseSelect("SELECT name FROM t WHERE " + pred);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  return EvalCannotFail(*stmt.value().where, TestSchema());
}

TEST(ExprEvalTest, CannotFailAcceptsComparisonsAndLogic) {
  EXPECT_TRUE(WhereCannotFail("name = 'Rome'"));
  EXPECT_TRUE(WhereCannotFail("t.pop >= gdp AND maybe IS NULL"));
  EXPECT_TRUE(WhereCannotFail("NOT (pop < 5) OR name != 'x'"));
  EXPECT_TRUE(WhereCannotFail("pop BETWEEN 1 AND 10"));
  EXPECT_TRUE(WhereCannotFail("name IN ('Rome', 'Paris')"));
  EXPECT_TRUE(WhereCannotFail("maybe"));  // a bare ref is a truth value
}

TEST(ExprEvalTest, CannotFailRejectsWhatCanRaise) {
  EXPECT_FALSE(WhereCannotFail("nosuch = 1"));           // unknown column
  EXPECT_FALSE(WhereCannotFail("x.name = 'Rome'"));      // unknown alias
  EXPECT_FALSE(WhereCannotFail("name LIKE 'R%'"));       // operand types
  EXPECT_FALSE(WhereCannotFail("pop + 1 > 2"));          // arithmetic
  EXPECT_FALSE(WhereCannotFail("-pop < 0"));             // negation
  EXPECT_FALSE(WhereCannotFail("COUNT(*) > 3"));         // no agg env
  EXPECT_FALSE(WhereCannotFail("pop > 1 AND name LIKE 'R%'"));
  EXPECT_FALSE(WhereCannotFail("NOT (pop * 2 > 1)"));
  // Two columns of the same name under different aliases make an
  // unqualified ref ambiguous.
  Schema twice({Column("name", DataType::kString, "a"),
                Column("name", DataType::kString, "b")});
  auto stmt = ParseSelect("SELECT name FROM t WHERE name = b.name");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(EvalCannotFail(*stmt.value().where, twice));
  auto qualified = ParseSelect("SELECT name FROM t WHERE a.name = b.name");
  ASSERT_TRUE(qualified.ok());
  EXPECT_TRUE(EvalCannotFail(*qualified.value().where, twice));
}

}  // namespace
}  // namespace galois::engine
