// Unit tests for the classic physical operators: filter, joins,
// aggregation, sort, limit, distinct.

#include <gtest/gtest.h>

#include "engine/operators.h"
#include "sql/parser.h"

namespace galois::engine {
namespace {

sql::ExprPtr ParsePredicate(const std::string& pred) {
  auto stmt = sql::ParseSelect("SELECT x FROM t WHERE " + pred);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  return std::move(stmt.value().where);
}

Relation Cities() {
  Relation r(Schema({Column("name", DataType::kString, "ci"),
                     Column("country", DataType::kString, "ci"),
                     Column("pop", DataType::kInt64, "ci")}));
  r.AddRowUnchecked({Value::String("Rome"), Value::String("Italy"),
                     Value::Int(2800000)});
  r.AddRowUnchecked({Value::String("Milan"), Value::String("Italy"),
                     Value::Int(1350000)});
  r.AddRowUnchecked({Value::String("Paris"), Value::String("France"),
                     Value::Int(2100000)});
  r.AddRowUnchecked({Value::String("Lyon"), Value::String("France"),
                     Value::Int(510000)});
  r.AddRowUnchecked({Value::String("Atlantis"), Value::Null(),
                     Value::Int(0)});
  return r;
}

Relation Countries() {
  Relation r(Schema({Column("name", DataType::kString, "co"),
                     Column("continent", DataType::kString, "co")}));
  r.AddRowUnchecked({Value::String("Italy"), Value::String("Europe")});
  r.AddRowUnchecked({Value::String("France"), Value::String("Europe")});
  r.AddRowUnchecked({Value::String("Japan"), Value::String("Asia")});
  return r;
}

TEST(OperatorsTest, FilterKeepsMatching) {
  auto pred = ParsePredicate("pop > 1000000");
  auto out = Filter(Cities(), *pred);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->NumRows(), 3u);
}

TEST(OperatorsTest, FilterNullPredicateDropsRow) {
  auto pred = ParsePredicate("country = 'Italy'");
  auto out = Filter(Cities(), *pred);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 2u);  // Atlantis' NULL country drops out
}

TEST(OperatorsTest, CrossJoinCardinality) {
  auto out = CrossJoin(Cities(), Countries());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 15u);
  EXPECT_EQ(out->NumColumns(), 5u);
}

// --- hash join: exact rows in exact order ---------------------------------
//
// Every HashJoin result is compared row for row, in order, with the
// operators it replaces: CrossJoin + Filter and NestedLoopJoin for inner
// joins, LeftOuterJoin for left joins.

void ExpectSameRowsInOrder(const Result<Relation>& got,
                           const Result<Relation>& want) {
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_TRUE(got->schema() == want->schema())
      << got->schema().ToString() << " vs " << want->schema().ToString();
  ASSERT_EQ(got->NumRows(), want->NumRows());
  for (size_t i = 0; i < got->NumRows(); ++i) {
    EXPECT_EQ(got->row(i), want->row(i)) << "row " << i;
  }
}

/// Checks HashJoin(keys, extra) against all three reference operators for
/// the predicate `keys_sql [AND extra_sql]`.
void ExpectHashJoinMatchesReferences(const Relation& left,
                                     const Relation& right,
                                     const std::vector<JoinKey>& keys,
                                     const std::string& keys_sql,
                                     const std::string& extra_sql = "") {
  auto full = ParsePredicate(extra_sql.empty()
                                 ? keys_sql
                                 : keys_sql + " AND (" + extra_sql + ")");
  sql::ExprPtr extra = extra_sql.empty() ? nullptr
                                         : ParsePredicate(extra_sql);
  auto inner = HashJoin(left, right, keys, extra.get(), sql::JoinType::kInner);
  auto cross = CrossJoin(left, right);
  ASSERT_TRUE(cross.ok());
  ExpectSameRowsInOrder(inner, Filter(*cross, *full));
  ExpectSameRowsInOrder(inner, NestedLoopJoin(left, right, *full));
  ExpectSameRowsInOrder(
      HashJoin(left, right, keys, extra.get(), sql::JoinType::kLeft),
      LeftOuterJoin(left, right, *full));
}

Relation Keyed(const std::string& alias, const std::vector<Value>& keys) {
  Relation r(Schema({Column("k", DataType::kString, alias),
                     Column("pos", DataType::kInt64, alias)}));
  for (size_t i = 0; i < keys.size(); ++i) {
    r.AddRowUnchecked({keys[i], Value::Int(static_cast<int64_t>(i))});
  }
  return r;
}

TEST(HashJoinTest, CityCountryMatchesReferences) {
  ExpectHashJoinMatchesReferences(Cities(), Countries(), {{1, 0}},
                                  "ci.country = co.name");
  auto out = HashJoin(Cities(), Countries(), {{1, 0}}, nullptr,
                      sql::JoinType::kInner);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 4u);  // Atlantis' NULL key never matches
}

TEST(HashJoinTest, DuplicateKeysOnBothSidesKeepBothInputOrders) {
  Relation l = Keyed("l", {Value::String("a"), Value::String("b"),
                           Value::String("a"), Value::String("c"),
                           Value::String("a")});
  Relation r = Keyed("r", {Value::String("b"), Value::String("a"),
                           Value::String("d"), Value::String("a"),
                           Value::String("b")});
  ExpectHashJoinMatchesReferences(l, r, {{0, 0}}, "l.k = r.k");
  auto out = HashJoin(l, r, {{0, 0}}, nullptr, sql::JoinType::kInner);
  ASSERT_TRUE(out.ok());
  // l0 x {r1, r3}, l1 x {r0, r4}, l2 x {r1, r3}, l4 x {r1, r3}.
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (const Tuple& row : out->rows()) {
    pairs.emplace_back(row[1].int_value(), row[3].int_value());
  }
  EXPECT_EQ(pairs, (std::vector<std::pair<int64_t, int64_t>>{
                       {0, 1}, {0, 3}, {1, 0}, {1, 4}, {2, 1}, {2, 3},
                       {4, 1}, {4, 3}}));
}

TEST(HashJoinTest, NullKeysNeverMatchNotEvenEachOther) {
  Relation l = Keyed("l", {Value::Null(), Value::String("a"),
                           Value::Null()});
  Relation r = Keyed("r", {Value::String("a"), Value::Null()});
  ExpectHashJoinMatchesReferences(l, r, {{0, 0}}, "l.k = r.k");
  auto out = HashJoin(l, r, {{0, 0}}, nullptr, sql::JoinType::kInner);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 1u);
  auto padded = HashJoin(l, r, {{0, 0}}, nullptr, sql::JoinType::kLeft);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded->NumRows(), 3u);  // both NULL-key rows padded
}

TEST(HashJoinTest, IntKeysMatchEqualDoubles) {
  Relation l = Keyed("l", {Value::Int(5), Value::Double(2.5),
                           Value::Int(7), Value::Int(3)});
  Relation r = Keyed("r", {Value::Double(5.0), Value::Int(5),
                           Value::Double(7.0), Value::Double(2.5),
                           Value::Double(3.000001)});
  ExpectHashJoinMatchesReferences(l, r, {{0, 0}}, "l.k = r.k");
  auto out = HashJoin(l, r, {{0, 0}}, nullptr, sql::JoinType::kInner);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 4u);  // 5 x {5.0, 5}, 2.5, 7 = 7.0
}

TEST(HashJoinTest, StringsDifferingOnlyInCaseDoNotMatch) {
  Relation l = Keyed("l", {Value::String("Italy"), Value::String("ITALY"),
                           Value::String("france")});
  Relation r = Keyed("r", {Value::String("italy"), Value::String("Italy"),
                           Value::String("France")});
  ExpectHashJoinMatchesReferences(l, r, {{0, 0}}, "l.k = r.k");
  auto out = HashJoin(l, r, {{0, 0}}, nullptr, sql::JoinType::kInner);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->At(0, 2).string_value(), "Italy");
}

TEST(HashJoinTest, LeftJoinWithExtraOnConjunctPadsLikeLeftOuterJoin) {
  // Milan and Lyon find their country but fail the extra conjunct, so
  // they are padded exactly as LeftOuterJoin pads them.
  ExpectHashJoinMatchesReferences(Cities(), Countries(), {{1, 0}},
                                  "ci.country = co.name",
                                  "ci.pop > 2000000");
  auto pred = ParsePredicate("ci.pop > 2000000");
  auto out = HashJoin(Cities(), Countries(), {{1, 0}}, pred.get(),
                      sql::JoinType::kLeft);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 5u);
  EXPECT_EQ(out->At(1, 0).string_value(), "Milan");
  EXPECT_TRUE(out->At(1, 3).is_null());
  EXPECT_EQ(out->At(2, 3).string_value(), "France");  // Paris matched
}

TEST(HashJoinTest, MultipleKeysMustAllMatch) {
  Relation l(Schema({Column("a", DataType::kString, "l"),
                     Column("b", DataType::kInt64, "l")}));
  Relation r(Schema({Column("b", DataType::kDouble, "r"),
                     Column("a", DataType::kString, "r")}));
  for (auto [a, b] : std::vector<std::pair<const char*, int>>{
           {"x", 1}, {"x", 2}, {"y", 1}, {"x", 1}}) {
    l.AddRowUnchecked({Value::String(a), Value::Int(b)});
  }
  for (auto [b, a] : std::vector<std::pair<double, const char*>>{
           {1.0, "x"}, {1.0, "y"}, {2.0, "y"}, {1.0, "x"}}) {
    r.AddRowUnchecked({Value::Double(b), Value::String(a)});
  }
  ExpectHashJoinMatchesReferences(l, r, {{0, 1}, {1, 0}},
                                  "l.a = r.a AND l.b = r.b");
  ExpectHashJoinMatchesReferences(l, r, {{0, 1}}, "l.a = r.a",
                                  "l.b < r.b OR r.a = 'y'");
}

TEST(HashJoinTest, RejectsMissingOrOutOfRangeKeys) {
  auto join = [](std::vector<JoinKey> keys) {
    return HashJoin(Cities(), Countries(), keys, nullptr,
                    sql::JoinType::kInner);
  };
  EXPECT_FALSE(join({}).ok());
  EXPECT_FALSE(join({{9, 0}}).ok());
  EXPECT_FALSE(join({{0, 9}}).ok());
}

TEST(OperatorsTest, NestedLoopJoinThetaPredicate) {
  auto pred = ParsePredicate("ci.pop > 2000000 AND co.continent = 'Europe'");
  auto out = NestedLoopJoin(Cities(), Countries(), *pred);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 4u);  // {Rome, Paris} x {Italy, France}
}

TEST(OperatorsTest, LeftOuterJoinPadsUnmatched) {
  auto pred = ParsePredicate("ci.country = co.name");
  auto out = LeftOuterJoin(Cities(), Countries(), *pred);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 5u);  // 4 matches + Atlantis padded
  bool found_padded = false;
  for (const Tuple& row : out->rows()) {
    if (row[0].string_value() == "Atlantis") {
      EXPECT_TRUE(row[3].is_null());
      EXPECT_TRUE(row[4].is_null());
      found_padded = true;
    }
  }
  EXPECT_TRUE(found_padded);
}

TEST(OperatorsTest, ProjectComputesExpressions) {
  auto stmt = sql::ParseSelect("SELECT pop / 1000 FROM t");
  ASSERT_TRUE(stmt.ok());
  std::vector<const sql::Expr*> exprs{stmt.value().select_list[0].expr.get()};
  auto out = Project(Cities(), exprs, {"popK"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().column(0).name, "popK");
  EXPECT_DOUBLE_EQ(out->At(0, 0).double_value(), 2800.0);
}

TEST(OperatorsTest, ProjectArityMismatch) {
  auto stmt = sql::ParseSelect("SELECT pop FROM t");
  std::vector<const sql::Expr*> exprs{stmt.value().select_list[0].expr.get()};
  EXPECT_FALSE(Project(Cities(), exprs, {"a", "b"}).ok());
}

TEST(OperatorsTest, SortAscendingAndDescending) {
  sql::OrderItem item;
  auto stmt = sql::ParseSelect("SELECT x FROM t ORDER BY pop DESC");
  ASSERT_TRUE(stmt.ok());
  auto out = Sort(Cities(), stmt.value().order_by);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->At(0, 0).string_value(), "Rome");
  EXPECT_EQ(out->At(4, 0).string_value(), "Atlantis");
}

TEST(OperatorsTest, SortStability) {
  auto stmt = sql::ParseSelect("SELECT x FROM t ORDER BY country");
  auto out = Sort(Cities(), stmt.value().order_by);
  ASSERT_TRUE(out.ok());
  // NULL country first, then France rows in input order, then Italy.
  EXPECT_EQ(out->At(0, 0).string_value(), "Atlantis");
  EXPECT_EQ(out->At(1, 0).string_value(), "Paris");
  EXPECT_EQ(out->At(2, 0).string_value(), "Lyon");
}

TEST(OperatorsTest, LimitTruncates) {
  Relation out = Limit(Cities(), 2);
  EXPECT_EQ(out.NumRows(), 2u);
  EXPECT_EQ(Limit(Cities(), 100).NumRows(), 5u);
  EXPECT_EQ(Limit(Cities(), 0).NumRows(), 0u);
}

TEST(OperatorsTest, DistinctRemovesDuplicates) {
  Relation r(Schema({Column("x", DataType::kInt64)}));
  for (int v : {1, 2, 1, 3, 2, 1}) r.AddRowUnchecked({Value::Int(v)});
  EXPECT_EQ(Distinct(r).NumRows(), 3u);
}

// --- aggregation ---------------------------------------------------------

struct AggCase {
  std::string agg_sql;    // e.g. "SUM(pop)"
  double expected;        // expected scalar over Cities()
};

class ScalarAggregateTest : public ::testing::TestWithParam<AggCase> {};

TEST_P(ScalarAggregateTest, ComputesExpected) {
  const AggCase& c = GetParam();
  auto stmt = sql::ParseSelect("SELECT " + c.agg_sql + " FROM t");
  ASSERT_TRUE(stmt.ok());
  std::vector<AggregateSpec> specs{{stmt.value().select_list[0].expr.get()}};
  auto out = HashAggregate(Cities(), {}, specs);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_DOUBLE_EQ(out->At(0, 0).AsDouble().value(), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Functions, ScalarAggregateTest,
    ::testing::Values(AggCase{"COUNT(*)", 5.0},
                      AggCase{"COUNT(pop)", 5.0},
                      AggCase{"COUNT(country)", 4.0},  // NULL not counted
                      AggCase{"SUM(pop)", 6760000.0},
                      AggCase{"AVG(pop)", 1352000.0},
                      AggCase{"MIN(pop)", 0.0},
                      AggCase{"MAX(pop)", 2800000.0},
                      AggCase{"COUNT(DISTINCT country)", 2.0}));

TEST(AggregateTest, GroupByCountry) {
  auto stmt = sql::ParseSelect(
      "SELECT country, COUNT(*), AVG(pop) FROM t GROUP BY country");
  ASSERT_TRUE(stmt.ok());
  std::vector<const sql::Expr*> groups{stmt.value().group_by[0].get()};
  std::vector<AggregateSpec> specs{
      {stmt.value().select_list[1].expr.get()},
      {stmt.value().select_list[2].expr.get()}};
  auto out = HashAggregate(Cities(), groups, specs);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 3u);  // Italy, France, NULL
  for (const Tuple& row : out->rows()) {
    if (row[0].is_null()) {
      EXPECT_EQ(row[1].int_value(), 1);  // Atlantis group
    } else {
      EXPECT_EQ(row[1].int_value(), 2);
    }
  }
}

TEST(AggregateTest, EmptyInputScalarSemantics) {
  Relation empty(Cities().schema());
  auto stmt =
      sql::ParseSelect("SELECT COUNT(*), SUM(pop), MIN(pop) FROM t");
  ASSERT_TRUE(stmt.ok());
  std::vector<AggregateSpec> specs{
      {stmt.value().select_list[0].expr.get()},
      {stmt.value().select_list[1].expr.get()},
      {stmt.value().select_list[2].expr.get()}};
  auto out = HashAggregate(empty, {}, specs);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->At(0, 0).int_value(), 0);  // COUNT = 0
  EXPECT_TRUE(out->At(0, 1).is_null());     // SUM = NULL
  EXPECT_TRUE(out->At(0, 2).is_null());     // MIN = NULL
}

TEST(AggregateTest, EmptyInputWithGroupByYieldsNoRows) {
  Relation empty(Cities().schema());
  auto stmt =
      sql::ParseSelect("SELECT country, COUNT(*) FROM t GROUP BY country");
  std::vector<const sql::Expr*> groups{stmt.value().group_by[0].get()};
  std::vector<AggregateSpec> specs{
      {stmt.value().select_list[1].expr.get()}};
  auto out = HashAggregate(empty, groups, specs);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 0u);
}

TEST(AggregateTest, SumOverStringsIsTypeError) {
  auto stmt = sql::ParseSelect("SELECT SUM(name) FROM t");
  std::vector<AggregateSpec> specs{
      {stmt.value().select_list[0].expr.get()}};
  auto out = HashAggregate(Cities(), {}, specs);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kTypeError);
}

}  // namespace
}  // namespace galois::engine
