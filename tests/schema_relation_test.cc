// Unit tests for types/schema and types/relation.

#include <gtest/gtest.h>

#include "types/relation.h"
#include "types/schema.h"

namespace galois {
namespace {

Schema MakeSchema() {
  return Schema({Column("name", DataType::kString, "c"),
                 Column("population", DataType::kInt64, "c"),
                 Column("gdp", DataType::kDouble, "c")});
}

TEST(SchemaTest, ResolveUnqualified) {
  Schema s = MakeSchema();
  EXPECT_EQ(s.Resolve("name").value(), 0u);
  EXPECT_EQ(s.Resolve("POPULATION").value(), 1u);
  EXPECT_FALSE(s.Resolve("missing").ok());
}

TEST(SchemaTest, ResolveQualified) {
  Schema s = MakeSchema();
  EXPECT_EQ(s.Resolve("c.gdp").value(), 2u);
  EXPECT_EQ(s.ResolveQualified("C", "Name").value(), 0u);
  EXPECT_FALSE(s.ResolveQualified("x", "name").ok());
}

TEST(SchemaTest, AmbiguityDetected) {
  Schema s({Column("name", DataType::kString, "a"),
            Column("name", DataType::kString, "b")});
  EXPECT_FALSE(s.Resolve("name").ok());
  EXPECT_EQ(s.Resolve("a.name").value(), 0u);
  EXPECT_EQ(s.Resolve("b.name").value(), 1u);
}

TEST(SchemaTest, Concat) {
  Schema a({Column("x", DataType::kInt64, "l")});
  Schema b({Column("y", DataType::kInt64, "r")});
  Schema c = Schema::Concat(a, b);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.column(0).name, "x");
  EXPECT_EQ(c.column(1).name, "y");
}

TEST(SchemaTest, QualifiedName) {
  EXPECT_EQ(Column("name", DataType::kString, "c").QualifiedName(),
            "c.name");
  EXPECT_EQ(Column("name", DataType::kString).QualifiedName(), "name");
}

TEST(SchemaTest, ToStringMentionsTypes) {
  std::string s = MakeSchema().ToString();
  EXPECT_NE(s.find("VARCHAR"), std::string::npos);
  EXPECT_NE(s.find("INT"), std::string::npos);
  EXPECT_NE(s.find("DOUBLE"), std::string::npos);
}

Relation MakeRelation() {
  Relation r(MakeSchema());
  r.AddRowUnchecked({Value::String("Italy"), Value::Int(59),
                     Value::Double(2.1)});
  r.AddRowUnchecked({Value::String("France"), Value::Int(67),
                     Value::Double(2.9)});
  r.AddRowUnchecked({Value::String("Austria"), Value::Int(9),
                     Value::Double(0.5)});
  return r;
}

TEST(RelationTest, AddRowChecksArity) {
  Relation r(MakeSchema());
  EXPECT_TRUE(r.AddRow({Value::String("x"), Value::Int(1),
                        Value::Double(1.0)})
                  .ok());
  EXPECT_FALSE(r.AddRow({Value::String("x")}).ok());
  EXPECT_EQ(r.NumRows(), 1u);
}

TEST(RelationTest, SortRowsCanonical) {
  Relation r = MakeRelation();
  r.SortRows();
  EXPECT_EQ(r.At(0, 0).string_value(), "Austria");
  EXPECT_EQ(r.At(1, 0).string_value(), "France");
  EXPECT_EQ(r.At(2, 0).string_value(), "Italy");
}

TEST(RelationTest, DedupRows) {
  Relation r(MakeSchema());
  for (int i = 0; i < 3; ++i) {
    r.AddRowUnchecked({Value::String("dup"), Value::Int(1),
                       Value::Double(1.0)});
  }
  r.AddRowUnchecked({Value::String("uniq"), Value::Int(2),
                     Value::Double(2.0)});
  r.DedupRows();
  EXPECT_EQ(r.NumRows(), 2u);
}

TEST(RelationTest, SameContentsIgnoresOrder) {
  Relation a = MakeRelation();
  Relation b = MakeRelation();
  std::reverse(b.mutable_rows()->begin(), b.mutable_rows()->end());
  EXPECT_TRUE(a.SameContents(b));
  b.AddRowUnchecked({Value::String("x"), Value::Int(0),
                     Value::Double(0.0)});
  EXPECT_FALSE(a.SameContents(b));
}

TEST(RelationTest, SameContentsDetectsCellDifference) {
  Relation a = MakeRelation();
  Relation b = MakeRelation();
  (*b.mutable_rows())[0][1] = Value::Int(999);
  EXPECT_FALSE(a.SameContents(b));
}

TEST(RelationTest, PrettyStringContainsHeaderAndRows) {
  Relation r = MakeRelation();
  std::string s = r.ToPrettyString();
  EXPECT_NE(s.find("c.name"), std::string::npos);
  EXPECT_NE(s.find("Italy"), std::string::npos);
  EXPECT_NE(s.find("3 row(s)"), std::string::npos);
}

TEST(RelationTest, PrettyStringTruncates) {
  Relation r(Schema({Column("n", DataType::kInt64)}));
  for (int i = 0; i < 100; ++i) r.AddRowUnchecked({Value::Int(i)});
  std::string s = r.ToPrettyString(/*max_rows=*/10);
  EXPECT_NE(s.find("(90 more rows)"), std::string::npos);
}

TEST(RelationTest, CsvFormat) {
  Relation r = MakeRelation();
  std::string csv = r.ToCsv();
  EXPECT_NE(csv.find("c.name|c.population|c.gdp"), std::string::npos);
  EXPECT_NE(csv.find("Italy|59|2.1"), std::string::npos);
}

TEST(RelationTest, EmptyRelation) {
  Relation r(MakeSchema());
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.NumRows(), 0u);
  EXPECT_EQ(r.NumColumns(), 3u);
  r.DedupRows();  // no crash on empty
  EXPECT_TRUE(r.SameContents(Relation(MakeSchema())));
}

}  // namespace
}  // namespace galois
