// MaterialisationCache: base-key/descriptor keying, predicate
// subsumption, column subsumption, LRU eviction, and the executor
// integration (warm reruns with zero LLM round trips, provenance
// bypass, alias requalification).

#include <gtest/gtest.h>

#include "core/galois_executor.h"
#include "core/materialisation_cache.h"
#include "knowledge/workload.h"
#include "llm/simulated_llm.h"

namespace galois::core {
namespace {

const knowledge::SpiderLikeWorkload& W() {
  static const auto* w = []() {
    auto r = knowledge::SpiderLikeWorkload::Create();
    EXPECT_TRUE(r.ok());
    return new knowledge::SpiderLikeWorkload(std::move(r).value());
  }();
  return *w;
}

const catalog::TableDef& CountryDef() {
  auto def = W().catalog().GetTable("country");
  EXPECT_TRUE(def.ok());
  return *def.value();
}

/// Pointers to the named non-key columns of `def`, in the given order.
std::vector<const catalog::ColumnDef*> Cols(
    const catalog::TableDef& def, const std::vector<std::string>& names) {
  std::vector<const catalog::ColumnDef*> out;
  for (const std::string& n : names) {
    auto col = def.FindColumn(n);
    EXPECT_TRUE(col.ok()) << n;
    out.push_back(col.value());
  }
  return out;
}

/// A little key+columns relation ("country" shaped) for unit tests.
Relation MakeRelation(const catalog::TableDef& def,
                      const std::vector<std::string>& columns,
                      size_t rows) {
  Schema schema;
  schema.AddColumn(Column(def.key_column, DataType::kString, "t"));
  for (const std::string& c : columns) {
    schema.AddColumn(Column(c, DataType::kString, "t"));
  }
  Relation rel(std::move(schema));
  for (size_t r = 0; r < rows; ++r) {
    Tuple row;
    row.push_back(Value::String("key" + std::to_string(r)));
    for (const std::string& c : columns) {
      row.push_back(Value::String(c + std::to_string(r)));
    }
    rel.AddRowUnchecked(std::move(row));
  }
  return rel;
}

PredicateConjunct Conj(std::string column, std::string op, Value value,
                       bool residual_ok = true) {
  PredicateConjunct c;
  c.column = std::move(column);
  c.op = std::move(op);
  c.value = std::move(value);
  c.residual_ok = residual_ok;
  return c;
}

PredicateDescriptor Desc(std::vector<PredicateConjunct> conjuncts = {},
                         std::string pushed_column = "",
                         int64_t scan_key_limit = -1) {
  PredicateDescriptor d;
  d.conjuncts = std::move(conjuncts);
  d.pushed_column = std::move(pushed_column);
  d.scan_key_limit = scan_key_limit;
  d.Canonicalise();
  return d;
}

TEST(MaterialisationCacheTest, BaseKeySeparatesResultAffectingState) {
  const catalog::TableDef& def = CountryDef();
  ExecutionOptions opts;
  std::string base = MaterialisationCache::BaseKey(def, opts, "chatgpt");

  EXPECT_EQ(base, MaterialisationCache::BaseKey(def, opts, "chatgpt"));
  // A different model or result-affecting option must change the key.
  EXPECT_NE(base, MaterialisationCache::BaseKey(def, opts, "flan"));
  ExecutionOptions verify = opts;
  verify.verify_cells = true;
  EXPECT_NE(base, MaterialisationCache::BaseKey(def, verify, "chatgpt"));
  // Dispatch-only knobs never change results, so they share entries —
  // including batch_prompts (a sized key scan returns the ladder's keys).
  ExecutionOptions dispatch = opts;
  dispatch.batch_prompts = true;
  dispatch.max_batch_size = 4;
  dispatch.parallel_batches = 8;
  EXPECT_EQ(base, MaterialisationCache::BaseKey(def, dispatch, "chatgpt"));
}

TEST(MaterialisationCacheTest, DescriptorCanonicalisesConjunctOrder) {
  auto a = Conj("continent", "=", Value::String("Europe"));
  auto b = Conj("population", ">", Value::Int(1000));
  // WHERE a AND b == WHERE b AND a, byte-for-byte.
  EXPECT_EQ(Desc({a, b}).Encode(), Desc({b, a}).Encode());
  // Exact duplicates collapse.
  EXPECT_EQ(Desc({a, a, b}).Encode(), Desc({b, a}).Encode());
  // Pushdown choice and paging bound stay part of the identity.
  EXPECT_NE(Desc({a, b}).Encode(), Desc({a, b}, "continent").Encode());
  EXPECT_NE(Desc({a, b}).Encode(), Desc({a, b}, "", 5).Encode());
}

TEST(MaterialisationCacheTest, DescriptorEncodeDecodeRoundTrips) {
  PredicateDescriptor d =
      Desc({Conj("population", ">", Value::Int(1000)),
            Conj("continent", "=", Value::String("Europe")),
            Conj("name", "LIKE", Value::String("%land%"),
                 /*residual_ok=*/false)},
           "continent", 7);
  const std::string bytes = d.Encode();

  PredicateDescriptor back;
  ASSERT_TRUE(PredicateDescriptor::Decode(bytes, &back));
  EXPECT_EQ(back.Encode(), bytes);
  EXPECT_EQ(back.conjuncts.size(), 3u);
  EXPECT_EQ(back.pushed_column, "continent");
  EXPECT_EQ(back.scan_key_limit, 7);

  // Truncated or extended bytes are rejected, never mis-decoded.
  PredicateDescriptor junk;
  EXPECT_FALSE(PredicateDescriptor::Decode(
      std::string_view(bytes).substr(0, bytes.size() - 1), &junk));
  EXPECT_FALSE(PredicateDescriptor::Decode(bytes + "x", &junk));
  EXPECT_FALSE(PredicateDescriptor::Decode("garbage", &junk));
}

TEST(MaterialisationCacheTest, StoreKeyIsInjective) {
  // (base, descriptor) -> store key must never collide across different
  // splits of the same concatenation.
  EXPECT_NE(MaterialisationStoreKey("ab", "c"),
            MaterialisationStoreKey("a", "bc"));
  EXPECT_NE(MaterialisationStoreKey("", "abc"),
            MaterialisationStoreKey("abc", ""));
}

TEST(MaterialisationCacheTest, ExactHitRoundTripsAndRequalifies) {
  const catalog::TableDef& def = CountryDef();
  MaterialisationCache cache;
  auto cols = Cols(def, {"capital", "population"});
  cache.Insert("fp", Desc(), cols,
               MakeRelation(def, {"capital", "population"}, 3));

  MaterialisationLookupInfo info;
  auto hit = cache.Lookup("fp", Desc(), def, cols, "co", &info);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(info.exact);
  EXPECT_FALSE(info.predicate_subsumed);
  EXPECT_EQ(hit->NumRows(), 3u);
  ASSERT_EQ(hit->NumColumns(), 3u);
  EXPECT_EQ(hit->schema().column(0).table, "co");
  EXPECT_EQ(hit->schema().column(1).name, "capital");
  EXPECT_EQ(hit->At(1, 1).ToString(), "capital1");
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().exact_hits, 1);
  EXPECT_EQ(cache.stats().subsumption_hits, 0);
  EXPECT_EQ(cache.stats().predicate_subsumption_hits, 0);

  EXPECT_FALSE(cache.Lookup("other-fp", Desc(), def, cols, "co")
                   .has_value());
}

TEST(MaterialisationCacheTest, WiderEntryServesNarrowerByProjection) {
  const catalog::TableDef& def = CountryDef();
  MaterialisationCache cache;
  cache.Insert("fp", Desc(),
               Cols(def, {"capital", "population", "continent"}),
               MakeRelation(def, {"capital", "population", "continent"},
                            2));

  // Narrower, differently-ordered subset: served by projection.
  auto hit = cache.Lookup("fp", Desc(), def, Cols(def, {"continent"}), "x");
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->NumColumns(), 2u);
  EXPECT_EQ(hit->schema().column(1).name, "continent");
  EXPECT_EQ(hit->At(0, 1).ToString(), "continent0");
  EXPECT_EQ(cache.stats().subsumption_hits, 1);

  // A wider need than any entry misses.
  EXPECT_FALSE(
      cache.Lookup("fp", Desc(), def, Cols(def, {"capital", "gdp"}), "x")
          .has_value());
}

TEST(MaterialisationCacheTest, WidestEntryWinsAndNarrowInsertRefreshes) {
  const catalog::TableDef& def = CountryDef();
  MaterialisationCache cache;
  cache.Insert("fp", Desc(), Cols(def, {"capital"}),
               MakeRelation(def, {"capital"}, 2));
  EXPECT_EQ(cache.size(), 1u);
  // Wider insert replaces in place (still one entry)...
  cache.Insert("fp", Desc(), Cols(def, {"capital", "population"}),
               MakeRelation(def, {"capital", "population"}, 2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(
      cache.Lookup("fp", Desc(), def, Cols(def, {"population"}), "t")
          .has_value());
  // ...and a narrower re-insert is a refresh, not a downgrade.
  cache.Insert("fp", Desc(), Cols(def, {"capital"}),
               MakeRelation(def, {"capital"}, 2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(
      cache.Lookup("fp", Desc(), def, Cols(def, {"population"}), "t")
          .has_value());
}

TEST(MaterialisationCacheTest, EvictsLeastRecentlyUsed) {
  const catalog::TableDef& def = CountryDef();
  MaterialisationCache cache(/*max_entries=*/2);
  auto cols = Cols(def, {"capital"});
  Relation rel = MakeRelation(def, {"capital"}, 1);
  cache.Insert("a", Desc(), cols, rel);
  cache.Insert("b", Desc(), cols, rel);
  EXPECT_TRUE(
      cache.Lookup("a", Desc(), def, cols, "t").has_value());  // a is MRU
  cache.Insert("c", Desc(), cols, rel);  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.Lookup("a", Desc(), def, cols, "t").has_value());
  EXPECT_FALSE(cache.Lookup("b", Desc(), def, cols, "t").has_value());
  EXPECT_TRUE(cache.Lookup("c", Desc(), def, cols, "t").has_value());
}

// --- predicate subsumption at the cache level --------------------------

/// A key+population relation with integer populations 0, 1000, 2000, ...
Relation PopulationRelation(const catalog::TableDef& def, size_t rows) {
  Schema schema;
  schema.AddColumn(Column(def.key_column, DataType::kString, "t"));
  schema.AddColumn(Column("population", DataType::kInt64, "t"));
  Relation rel(std::move(schema));
  for (size_t r = 0; r < rows; ++r) {
    Tuple row;
    row.push_back(Value::String("key" + std::to_string(r)));
    row.push_back(Value::Int(static_cast<int64_t>(r) * 1000));
    rel.AddRowUnchecked(std::move(row));
  }
  return rel;
}

TEST(MaterialisationCacheTest, StrongerFilterServedWithResidualApplied) {
  const catalog::TableDef& def = CountryDef();
  MaterialisationCache cache;
  auto cols = Cols(def, {"population"});
  // Cached under population > 1000: rows 2000..5000.
  Relation cached = PopulationRelation(def, 6);
  cache.Insert("fp", Desc({Conj("population", ">", Value::Int(1000))}),
               cols, cached);

  // Query asks population > 3000 — strictly stronger, so the entry's
  // rows are a superset; the residual conjunct drops rows <= 3000.
  MaterialisationLookupInfo info;
  auto hit = cache.Lookup(
      "fp", Desc({Conj("population", ">", Value::Int(3000))}), def, cols,
      "t", &info);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(info.hit);
  EXPECT_FALSE(info.exact);
  EXPECT_TRUE(info.predicate_subsumed);
  EXPECT_EQ(info.residual_conjuncts, 1);
  EXPECT_EQ(hit->NumRows(), 2u);  // 4000 and 5000
  for (size_t r = 0; r < hit->NumRows(); ++r) {
    EXPECT_GT(hit->At(r, 1).int_value(), 3000);
  }
  EXPECT_EQ(cache.stats().predicate_subsumption_hits, 1);
}

TEST(MaterialisationCacheTest, IdenticalConjunctNeedsNoResidualColumn) {
  const catalog::TableDef& def = CountryDef();
  MaterialisationCache cache;
  // The entry materialised only `capital`; the filter column
  // (continent) is NOT among its columns. An identical conjunct is
  // still served — nothing needs re-checking.
  auto cols = Cols(def, {"capital"});
  auto d = Desc({Conj("continent", "=", Value::String("Europe"))});
  cache.Insert("fp", d, cols, MakeRelation(def, {"capital"}, 2));

  MaterialisationLookupInfo info;
  auto hit = cache.Lookup("fp", d, def, cols, "t", &info);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(info.exact);
  EXPECT_EQ(info.residual_conjuncts, 0);
}

TEST(MaterialisationCacheTest, ResidualNeedsItsColumnMaterialised) {
  const catalog::TableDef& def = CountryDef();
  MaterialisationCache cache;
  // Entry holds only `capital`; the query's extra conjunct is on
  // population, whose values are absent — the entry cannot legally
  // serve, so the lookup misses.
  auto cols = Cols(def, {"capital"});
  cache.Insert("fp", Desc(), cols, MakeRelation(def, {"capital"}, 2));

  auto hit = cache.Lookup(
      "fp", Desc({Conj("population", ">", Value::Int(1000))}), def, cols,
      "t");
  EXPECT_FALSE(hit.has_value());
}

TEST(MaterialisationCacheTest, LikeConjunctIsNeverResiduallyChecked) {
  const catalog::TableDef& def = CountryDef();
  MaterialisationCache cache;
  auto cols = Cols(def, {"capital"});
  cache.Insert("fp", Desc(), cols, MakeRelation(def, {"capital"}, 2));

  // The unfiltered entry is a superset, but LIKE has no engine-side
  // mirror of the model's pattern semantics (residual_ok=false), so the
  // entry must not serve it.
  auto hit = cache.Lookup(
      "fp",
      Desc({Conj("capital", "LIKE", Value::String("%a%"),
                 /*residual_ok=*/false)}),
      def, cols, "t");
  EXPECT_FALSE(hit.has_value());
}

TEST(MaterialisationCacheTest, StringConjunctsImplyOnlyIdentically) {
  const catalog::TableDef& def = CountryDef();
  MaterialisationCache cache;
  auto cols = Cols(def, {"capital"});
  // Cached under continent != 'Asia'. A query with continent = 'Europe'
  // would be row-wise stronger under byte comparison, but string
  // equality is case-insensitive model-side, so intervals over string
  // literals are unsound — must miss, not subsume.
  cache.Insert("fp",
               Desc({Conj("continent", "!=", Value::String("Asia"))}),
               cols, MakeRelation(def, {"capital"}, 2));
  auto hit = cache.Lookup(
      "fp", Desc({Conj("continent", "=", Value::String("Europe"))}), def,
      cols, "t");
  EXPECT_FALSE(hit.has_value());
}

TEST(MaterialisationCacheTest, BoundedPrefixNeverServesBroaderQueries) {
  const catalog::TableDef& def = CountryDef();
  MaterialisationCache cache;
  auto cols = Cols(def, {"population"});
  // Cached with scan_key_limit=3: a *prefix* of the table, not the
  // filtered table. It may serve only a descriptor-identical query.
  auto bounded = Desc({Conj("population", ">", Value::Int(1000))}, "", 3);
  cache.Insert("fp", bounded, cols, PopulationRelation(def, 3));

  EXPECT_TRUE(cache.Lookup("fp", bounded, def, cols, "t").has_value());
  // Stronger filter, no bound: the prefix is NOT a superset of the
  // unbounded result — must miss.
  auto hit = cache.Lookup(
      "fp", Desc({Conj("population", ">", Value::Int(3000))}), def, cols,
      "t");
  EXPECT_FALSE(hit.has_value());

  // The other direction is sound: an unbounded entry may serve a
  // bounded query (the relational tail re-applies the LIMIT).
  MaterialisationCache cache2;
  cache2.Insert("fp", Desc({Conj("population", ">", Value::Int(1000))}),
                cols, PopulationRelation(def, 6));
  MaterialisationLookupInfo info;
  auto bounded_hit = cache2.Lookup(
      "fp", Desc({Conj("population", ">", Value::Int(1000))}, "", 3), def,
      cols, "t", &info);
  ASSERT_TRUE(bounded_hit.has_value());
  EXPECT_TRUE(info.predicate_subsumed);
}

TEST(MaterialisationCacheTest, RangeContainmentAcrossOperators) {
  const catalog::TableDef& def = CountryDef();
  MaterialisationCache cache;
  auto cols = Cols(def, {"population"});
  // Cached under population >= 1000.
  cache.Insert("fp", Desc({Conj("population", ">=", Value::Int(1000))}),
               cols, PopulationRelation(def, 6));

  // 2000 <= population <= 4000 lies inside [1000, inf): subsumed, both
  // conjuncts re-checked in memory.
  MaterialisationLookupInfo info;
  auto hit = cache.Lookup(
      "fp",
      Desc({Conj("population", ">=", Value::Int(2000)),
            Conj("population", "<=", Value::Int(4000))}),
      def, cols, "t", &info);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(info.predicate_subsumed);
  EXPECT_EQ(hit->NumRows(), 3u);  // 2000, 3000, 4000

  // population > 500 is weaker than the cached filter: its rows are NOT
  // a subset of the entry — must miss.
  EXPECT_FALSE(cache.Lookup(
                        "fp",
                        Desc({Conj("population", ">", Value::Int(500))}),
                        def, cols, "t")
                   .has_value());
}

// --- executor integration ---------------------------------------------

class MaterialisationCacheExecutorTest : public ::testing::Test {
 protected:
  MaterialisationCacheExecutorTest()
      : model_(&W().kb(), llm::ModelProfile::ChatGpt(), &W().catalog(),
               7) {}
  llm::SimulatedLlm model_;
  MaterialisationCache cache_;
};

TEST_F(MaterialisationCacheExecutorTest, WarmRerunIsFreeAndIdentical) {
  GaloisExecutor galois(&model_, &W().catalog());
  galois.set_materialisation_cache(&cache_);
  const char* sql =
      "SELECT name, capital FROM country WHERE continent = 'Europe'";
  auto cold = galois.RunSql(sql);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold->cost.num_prompts, 0);
  EXPECT_EQ(cold->table_cache_lookups, 1);
  EXPECT_EQ(cold->table_cache_hits, 0);

  auto warm = galois.RunSql(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(cold->relation.SameContents(warm->relation));
  EXPECT_EQ(warm->cost.num_prompts, 0);
  EXPECT_EQ(warm->table_cache_hits, 1);
  EXPECT_EQ(warm->table_cache_exact_hits, 1);
  EXPECT_EQ(warm->table_cache_subsumption_hits, 0);
}

TEST_F(MaterialisationCacheExecutorTest,
       NarrowerQueryAndNewAliasServedBySubsumption) {
  GaloisExecutor galois(&model_, &W().catalog());
  galois.set_materialisation_cache(&cache_);
  auto wide = galois.RunSql(
      "SELECT name, capital, population FROM country "
      "WHERE continent = 'Europe'");
  ASSERT_TRUE(wide.ok());

  // Same key pair, subset of the columns, different alias: zero
  // prompts, correctly requalified schema.
  auto narrow = galois.RunSql(
      "SELECT c.capital FROM country c WHERE c.continent = 'Europe'");
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(narrow->cost.num_prompts, 0);
  EXPECT_EQ(narrow->table_cache_hits, 1);
  EXPECT_EQ(narrow->relation.NumRows(), wide->relation.NumRows());
  EXPECT_EQ(cache_.stats().subsumption_hits, 1);

  // The cached projection equals a fresh materialisation.
  llm::SimulatedLlm fresh(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  GaloisExecutor uncached(&fresh, &W().catalog());
  auto expect = uncached.ExecuteSql(
      "SELECT c.capital FROM country c WHERE c.continent = 'Europe'");
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(narrow->relation.SameContents(*expect));
}

TEST_F(MaterialisationCacheExecutorTest, DisjointFilterMisses) {
  GaloisExecutor galois(&model_, &W().catalog());
  galois.set_materialisation_cache(&cache_);
  ASSERT_TRUE(galois
                  .ExecuteSql("SELECT name, capital FROM country "
                              "WHERE continent = 'Europe'")
                  .ok());
  // A different equality literal is not implied by the cached one (and
  // string conjuncts only imply identically), so this is a miss.
  auto other = galois.RunSql(
      "SELECT name, capital FROM country WHERE continent = 'Asia'");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->table_cache_hits, 0);
  EXPECT_GT(other->cost.num_prompts, 0);
}

TEST_F(MaterialisationCacheExecutorTest, ProvenanceRunsBypassTheCache) {
  ExecutionOptions opts;
  opts.record_provenance = true;
  GaloisExecutor galois(&model_, &W().catalog(), opts);
  galois.set_materialisation_cache(&cache_);
  const char* sql = "SELECT name, capital FROM country";
  ASSERT_TRUE(galois.RunSql(sql).ok());
  auto second = galois.RunSql(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->table_cache_lookups, 0);
  EXPECT_EQ(cache_.size(), 0u);
  // The trace is populated on every run — nothing was served from cache.
  EXPECT_FALSE(second->trace.cells.empty());
}

}  // namespace
}  // namespace galois::core
