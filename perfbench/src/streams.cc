#include "streams.h"

#include <algorithm>
#include <deque>
#include <set>

#include "common/rng.h"
#include "common/strings.h"

namespace perfbench {

namespace {

using galois::Rng;
using galois::Value;
using galois::knowledge::Entity;
using galois::knowledge::EntitySet;
using galois::knowledge::SpiderLikeWorkload;

std::vector<std::string> AllSql(const SpiderLikeWorkload& workload) {
  std::vector<std::string> sql;
  for (const auto& spec : workload.queries()) sql.push_back(spec.sql);
  return sql;
}

/// Keys usable as SQL string literals (the generator never has to quote).
std::vector<std::string> Keys(const SpiderLikeWorkload& workload,
                              const std::string& concept_name) {
  std::vector<std::string> keys;
  const EntitySet* set = workload.kb().FindConcept(concept_name);
  if (set == nullptr) return keys;
  for (const Entity& e : set->entities) {
    if (e.key.find('\'') == std::string::npos) keys.push_back(e.key);
  }
  return keys;
}

std::vector<std::string> DistinctStrings(const SpiderLikeWorkload& workload,
                                         const std::string& concept_name,
                                         const std::string& attribute) {
  std::set<std::string> out;
  const EntitySet* set = workload.kb().FindConcept(concept_name);
  if (set == nullptr) return {};
  for (const Entity& e : set->entities) {
    const Value* v = e.FindAttribute(attribute);
    if (v != nullptr && !v->is_null() &&
        v->string_value().find('\'') == std::string::npos) {
      out.insert(v->string_value());
    }
  }
  return {out.begin(), out.end()};
}

/// One numeric column the generator thresholds on: its true values,
/// distinct and descending, and how far the floor has been lowered.
struct ThresholdColumn {
  std::string table;
  std::string key;
  std::string column;
  std::vector<int64_t> values;  // distinct, descending
  size_t floor = 0;             // index of the current (weakest) threshold
  bool started = false;
};

ThresholdColumn MakeThreshold(const SpiderLikeWorkload& workload,
                              const std::string& table,
                              const std::string& key,
                              const std::string& column) {
  ThresholdColumn t;
  t.table = table;
  t.key = key;
  t.column = column;
  std::set<int64_t> values;
  const EntitySet* set = workload.kb().FindConcept(table);
  if (set != nullptr) {
    for (const Entity& e : set->entities) {
      const Value* v = e.FindAttribute(galois::ToLower(column));
      if (v == nullptr || v->is_null()) continue;
      values.insert(v->type() == galois::DataType::kDouble
                        ? static_cast<int64_t>(v->double_value())
                        : v->int_value());
    }
  }
  t.values.assign(values.rbegin(), values.rend());
  return t;
}

std::string ThresholdSql(const ThresholdColumn& t, int64_t value) {
  return "SELECT " + t.key + ", " + t.column + " FROM " + t.table +
         " WHERE " + t.column + " > " + std::to_string(value);
}

}  // namespace

std::vector<std::string> ColdSessionStream(const SpiderLikeWorkload& workload,
                                           uint64_t seed, int session,
                                           int passes) {
  const std::vector<std::string> base = AllSql(workload);
  Rng rng = Rng(seed).Fork("cold-llm/session/" + std::to_string(session));
  std::vector<std::string> stream;
  stream.reserve(base.size() * static_cast<size_t>(passes));
  for (int p = 0; p < passes; ++p) {
    std::vector<std::string> pass = base;
    rng.Shuffle(&pass);
    stream.insert(stream.end(), pass.begin(), pass.end());
  }
  return stream;
}

std::vector<std::string> WarmStream(const SpiderLikeWorkload& workload,
                                    uint64_t seed) {
  std::vector<std::string> stream = AllSql(workload);
  Rng rng = Rng(seed).Fork("warm-serve");
  rng.Shuffle(&stream);
  return stream;
}

const char* ExploreKindName(ExploreKind kind) {
  switch (kind) {
    case ExploreKind::kFresh:
      return "fresh";
    case ExploreKind::kFreshCityList:
      return "fresh-city-list";
    case ExploreKind::kFreshThreshold:
      return "fresh-threshold";
    case ExploreKind::kExactRepeat:
      return "exact-repeat";
    case ExploreKind::kStricter:
      return "stricter-threshold";
  }
  return "?";
}

std::vector<ExploreQuery> ExploreStream(const SpiderLikeWorkload& workload,
                                        uint64_t seed, size_t count) {
  // The seed orders each block's kinds and picks the repeats and the
  // stricter thresholds. Fresh filters and threshold floors come in one
  // fixed order for every seed, so the misses — their costs and the
  // quality of their answers — are the same population on every seed.
  Rng rng = Rng(seed).Fork("explore-mix");
  Rng fixed = Rng(0).Fork("explore-mix/fresh");

  // Fresh (cache-missing) candidates, one query per distinct filter: no
  // two share a filter, so a fresh query's filter-check prompts are new
  // and it pays its full bill. String conjuncts never imply one another,
  // so none of these can be served by predicate subsumption.
  std::vector<ExploreQuery> fresh;
  auto add_country = [&](const std::string& select, const std::string& column,
                         const std::string& value) {
    fresh.push_back({"SELECT " + select + " FROM country WHERE " + column +
                         " = '" + value + "'",
                     "country|" + column + " = '" + value + "'",
                     ExploreKind::kFresh});
  };
  for (const std::string& c : Keys(workload, "country")) {
    add_country("capital", "name", c);
  }
  for (const std::string& v : DistinctStrings(workload, "country", "capital")) {
    add_country("name", "capital", v);
  }
  for (const std::string& v : DistinctStrings(workload, "country", "code")) {
    add_country("name, population", "code", v);
  }
  for (const std::string& v :
       DistinctStrings(workload, "country", "continent")) {
    add_country("name, capital", "continent", v);
  }
  for (const std::string& v :
       DistinctStrings(workload, "country", "language")) {
    add_country("name", "language", v);
  }
  for (const std::string& v :
       DistinctStrings(workload, "country", "currency")) {
    add_country("name", "currency", v);
  }
  std::vector<ExploreQuery> city_lists;
  for (const std::string& c : DistinctStrings(workload, "city", "country")) {
    city_lists.push_back({"SELECT name FROM city WHERE country = '" + c + "'",
                          "city|country = '" + c + "'",
                          ExploreKind::kFreshCityList});
  }
  fixed.Shuffle(&fresh);
  fixed.Shuffle(&city_lists);
  size_t next_fresh = 0;
  size_t next_city = 0;
  // Draws without replacement; a pool that runs out is reshuffled.
  auto draw = [&](std::vector<ExploreQuery>* pool, size_t* next) {
    if (*next == pool->size()) {
      fixed.Shuffle(pool);
      *next = 0;
    }
    return (*pool)[(*next)++];
  };

  std::vector<ThresholdColumn> thresholds = {
      MakeThreshold(workload, "country", "name", "population"),
      MakeThreshold(workload, "country", "name", "area"),
      MakeThreshold(workload, "country", "name", "gdp"),
      MakeThreshold(workload, "country", "name", "independenceYear"),
  };
  int last_threshold = -1;  // column of the most recent fresh threshold

  std::vector<ExploreQuery> out;
  std::deque<size_t> recent;  // indices into `out`, newest last
  std::vector<ExploreKind> block;
  out.reserve(count);

  // Lowers one column's floor (columns in turn): weaker than every
  // threshold seen on it, so no cached entry can serve it. False when
  // every column is exhausted.
  size_t next_column = 0;
  auto fresh_threshold = [&](ExploreQuery* q) {
    for (size_t k = 0; k < thresholds.size(); ++k) {
      const size_t ci = next_column++ % thresholds.size();
      ThresholdColumn& t = thresholds[ci];
      const size_t next = t.started ? t.floor + 2 : 2;
      if (next >= t.values.size()) continue;
      t.floor = next;
      t.started = true;
      last_threshold = static_cast<int>(ci);
      q->sql = ThresholdSql(t, t.values[next]);
      q->filter = t.table + "|" + t.column + " > " +
                  std::to_string(t.values[next]);
      q->kind = ExploreKind::kFreshThreshold;
      return true;
    }
    return false;
  };

  while (out.size() < count) {
    if (block.empty()) {
      block.assign(kExploreExactPerBlock, ExploreKind::kExactRepeat);
      block.insert(block.end(), kExploreStricterPerBlock,
                   ExploreKind::kStricter);
      block.insert(block.end(), kExploreFreshThresholdPerBlock,
                   ExploreKind::kFreshThreshold);
      block.insert(block.end(), kExploreCityListPerBlock,
                   ExploreKind::kFreshCityList);
      block.resize(kExploreBlock, ExploreKind::kFresh);
      rng.Shuffle(&block);
    }
    ExploreKind kind = block.back();
    block.pop_back();
    // A repeat needs history and a stricter threshold a cached floor;
    // without them the slot takes the next weaker kind.
    if (kind == ExploreKind::kExactRepeat && recent.empty()) {
      kind = ExploreKind::kFresh;
    }
    if (kind == ExploreKind::kStricter && last_threshold < 0) {
      kind = ExploreKind::kFreshThreshold;
    }

    ExploreQuery q;
    if (kind == ExploreKind::kExactRepeat) {
      const size_t pick = recent[static_cast<size_t>(
          rng.NextInt(0, static_cast<int64_t>(recent.size()) - 1))];
      q = out[pick];
      q.kind = ExploreKind::kExactRepeat;
    } else if (kind == ExploreKind::kStricter) {
      // Strictly above the cached floor: the floor's entry holds every
      // row this query wants, so it is served with a residual re-check.
      ThresholdColumn& t = thresholds[last_threshold];
      const size_t idx = static_cast<size_t>(
          rng.NextInt(0, static_cast<int64_t>(t.floor) - 1));
      q.sql = ThresholdSql(t, t.values[idx]);
      q.filter = t.table + "|" + t.column + " > " +
                 std::to_string(t.values[idx]);
      q.kind = ExploreKind::kStricter;
    } else if (kind == ExploreKind::kFreshCityList) {
      q = draw(&city_lists, &next_city);
    } else if (kind != ExploreKind::kFreshThreshold || !fresh_threshold(&q)) {
      q = draw(&fresh, &next_fresh);
    }
    out.push_back(std::move(q));
    recent.push_back(out.size() - 1);
    if (recent.size() > 8) recent.pop_front();
  }
  return out;
}

}  // namespace perfbench
