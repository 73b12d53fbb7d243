#include "engine/operators.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

#include "engine/expr_eval.h"

namespace galois::engine {

namespace {

/// Key wrapper so Tuples can index std::map (Value has a total order).
struct TupleKeyLess {
  bool operator()(const Tuple& a, const Tuple& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

Tuple ConcatTuples(const Tuple& a, const Tuple& b) {
  Tuple out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// Incremental state for one aggregate over one group.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  bool any_numeric = false;
  Value min;  // running MIN/MAX on Value::Compare
  Value max;
  std::vector<Value> distinct_seen;  // small-data linear distinct

  void Accumulate(const Value& v, bool distinct) {
    if (v.is_null()) return;
    if (distinct) {
      for (const Value& seen : distinct_seen) {
        if (seen == v) return;
      }
      distinct_seen.push_back(v);
    }
    ++count;
    auto d = v.AsDouble();
    if (d.ok()) {
      sum += d.value();
      any_numeric = true;
    }
    if (min.is_null() || v.Compare(min) < 0) min = v;
    if (max.is_null() || v.Compare(max) > 0) max = v;
  }

  Result<Value> Finish(const std::string& function) const {
    if (function == "COUNT") return Value::Int(count);
    if (count == 0) return Value::Null();
    if (function == "SUM") {
      if (!any_numeric) return Status::TypeError("SUM over non-numeric");
      return Value::Double(sum);
    }
    if (function == "AVG") {
      if (!any_numeric) return Status::TypeError("AVG over non-numeric");
      return Value::Double(sum / static_cast<double>(count));
    }
    if (function == "MIN") return min;
    if (function == "MAX") return max;
    return Status::Unimplemented("aggregate function " + function);
  }
};

}  // namespace

Result<Relation> Filter(const Relation& input, const sql::Expr& predicate) {
  Relation out(input.schema());
  for (const Tuple& row : input.rows()) {
    GALOIS_ASSIGN_OR_RETURN(bool keep,
                            EvalPredicate(predicate, input.schema(), row));
    if (keep) out.AddRowUnchecked(row);
  }
  return out;
}

Result<Relation> CrossJoin(const Relation& left, const Relation& right) {
  Relation out(Schema::Concat(left.schema(), right.schema()));
  for (const Tuple& l : left.rows()) {
    for (const Tuple& r : right.rows()) {
      out.AddRowUnchecked(ConcatTuples(l, r));
    }
  }
  return out;
}

Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          const std::vector<JoinKey>& keys,
                          const sql::Expr* extra, sql::JoinType type) {
  if (keys.empty()) return Status::InvalidArgument("hash join without keys");
  for (const JoinKey& k : keys) {
    if (k.left >= left.schema().size() || k.right >= right.schema().size()) {
      return Status::InvalidArgument("join column index out of range");
    }
  }
  // Hash of a row's key columns; nullopt when any key is NULL, since a
  // NULL key matches nothing. Value::Hash agrees with Compare() == 0.
  auto key_hash = [&keys](const Tuple& row,
                          bool left_side) -> std::optional<size_t> {
    size_t h = 0;
    for (const JoinKey& k : keys) {
      const Value& v = row[left_side ? k.left : k.right];
      if (v.is_null()) return std::nullopt;
      h = h * 0x9E3779B97F4A7C15ULL + v.Hash();
    }
    return h;
  };
  // Build side: right row indices per key hash, in right-input order, so
  // probing emits matches in the order the nested loop would.
  std::unordered_map<size_t, std::vector<size_t>> build;
  build.reserve(right.NumRows());
  for (size_t i = 0; i < right.NumRows(); ++i) {
    if (auto h = key_hash(right.row(i), false)) build[*h].push_back(i);
  }

  Schema joined = Schema::Concat(left.schema(), right.schema());
  Relation out(joined);
  for (const Tuple& l : left.rows()) {
    bool matched = false;
    auto h = key_hash(l, true);
    auto bucket = h ? build.find(*h) : build.end();
    if (bucket != build.end()) {
      for (size_t i : bucket->second) {
        const Tuple& r = right.row(i);
        bool equal = true;
        for (const JoinKey& k : keys) {
          if (l[k.left].Compare(r[k.right]) != 0) {
            equal = false;
            break;
          }
        }
        if (!equal) continue;
        Tuple combined = ConcatTuples(l, r);
        if (extra != nullptr) {
          GALOIS_ASSIGN_OR_RETURN(bool keep,
                                  EvalPredicate(*extra, joined, combined));
          if (!keep) continue;
        }
        matched = true;
        out.AddRowUnchecked(std::move(combined));
      }
    }
    if (!matched && type == sql::JoinType::kLeft) {
      Tuple padded = l;
      padded.resize(joined.size(), Value::Null());
      out.AddRowUnchecked(std::move(padded));
    }
  }
  return out;
}

Result<Relation> NestedLoopJoin(const Relation& left, const Relation& right,
                                const sql::Expr& predicate) {
  Schema joined = Schema::Concat(left.schema(), right.schema());
  Relation out(joined);
  for (const Tuple& l : left.rows()) {
    for (const Tuple& r : right.rows()) {
      Tuple combined = ConcatTuples(l, r);
      GALOIS_ASSIGN_OR_RETURN(bool keep,
                              EvalPredicate(predicate, joined, combined));
      if (keep) out.AddRowUnchecked(std::move(combined));
    }
  }
  return out;
}

Result<Relation> LeftOuterJoin(const Relation& left, const Relation& right,
                               const sql::Expr& predicate) {
  Schema joined = Schema::Concat(left.schema(), right.schema());
  Relation out(joined);
  for (const Tuple& l : left.rows()) {
    bool matched = false;
    for (const Tuple& r : right.rows()) {
      Tuple combined = ConcatTuples(l, r);
      GALOIS_ASSIGN_OR_RETURN(bool keep,
                              EvalPredicate(predicate, joined, combined));
      if (keep) {
        matched = true;
        out.AddRowUnchecked(std::move(combined));
      }
    }
    if (!matched) {
      Tuple padded = l;
      padded.resize(joined.size(), Value::Null());
      out.AddRowUnchecked(std::move(padded));
    }
  }
  return out;
}

Result<Relation> Project(const Relation& input,
                         const std::vector<const sql::Expr*>& exprs,
                         const std::vector<std::string>& names) {
  if (exprs.size() != names.size()) {
    return Status::InvalidArgument("Project: exprs/names arity mismatch");
  }
  Schema out_schema;
  for (size_t i = 0; i < exprs.size(); ++i) {
    // Column type: preserve source column type when the expr is a bare ref.
    DataType type = DataType::kString;
    if (exprs[i]->kind == sql::ExprKind::kColumnRef) {
      auto idx = input.schema().ResolveQualified(exprs[i]->table,
                                                 exprs[i]->column);
      if (idx.ok()) type = input.schema().column(idx.value()).type;
    } else if (exprs[i]->kind == sql::ExprKind::kLiteral) {
      type = exprs[i]->literal.type();
    } else {
      type = DataType::kDouble;  // computed expressions default numeric
    }
    out_schema.AddColumn(Column(names[i], type));
  }
  Relation out(out_schema);
  for (const Tuple& row : input.rows()) {
    Tuple projected;
    projected.reserve(exprs.size());
    for (const sql::Expr* e : exprs) {
      GALOIS_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, input.schema(), row));
      projected.push_back(std::move(v));
    }
    out.AddRowUnchecked(std::move(projected));
  }
  return out;
}

Result<Relation> Sort(const Relation& input,
                      const std::vector<sql::OrderItem>& items) {
  // Precompute sort keys so evaluation errors surface before sorting.
  std::vector<std::pair<Tuple, size_t>> keyed;
  keyed.reserve(input.NumRows());
  for (size_t i = 0; i < input.NumRows(); ++i) {
    Tuple key;
    key.reserve(items.size());
    for (const sql::OrderItem& item : items) {
      GALOIS_ASSIGN_OR_RETURN(
          Value v, EvalExpr(*item.expr, input.schema(), input.row(i)));
      key.push_back(std::move(v));
    }
    keyed.emplace_back(std::move(key), i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [&items](const auto& a, const auto& b) {
                     for (size_t k = 0; k < items.size(); ++k) {
                       int c = a.first[k].Compare(b.first[k]);
                       if (c != 0) {
                         return items[k].descending ? c > 0 : c < 0;
                       }
                     }
                     return false;
                   });
  Relation out(input.schema());
  for (const auto& [key, idx] : keyed) out.AddRowUnchecked(input.row(idx));
  return out;
}

Relation Limit(const Relation& input, size_t n) {
  Relation out(input.schema());
  for (size_t i = 0; i < std::min(n, input.NumRows()); ++i) {
    out.AddRowUnchecked(input.row(i));
  }
  return out;
}

Relation Distinct(const Relation& input) {
  Relation out = input;
  out.DedupRows();
  return out;
}

Result<Relation> HashAggregate(
    const Relation& input,
    const std::vector<const sql::Expr*>& group_exprs,
    const std::vector<AggregateSpec>& aggregates) {
  // group key -> (representative input row idx, per-aggregate state)
  std::map<Tuple, std::pair<size_t, std::vector<AggState>>, TupleKeyLess>
      groups;
  for (size_t r = 0; r < input.NumRows(); ++r) {
    const Tuple& row = input.row(r);
    Tuple key;
    key.reserve(group_exprs.size());
    for (const sql::Expr* g : group_exprs) {
      GALOIS_ASSIGN_OR_RETURN(Value v, EvalExpr(*g, input.schema(), row));
      key.push_back(std::move(v));
    }
    auto [it, inserted] = groups.try_emplace(
        std::move(key), r, std::vector<AggState>(aggregates.size()));
    auto& [rep, states] = it->second;
    (void)rep;
    for (size_t a = 0; a < aggregates.size(); ++a) {
      const sql::Expr& call = *aggregates[a].call;
      bool is_count_star = call.function_name == "COUNT" &&
                           !call.children.empty() &&
                           call.children[0]->kind == sql::ExprKind::kStar;
      if (is_count_star) {
        states[a].Accumulate(Value::Int(1), /*distinct=*/false);
        continue;
      }
      GALOIS_ASSIGN_OR_RETURN(
          Value v, EvalExpr(*call.children[0], input.schema(), row));
      states[a].Accumulate(v, call.distinct);
    }
  }
  // Output schema: group columns then aggregate columns.
  Schema out_schema;
  for (const sql::Expr* g : group_exprs) {
    DataType type = DataType::kString;
    if (g->kind == sql::ExprKind::kColumnRef) {
      auto idx = input.schema().ResolveQualified(g->table, g->column);
      if (idx.ok()) type = input.schema().column(idx.value()).type;
      // Keep the qualified name resolvable for the projection stage.
      out_schema.AddColumn(Column(g->column, type, g->table));
    } else {
      out_schema.AddColumn(Column(g->ToString(), type));
    }
  }
  for (const AggregateSpec& spec : aggregates) {
    DataType type = spec.call->function_name == "COUNT" ? DataType::kInt64
                                                        : DataType::kDouble;
    out_schema.AddColumn(Column(spec.call->ToString(), type));
  }
  Relation out(out_schema);
  if (groups.empty() && group_exprs.empty()) {
    // Scalar aggregation over empty input: one row, COUNT=0, rest NULL.
    Tuple row;
    for (const AggregateSpec& spec : aggregates) {
      AggState empty;
      GALOIS_ASSIGN_OR_RETURN(Value v,
                              empty.Finish(spec.call->function_name));
      row.push_back(std::move(v));
    }
    out.AddRowUnchecked(std::move(row));
    return out;
  }
  for (const auto& [key, value] : groups) {
    const auto& [rep, states] = value;
    (void)rep;
    Tuple row = key;
    for (size_t a = 0; a < aggregates.size(); ++a) {
      GALOIS_ASSIGN_OR_RETURN(
          Value v, states[a].Finish(aggregates[a].call->function_name));
      row.push_back(std::move(v));
    }
    out.AddRowUnchecked(std::move(row));
  }
  return out;
}

}  // namespace galois::engine
