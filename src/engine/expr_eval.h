#ifndef GALOIS_ENGINE_EXPR_EVAL_H_
#define GALOIS_ENGINE_EXPR_EVAL_H_

#include <map>
#include <string>

#include "common/result.h"
#include "sql/ast.h"
#include "types/schema.h"

namespace galois::engine {

/// Values of already-computed aggregate expressions, keyed by the
/// canonical rendering of the aggregate call (e.g. "AVG(e.salary)").
/// Used when evaluating SELECT/HAVING expressions over grouped data.
using AggregateEnv = std::map<std::string, Value>;

/// Evaluates `expr` against one tuple of `schema`. Column references are
/// resolved by (optionally qualified) name. Aggregate calls are looked up
/// in `agg_env` if provided, and are an error otherwise.
///
/// SQL NULL semantics: any arithmetic/comparison with a NULL operand yields
/// NULL; AND/OR use null-as-unknown collapsed conservatively (NULL AND x ->
/// NULL unless x is false; NULL OR x -> NULL unless x is true).
Result<Value> EvalExpr(const sql::Expr& expr, const Schema& schema,
                       const Tuple& tuple,
                       const AggregateEnv* agg_env = nullptr);

/// Evaluates `expr` as a predicate: NULL and non-boolean non-numeric
/// results count as false; numeric results count as (value != 0).
Result<bool> EvalPredicate(const sql::Expr& expr, const Schema& schema,
                           const Tuple& tuple,
                           const AggregateEnv* agg_env = nullptr);

/// True when EvalExpr(expr, schema, row) (no aggregate env) returns a
/// value, never an error, for every row of `schema`: each column ref
/// resolves unambiguously, and only literals, comparisons, AND/OR/NOT,
/// BETWEEN, IN and IS NULL appear. LIKE, arithmetic and negation can
/// reject their operand types, and `*` and function calls always fail, so
/// any of them makes this false. A predicate for which this holds filters
/// the same rows whichever subset of pairs it is evaluated on, which is
/// what lets the physical plan hash a join instead of filtering every
/// pair.
bool EvalCannotFail(const sql::Expr& expr, const Schema& schema);

/// SQL LIKE matching with % (any run) and _ (single char) wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace galois::engine

#endif  // GALOIS_ENGINE_EXPR_EVAL_H_
