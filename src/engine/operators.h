#ifndef GALOIS_ENGINE_OPERATORS_H_
#define GALOIS_ENGINE_OPERATORS_H_

#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "types/relation.h"

namespace galois::engine {

/// Classic physical operators over materialised Relations. These implement
/// the "traditional algorithms" side of Galois (Section 4, workflow step 4):
/// once tuples have been retrieved — from the LLM or from a DB instance —
/// joins, aggregates, sorts etc. are executed with ordinary DB operators.

/// sigma: keeps rows satisfying `predicate`.
Result<Relation> Filter(const Relation& input, const sql::Expr& predicate);

/// Cartesian product with concatenated schemas.
Result<Relation> CrossJoin(const Relation& left, const Relation& right);

/// One equi-join key: column `left` of the left input equals column
/// `right` of the right input (indices into the respective schemas).
struct JoinKey {
  size_t left = 0;
  size_t right = 0;
};

/// Order-preserving hash equi-join over one or more keys. Builds a map
/// from key hash to the right rows carrying it, in right-input order, and
/// probes it with each left row in input order. A pair matches when every
/// key is non-NULL on both sides with Value::Compare(...) == 0 (so 5 and
/// 5.0 match; strings match case-sensitively), and `extra`, when given,
/// holds over the concatenated schema. A kLeft join pads each left row
/// that matched nothing with NULLs.
///
/// The output is row for row, in order, what NestedLoopJoin (kInner) or
/// LeftOuterJoin (kLeft) emit with the AND of the key equalities and
/// `extra` as predicate — and, for kInner, what CrossJoin followed by
/// Filter emits. `extra` is evaluated on candidate pairs only, so an
/// `extra` that can raise on some pair may raise there and not here;
/// callers that need identical failures pass one that cannot (see
/// EvalCannotFail).
Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          const std::vector<JoinKey>& keys,
                          const sql::Expr* extra, sql::JoinType type);

/// Theta join: nested loop with an arbitrary predicate over the
/// concatenated schema.
Result<Relation> NestedLoopJoin(const Relation& left, const Relation& right,
                                const sql::Expr& predicate);

/// Left outer variant of NestedLoopJoin (unmatched left rows padded with
/// NULLs).
Result<Relation> LeftOuterJoin(const Relation& left, const Relation& right,
                               const sql::Expr& predicate);

/// pi: evaluates one expression per output column against each row.
/// `names` provides the output column labels (same arity as `exprs`).
Result<Relation> Project(const Relation& input,
                         const std::vector<const sql::Expr*>& exprs,
                         const std::vector<std::string>& names);

/// ORDER BY: stable sort on the given items.
Result<Relation> Sort(const Relation& input,
                      const std::vector<sql::OrderItem>& items);

/// LIMIT n.
Relation Limit(const Relation& input, size_t n);

/// DISTINCT over whole rows.
Relation Distinct(const Relation& input);

/// One computed aggregate column specification.
struct AggregateSpec {
  const sql::Expr* call = nullptr;  // the kFunction node (COUNT/AVG/...)
};

/// gamma: groups `input` by `group_exprs` and computes `aggregates` per
/// group. Output schema: one column per group expression (named by its
/// rendering) followed by one per aggregate (named by its rendering).
/// With no group expressions the whole input is a single group (scalar
/// aggregation), producing exactly one row even for empty input (per SQL,
/// COUNT=0, other aggregates NULL).
Result<Relation> HashAggregate(
    const Relation& input,
    const std::vector<const sql::Expr*>& group_exprs,
    const std::vector<AggregateSpec>& aggregates);

}  // namespace galois::engine

#endif  // GALOIS_ENGINE_OPERATORS_H_
