#ifndef GALOIS_SQL_AST_H_
#define GALOIS_SQL_AST_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "types/value.h"

namespace galois::sql {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Expression node kinds.
enum class ExprKind {
  kLiteral,      // 42, 'text', TRUE, NULL
  kColumnRef,    // name  |  alias.name
  kStar,         // * (only valid inside COUNT(*) or SELECT *)
  kUnary,        // NOT e, -e
  kBinary,       // e op e
  kFunction,     // AVG(e), COUNT(DISTINCT e), ...
  kBetween,      // e BETWEEN lo AND hi
  kInList,       // e IN (v1, v2, ...)
  kIsNull,       // e IS [NOT] NULL
};

enum class BinaryOp {
  kEq, kNotEq, kLt, kLtEq, kGt, kGtEq,
  kAnd, kOr,
  kPlus, kMinus, kMul, kDiv, kMod,
  kLike,
};

enum class UnaryOp { kNot, kNegate };

/// A SQL expression tree node. A single struct (rather than a class
/// hierarchy) keeps the parser and binder compact; `kind` selects which
/// fields are meaningful.
struct Expr {
  ExprKind kind;

  // kLiteral
  Value literal;

  // kColumnRef
  std::string table;  // alias qualifier; empty when unqualified
  std::string column;

  // kUnary / kBinary / kFunction / kBetween / kInList / kIsNull
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kEq;
  std::string function_name;          // normalised upper-case
  bool distinct = false;              // COUNT(DISTINCT x)
  bool negated = false;               // IS NOT NULL, NOT IN
  std::vector<ExprPtr> children;      // operands / args / IN-list items

  /// SQL-ish rendering for diagnostics and prompt generation.
  std::string ToString() const;

  /// Deep copy.
  ExprPtr Clone() const;

  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeColumnRef(std::string table, std::string column);
  static ExprPtr MakeStar();
  static ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
  static ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args,
                              bool distinct);
};

/// One item of the SELECT list.
struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty when none
};

/// A base table reference: [source.]table [AS] alias. The optional source
/// prefix selects the storage engine, e.g. `LLM.country c` / `DB.Employees e`
/// in the paper's hybrid query; empty means the catalog default.
struct TableRef {
  std::string source;  // "LLM", "DB" or ""
  std::string table;
  std::string alias;   // defaults to table name when empty

  std::string EffectiveAlias() const { return alias.empty() ? table : alias; }
};

enum class JoinType { kInner, kLeft };

/// An explicit JOIN clause (`JOIN t ON cond`).
struct JoinClause {
  JoinType type = JoinType::kInner;
  TableRef table;
  ExprPtr condition;
};

/// ORDER BY item.
struct OrderItem {
  ExprPtr expr;
  bool descending = false;
};

/// A parsed SELECT statement (the SPJA dialect: select-project-join with
/// aggregates, GROUP BY / HAVING / ORDER BY / LIMIT / DISTINCT).
struct SelectStatement {
  bool distinct = false;
  std::vector<SelectItem> select_list;
  std::vector<TableRef> from;       // comma-separated relations
  std::vector<JoinClause> joins;    // explicit JOINs chained after from[0]
  ExprPtr where;                    // may be null
  std::vector<ExprPtr> group_by;
  ExprPtr having;                   // may be null
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;

  /// Round-trippable-ish SQL rendering for diagnostics.
  std::string ToString() const;
};

/// Walks an expression tree pre-order, invoking `fn` on every node.
void VisitExpr(const Expr& e, const std::function<void(const Expr&)>& fn);

/// True if the expression contains an aggregate function call.
bool ContainsAggregate(const Expr& e);

/// Appends the AND-conjuncts of `e` to `out` in left-to-right order; an
/// expression that is not an AND is its own single conjunct.
void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out);

/// Clones of `conjuncts` AND-folded left to right; null when empty.
ExprPtr CloneConjunction(const std::vector<const Expr*>& conjuncts);

}  // namespace galois::sql

#endif  // GALOIS_SQL_AST_H_
