#include "engine/expr_eval.h"

#include <cmath>

namespace galois::engine {

namespace {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::UnaryOp;

/// Tri-state boolean for SQL three-valued logic.
enum class Tri { kFalse, kTrue, kNull };

Tri ValueToTri(const Value& v) {
  if (v.is_null()) return Tri::kNull;
  if (v.type() == DataType::kBool) {
    return v.bool_value() ? Tri::kTrue : Tri::kFalse;
  }
  auto d = v.AsDouble();
  if (d.ok()) return d.value() != 0.0 ? Tri::kTrue : Tri::kFalse;
  // Non-empty strings are truthy (lenient, matches the cleaning layer).
  if (v.type() == DataType::kString) {
    return v.string_value().empty() ? Tri::kFalse : Tri::kTrue;
  }
  return Tri::kNull;
}

Result<Value> EvalComparison(BinaryOp op, const Value& lhs,
                             const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  int cmp = lhs.Compare(rhs);
  bool out = false;
  switch (op) {
    case BinaryOp::kEq:
      out = cmp == 0;
      break;
    case BinaryOp::kNotEq:
      out = cmp != 0;
      break;
    case BinaryOp::kLt:
      out = cmp < 0;
      break;
    case BinaryOp::kLtEq:
      out = cmp <= 0;
      break;
    case BinaryOp::kGt:
      out = cmp > 0;
      break;
    case BinaryOp::kGtEq:
      out = cmp >= 0;
      break;
    default:
      return Status::Internal("EvalComparison called with non-comparison op");
  }
  return Value::Bool(out);
}

Result<Value> EvalArithmetic(BinaryOp op, const Value& lhs,
                             const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  GALOIS_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
  GALOIS_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
  bool both_int = lhs.type() == DataType::kInt64 &&
                  rhs.type() == DataType::kInt64;
  switch (op) {
    case BinaryOp::kPlus:
      return both_int ? Value::Int(lhs.int_value() + rhs.int_value())
                      : Value::Double(a + b);
    case BinaryOp::kMinus:
      return both_int ? Value::Int(lhs.int_value() - rhs.int_value())
                      : Value::Double(a - b);
    case BinaryOp::kMul:
      return both_int ? Value::Int(lhs.int_value() * rhs.int_value())
                      : Value::Double(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) return Value::Null();
      return Value::Double(a / b);
    case BinaryOp::kMod:
      if (!both_int || rhs.int_value() == 0) return Value::Null();
      return Value::Int(lhs.int_value() % rhs.int_value());
    default:
      return Status::Internal("EvalArithmetic called with non-arith op");
  }
}

}  // namespace

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Classic two-pointer wildcard match: % = any run, _ = one char.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> EvalExpr(const Expr& expr, const Schema& schema,
                       const Tuple& tuple, const AggregateEnv* agg_env) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kStar:
      return Status::ExecutionError(
          "'*' is only valid inside COUNT(*) or as the whole select list");
    case ExprKind::kColumnRef: {
      GALOIS_ASSIGN_OR_RETURN(
          size_t idx, schema.ResolveQualified(expr.table, expr.column));
      if (idx >= tuple.size()) {
        return Status::Internal("tuple narrower than schema");
      }
      return tuple[idx];
    }
    case ExprKind::kUnary: {
      GALOIS_ASSIGN_OR_RETURN(
          Value v, EvalExpr(*expr.children[0], schema, tuple, agg_env));
      if (expr.unary_op == UnaryOp::kNot) {
        Tri t = ValueToTri(v);
        if (t == Tri::kNull) return Value::Null();
        return Value::Bool(t == Tri::kFalse);
      }
      // negate
      if (v.is_null()) return Value::Null();
      if (v.type() == DataType::kInt64) return Value::Int(-v.int_value());
      GALOIS_ASSIGN_OR_RETURN(double d, v.AsDouble());
      return Value::Double(-d);
    }
    case ExprKind::kBinary: {
      if (expr.binary_op == BinaryOp::kAnd ||
          expr.binary_op == BinaryOp::kOr) {
        GALOIS_ASSIGN_OR_RETURN(
            Value lv, EvalExpr(*expr.children[0], schema, tuple, agg_env));
        Tri lt = ValueToTri(lv);
        if (expr.binary_op == BinaryOp::kAnd && lt == Tri::kFalse) {
          return Value::Bool(false);
        }
        if (expr.binary_op == BinaryOp::kOr && lt == Tri::kTrue) {
          return Value::Bool(true);
        }
        GALOIS_ASSIGN_OR_RETURN(
            Value rv, EvalExpr(*expr.children[1], schema, tuple, agg_env));
        Tri rt = ValueToTri(rv);
        if (expr.binary_op == BinaryOp::kAnd) {
          if (rt == Tri::kFalse) return Value::Bool(false);
          if (lt == Tri::kNull || rt == Tri::kNull) return Value::Null();
          return Value::Bool(true);
        }
        if (rt == Tri::kTrue) return Value::Bool(true);
        if (lt == Tri::kNull || rt == Tri::kNull) return Value::Null();
        return Value::Bool(false);
      }
      GALOIS_ASSIGN_OR_RETURN(
          Value lhs, EvalExpr(*expr.children[0], schema, tuple, agg_env));
      GALOIS_ASSIGN_OR_RETURN(
          Value rhs, EvalExpr(*expr.children[1], schema, tuple, agg_env));
      switch (expr.binary_op) {
        case BinaryOp::kEq:
        case BinaryOp::kNotEq:
        case BinaryOp::kLt:
        case BinaryOp::kLtEq:
        case BinaryOp::kGt:
        case BinaryOp::kGtEq:
          return EvalComparison(expr.binary_op, lhs, rhs);
        case BinaryOp::kPlus:
        case BinaryOp::kMinus:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          return EvalArithmetic(expr.binary_op, lhs, rhs);
        case BinaryOp::kLike: {
          if (lhs.is_null() || rhs.is_null()) return Value::Null();
          if (lhs.type() != DataType::kString ||
              rhs.type() != DataType::kString) {
            return Status::TypeError("LIKE requires string operands");
          }
          return Value::Bool(
              LikeMatch(lhs.string_value(), rhs.string_value()));
        }
        default:
          return Status::Internal("unhandled binary op");
      }
    }
    case ExprKind::kFunction: {
      if (agg_env != nullptr) {
        auto it = agg_env->find(expr.ToString());
        if (it != agg_env->end()) return it->second;
      }
      return Status::ExecutionError(
          "aggregate '" + expr.ToString() +
          "' evaluated outside an aggregation context");
    }
    case ExprKind::kBetween: {
      GALOIS_ASSIGN_OR_RETURN(
          Value v, EvalExpr(*expr.children[0], schema, tuple, agg_env));
      GALOIS_ASSIGN_OR_RETURN(
          Value lo, EvalExpr(*expr.children[1], schema, tuple, agg_env));
      GALOIS_ASSIGN_OR_RETURN(
          Value hi, EvalExpr(*expr.children[2], schema, tuple, agg_env));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      return Value::Bool(v.Compare(lo) >= 0 && v.Compare(hi) <= 0);
    }
    case ExprKind::kInList: {
      GALOIS_ASSIGN_OR_RETURN(
          Value v, EvalExpr(*expr.children[0], schema, tuple, agg_env));
      if (v.is_null()) return Value::Null();
      bool found = false;
      bool saw_null = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        GALOIS_ASSIGN_OR_RETURN(
            Value item, EvalExpr(*expr.children[i], schema, tuple, agg_env));
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        if (v.Compare(item) == 0) {
          found = true;
          break;
        }
      }
      if (!found && saw_null) return Value::Null();
      return Value::Bool(expr.negated ? !found : found);
    }
    case ExprKind::kIsNull: {
      GALOIS_ASSIGN_OR_RETURN(
          Value v, EvalExpr(*expr.children[0], schema, tuple, agg_env));
      bool is_null = v.is_null();
      return Value::Bool(expr.negated ? !is_null : is_null);
    }
  }
  return Status::Internal("unhandled expression kind");
}

bool EvalCannotFail(const Expr& expr, const Schema& schema) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kColumnRef:
      return schema.ResolveQualified(expr.table, expr.column).ok();
    case ExprKind::kUnary:
      if (expr.unary_op != UnaryOp::kNot) return false;
      break;
    case ExprKind::kBinary:
      switch (expr.binary_op) {
        case BinaryOp::kEq:
        case BinaryOp::kNotEq:
        case BinaryOp::kLt:
        case BinaryOp::kLtEq:
        case BinaryOp::kGt:
        case BinaryOp::kGtEq:
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          break;
        default:
          return false;
      }
      break;
    case ExprKind::kBetween:
    case ExprKind::kInList:
    case ExprKind::kIsNull:
      break;
    case ExprKind::kStar:
    case ExprKind::kFunction:
      return false;
  }
  for (const sql::ExprPtr& child : expr.children) {
    if (!EvalCannotFail(*child, schema)) return false;
  }
  return true;
}

Result<bool> EvalPredicate(const Expr& expr, const Schema& schema,
                           const Tuple& tuple, const AggregateEnv* agg_env) {
  GALOIS_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, schema, tuple, agg_env));
  return ValueToTri(v) == Tri::kTrue;
}

}  // namespace galois::engine
