#include "planner/planner.h"

#include <functional>
#include <set>
#include <sstream>

#include "common/strings.h"

namespace galois::planner {

namespace {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;

/// Collects column names referenced with the given alias (or unqualified).
void CollectColumns(const Expr& e, const std::string& alias,
                    const catalog::TableDef& def,
                    std::set<std::string>* out) {
  sql::VisitExpr(e, [&](const Expr& node) {
    if (node.kind != ExprKind::kColumnRef) return;
    if (!node.table.empty() && !EqualsIgnoreCase(node.table, alias)) {
      return;
    }
    if (def.FindColumn(node.column).ok()) out->insert(node.column);
  });
}

PlanNodePtr MakeNode(PlanOp op) {
  auto node = std::make_unique<PlanNode>();
  node->op = op;
  return node;
}

}  // namespace

const char* PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kScan:
      return "Scan";
    case PlanOp::kFilter:
      return "Filter";
    case PlanOp::kRetrieve:
      return "Retrieve";
    case PlanOp::kJoin:
      return "Join";
    case PlanOp::kAggregate:
      return "Aggregate";
    case PlanOp::kProject:
      return "Project";
    case PlanOp::kSort:
      return "Sort";
    case PlanOp::kLimit:
      return "Limit";
    case PlanOp::kDistinct:
      return "Distinct";
  }
  return "?";
}

std::string PlanNode::Describe() const {
  std::ostringstream os;
  os << PlanOpName(op);
  switch (op) {
    case PlanOp::kScan:
      os << "[" << (from_llm ? "LLM" : "DB") << "] " << table;
      if (!alias.empty() && alias != table) os << " AS " << alias;
      if (from_llm) {
        os << " (retrieve key '" << key_column << "' via prompts";
        if (predicate) {
          os << ", filter merged into scan prompt: "
             << predicate->ToString();
        }
        if (scan_key_limit >= 0) {
          os << ", paging stops at " << scan_key_limit << " keys";
        }
        os << ")";
      }
      break;
    case PlanOp::kFilter:
      os << " " << (predicate ? predicate->ToString() : "?");
      if (pushed_into_scan) {
        os << " (merged into scan prompt)";
      } else if (via_llm) {
        os << " (one check prompt per key)";
      }
      break;
    case PlanOp::kRetrieve:
      os << " " << alias << ".{" << Join(columns, ", ")
         << "} (one prompt per key per attribute)";
      break;
    case PlanOp::kJoin:
      if (predicate) os << " ON " << predicate->ToString();
      break;
    case PlanOp::kAggregate:
    case PlanOp::kProject: {
      std::vector<std::string> parts;
      for (const auto& e : exprs) parts.push_back(e->ToString());
      os << " [" << Join(parts, ", ") << "]";
      break;
    }
    case PlanOp::kSort: {
      std::vector<std::string> parts;
      for (const auto& e : exprs) parts.push_back(e->ToString());
      os << " [" << Join(parts, ", ") << "]";
      break;
    }
    case PlanOp::kLimit:
      os << " " << limit;
      break;
    case PlanOp::kDistinct:
      break;
  }
  return os.str();
}

Result<PlanNodePtr> BuildLogicalPlan(const sql::SelectStatement& stmt,
                                     const catalog::Catalog& catalog) {
  // 1. One scan (+ retrieve) subtree per base relation.
  struct BaseInfo {
    const sql::TableRef* ref;
    const catalog::TableDef* def;
  };
  std::vector<BaseInfo> bases;
  auto add_base = [&](const sql::TableRef& ref) -> Status {
    GALOIS_ASSIGN_OR_RETURN(const catalog::TableDef* def,
                            catalog.GetTable(ref.table));
    if (!ref.source.empty() && ref.source != "LLM" && ref.source != "DB") {
      return Status::BindError("unknown source qualifier '" + ref.source +
                               "' (expected LLM or DB)");
    }
    bases.push_back({&ref, def});
    return Status::OK();
  };
  for (const sql::TableRef& ref : stmt.from) {
    GALOIS_RETURN_IF_ERROR(add_base(ref));
  }
  for (const sql::JoinClause& j : stmt.joins) {
    GALOIS_RETURN_IF_ERROR(add_base(j.table));
  }

  // Build scans; LLM scans only yield keys, so inject a Retrieve node for
  // every other column the statement references.
  std::vector<PlanNodePtr> subtrees;
  for (const BaseInfo& info : bases) {
    PlanNodePtr scan = MakeNode(PlanOp::kScan);
    scan->table = info.def->name;
    scan->alias = info.ref->EffectiveAlias();
    scan->key_column = info.def->key_column;
    if (info.ref->source == "LLM") {
      scan->from_llm = true;
    } else if (info.ref->source == "DB") {
      scan->from_llm = false;
    } else {
      scan->from_llm =
          info.def->default_source == catalog::SourceKind::kLlm;
    }
    if (!scan->from_llm) {
      subtrees.push_back(std::move(scan));
      continue;
    }
    std::set<std::string> needed;
    for (const auto& item : stmt.select_list) {
      if (item.expr->kind == ExprKind::kStar) {
        for (const auto& c : info.def->columns) needed.insert(c.name);
        continue;
      }
      CollectColumns(*item.expr, scan->alias, *info.def, &needed);
    }
    if (stmt.where) {
      CollectColumns(*stmt.where, scan->alias, *info.def, &needed);
    }
    for (const auto& j : stmt.joins) {
      if (j.condition) {
        CollectColumns(*j.condition, scan->alias, *info.def, &needed);
      }
    }
    for (const auto& g : stmt.group_by) {
      CollectColumns(*g, scan->alias, *info.def, &needed);
    }
    if (stmt.having) {
      CollectColumns(*stmt.having, scan->alias, *info.def, &needed);
    }
    for (const auto& o : stmt.order_by) {
      CollectColumns(*o.expr, scan->alias, *info.def, &needed);
    }
    needed.erase(info.def->key_column);
    std::string alias = scan->alias;
    PlanNodePtr subtree = std::move(scan);
    if (!needed.empty()) {
      PlanNodePtr retrieve = MakeNode(PlanOp::kRetrieve);
      retrieve->alias = alias;
      retrieve->columns.assign(needed.begin(), needed.end());
      retrieve->children.push_back(std::move(subtree));
      subtree = std::move(retrieve);
    }
    subtrees.push_back(std::move(subtree));
  }

  // 2. Join tree, left-deep in FROM/JOIN order.
  PlanNodePtr root = std::move(subtrees[0]);
  for (size_t i = 1; i < subtrees.size(); ++i) {
    PlanNodePtr join = MakeNode(PlanOp::kJoin);
    if (i >= stmt.from.size()) {
      size_t join_idx = i - stmt.from.size();
      join->join_type = stmt.joins[join_idx].type;
      if (stmt.joins[join_idx].condition) {
        join->predicate = stmt.joins[join_idx].condition->Clone();
      }
    }
    join->children.push_back(std::move(root));
    join->children.push_back(std::move(subtrees[i]));
    root = std::move(join);
  }

  // 3. WHERE.
  if (stmt.where) {
    PlanNodePtr filter = MakeNode(PlanOp::kFilter);
    filter->predicate = stmt.where->Clone();
    filter->children.push_back(std::move(root));
    root = std::move(filter);
  }

  // 4. Aggregate.
  bool has_agg = !stmt.group_by.empty() || stmt.having != nullptr;
  for (const auto& item : stmt.select_list) {
    if (sql::ContainsAggregate(*item.expr)) has_agg = true;
  }
  if (has_agg) {
    PlanNodePtr agg = MakeNode(PlanOp::kAggregate);
    agg->group_expr_count = stmt.group_by.size();
    for (const auto& g : stmt.group_by) agg->exprs.push_back(g->Clone());
    for (const auto& item : stmt.select_list) {
      if (sql::ContainsAggregate(*item.expr)) {
        agg->exprs.push_back(item.expr->Clone());
      }
    }
    agg->children.push_back(std::move(root));
    root = std::move(agg);
    if (stmt.having) {
      PlanNodePtr having = MakeNode(PlanOp::kFilter);
      having->predicate = stmt.having->Clone();
      having->children.push_back(std::move(root));
      root = std::move(having);
    }
  }

  // 5. Project.
  PlanNodePtr project = MakeNode(PlanOp::kProject);
  for (const auto& item : stmt.select_list) {
    project->exprs.push_back(item.expr->Clone());
    project->columns.push_back(item.alias);
  }
  project->children.push_back(std::move(root));
  root = std::move(project);

  // 6. Sort / Distinct / Limit.
  if (!stmt.order_by.empty()) {
    PlanNodePtr sort = MakeNode(PlanOp::kSort);
    for (const auto& o : stmt.order_by) {
      sort->exprs.push_back(o.expr->Clone());
      sort->descending.push_back(o.descending);
    }
    sort->children.push_back(std::move(root));
    root = std::move(sort);
  }
  if (stmt.distinct) {
    PlanNodePtr distinct = MakeNode(PlanOp::kDistinct);
    distinct->children.push_back(std::move(root));
    root = std::move(distinct);
  }
  if (stmt.limit.has_value()) {
    PlanNodePtr limit = MakeNode(PlanOp::kLimit);
    limit->limit = *stmt.limit;
    limit->children.push_back(std::move(root));
    root = std::move(limit);
  }
  return root;
}

namespace {

/// Finds the scan feeding a filter (through Retrieve nodes) for the alias
/// referenced by a predicate; returns nullptr when ambiguous.
PlanNode* FindLlmScan(PlanNode* node) {
  if (node->op == PlanOp::kScan) {
    return node->from_llm ? node : nullptr;
  }
  if (node->op == PlanOp::kRetrieve) {
    return FindLlmScan(node->children[0].get());
  }
  return nullptr;
}

/// Alias referenced by a simple predicate ("" if none/mixed).
std::string PredicateAlias(const Expr& e) {
  std::string alias;
  bool mixed = false;
  sql::VisitExpr(e, [&](const Expr& node) {
    if (node.kind != ExprKind::kColumnRef) return;
    if (alias.empty()) {
      alias = node.table;
    } else if (!EqualsIgnoreCase(alias, node.table)) {
      mixed = true;
    }
  });
  return mixed ? "" : alias;
}

}  // namespace

int OptimizeLlmFilters(PlanNode* root, bool merge_into_scan) {
  int rewritten = 0;
  for (auto& child : root->children) {
    rewritten += OptimizeLlmFilters(child.get(), merge_into_scan);
  }
  if (root->op != PlanOp::kFilter || root->predicate == nullptr ||
      root->via_llm) {
    return rewritten;
  }
  PlanNode* input = root->children[0].get();
  PlanNode* scan = FindLlmScan(input);
  if (scan == nullptr) return rewritten;
  // The filter must be a conjunction of simple comparisons on the scan.
  std::vector<const Expr*> conjuncts;
  sql::FlattenConjuncts(root->predicate.get(), &conjuncts);
  // Fake TableDef lookup is not available here; accept column refs whose
  // alias matches the scan (the executor re-validates against the
  // catalog).
  bool all_simple = true;
  for (const Expr* c : conjuncts) {
    if (c->kind != ExprKind::kBinary) {
      all_simple = false;
      break;
    }
    const Expr* lhs = c->children[0].get();
    const Expr* rhs = c->children[1].get();
    bool shape = (lhs->kind == ExprKind::kColumnRef &&
                  rhs->kind == ExprKind::kLiteral) ||
                 (rhs->kind == ExprKind::kColumnRef &&
                  lhs->kind == ExprKind::kLiteral);
    if (!shape) {
      all_simple = false;
      break;
    }
    std::string alias = PredicateAlias(*c);
    if (!alias.empty() && !EqualsIgnoreCase(alias, scan->alias)) {
      all_simple = false;
      break;
    }
  }
  if (!all_simple) return rewritten;
  root->via_llm = true;
  ++rewritten;
  if (merge_into_scan) {
    root->pushed_into_scan = true;
    scan->predicate = root->predicate->Clone();
  }
  return rewritten;
}

namespace {

/// SQL symbol for a comparison operator usable in prompt filters; empty
/// when the operator is not a simple comparison.
std::string ComparisonSymbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNotEq:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLtEq:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGtEq:
      return ">=";
    case BinaryOp::kLike:
      return "LIKE";
    default:
      return "";
  }
}

/// Mirror of a comparison when operands are swapped (lit op col ->
/// col op' lit).
std::string MirrorSymbol(const std::string& op) {
  if (op == "<") return ">";
  if (op == "<=") return ">=";
  if (op == ">") return "<";
  if (op == ">=") return "<=";
  if (op == "=" || op == "!=") return op;
  return "";  // LIKE cannot be mirrored
}

/// Scans in execution order: the join tree is left-deep in FROM/JOIN
/// order, so an in-order traversal yields FROM order.
void CollectScans(PlanNode* node, std::vector<PlanNode*>* out) {
  if (node->op == PlanOp::kScan) {
    out->push_back(node);
    return;
  }
  for (auto& c : node->children) CollectScans(c.get(), out);
}

}  // namespace

Result<int> BindPhysicalAnnotations(PlanNode* root,
                                    const catalog::Catalog& catalog,
                                    const BindingOptions& options) {
  // --- bind every scan to its catalog definition (FROM order) -----------
  std::vector<PlanNode*> scans;
  CollectScans(root, &scans);
  std::vector<const catalog::TableDef*> defs(scans.size());
  for (size_t i = 0; i < scans.size(); ++i) {
    GALOIS_ASSIGN_OR_RETURN(defs[i], catalog.GetTable(scans[i]->table));
  }

  // Structural landmarks. BuildLogicalPlan emits at most one WHERE filter
  // (child is not an Aggregate) and one HAVING filter (child is).
  PlanNode* where_filter = nullptr;
  PlanNode* having_filter = nullptr;
  PlanNode* aggregate = nullptr;
  PlanNode* project = nullptr;
  PlanNode* sort = nullptr;
  std::vector<PlanNode*> joins;
  std::function<void(PlanNode*)> classify = [&](PlanNode* n) {
    switch (n->op) {
      case PlanOp::kFilter:
        if (n->children[0]->op == PlanOp::kAggregate) {
          having_filter = n;
        } else {
          where_filter = n;
        }
        break;
      case PlanOp::kAggregate:
        aggregate = n;
        break;
      case PlanOp::kProject:
        project = n;
        break;
      case PlanOp::kSort:
        sort = n;
        break;
      case PlanOp::kJoin:
        joins.push_back(n);
        break;
      default:
        break;
    }
    for (auto& c : n->children) classify(c.get());
  };
  classify(root);

  // Column-reference resolution, byte-for-byte the retired ladder's rule:
  // qualified refs match a scan alias case-insensitively; unqualified refs
  // resolve only when exactly one base (DB bases included) has the column.
  auto resolve = [&](const Expr& ref) -> int {
    if (!ref.table.empty()) {
      for (size_t i = 0; i < scans.size(); ++i) {
        if (EqualsIgnoreCase(scans[i]->alias, ref.table)) {
          return static_cast<int>(i);
        }
      }
      return -1;
    }
    int found = -1;
    for (size_t i = 0; i < scans.size(); ++i) {
      if (defs[i]->FindColumn(ref.column).ok()) {
        if (found >= 0) return -1;  // ambiguous
        found = static_cast<int>(i);
      }
    }
    return found;
  };

  // Scans on the NULL-padded side of a LEFT JOIN. A WHERE conjunct on
  // one of them also sees the padded rows, so it must run after the join
  // as part of the residue; as a scan filter it would run before the
  // join and turn dropped matches into padded rows that survive.
  std::set<const PlanNode*> padded;
  for (PlanNode* j : joins) {
    if (j->join_type != sql::JoinType::kLeft) continue;
    std::vector<PlanNode*> right;
    CollectScans(j->children[1].get(), &right);
    padded.insert(right.begin(), right.end());
  }

  // --- split WHERE into per-scan LLM filters and the engine residue -----
  int consumed_count = 0;
  std::vector<const Expr*> conjuncts;
  std::set<const Expr*> consumed;
  if (where_filter != nullptr) {
    sql::FlattenConjuncts(where_filter->predicate.get(), &conjuncts);
    if (options.llm_filter_checks) {
      for (const Expr* c : conjuncts) {
        if (c->kind != ExprKind::kBinary) continue;
        std::string op = ComparisonSymbol(c->binary_op);
        if (op.empty()) continue;
        const Expr* lhs = c->children[0].get();
        const Expr* rhs = c->children[1].get();
        const Expr* col = nullptr;
        const Expr* lit = nullptr;
        if (lhs->kind == ExprKind::kColumnRef &&
            rhs->kind == ExprKind::kLiteral) {
          col = lhs;
          lit = rhs;
        } else if (rhs->kind == ExprKind::kColumnRef &&
                   lhs->kind == ExprKind::kLiteral) {
          col = rhs;
          lit = lhs;
          op = MirrorSymbol(op);
          if (op.empty()) continue;
        } else {
          continue;
        }
        int t = resolve(*col);
        if (t < 0 || !scans[t]->from_llm || padded.count(scans[t]) > 0) {
          continue;
        }
        auto coldef = defs[t]->FindColumn(col->column);
        if (!coldef.ok()) continue;
        ScanFilter filter;
        filter.column = coldef.value()->name;
        filter.column_description = coldef.value()->description;
        filter.op = op;
        filter.value = lit->literal;
        filter.conjunct = c;
        // Legality proof for predicate-subsumption caching: a conjunct
        // is residually checkable when its verdict on a deterministic
        // model reduces to Value::Compare over the materialised cell —
        // every plain comparison does; LIKE does not (the model, not
        // the engine, owns pattern semantics).
        filter.residually_checkable = op != "LIKE";
        scans[t]->scan_filters.push_back(std::move(filter));
        consumed.insert(c);
        ++consumed_count;
      }
    }
    // The residue the engine evaluates: AND of the unconsumed conjuncts,
    // left-folded in conjunct order.
    std::vector<const Expr*> unconsumed;
    for (const Expr* c : conjuncts) {
      if (consumed.count(c) == 0) unconsumed.push_back(c);
    }
    where_filter->residual = sql::CloneConjunction(unconsumed);
    where_filter->annotated = true;
  }

  // --- pushdown decision per scan ---------------------------------------
  for (size_t i = 0; i < scans.size(); ++i) {
    bool push = options.merge_filter_into_scan ||
                (options.merge_filter_auto &&
                 defs[i]->expected_rows >= options.auto_pushdown_min_rows);
    scans[i]->merge_first_filter = push && !scans[i]->scan_filters.empty();
  }

  // --- recompute Retrieve columns (the executor's exact marking rules) --
  std::vector<std::vector<const catalog::ColumnDef*>> needed(scans.size());
  std::vector<bool> needs_all(scans.size(), false);
  auto mark_needed = [&](const Expr& e) {
    sql::VisitExpr(e, [&](const Expr& node) {
      if (node.kind != ExprKind::kColumnRef) return;
      int t = resolve(node);
      if (t < 0) return;  // select-alias refs etc.; the engine binds them
      auto coldef = defs[t]->FindColumn(node.column);
      if (!coldef.ok()) return;
      if (EqualsIgnoreCase(coldef.value()->name, defs[t]->key_column)) {
        return;  // the key is always retrieved
      }
      for (const catalog::ColumnDef* existing : needed[t]) {
        if (existing == coldef.value()) return;
      }
      needed[t].push_back(coldef.value());
    });
  };
  if (project != nullptr) {
    // A `*` reads every column (of the scans it names) only as a select
    // item: `SELECT *`, `SELECT t.*`. The `*` of COUNT(*) reads none.
    for (const auto& e : project->exprs) {
      if (e->kind != ExprKind::kStar) {
        mark_needed(*e);
        continue;
      }
      for (size_t i = 0; i < scans.size(); ++i) {
        if (e->table.empty() || EqualsIgnoreCase(scans[i]->alias, e->table)) {
          needs_all[i] = true;
        }
      }
    }
  }
  for (PlanNode* j : joins) {
    if (j->predicate) mark_needed(*j->predicate);
  }
  for (const Expr* c : conjuncts) {
    if (consumed.count(c) == 0) mark_needed(*c);
  }
  if (aggregate != nullptr) {
    for (size_t g = 0; g < aggregate->group_expr_count; ++g) {
      mark_needed(*aggregate->exprs[g]);
    }
  }
  if (having_filter != nullptr) mark_needed(*having_filter->predicate);
  if (sort != nullptr) {
    for (const auto& e : sort->exprs) mark_needed(*e);
  }

  // Definition-order column lists per LLM scan, then reconcile the
  // Retrieve nodes: BuildLogicalPlan's alphabetical superset (which still
  // counts consumed filter columns) is replaced wholesale, inserting or
  // removing nodes where the sets changed.
  std::vector<std::vector<std::string>> retrieve_cols(scans.size());
  for (size_t i = 0; i < scans.size(); ++i) {
    if (!scans[i]->from_llm) continue;  // DB scans read full instances
    std::vector<std::string>& cols = retrieve_cols[i];
    if (needs_all[i]) {
      GALOIS_ASSIGN_OR_RETURN(size_t key_idx, defs[i]->KeyIndex());
      for (size_t c = 0; c < defs[i]->columns.size(); ++c) {
        if (c != key_idx) cols.push_back(defs[i]->columns[c].name);
      }
      continue;
    }
    for (const catalog::ColumnDef& col : defs[i]->columns) {
      for (const catalog::ColumnDef* n : needed[i]) {
        if (n == &col) {
          cols.push_back(col.name);
          break;
        }
      }
    }
  }
  auto scan_index = [&](const PlanNode* scan) -> int {
    for (size_t i = 0; i < scans.size(); ++i) {
      if (scans[i] == scan) return static_cast<int>(i);
    }
    return -1;
  };
  std::function<void(PlanNodePtr*)> reconcile = [&](PlanNodePtr* slot) {
    PlanNode* n = slot->get();
    PlanNode* scan = n;
    if (n->op == PlanOp::kRetrieve) scan = n->children[0].get();
    if (scan->op == PlanOp::kScan && scan->from_llm) {
      const std::vector<std::string>& cols = retrieve_cols[scan_index(scan)];
      if (cols.empty()) {
        if (n->op == PlanOp::kRetrieve) {
          *slot = std::move(n->children[0]);  // splice the node out
        }
      } else if (n->op == PlanOp::kRetrieve) {
        n->columns = cols;
      } else {
        auto retrieve = std::make_unique<PlanNode>();
        retrieve->op = PlanOp::kRetrieve;
        retrieve->alias = scan->alias;
        retrieve->columns = cols;
        retrieve->children.push_back(std::move(*slot));
        *slot = std::move(retrieve);
      }
      return;
    }
    for (auto& c : n->children) reconcile(&c);
  };
  for (auto& c : root->children) reconcile(&c);

  // --- LIMIT bounds key-scan paging when provably safe ------------------
  // Required shape: Limit -> Project -> [Retrieve] -> Scan[LLM]. Any
  // filter, join, aggregate, sort or distinct would interpose a node and
  // break the chain — each of them can drop or reorder rows, so the first
  // N scanned keys would not be the first N output rows. The critic key
  // pass (scan_rows_may_drop) rejects keys for the same reason. ORDER BY
  // on the key does NOT qualify: scan paging enumerates keys in
  // first-seen order, not key order.
  if (options.bound_scan_paging_by_limit && !options.scan_rows_may_drop &&
      root->op == PlanOp::kLimit && root->limit >= 0 &&
      root->children[0]->op == PlanOp::kProject) {
    PlanNode* s = root->children[0]->children[0].get();
    if (s->op == PlanOp::kRetrieve) s = s->children[0].get();
    if (s->op == PlanOp::kScan && s->from_llm && s->scan_filters.empty()) {
      s->scan_key_limit = root->limit;
    }
  }

  return consumed_count;
}

namespace {

void ExplainRec(const PlanNode& node, int depth, std::ostringstream* os) {
  *os << std::string(static_cast<size_t>(depth) * 2, ' ')
      << node.Describe() << "\n";
  for (const auto& c : node.children) ExplainRec(*c, depth + 1, os);
}

}  // namespace

std::string Explain(const PlanNode& root) {
  std::ostringstream os;
  ExplainRec(root, 0, &os);
  return os.str();
}

int64_t EstimatePromptCount(const PlanNode& root, int64_t num_keys,
                            int64_t page_size) {
  int64_t prompts = 0;
  std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
    switch (n.op) {
      case PlanOp::kScan:
        if (n.from_llm) {
          prompts += (num_keys + page_size - 1) / page_size + 1;
        }
        break;
      case PlanOp::kFilter:
        if (n.via_llm && !n.pushed_into_scan) prompts += num_keys;
        break;
      case PlanOp::kRetrieve:
        prompts += num_keys * static_cast<int64_t>(n.columns.size());
        break;
      default:
        break;
    }
    for (const auto& c : n.children) walk(*c);
  };
  walk(root);
  return prompts;
}

}  // namespace galois::planner
