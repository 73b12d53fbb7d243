#include "core/physical_plan.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/llm_operators.h"
#include "core/materialisation_cache.h"
#include "engine/expr_eval.h"
#include "engine/operators.h"

namespace galois::core {

namespace {

using planner::PlanNode;
using planner::PlanOp;

/// The non-NULL cells of one retrieved column, in row order — the input
/// of that column's critic-verification phase.
struct CellSelection {
  std::vector<size_t> idx;        // row indices into the column
  std::vector<std::string> keys;  // surviving key per cell
  std::vector<Value> values;      // claimed value per cell
};

CellSelection SelectNonNullCells(
    const std::vector<Value>& values,
    const std::vector<std::string>& surviving) {
  CellSelection sel;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_null()) continue;
    sel.idx.push_back(i);
    sel.keys.push_back(surviving[i]);
    sel.values.push_back(values[i]);
  }
  return sel;
}

/// One needed column of an LLM table, retrieved and (optionally)
/// verified: a value per surviving key and, when provenance is recorded,
/// a record per key.
struct RetrievedColumn {
  std::vector<Value> values;
  std::vector<CellProvenance> provenances;
};

/// A column's attribute -> verify chain: retrieves `column` for every
/// key, then, with verify_cells, asks the critic about its non-NULL
/// cells in one phase. Rejected cells become NULL — the critic treats
/// them as hallucinations — and their provenance records are tagged.
Result<RetrievedColumn> RetrieveColumn(llm::LanguageModel* attr_model,
                                       llm::LanguageModel* verify_model,
                                       const catalog::TableDef& def,
                                       const catalog::ColumnDef& column,
                                       const std::vector<std::string>& keys,
                                       const ExecutionOptions& options) {
  RetrievedColumn out;
  std::vector<CellProvenance>* prov =
      options.record_provenance ? &out.provenances : nullptr;
  GALOIS_ASSIGN_OR_RETURN(
      out.values,
      LlmGetAttributeBatch(attr_model, def, keys, column, options, prov));
  if (!options.verify_cells) return out;
  CellSelection cells = SelectNonNullCells(out.values, keys);
  if (cells.idx.empty()) return out;
  GALOIS_ASSIGN_OR_RETURN(
      std::vector<int> verdicts,
      LlmVerifyCellBatch(verify_model, def, cells.keys, column,
                         cells.values, options));
  for (size_t v = 0; v < cells.idx.size(); ++v) {
    size_t i = cells.idx[v];
    if (prov != nullptr) (*prov)[i].verified = true;
    if (verdicts[v] == 0) {
      out.values[i] = Value::Null();
      if (prov != nullptr) {
        (*prov)[i].rejected = true;
        (*prov)[i].value = Value::Null();
      }
    }
  }
  return out;
}

/// Fits `options` to what `model` declared about concurrent calls, then
/// gives the query its budget of parallel_batches - 1 pool slots. Over a
/// stack that is not thread-safe the query runs at parallel_batches 1,
/// with no slot, so every model call comes from the calling thread, one
/// at a time, in ladder order.
void FitToModel(const llm::LanguageModel& model, ExecutionOptions* options) {
  if (!model.thread_safe()) options->parallel_batches = 1;
  options->budget =
      std::make_shared<PoolBudget>(options->parallel_batches - 1);
}

/// Starts the `index`-th task of a group of independent phases: a plan's
/// LLM tables, or a table's column chains. The first (`index` 0) is
/// deferred to its Join and so runs on the joining thread. The others
/// launch on ThreadPool::Shared() when they take a slot of the query's
/// budget and are deferred too when they find none. At parallel_batches
/// 1 the budget has no slot, so joining the group in order runs it one
/// task after another on the calling thread — the paper prototype's
/// ladder, prompt for prompt.
template <typename T>
TaskHandle<T> StartPhaseTask(const std::shared_ptr<PoolBudget>& budget,
                             size_t index, std::function<T()> fn) {
  if (index == 0) return TaskHandle<T>::Deferred(std::move(fn));
  return TaskHandle<T>::Start(ThreadPool::Shared(), budget, std::move(fn));
}

/// Joins `tasks` in order. At the first failure the rest are cancelled —
/// a task not yet started never runs, a running one is waited for — and
/// that failure is returned: the error of the earliest failing task, the
/// one the serial ladder stops at. Every task has been joined or
/// cancelled when this returns, so tasks may borrow the caller's state.
template <typename T>
Result<std::vector<T>> JoinInOrder(std::vector<TaskHandle<Result<T>>> tasks) {
  std::vector<T> out;
  out.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    Result<T> r = tasks[i].Join();
    if (!r.ok()) {
      for (size_t j = i + 1; j < tasks.size(); ++j) tasks[j].Cancel();
      return r.status();
    }
    out.push_back(std::move(r).value());
  }
  return out;
}

/// Records an LLM operator's outcome on its DAG node: the nested tap's
/// spend, round trips derived from it (batch round trips when batching
/// was on, prompt count otherwise) and the output row count.
void FinishLlmOp(PhysicalNode* node, const llm::CostTap& tap,
                 size_t rows) {
  if (node == nullptr) return;
  node->stats.executed = true;
  node->stats.cost = tap.cost();
  node->stats.round_trips = node->stats.cost.num_batches > 0
                                ? node->stats.cost.num_batches
                                : node->stats.cost.num_prompts;
  node->stats.rows = static_cast<int64_t>(rows);
}

void FinishRelationalOp(PhysicalNode* node, size_t rows) {
  if (node == nullptr) return;
  node->stats.executed = true;
  node->stats.rows = static_cast<int64_t>(rows);
}

/// `c` as a key of the join whose left input is columns [0, split) of
/// `schema` and whose right input is columns [split, end): an `=` between
/// two column refs that resolve in `schema` — the way the filter over it
/// resolves them — one into each input.
std::optional<engine::JoinKey> AsJoinKey(const sql::Expr& c,
                                         const Schema& schema, size_t split,
                                         size_t end) {
  if (c.kind != sql::ExprKind::kBinary || c.binary_op != sql::BinaryOp::kEq) {
    return std::nullopt;
  }
  const sql::Expr& a = *c.children[0];
  const sql::Expr& b = *c.children[1];
  if (a.kind != sql::ExprKind::kColumnRef ||
      b.kind != sql::ExprKind::kColumnRef) {
    return std::nullopt;
  }
  auto ia = schema.ResolveQualified(a.table, a.column);
  auto ib = schema.ResolveQualified(b.table, b.column);
  if (!ia.ok() || !ib.ok()) return std::nullopt;
  const size_t lo = std::min(ia.value(), ib.value());
  const size_t hi = std::max(ia.value(), ib.value());
  if (lo >= split || hi < split || hi >= end) return std::nullopt;
  return engine::JoinKey{lo, hi - split};
}

/// Appends "ci.country = co.name" (Expr::ToString would parenthesise),
/// AND-separated from the keys already in `text`.
void AppendKeyText(const sql::Expr& key, std::string* text) {
  if (!text->empty()) *text += " AND ";
  *text += key.children[0]->ToString() + " = " + key.children[1]->ToString();
}

std::string FilterText(const llm::PromptFilter& f) {
  return f.attribute + " " + f.op + " " + f.value.ToString();
}

std::string StatsSummary(const OperatorStats& s) {
  if (s.from_cache) {
    return "cache hit: " + std::to_string(s.rows) +
           " rows, 0 round trips";
  }
  if (s.from_remote) {
    return "remote shard: " + std::to_string(s.rows) +
           " rows, 0 local round trips";
  }
  if (!s.executed) return "not executed";
  std::ostringstream os;
  os << "rows=" << s.rows;
  if (s.cost.num_prompts > 0 || s.cost.num_batches > 0) {
    os << ", round trips=" << s.round_trips
       << ", prompts=" << s.cost.num_prompts << ", tokens="
       << s.cost.prompt_tokens + s.cost.completion_tokens;
    char latency[32];
    std::snprintf(latency, sizeof(latency), "%.1f",
                  s.cost.simulated_latency_ms);
    os << ", latency=" << latency << "ms";
  }
  return os.str();
}

/// Counts one materialisation-cache lookup and, on a hit, its kinds.
void CountLookup(const MaterialisationLookupInfo& info,
                 QueryCounters* counters) {
  ++counters->table_cache_lookups;
  if (!info.hit) return;
  ++counters->table_cache_hits;
  if (info.exact) ++counters->table_cache_exact_hits;
  if (info.predicate_subsumed) ++counters->table_cache_subsumption_hits;
  if (info.from_store) ++counters->table_cache_store_hits;
}

void RenderRec(const PhysicalNode& node, int depth,
               std::ostringstream* os) {
  *os << std::string(static_cast<size_t>(depth) * 2, ' ') << node.label
      << "  [" << StatsSummary(node.stats) << "]\n";
  for (const PhysicalNode* c : node.children) {
    RenderRec(*c, depth + 1, os);
  }
}

}  // namespace

planner::BindingOptions BindingOptionsFor(const ExecutionOptions& options) {
  planner::BindingOptions b;
  b.llm_filter_checks = options.llm_filter_checks;
  b.merge_filter_into_scan =
      options.pushdown_policy == PushdownPolicy::kAlways;
  b.merge_filter_auto = options.pushdown_policy == PushdownPolicy::kAuto;
  b.auto_pushdown_min_rows = options.auto_pushdown_min_rows;
  b.scan_rows_may_drop = options.verify_cells;
  return b;
}

PhysicalNode* PhysicalPlan::NewNode(std::string label) {
  nodes_.emplace_back();
  nodes_.back().label = std::move(label);
  return &nodes_.back();
}

Result<PhysicalPlan> PhysicalPlan::Compile(planner::PlanNodePtr plan,
                                           const catalog::Catalog* catalog,
                                           const ExecutionOptions& options) {
  PhysicalPlan p;
  p.plan_ = std::move(plan);
  p.catalog_ = catalog;
  p.options_ = options;
  PlanNode* root = p.plan_.get();

  // --- classify the logical tree ----------------------------------------
  // BuildLogicalPlan emits at most one of each tail operator and a
  // left-deep join tree; scans surface in FROM order under an in-order
  // walk.
  const PlanNode* where_filter = nullptr;
  const PlanNode* having_filter = nullptr;
  const PlanNode* aggregate = nullptr;
  const PlanNode* project = nullptr;
  const PlanNode* sort = nullptr;
  const PlanNode* distinct = nullptr;
  const PlanNode* limit = nullptr;
  std::vector<const PlanNode*> join_logicals;  // pre-order: topmost first
  std::vector<const PlanNode*> scans;          // FROM order
  std::map<const PlanNode*, const PlanNode*> retrieve_of;  // scan -> node
  std::function<void(const PlanNode*)> classify = [&](const PlanNode* n) {
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
      case PlanOp::kDistinct:
        distinct = n;
        break;
      case PlanOp::kLimit:
        limit = n;
        break;
      case PlanOp::kJoin:
        join_logicals.push_back(n);
        break;
      case PlanOp::kRetrieve:
        retrieve_of[n->children[0].get()] = n;
        break;
      case PlanOp::kScan:
        scans.push_back(n);
        return;  // leaf
    }
    for (const auto& c : n->children) classify(c.get());
  };
  classify(root);

  if (project == nullptr || scans.empty()) {
    return Status::InvalidArgument(
        "physical plan: malformed logical plan (no Project/Scan)");
  }
  if (where_filter != nullptr && !where_filter->annotated) {
    return Status::InvalidArgument(
        "physical plan: logical plan was not annotated — run "
        "planner::BindPhysicalAnnotations before Compile");
  }
  if (join_logicals.size() + 1 != scans.size()) {
    return Status::InvalidArgument(
        "physical plan: join/scan count mismatch");
  }
  // Topmost join executes last: reverse into execution order.
  std::reverse(join_logicals.begin(), join_logicals.end());

  // --- compile one table group per scan ---------------------------------
  p.groups_.reserve(scans.size());
  for (const PlanNode* scan : scans) {
    TableGroup g;
    g.scan = scan;
    GALOIS_ASSIGN_OR_RETURN(g.def, catalog->GetTable(scan->table));
    g.alias = scan->alias;
    g.from_llm = scan->from_llm;
    g.key_limit = scan->scan_key_limit;
    g.push_first_filter = scan->merge_first_filter;
    for (const planner::ScanFilter& f : scan->scan_filters) {
      llm::PromptFilter filter;
      filter.attribute = f.column;
      filter.attribute_description = f.column_description;
      filter.op = f.op;
      filter.value = f.value;
      g.llm_filters.push_back(std::move(filter));
      PredicateConjunct conjunct;
      conjunct.column = f.column;
      conjunct.op = f.op;
      conjunct.value = f.value;
      conjunct.residual_ok = f.residually_checkable;
      g.descriptor.conjuncts.push_back(std::move(conjunct));
    }
    if (scan->merge_first_filter) {
      g.descriptor.pushed_column = scan->scan_filters[0].column;
    }
    g.descriptor.scan_key_limit = scan->scan_key_limit;
    g.descriptor.Canonicalise();
    auto it = retrieve_of.find(scan);
    if (it != retrieve_of.end()) {
      for (const std::string& name : it->second->columns) {
        GALOIS_ASSIGN_OR_RETURN(const catalog::ColumnDef* col,
                                g.def->FindColumn(name));
        g.needed_columns.push_back(col);
      }
    }

    // The group's operator chain, bottom-up: scan, key critic, filter
    // checks, retrieve, cell critic.
    if (!g.from_llm) {
      g.scan_node = p.NewNode("Scan[DB] " + g.def->name +
                              (g.alias != g.def->name
                                   ? " AS " + g.alias
                                   : std::string()));
      g.top = g.scan_node;
      p.groups_.push_back(std::move(g));
      continue;
    }
    {
      std::ostringstream os;
      os << "KeyScan[LLM] " << g.def->name;
      if (g.alias != g.def->name) os << " AS " << g.alias;
      os << " (key '" << g.def->key_column << "' via paged prompts";
      if (g.push_first_filter) {
        os << "; filter merged into scan prompt: "
           << FilterText(g.llm_filters[0]);
      }
      if (g.key_limit >= 0) {
        os << "; paging stops at " << g.key_limit << " keys";
      }
      os << ")";
      g.scan_node = p.NewNode(os.str());
    }
    g.top = g.scan_node;
    if (options.verify_cells) {
      g.key_verify_node = p.NewNode(
          "VerifyKeys " + g.alias + " (critic prompt per scanned key)");
      g.key_verify_node->children.push_back(g.top);
      g.top = g.key_verify_node;
    }
    for (size_t f = g.push_first_filter ? 1 : 0; f < g.llm_filters.size();
         ++f) {
      PhysicalNode* check = p.NewNode(
          "FilterCheck " + g.alias + "." + FilterText(g.llm_filters[f]) +
          " (one prompt per surviving key)");
      check->children.push_back(g.top);
      g.top = check;
      g.check_nodes.push_back(check);
    }
    if (!g.needed_columns.empty()) {
      std::vector<std::string> names;
      for (const catalog::ColumnDef* col : g.needed_columns) {
        names.push_back(col->name);
      }
      g.retrieve_node = p.NewNode(
          "Retrieve " + g.alias + ".{" + Join(names, ", ") +
          "} (one prompt per key per attribute)");
      g.retrieve_node->children.push_back(g.top);
      g.top = g.retrieve_node;
      if (options.verify_cells) {
        g.cell_verify_node = p.NewNode(
            "VerifyCells " + g.alias +
            " (critic prompt per non-NULL cell)");
        g.cell_verify_node->children.push_back(g.top);
        g.top = g.cell_verify_node;
      }
    }
    p.groups_.push_back(std::move(g));
  }

  // --- join chain -------------------------------------------------------
  // Each join's hash keys (see the class comment). A predicate that can
  // fail on some row must keep seeing every row it saw before: an ON
  // clause gives up keys only when it cannot fail, and since a WHERE key
  // drops pairs before every later join, it moves onto a comma join only
  // when the WHERE residual and all later ON clauses cannot fail.
  const size_t n_joins = join_logicals.size();
  const sql::Expr* where =
      where_filter != nullptr ? where_filter->residual.get() : nullptr;
  std::vector<JoinStep> steps(n_joins);
  std::vector<std::string> key_labels(n_joins);
  std::vector<const sql::Expr*> where_rest;  // WHERE conjuncts not keys
  bool where_keyed = false;  // some WHERE conjunct became a join key
  if (n_joins > 0) {
    // Join i joins columns [0, bounds[i]) of `joined` — the first i + 1
    // groups — with groups_[i + 1], columns [bounds[i], bounds[i + 1]).
    // While join i is added, `joined` is its output, which its ON clause
    // is evaluated on; at the end it is what the WHERE residual sees.
    GALOIS_ASSIGN_OR_RETURN(Schema joined, GroupSchema(p.groups_[0]));
    std::vector<size_t> bounds{joined.size()};
    size_t first_keyable = 0;  // WHERE keys may move onto joins from here
    for (size_t i = 0; i < n_joins; ++i) {
      GALOIS_ASSIGN_OR_RETURN(Schema right, GroupSchema(p.groups_[i + 1]));
      for (const Column& c : right.columns()) joined.AddColumn(c);
      bounds.push_back(joined.size());
      const sql::Expr* on = join_logicals[i]->predicate.get();
      if (on == nullptr) continue;
      if (!engine::EvalCannotFail(*on, joined)) {
        first_keyable = i + 1;
        continue;
      }
      std::vector<const sql::Expr*> conjuncts;
      std::vector<const sql::Expr*> rest;
      sql::FlattenConjuncts(on, &conjuncts);
      for (const sql::Expr* c : conjuncts) {
        auto key = AsJoinKey(*c, joined, bounds[i], bounds[i + 1]);
        if (!key.has_value()) {
          rest.push_back(c);
          continue;
        }
        steps[i].keys.push_back(*key);
        AppendKeyText(*c, &key_labels[i]);
      }
      if (!steps[i].keys.empty()) {
        steps[i].extra = sql::CloneConjunction(rest);
      }
    }
    if (where != nullptr && engine::EvalCannotFail(*where, joined)) {
      std::vector<const sql::Expr*> conjuncts;
      sql::FlattenConjuncts(where, &conjuncts);
      for (const sql::Expr* c : conjuncts) {
        bool keyed = false;
        for (size_t i = first_keyable; i < n_joins && !keyed; ++i) {
          if (join_logicals[i]->predicate) continue;
          auto key = AsJoinKey(*c, joined, bounds[i], bounds[i + 1]);
          if (!key.has_value()) continue;
          steps[i].keys.push_back(*key);
          AppendKeyText(*c, &key_labels[i]);
          keyed = true;
        }
        if (keyed) {
          where_keyed = true;
        } else {
          where_rest.push_back(c);
        }
      }
    }
  }

  PhysicalNode* top = p.groups_[0].top;
  for (size_t i = 0; i < n_joins; ++i) {
    const PlanNode* j = join_logicals[i];
    JoinStep& step = steps[i];
    step.logical = j;
    const bool left = j->join_type == sql::JoinType::kLeft;
    std::string label;
    if (!step.keys.empty()) {
      label = std::string(left ? "LeftOuterHashJoin ON " : "HashJoin ON ") +
              key_labels[i];
      if (step.extra) {
        label += " (per-pair check " + step.extra->ToString() + ")";
      }
    } else if (!j->predicate) {
      label = "CrossJoin";
    } else {
      label = std::string(left ? "LeftOuterJoin ON " : "NestedLoopJoin ON ") +
              j->predicate->ToString();
    }
    step.node = p.NewNode(std::move(label));
    step.node->children.push_back(top);
    step.node->children.push_back(p.groups_[i + 1].top);
    top = step.node;
  }
  p.joins_ = std::move(steps);

  // --- relational tail --------------------------------------------------
  // The WHERE residual minus the conjuncts that became join keys.
  p.residual_ = where;
  if (where_keyed) {
    p.residual_storage_ = sql::CloneConjunction(where_rest);
    p.residual_ = p.residual_storage_.get();
  }
  if (p.residual_ != nullptr) {
    p.filter_node_ = p.NewNode("Filter " + p.residual_->ToString());
    p.filter_node_->children.push_back(top);
    top = p.filter_node_;
  }
  if (aggregate != nullptr) {
    p.aggregate_node_ = p.NewNode(aggregate->Describe());
    p.aggregate_node_->children.push_back(top);
    top = p.aggregate_node_;
  }
  if (having_filter != nullptr) {
    p.having_node_ =
        p.NewNode("Having " + having_filter->predicate->ToString());
    p.having_node_->children.push_back(top);
    top = p.having_node_;
  }
  p.project_node_ = p.NewNode(project->Describe());
  p.project_node_->children.push_back(top);
  top = p.project_node_;
  if (sort != nullptr) {
    p.sort_node_ = p.NewNode(sort->Describe());
    p.sort_node_->children.push_back(top);
    top = p.sort_node_;
  }
  if (distinct != nullptr) {
    p.distinct_node_ = p.NewNode(distinct->Describe());
    p.distinct_node_->children.push_back(top);
    top = p.distinct_node_;
  }
  if (limit != nullptr) {
    p.limit_node_ = p.NewNode(limit->Describe());
    p.limit_node_->children.push_back(top);
    top = p.limit_node_;
    p.limit_value_ = limit->limit;
  }
  p.root_ = top;

  // The tail spec borrows the plan's expressions; the stages consume it
  // exactly like the statement-driven engine path.
  for (size_t i = 0; i < project->exprs.size(); ++i) {
    engine::SelectItemView item;
    item.expr = project->exprs[i].get();
    item.alias = i < project->columns.size() ? project->columns[i]
                                             : std::string();
    p.spec_.select.push_back(std::move(item));
  }
  if (having_filter != nullptr) {
    p.spec_.having = having_filter->predicate.get();
  }
  if (sort != nullptr) {
    for (size_t i = 0; i < sort->exprs.size(); ++i) {
      engine::OrderItemView item;
      item.expr = sort->exprs[i].get();
      item.descending =
          i < sort->descending.size() && sort->descending[i];
      p.spec_.order_by.push_back(item);
    }
  }
  if (aggregate != nullptr) {
    for (size_t g = 0; g < aggregate->group_expr_count; ++g) {
      p.spec_.group_by.push_back(aggregate->exprs[g].get());
    }
  }
  return p;
}

Result<Schema> PhysicalPlan::GroupSchema(const TableGroup& group) {
  if (!group.from_llm) return group.def->ToSchema(group.alias);
  GALOIS_ASSIGN_OR_RETURN(size_t key_idx, group.def->KeyIndex());
  const catalog::ColumnDef& key = group.def->columns[key_idx];
  Schema schema;
  schema.AddColumn(Column(key.name, key.type, group.alias));
  for (const catalog::ColumnDef* col : group.needed_columns) {
    schema.AddColumn(Column(col->name, col->type, group.alias));
  }
  return schema;
}

Result<Relation> PhysicalPlan::MaterialiseDb(TableGroup& group) {
  GALOIS_ASSIGN_OR_RETURN(const Relation* instance,
                          catalog_->GetInstance(group.def->name));
  GALOIS_ASSIGN_OR_RETURN(Schema schema, GroupSchema(group));
  Relation rel(std::move(schema), instance->rows());
  FinishRelationalOp(group.scan_node, rel.rows().size());
  return rel;
}

Result<Relation> PhysicalPlan::MaterialiseLlm(TableGroup& group,
                                              llm::LanguageModel* model,
                                              ExecutionTrace* trace) {
  const catalog::TableDef& def = *group.def;
  GALOIS_ASSIGN_OR_RETURN(size_t key_idx, def.KeyIndex());
  const catalog::ColumnDef& key_col = def.columns[key_idx];

  // 1. Leaf access: key scan, optionally with one pushed-down filter and
  // the LIMIT-derived paging bound (both decided by the planner).
  std::optional<llm::PromptFilter> scan_filter;
  size_t first_check = 0;
  if (group.push_first_filter) {
    scan_filter = group.llm_filters[0];
    first_check = 1;
  }
  llm::CostTap scan_tap(model);
  GALOIS_ASSIGN_OR_RETURN(
      std::vector<std::string> keys,
      LlmKeyScan(&scan_tap, def, options_, scan_filter, &group.scan_stats,
                 group.key_limit));
  FinishLlmOp(group.scan_node, scan_tap, keys.size());
  // Pages share round trips once some travel in flushes, so the scan
  // counts its own, and the label says what the flushes did.
  const KeyScanStats& paging = group.scan_stats;
  group.scan_node->stats.round_trips = paging.round_trips();
  if (paging.flushed > 0) {
    std::string& label = group.scan_node->label;
    label.insert(label.rfind(')'),
                 "; " + std::to_string(paging.flushed) +
                     " pages sent in " +
                     (paging.batches == 1
                          ? std::string("one batch")
                          : std::to_string(paging.batches) + " batches"));
  }

  // 2a. Optional critic pass over the scanned keys: "Is it true that the
  // name of the country New Italy is New Italy?" rejects hallucinated
  // entities before any further prompt is spent on them. One scheduler
  // phase over all scanned keys.
  if (options_.verify_cells && !keys.empty()) {
    std::vector<Value> claimed;
    claimed.reserve(keys.size());
    for (const std::string& key : keys) {
      claimed.push_back(Value::String(key));
    }
    llm::CostTap verify_tap(model);
    GALOIS_ASSIGN_OR_RETURN(
        std::vector<int> verdicts,
        LlmVerifyCellBatch(&verify_tap, def, keys, key_col, claimed,
                           options_));
    std::vector<std::string> confirmed;
    confirmed.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (verdicts[i] != 0) confirmed.push_back(std::move(keys[i]));
    }
    keys = std::move(confirmed);
    FinishLlmOp(group.key_verify_node, verify_tap, keys.size());
  } else if (group.key_verify_node != nullptr) {
    FinishRelationalOp(group.key_verify_node, keys.size());
  }

  // 2b. Selection: one filter-check phase per remaining predicate, each
  // over the keys that survived the previous predicates — the same prompt
  // set as the paper prototype's per-key short-circuiting loop, just
  // grouped so the scheduler can dispatch each phase as a batch. Batched
  // and sequential dispatch return identical keys: the model's verdicts
  // are stable per (key, filter). Filter phases chain on each other's
  // survivors, so they always run one after another.
  std::vector<std::string> surviving = keys;
  for (size_t f = first_check; f < group.llm_filters.size(); ++f) {
    if (surviving.empty()) break;
    llm::CostTap check_tap(model);
    GALOIS_ASSIGN_OR_RETURN(
        std::vector<int> verdicts,
        LlmFilterCheckBatch(&check_tap, def, surviving,
                            group.llm_filters[f], options_));
    std::vector<std::string> kept;
    kept.reserve(surviving.size());
    for (size_t i = 0; i < surviving.size(); ++i) {
      if (verdicts[i] == 1) kept.push_back(std::move(surviving[i]));
    }
    surviving = std::move(kept);
    FinishLlmOp(group.check_nodes[f - first_check], check_tap,
                surviving.size());
  }
  if (options_.record_provenance) {
    ScanProvenance scan;
    scan.table_alias = group.alias;
    scan.pages = group.scan_stats.pages;
    scan.keys = keys.size();
    scan.filtered = keys.size() - surviving.size();
    trace->scans.push_back(std::move(scan));
  }

  // 3. Attribute completion: one phase task per needed column retrieves
  // the whole column, optionally followed by a critic verification phase
  // over its non-NULL cells (Section 6 extensions). The column chains are
  // independent, so they overlap as far as the query's budget allows and
  // otherwise run in column order (see StartPhaseTask). Retrieval bills
  // through one per-operator tap and verification through another, so the
  // DAG attributes their spend separately.
  llm::CostTap retrieve_tap(model);
  llm::CostTap cell_verify_tap(model);
  std::vector<TaskHandle<Result<RetrievedColumn>>> chains;
  chains.reserve(group.needed_columns.size());
  for (const catalog::ColumnDef* col : group.needed_columns) {
    chains.push_back(StartPhaseTask<Result<RetrievedColumn>>(
        options_.budget, chains.size(),
        [this, &retrieve_tap, &cell_verify_tap, &def, col, &surviving] {
          return RetrieveColumn(&retrieve_tap, &cell_verify_tap, def, *col,
                                surviving, options_);
        }));
  }
  GALOIS_ASSIGN_OR_RETURN(std::vector<RetrievedColumn> columns,
                          JoinInOrder(std::move(chains)));
  if (options_.record_provenance) {
    for (RetrievedColumn& column : columns) {
      for (CellProvenance& p : column.provenances) {
        p.table_alias = group.alias;
        trace->cells.push_back(std::move(p));
      }
    }
  }
  FinishLlmOp(group.retrieve_node, retrieve_tap, surviving.size());
  FinishLlmOp(group.cell_verify_node, cell_verify_tap, surviving.size());
  GALOIS_ASSIGN_OR_RETURN(Schema schema, GroupSchema(group));
  Relation rel(std::move(schema));
  for (size_t r = 0; r < surviving.size(); ++r) {
    Tuple row;
    row.reserve(1 + columns.size());
    row.push_back(Value::String(surviving[r]));
    // Move the cells out of the column vectors: each value is consumed
    // exactly once, and completions can be long strings.
    for (RetrievedColumn& column : columns) {
      row.push_back(std::move(column.values[r]));
    }
    rel.AddRowUnchecked(std::move(row));
  }
  return rel;
}

void PhysicalPlan::InsertResidualNode(TableGroup& group,
                                      const MaterialisationLookupInfo& info) {
  std::ostringstream os;
  os << "ResidualFilter ";
  for (size_t i = 0; i < info.residual.size(); ++i) {
    if (i > 0) os << " AND ";
    const PredicateConjunct& c = info.residual[i];
    os << group.alias << "." << c.column << " " << c.op << " "
       << c.value.ToString();
  }
  os << " (in-memory re-check over a subsuming cache entry)";
  PhysicalNode* node = NewNode(os.str());
  // Splice above the group's subtree: every edge (and the root) that
  // pointed at group.top now points at the residual filter. The arena is
  // a deque, so earlier node addresses stay valid across NewNode.
  for (PhysicalNode& n : nodes_) {
    if (&n == node) continue;
    for (PhysicalNode*& child : n.children) {
      if (child == group.top) child = node;
    }
  }
  if (root_ == group.top) root_ = node;
  node->children.push_back(group.top);
  group.top = node;
  node->stats.executed = true;
  node->stats.rows = info.rows_after_residual;
}

Result<std::vector<Relation>> PhysicalPlan::MaterialiseAll(
    const std::vector<size_t>& groups, llm::LanguageModel* model,
    MaterialisationCache* cache, QueryOutput* out) {
  // Provenance runs bypass the cache: a hit cannot replay the per-cell
  // prompt/completion trace the caller asked for.
  const bool use_cache = cache != nullptr && !options_.record_provenance;

  // Indexed, like `pending`'s entries, by position in `groups`.
  const size_t n = groups.size();
  std::vector<std::optional<Relation>> materialised(n);
  std::vector<std::string> base_keys(n);
  std::vector<size_t> pending;  // LLM tables not served from cache
  for (size_t i = 0; i < n; ++i) {
    TableGroup& group = groups_[groups[i]];
    if (!group.from_llm) {
      GALOIS_ASSIGN_OR_RETURN(Relation rel, MaterialiseDb(group));
      materialised[i] = std::move(rel);
      continue;
    }
    // Gathered shard overlay: the table was materialised remotely (and
    // billed there); use it verbatim. Checked before the cache so a
    // coordinator-side cache can never shadow the shard the query was
    // actually billed for.
    TableOverlay* overlay = nullptr;
    for (TableOverlay& o : overlays_) {
      if (o.alias == group.alias) {
        overlay = &o;
        break;
      }
    }
    if (overlay != nullptr) {
      // Join keys and the tail resolve columns by position in this
      // schema, so a relation shaped any other way (it may come off the
      // wire) would join the wrong cells without a word.
      GALOIS_ASSIGN_OR_RETURN(Schema schema, GroupSchema(group));
      if (!(overlay->relation.schema() == schema)) {
        return Status::InvalidArgument(
            "overlay for alias \"" + group.alias +
            "\" is not shaped as the table's materialisation");
      }
      const int64_t overlay_rows =
          static_cast<int64_t>(overlay->relation.rows().size());
      for (PhysicalNode* node :
           {group.scan_node, group.key_verify_node, group.retrieve_node,
            group.cell_verify_node}) {
        if (node == nullptr) continue;
        node->stats.from_remote = true;
        node->stats.rows = overlay_rows;
      }
      for (PhysicalNode* node : group.check_nodes) {
        node->stats.from_remote = true;
        node->stats.rows = overlay_rows;
      }
      materialised[i] = std::move(overlay->relation);
      continue;
    }
    if (use_cache) {
      base_keys[i] =
          MaterialisationCache::BaseKey(*group.def, options_, model->name());
      MaterialisationLookupInfo info;
      std::optional<Relation> hit =
          cache->Lookup(base_keys[i], group.descriptor, *group.def,
                        group.needed_columns, group.alias, &info);
      CountLookup(info, out);
      if (hit.has_value()) {
        // The cached phases produced the entry's rows; on a subsumption
        // hit the residual filter then narrows them, and shows up as
        // its own operator above the group.
        const int64_t cached_rows = info.rows_before_residual;
        for (PhysicalNode* node :
             {group.scan_node, group.key_verify_node, group.retrieve_node,
              group.cell_verify_node}) {
          if (node == nullptr) continue;
          node->stats.from_cache = true;
          node->stats.rows = cached_rows;
        }
        for (PhysicalNode* node : group.check_nodes) {
          node->stats.from_cache = true;
          node->stats.rows = cached_rows;
        }
        if (info.predicate_subsumed && info.residual_conjuncts > 0) {
          InsertResidualNode(group, info);
        }
        materialised[i] = std::move(*hit);
        continue;
      }
    }
    pending.push_back(i);
  }

  // Independent LLM tables: one phase task each (see StartPhaseTask),
  // joined in FROM order. Each task records provenance into its own
  // trace and the traces merge in FROM order, so the combined trace is
  // the serial one. Tasks touch disjoint table groups (and the
  // thread-safe query tap), so the per-operator stats need no locking.
  std::vector<ExecutionTrace> traces(pending.size());
  std::vector<TaskHandle<Result<Relation>>> tasks;
  tasks.reserve(pending.size());
  for (size_t t = 0; t < pending.size(); ++t) {
    TableGroup* group = &groups_[groups[pending[t]]];
    ExecutionTrace* trace = &traces[t];
    tasks.push_back(StartPhaseTask<Result<Relation>>(
        options_.budget, t, [this, model, group, trace] {
          return MaterialiseLlm(*group, model, trace);
        }));
  }
  GALOIS_ASSIGN_OR_RETURN(std::vector<Relation> fresh,
                          JoinInOrder(std::move(tasks)));
  for (size_t t = 0; t < pending.size(); ++t) {
    const TableGroup& group = groups_[groups[pending[t]]];
    for (ScanProvenance& s : traces[t].scans) {
      out->trace.scans.push_back(std::move(s));
    }
    for (CellProvenance& c : traces[t].cells) {
      out->trace.cells.push_back(std::move(c));
    }
    out->scan_pages_prefetched += group.scan_stats.flushed;
    out->scan_pages_overfetched += group.scan_stats.overfetched;
    if (use_cache) {
      cache->Insert(base_keys[pending[t]], group.descriptor,
                    group.needed_columns, fresh[t]);
    }
    materialised[pending[t]] = std::move(fresh[t]);
  }

  std::vector<Relation> rels;
  rels.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rels.push_back(std::move(*materialised[i]));
  }
  return rels;
}

Result<QueryOutput> PhysicalPlan::Execute(llm::LanguageModel* model,
                                          MaterialisationCache* cache) {
  FitToModel(*model, &options_);
  QueryOutput out;
  std::vector<size_t> all(groups_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  GALOIS_ASSIGN_OR_RETURN(std::vector<Relation> rels,
                          MaterialiseAll(all, model, cache, &out));
  GALOIS_RETURN_IF_ERROR(CheckCancel(options_.control));

  // Relational tail: the same stages, in the same order, as the
  // statement-driven engine path (engine::ExecuteOnRelations).
  Relation working = std::move(rels[0]);
  for (size_t i = 0; i < joins_.size(); ++i) {
    const JoinStep& step = joins_[i];
    const PlanNode* j = step.logical;
    const Relation& right = rels[i + 1];
    if (!step.keys.empty()) {
      GALOIS_ASSIGN_OR_RETURN(
          working, engine::HashJoin(working, right, step.keys,
                                    step.extra.get(), j->join_type));
    } else if (!j->predicate) {
      GALOIS_ASSIGN_OR_RETURN(working, engine::CrossJoin(working, right));
    } else if (j->join_type == sql::JoinType::kLeft) {
      GALOIS_ASSIGN_OR_RETURN(
          working, engine::LeftOuterJoin(working, right, *j->predicate));
    } else {
      GALOIS_ASSIGN_OR_RETURN(
          working, engine::NestedLoopJoin(working, right, *j->predicate));
    }
    FinishRelationalOp(step.node, working.rows().size());
  }
  if (residual_ != nullptr) {
    GALOIS_ASSIGN_OR_RETURN(working, engine::Filter(working, *residual_));
    FinishRelationalOp(filter_node_, working.rows().size());
  }

  engine::ProjectionExprs proj = engine::ExpandSelect(spec_, working.schema());
  Relation source;
  bool use_agg_env = false;
  engine::AggregationPlan aplan;
  if (engine::NeedsAggregation(spec_)) {
    aplan = engine::PlanAggregation(spec_);
    GALOIS_ASSIGN_OR_RETURN(
        source,
        engine::HashAggregate(working, aplan.group_exprs, aplan.specs));
    use_agg_env = true;
    FinishRelationalOp(aggregate_node_, source.rows().size());
  } else {
    source = std::move(working);
  }

  GALOIS_ASSIGN_OR_RETURN(
      engine::ProjectedRows prows,
      engine::ProjectAndFilter(source, proj, spec_, use_agg_env,
                               aplan.agg_keys, aplan.group_exprs.size()));
  // HAVING and projection run fused (one per-row loop); both operators
  // report the fused stage's output.
  FinishRelationalOp(having_node_, prows.values.size());
  FinishRelationalOp(project_node_, prows.values.size());
  engine::SortProjected(&prows, spec_);
  FinishRelationalOp(sort_node_, prows.values.size());
  Relation rel =
      engine::FinishProjection(source.schema(), proj, std::move(prows));

  if (distinct_node_ != nullptr) {
    rel = engine::Distinct(rel);
    FinishRelationalOp(distinct_node_, rel.rows().size());
  }
  if (limit_node_ != nullptr && limit_value_ >= 0) {
    rel = engine::Limit(rel, static_cast<size_t>(limit_value_));
    FinishRelationalOp(limit_node_, rel.rows().size());
  } else {
    FinishRelationalOp(limit_node_, rel.rows().size());
  }
  out.relation = std::move(rel);
  return out;
}

std::string PhysicalPlan::Render() const {
  std::ostringstream os;
  if (root_ != nullptr) RenderRec(*root_, 0, &os);
  return os.str();
}

std::vector<ShardSpec> PhysicalPlan::LlmShards() const {
  std::vector<ShardSpec> shards;
  for (const TableGroup& group : groups_) {
    if (!group.from_llm) continue;
    ShardSpec spec;
    spec.table = group.def->name;
    spec.alias = group.alias;
    spec.columns.reserve(group.needed_columns.size());
    for (const catalog::ColumnDef* col : group.needed_columns) {
      spec.columns.push_back(col->name);
    }
    spec.descriptor = group.descriptor.Encode();
    shards.push_back(std::move(spec));
  }
  return shards;
}

void PhysicalPlan::SetOverlays(std::vector<TableOverlay> overlays) {
  overlays_ = std::move(overlays);
}

Result<QueryOutput> PhysicalPlan::ExecuteShard(const ShardSpec& shard,
                                               llm::LanguageModel* model,
                                               MaterialisationCache* cache) {
  FitToModel(*model, &options_);
  size_t index = 0;
  while (index < groups_.size() && groups_[index].alias != shard.alias) {
    ++index;
  }
  if (index == groups_.size() || !groups_[index].from_llm) {
    return Status::InvalidArgument("shard: no LLM table aliased \"" +
                                   shard.alias + "\" in this query");
  }
  // Version-skew defence: the locally compiled shard must match the
  // request byte-for-byte — same table, same needed columns, same
  // canonical predicate descriptor. A mismatch means the coordinator
  // planned against a different catalog or planner version; executing
  // anyway would return a well-formed but wrong partial relation.
  const TableGroup& group = groups_[index];
  std::vector<std::string> columns;
  columns.reserve(group.needed_columns.size());
  for (const catalog::ColumnDef* col : group.needed_columns) {
    columns.push_back(col->name);
  }
  if (group.def->name != shard.table || columns != shard.columns ||
      group.descriptor.Encode() != shard.descriptor) {
    return Status::InvalidArgument(
        "shard: compiled plan for alias \"" + shard.alias +
        "\" does not match the request (catalog or planner version skew)");
  }

  QueryOutput out;
  GALOIS_ASSIGN_OR_RETURN(std::vector<Relation> rels,
                          MaterialiseAll({index}, model, cache, &out));
  out.relation = std::move(rels[0]);
  return out;
}

}  // namespace galois::core
