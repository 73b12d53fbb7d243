// Interactive Galois shell: type SQL, get relations materialised from the
// language model. Dot-commands switch models and toggle executor options.
// The shell is a thin client of the public API: it owns its transports
// (so spend persists across reconfiguration) and rebuilds a
// galois::Database around them whenever the model, the routes or the
// backends change; every statement runs through galois::Session and
// prints from the self-contained QueryResult.
//
//   $ build/examples/galois_shell
//   galois> SELECT name FROM country WHERE continent = 'Oceania';
//   galois> .model gpt-3
//   galois> .sessions 4
//   galois> .explain on
//   galois> .tables
//   galois> .quit
//
// Also works non-interactively: echo "SELECT ..." | galois_shell

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "eval/report.h"
#include "knowledge/workload.h"
#include "llm/http_llm.h"
#include "llm/model_profile.h"
#include "llm/simulated_llm.h"
#include "planner/planner.h"
#include "sql/parser.h"

namespace {

struct ShellState {
  const galois::knowledge::SpiderLikeWorkload* workload = nullptr;
  galois::llm::ModelProfile profile = galois::llm::ModelProfile::ChatGpt();
  galois::core::ExecutionOptions options;
  bool explain = false;
  bool ground_truth = false;  // run on the DB instead of the LLM
  int num_sessions = 1;       // .sessions N: concurrent async queries
  // Cross-query table reuse: survives across statements AND across
  // Database rebuilds (that is the point), cleared with `.cache clear`.
  galois::core::MaterialisationCache table_cache;
  bool cache_enabled = false;
  // Persistent result store (.store on [path]): journals the table cache
  // and the default backend's prompt cache so a later shell warm-starts
  // from disk. Empty = off.
  std::string store_path;
  // Shell-owned backends for .route targets: simulated profiles
  // materialise on demand, HTTP backends are added with `.backend http`.
  // Owned here (not by the Database) so `.backend` can show accumulated
  // per-backend spend across reconfigurations.
  std::map<std::string, std::unique_ptr<galois::llm::LanguageModel>>
      backends;
  // The Database assembled around the current model + routes; rebuilt by
  // Reopen() on every configuration change.
  std::unique_ptr<galois::Database> db;
  // The shell's session on that Database. Statements run through it so a
  // bare `.explain` can show the physical operator DAG of the last
  // query (Session::Explain); `.sessions N` fans out copies of it, which
  // share the same last-explain slot.
  std::optional<galois::Session> session;

  galois::llm::LanguageModel* GetOrCreateBackend(const std::string& name) {
    auto it = backends.find(name);
    if (it != backends.end()) return it->second.get();
    auto by_name = galois::llm::ModelProfile::ByName(name);
    if (!by_name.ok()) return nullptr;
    auto created = std::make_unique<galois::llm::SimulatedLlm>(
        &workload->kb(), by_name.value(), &workload->catalog());
    galois::llm::LanguageModel* raw = created.get();
    backends[name] = std::move(created);
    return raw;
  }

  /// (Re)opens the Database: current default model plus one external
  /// backend per .route target, routes from options.phase_models, the
  /// shell's persistent materialisation cache borrowed in.
  galois::Status Reopen() {
    galois::DatabaseOptions db_options;
    db_options.workload = workload;
    db_options.execution = options;
    db_options.materialisation_cache =
        cache_enabled ? &table_cache : nullptr;
    // The store journals prompt completions only through a PromptCache,
    // so .store implies one on the default backend.
    db_options.store.path = store_path;

    galois::BackendSpec default_spec;
    default_spec.name = "default";
    default_spec.simulated = profile;
    default_spec.prompt_cache = !store_path.empty();
    db_options.backends.push_back(std::move(default_spec));
    db_options.default_backend = "default";
    for (const auto& [phase, target] : options.phase_models) {
      (void)phase;
      if (target == "default" || db_options.HasBackend(target)) continue;
      galois::llm::LanguageModel* backend = GetOrCreateBackend(target);
      if (backend == nullptr) {
        return galois::Status::NotFound(
            "no backend or profile named '" + target +
            "' (add HTTP backends with .backend http <host> <port> "
            "[name])");
      }
      galois::BackendSpec spec;
      spec.name = target;
      spec.external = backend;
      db_options.backends.push_back(std::move(spec));
    }
    auto reopened = galois::Database::Open(std::move(db_options));
    if (!reopened.ok()) return reopened.status();
    db = std::move(reopened).value();
    session.emplace(db->CreateSession());
    return galois::Status::OK();
  }
};

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  <SQL statement>;         execute on the current model\n"
      "  .model <flan|tk|gpt-3|chatgpt>   switch model profile\n"
      "  .explain                 physical operator DAG of the last query\n"
      "                           with per-operator rows/round trips/cost\n"
      "  .explain <on|off>        print the logical plan before running\n"
      "  .truth <on|off>          run on the ground-truth DB instead\n"
      "  .pushdown <never|always|auto>    selection pushdown policy\n"
      "  .verify <on|off>         critic verification of every cell\n"
      "  .batch <on|off>          batched prompt round trips; a key scan\n"
      "                           sends pages 0-1 together, then the pages\n"
      "                           it predicts in growing batches\n"
      "  .parallel <n> [chunk]    the query's round trips in flight\n"
      "                           (default 4), batched or not: per-key\n"
      "                           prompts, chunks and independent phases\n"
      "                           (tables, column chains) overlap over a\n"
      "                           thread-safe model; 1 is the serial\n"
      "                           ladder; chunk sets max_batch_size\n"
      "  .sessions <n>            run each statement as n concurrent\n"
      "                           sessions (results verified identical)\n"
      "  .deadline <ms>           per-query deadline; 0 disables\n"
      "  .cache <on|off|clear|stats>  cross-query materialisation cache\n"
      "  .store on [path]         persist results to an on-disk store\n"
      "                           (default path galois_store); a later\n"
      "                           shell warm-starts from it\n"
      "  .store <off|stats|vacuum>    disable / inspect / compact it\n"
      "  .route <phase> <backend> send a phase (key-scan, filter-check,\n"
      "                           attribute, verify/critic, freeform) to a\n"
      "                           backend: a profile name or a .backend\n"
      "                           name; `.route clear` resets, `.route`\n"
      "                           lists routes\n"
      "  .backend                 list backends with per-backend spend\n"
      "  .backend http <host> <port> [name]   register an HTTP backend\n"
      "                           (OpenAI-compatible; name defaults to\n"
      "                           'http')\n"
      "  .tables                  list catalog tables\n"
      "  .options                 show executor options\n"
      "  .help | .quit\n");
}

bool HandleCommand(ShellState* state, const std::string& line) {
  std::vector<std::string> words =
      galois::Split(line, ' ', /*trim=*/true, /*skip_empty=*/true);
  const std::string& cmd = words[0];
  auto arg = [&words]() -> std::string {
    return words.size() > 1 ? galois::ToLower(words[1]) : "";
  };
  // Most commands mutate the configuration; they funnel through here so
  // the Database is reassembled exactly once per change.
  bool reopen = false;
  if (cmd == ".quit" || cmd == ".exit") return false;
  if (cmd == ".help") {
    PrintHelp();
  } else if (cmd == ".model") {
    auto profile = galois::llm::ModelProfile::ByName(arg());
    if (!profile.ok()) {
      std::printf("unknown model '%s' (try flan, tk, gpt-3, chatgpt)\n",
                  arg().c_str());
    } else {
      state->profile = profile.value();
      std::printf("model: %s\n", state->profile.name.c_str());
      reopen = true;
    }
  } else if (cmd == ".explain") {
    if (words.size() == 1) {
      // Bare `.explain`: the physical operator DAG the last query
      // actually executed, with per-operator statistics.
      std::string report = state->session->Explain();
      if (report.empty()) {
        std::printf("no query yet (run a statement, then .explain)\n");
      } else {
        std::printf("%s", report.c_str());
      }
    } else {
      state->explain = arg() != "off";
    }
  } else if (cmd == ".truth") {
    state->ground_truth = arg() != "off";
  } else if (cmd == ".verify") {
    state->options.verify_cells = arg() != "off";
    reopen = true;
  } else if (cmd == ".batch") {
    state->options.batch_prompts = arg() != "off";
    reopen = true;
  } else if (cmd == ".parallel") {
    int n = std::atoi(arg().c_str());
    state->options.parallel_batches = n < 1 ? 1 : n;
    if (words.size() > 2) {
      int chunk = std::atoi(words[2].c_str());
      state->options.max_batch_size =
          chunk < 0 ? 0 : static_cast<size_t>(chunk);
    } else if (state->options.parallel_batches > 1 &&
               state->options.max_batch_size == 0) {
      // Whole-phase batches leave nothing to overlap; pick a sane chunk.
      state->options.max_batch_size = 8;
    }
    reopen = true;
  } else if (cmd == ".sessions") {
    int n = std::atoi(arg().c_str());
    state->num_sessions = n < 1 ? 1 : n;
    std::printf("sessions: %d\n", state->num_sessions);
  } else if (cmd == ".deadline") {
    int64_t ms = std::atoll(arg().c_str());
    state->options.query_deadline_ms = ms < 0 ? 0 : ms;
    reopen = true;
  } else if (cmd == ".cache") {
    if (arg() == "clear") {
      state->table_cache.Clear();
      std::printf("materialisation cache cleared\n");
    } else if (arg() == "stats") {
      auto stats = state->table_cache.stats();
      std::printf(
          "materialisation cache: %s, %zu entries, %lld hits / %lld "
          "lookups (%lld exact, %lld by predicate subsumption, %lld by "
          "column projection), %lld insertions, %lld evictions\n",
          state->cache_enabled ? "on" : "off", state->table_cache.size(),
          static_cast<long long>(stats.hits),
          static_cast<long long>(stats.lookups),
          static_cast<long long>(stats.exact_hits),
          static_cast<long long>(stats.predicate_subsumption_hits),
          static_cast<long long>(stats.subsumption_hits),
          static_cast<long long>(stats.insertions),
          static_cast<long long>(stats.evictions));
    } else {
      state->cache_enabled = arg() != "off";
      reopen = true;
    }
  } else if (cmd == ".store") {
    if (arg() == "on") {
      state->store_path = words.size() > 2 ? words[2] : "galois_store";
      std::printf("persistent store: %s\n", state->store_path.c_str());
      reopen = true;
    } else if (arg() == "off") {
      state->store_path.clear();
      std::printf("persistent store off\n");
      reopen = true;
    } else if (arg() == "stats") {
      if (state->db->store() == nullptr) {
        std::printf("no store (enable with .store on [path])\n");
      } else {
        std::printf("%s", galois::eval::FormatStoreStats(
                              state->db->store()->stats())
                              .c_str());
      }
    } else if (arg() == "vacuum") {
      if (state->db->store() == nullptr) {
        std::printf("no store (enable with .store on [path])\n");
      } else {
        galois::Status s = state->db->store()->Vacuum();
        auto stats = state->db->store()->stats();
        if (s.ok()) {
          std::printf("vacuumed: %lld bytes live / %lld on disk\n",
                      static_cast<long long>(stats.live_bytes),
                      static_cast<long long>(stats.file_bytes));
        } else {
          std::printf("%s\n", s.ToString().c_str());
        }
      }
    } else {
      std::printf("usage: .store on [path] | off | stats | vacuum\n");
    }
  } else if (cmd == ".route") {
    if (words.size() == 1) {
      if (state->options.phase_models.empty()) {
        std::printf("no routes; every phase uses the default model %s\n",
                    state->profile.name.c_str());
      }
      for (const auto& [phase, backend] : state->options.phase_models) {
        std::printf("  %-12s -> %s\n", phase.c_str(), backend.c_str());
      }
    } else if (arg() == "clear") {
      state->options.phase_models.clear();
      std::printf("routes cleared\n");
      reopen = true;
    } else if (words.size() >= 3) {
      std::string phase = galois::ToLower(words[1]);
      std::string backend = words[2];
      auto saved = state->options.phase_models;
      state->options.phase_models[phase] = backend;
      galois::Status s = state->Reopen();
      if (!s.ok()) {
        state->options.phase_models = std::move(saved);
        (void)state->Reopen();  // restore the previous wiring
        std::printf("%s\n", s.ToString().c_str());
      } else {
        std::printf("route: %s -> %s\n", phase.c_str(), backend.c_str());
      }
    } else {
      std::printf("usage: .route <phase> <backend> | .route clear\n");
    }
  } else if (cmd == ".backend") {
    if (words.size() >= 4 && arg() == "http") {
      galois::llm::HttpLlmOptions http_options;
      http_options.host = words[2];
      http_options.port = std::atoi(words[3].c_str());
      std::string name = words.size() > 4 ? words[4] : "http";
      http_options.display_name = name;
      if (http_options.port <= 0) {
        std::printf("bad port '%s'\n", words[3].c_str());
      } else if (state->backends.count(name) > 0) {
        std::printf("backend '%s' already exists\n", name.c_str());
      } else {
        state->backends[name] =
            std::make_unique<galois::llm::HttpLlm>(http_options);
        std::printf("backend %s: http://%s:%d (route phases to it with "
                    ".route <phase> %s)\n",
                    name.c_str(), http_options.host.c_str(),
                    http_options.port, name.c_str());
      }
    } else if (words.size() == 1) {
      std::printf("  %-12s %s (default)\n", "default",
                  state->profile.name.c_str());
      for (const auto& [name, backend] : state->backends) {
        galois::llm::CostMeter cost = backend->cost();
        std::printf("  %-12s %s — %lld prompts, %lld batches so far\n",
                    name.c_str(), backend->name().c_str(),
                    static_cast<long long>(cost.num_prompts),
                    static_cast<long long>(cost.num_batches));
      }
    } else {
      std::printf("usage: .backend | .backend http <host> <port> [name]\n");
    }
  } else if (cmd == ".pushdown") {
    if (arg() == "always") {
      state->options.pushdown_policy =
          galois::core::PushdownPolicy::kAlways;
    } else if (arg() == "auto") {
      state->options.pushdown_policy = galois::core::PushdownPolicy::kAuto;
    } else {
      state->options.pushdown_policy =
          galois::core::PushdownPolicy::kNever;
    }
    reopen = true;
  } else if (cmd == ".tables") {
    for (const std::string& name :
         state->workload->catalog().TableNames()) {
      auto def = state->workload->catalog().GetTable(name);
      std::printf("  %-12s [%s] key=%s, %zu columns\n", name.c_str(),
                  galois::catalog::SourceKindName(
                      def.value()->default_source),
                  def.value()->key_column.c_str(),
                  def.value()->columns.size());
    }
  } else if (cmd == ".options") {
    std::printf("%s\n", state->options.ToString().c_str());
  } else {
    std::printf("unknown command %s (try .help)\n", cmd.c_str());
  }
  if (reopen) {
    galois::Status s = state->Reopen();
    if (!s.ok()) std::printf("%s\n", s.ToString().c_str());
  }
  return true;
}

void PrintResult(const galois::QueryResult& result) {
  std::printf("%s", result.relation.ToPrettyString(30).c_str());
  if (result.table_cache_hits > 0) {
    std::printf("(%lld prompts, %.1f s simulated, %lld/%lld tables from "
                "cache)\n",
                static_cast<long long>(result.cost.num_prompts),
                result.cost.simulated_latency_ms / 1000.0,
                static_cast<long long>(result.table_cache_hits),
                static_cast<long long>(result.table_cache_lookups));
  } else {
    std::printf("(%lld prompts, %.1f s simulated)\n",
                static_cast<long long>(result.cost.num_prompts),
                result.cost.simulated_latency_ms / 1000.0);
  }
  if (result.table_cache_subsumption_hits > 0) {
    std::printf("(%lld tables served by predicate subsumption)\n",
                static_cast<long long>(result.table_cache_subsumption_hits));
  }
  if (result.scan_pages_prefetched > 0) {
    std::printf("(%lld scan pages sent in batches, %lld overfetched)\n",
                static_cast<long long>(result.scan_pages_prefetched),
                static_cast<long long>(result.scan_pages_overfetched));
  }
  if (result.table_cache_store_hits > 0 || result.cost.store_hits > 0) {
    std::printf("(persistent store: %lld tables, %lld prompts served "
                "from disk)\n",
                static_cast<long long>(result.table_cache_store_hits),
                static_cast<long long>(result.cost.store_hits));
  }
  if (result.cost.by_model.size() > 1) {
    // Routed query: show where the prompts went.
    std::printf("(");
    bool first = true;
    for (const auto& [model, usage] : result.cost.by_model) {
      std::printf("%s%s: %lld", first ? "" : ", ", model.c_str(),
                  static_cast<long long>(usage.num_prompts));
      first = false;
    }
    std::printf(")\n");
  }
}

void RunSql(ShellState* state, const std::string& sql) {
  auto stmt = galois::sql::ParseSelect(sql);
  if (!stmt.ok()) {
    std::printf("%s\n", stmt.status().ToString().c_str());
    return;
  }
  if (state->explain) {
    auto plan = galois::planner::BuildLogicalPlan(
        stmt.value(), state->workload->catalog());
    if (plan.ok()) {
      galois::planner::OptimizeLlmFilters(
          plan.value().get(),
          state->options.pushdown_policy !=
              galois::core::PushdownPolicy::kNever);
      std::printf("%s", galois::planner::Explain(*plan.value()).c_str());
    }
  }
  if (state->ground_truth) {
    auto rd = galois::engine::ExecuteSelect(stmt.value(),
                                            state->workload->catalog());
    if (!rd.ok()) {
      std::printf("%s\n", rd.status().ToString().c_str());
      return;
    }
    std::printf("%s", rd->ToPrettyString(30).c_str());
    return;
  }

  if (state->num_sessions <= 1) {
    auto result = state->session->Query(sql);
    if (!result.ok()) {
      std::printf("%s\n", result.status().ToString().c_str());
      return;
    }
    PrintResult(*result);
    return;
  }

  // .sessions N: the same statement dispatched as N concurrent sessions
  // against the one Database — the demo of the concurrency contract.
  // Results must be byte-identical; per-session meters are printed so
  // exact per-query attribution is visible.
  std::vector<galois::Session> sessions;
  std::vector<galois::AsyncQuery> in_flight;
  for (int s = 0; s < state->num_sessions; ++s) {
    // Copies of the shell session: independent queries, shared
    // last-explain slot (whichever finishes last is what .explain shows).
    sessions.push_back(*state->session);
    in_flight.push_back(sessions.back().QueryAsync(sql));
  }
  std::vector<galois::QueryResult> results;
  for (int s = 0; s < state->num_sessions; ++s) {
    auto result = in_flight[s].Join();
    if (!result.ok()) {
      std::printf("session %d: %s\n", s,
                  result.status().ToString().c_str());
      return;
    }
    results.push_back(std::move(result).value());
  }
  PrintResult(results[0]);
  bool identical = true;
  for (int s = 1; s < state->num_sessions; ++s) {
    if (!results[s].relation.SameContents(results[0].relation)) {
      identical = false;
    }
  }
  std::printf("%d concurrent sessions: results %s;", state->num_sessions,
              identical ? "identical" : "DIVERGED");
  for (int s = 0; s < state->num_sessions; ++s) {
    std::printf(" s%d=%lldp/%.0fms", s,
                static_cast<long long>(results[s].cost.num_prompts),
                results[s].wall_ms);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  auto workload = galois::knowledge::SpiderLikeWorkload::Create();
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  ShellState state;
  state.workload = &workload.value();
  galois::Status opened = state.Reopen();
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.ToString().c_str());
    return 1;
  }

  bool tty = isatty(0);
  if (tty) {
    std::printf("Galois shell — SQL over a (simulated) LLM. .help for "
                "commands.\nmodel: %s\n",
                state.profile.name.c_str());
  }
  std::string buffer;
  std::string line;
  while (true) {
    if (tty) std::printf(buffer.empty() ? "galois> " : "   ...> ");
    if (!std::getline(std::cin, line)) break;
    std::string trimmed = galois::Trim(line);
    if (trimmed.empty()) continue;
    if (buffer.empty() && trimmed[0] == '.') {
      if (!HandleCommand(&state, trimmed)) break;
      continue;
    }
    buffer += (buffer.empty() ? "" : " ") + trimmed;
    if (buffer.back() != ';') continue;  // statements end with ';'
    std::string sql = buffer.substr(0, buffer.size() - 1);
    buffer.clear();
    RunSql(&state, sql);
  }
  return 0;
}
