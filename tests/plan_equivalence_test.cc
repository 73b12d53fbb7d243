// Plan-driven execution equivalence: the physical operator DAG compiled
// from planner::BuildLogicalPlan must reproduce one recorded golden byte
// for byte — relations, CostMeter and provenance trace — across the full
// 46-query workload.
//
// Both schedules are checked against tests/golden/plan_equivalence.golden
// (recorded at parallel_batches = 1; regenerate with
// GALOIS_REGEN_PLAN_GOLDEN=1): parallel_batches = 1, where every phase
// runs serially on the calling thread, and parallel_batches = 4, where
// chunks, column chains and tables overlap. Both run with batch_prompts
// on at max_batch_size 4, so each unfiltered key scan fetches the pages
// the catalog predicts in chunked flushes. Runs under the TSan CI job:
// the overlapped run hammers the shared pool (ThreadPool::Shared())
// through the compiled operator DAG.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/galois_executor.h"
#include "knowledge/workload.h"
#include "llm/simulated_llm.h"

#ifndef GALOIS_SOURCE_DIR
#define GALOIS_SOURCE_DIR "."
#endif

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

ExecutionOptions GoldenOptions(int parallel_batches) {
  ExecutionOptions opts;
  opts.batch_prompts = true;
  opts.max_batch_size = 4;
  opts.parallel_batches = parallel_batches;
  opts.verify_cells = true;
  opts.record_provenance = true;
  return opts;
}

/// FNV-1a over the per-cell prompt/completion texts: binds the golden to
/// the exact prompts issued without storing megabytes of text.
uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Canonical text rendering of one query's QueryOutput. Everything the
/// equivalence bar covers is in here: schema, rows, exact cost counts,
/// latency (to the printed precision), scan and cell provenance
/// including a hash of every prompt/completion pair.
std::string Canonicalise(const std::string& id, const std::string& sql,
                         const QueryOutput& out) {
  std::ostringstream os;
  os << "== " << id << " ==\n";
  os << "sql: " << sql << "\n";
  os << "schema:";
  for (const Column& c : out.relation.schema().columns()) {
    os << " " << c.QualifiedName();
  }
  os << "\n";
  for (const Tuple& row : out.relation.rows()) {
    os << "row:";
    for (const Value& v : row) {
      os << " [" << (v.is_null() ? "NULL" : v.ToString()) << "]";
    }
    os << "\n";
  }
  const llm::CostMeter& m = out.cost;
  char latency[64];
  std::snprintf(latency, sizeof(latency), "%.6f", m.simulated_latency_ms);
  os << "cost: prompts=" << m.num_prompts << " batches=" << m.num_batches
     << " cache_hits=" << m.cache_hits << " ptok=" << m.prompt_tokens
     << " ctok=" << m.completion_tokens << " latency_ms=" << latency
     << "\n";
  for (const ScanProvenance& s : out.trace.scans) {
    os << "scan: " << s.table_alias << " pages=" << s.pages
       << " keys=" << s.keys << " filtered=" << s.filtered << "\n";
  }
  uint64_t text_hash = 14695981039346656037ull;
  for (const CellProvenance& c : out.trace.cells) {
    os << "cell: " << c.table_alias << "." << c.column << "[" << c.key
       << "]=" << (c.value.is_null() ? "NULL" : c.value.ToString())
       << (c.verified ? " verified" : "") << (c.rejected ? " rejected" : "")
       << "\n";
    text_hash = Fnv1a(text_hash, c.prompt);
    text_hash = Fnv1a(text_hash, c.completion);
  }
  os << "prompt_hash: " << text_hash << "\n";
  return os.str();
}

std::string GoldenPath() {
  return std::string(GALOIS_SOURCE_DIR) +
         "/tests/golden/plan_equivalence.golden";
}

/// Every workload query at `parallel_batches`, canonicalised.
std::string RenderWorkload(int parallel_batches) {
  std::ostringstream os;
  for (const knowledge::QuerySpec& q : W().queries()) {
    llm::SimulatedLlm model(&W().kb(), llm::ModelProfile::ChatGpt(),
                            &W().catalog(), 7);
    GaloisExecutor galois(&model, &W().catalog(),
                          GoldenOptions(parallel_batches));
    auto out = galois.RunSql(q.sql);
    if (!out.ok()) {
      os << "== q" << q.id << " ==\nsql: " << q.sql
         << "\nerror: " << out.status().ToString() << "\n";
      continue;
    }
    os << Canonicalise("q" + std::to_string(q.id), q.sql, *out);
  }
  return os.str();
}

/// Compares `rendered` with the golden block by block, so a mismatch
/// names the query.
void ExpectMatchesGolden(const std::string& rendered,
                         const std::string& golden) {
  std::istringstream got(rendered), want(golden);
  std::string got_line, want_line;
  std::string current_query;
  size_t line_no = 0;
  while (true) {
    bool more_got = static_cast<bool>(std::getline(got, got_line));
    bool more_want = static_cast<bool>(std::getline(want, want_line));
    if (!more_got && !more_want) break;
    ++line_no;
    if (more_want && want_line.rfind("== ", 0) == 0) {
      current_query = want_line;
    }
    ASSERT_EQ(more_got, more_want)
        << "golden length mismatch near line " << line_no << " ("
        << current_query << ")";
    ASSERT_EQ(got_line, want_line)
        << "golden mismatch at line " << line_no << " (" << current_query
        << ")";
  }
}

TEST(PlanEquivalenceTest, WorkloadMatchesLadderGolden) {
  if (std::getenv("GALOIS_REGEN_PLAN_GOLDEN") != nullptr) {
    std::ofstream f(GoldenPath());
    ASSERT_TRUE(f.good()) << "cannot write " << GoldenPath();
    f << RenderWorkload(1);
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }
  std::ifstream f(GoldenPath());
  ASSERT_TRUE(f.good())
      << "missing golden " << GoldenPath()
      << " (regenerate with GALOIS_REGEN_PLAN_GOLDEN=1)";
  std::ostringstream golden;
  golden << f.rdbuf();
  for (int parallel_batches : {1, 4}) {
    SCOPED_TRACE("parallel_batches=" + std::to_string(parallel_batches));
    ExpectMatchesGolden(RenderWorkload(parallel_batches), golden.str());
  }
}

}  // namespace
}  // namespace galois::core
