// A Database's key-scan history: a batched key scan sends, in its first
// round trip, the pages the Database's last scan of its table needed
// (core::KeyScanLengths). Keys and relations never depend on that
// history; prompts and round trips do. Per model profile, the second pass
// of the 46 workload queries over one Database overfetches nothing and
// bills exactly the batch-off prompts, and four sessions running the 46
// queries concurrently (under TSan in CI) return batch off's relations
// with per-query meters that sum to the stack's delta.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "knowledge/workload.h"
#include "llm/model_profile.h"

namespace galois {
namespace {

const knowledge::SpiderLikeWorkload& W() {
  static const auto* w = []() {
    auto r = knowledge::SpiderLikeWorkload::Create();
    EXPECT_TRUE(r.ok());
    return new knowledge::SpiderLikeWorkload(std::move(r).value());
  }();
  return *w;
}

std::unique_ptr<Database> OpenDb(const llm::ModelProfile& profile,
                                 core::ExecutionOptions execution) {
  DatabaseOptions options;
  options.workload = &W();
  BackendSpec backend;
  backend.name = profile.name;
  backend.simulated = profile;
  options.backends.push_back(std::move(backend));
  options.execution = std::move(execution);
  auto db = Database::Open(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status();
  return db.ok() ? std::move(db).value() : nullptr;
}

core::ExecutionOptions BatchOn() {
  core::ExecutionOptions options;
  options.batch_prompts = true;
  return options;
}

/// The 46 workload queries at batch off, one at a time.
std::vector<QueryResult> BatchOffResults(const llm::ModelProfile& profile) {
  std::unique_ptr<Database> db = OpenDb(profile, core::ExecutionOptions());
  std::vector<QueryResult> results;
  if (db == nullptr) return results;
  Session session = db->CreateSession();
  for (const knowledge::QuerySpec& q : W().queries()) {
    auto result = session.Query(q.sql);
    EXPECT_TRUE(result.ok()) << q.sql << ": " << result.status();
    results.push_back(result.ok() ? std::move(result).value()
                                  : QueryResult());
  }
  return results;
}

TEST(ScanHistoryTest, SecondPassBillsTheBatchOffPromptsPerProfile) {
  // One Database per profile runs the 46 queries twice at batch on, in
  // one chunk per phase and one round trip at a time. The first pass
  // learns each table's scan length on that table's first scan, so only
  // first scans overfetch; the second pass overfetches nothing, so it
  // bills exactly batch off's prompts. Every relation equals batch off's.
  struct Case {
    llm::ModelProfile profile;
    int64_t first_overfetched;
    int64_t second_prompts;
    int64_t second_batches;
  };
  for (const Case& c : {Case{llm::ModelProfile::ChatGpt(), 6, 3154, 135},
                        Case{llm::ModelProfile::Gpt3(), 0, 4009, 135},
                        Case{llm::ModelProfile::Flan(), 4, 741, 134},
                        Case{llm::ModelProfile::Tk(), 7, 1009, 132}}) {
    SCOPED_TRACE(c.profile.name);
    const std::vector<QueryResult> off = BatchOffResults(c.profile);
    ASSERT_EQ(off.size(), W().queries().size());
    int64_t off_prompts = 0;
    for (const QueryResult& r : off) off_prompts += r.cost.num_prompts;
    EXPECT_EQ(off_prompts, c.second_prompts);

    core::ExecutionOptions on = BatchOn();
    on.parallel_batches = 1;
    std::unique_ptr<Database> db = OpenDb(c.profile, on);
    ASSERT_NE(db, nullptr);
    Session session = db->CreateSession();
    int64_t overfetched[2] = {0, 0};
    int64_t prompts[2] = {0, 0};
    int64_t batches[2] = {0, 0};
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < off.size(); ++i) {
        const std::string& sql = W().queries()[i].sql;
        SCOPED_TRACE("pass " + std::to_string(pass + 1) + ": " + sql);
        auto result = session.Query(sql);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_TRUE(result->relation.SameContents(off[i].relation));
        EXPECT_EQ(result->cost.num_prompts,
                  off[i].cost.num_prompts + result->scan_pages_overfetched);
        overfetched[pass] += result->scan_pages_overfetched;
        prompts[pass] += result->cost.num_prompts;
        batches[pass] += result->cost.num_batches;
      }
    }
    EXPECT_EQ(overfetched[0], c.first_overfetched);
    EXPECT_EQ(prompts[0], c.second_prompts + c.first_overfetched);
    EXPECT_EQ(overfetched[1], 0);
    EXPECT_EQ(prompts[1], c.second_prompts);
    EXPECT_EQ(batches[1], c.second_batches);
    EXPECT_LE(batches[1], batches[0]);
  }
}

TEST(ScanHistoryTest, ConcurrentSessionsReturnTheBatchOffRelations) {
  // Four sessions dispatch the 46 queries at once at batch on over one
  // Database, so first scans of a table may race and both size from page
  // 0. Whatever the history, every relation is batch off's, every query
  // bills batch off's prompts plus its overfetched pages, and the
  // per-query meters sum to the stack-wide delta.
  constexpr int kSessions = 4;
  const llm::ModelProfile profile = llm::ModelProfile::ChatGpt();
  const std::vector<QueryResult> off = BatchOffResults(profile);
  ASSERT_EQ(off.size(), W().queries().size());

  std::unique_ptr<Database> db = OpenDb(profile, BatchOn());
  ASSERT_NE(db, nullptr);
  const llm::CostMeter before = db->model()->cost();
  std::vector<Session> sessions;
  std::vector<AsyncQuery> in_flight;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(db->CreateSession());
    for (const knowledge::QuerySpec& q : W().queries()) {
      in_flight.push_back(sessions.back().QueryAsync(q.sql));
    }
  }
  llm::CostMeter summed;
  for (size_t i = 0; i < in_flight.size(); ++i) {
    const size_t q = i % off.size();
    SCOPED_TRACE(W().queries()[q].sql);
    auto result = in_flight[i].Join();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->relation.SameContents(off[q].relation));
    EXPECT_EQ(result->cost.num_prompts,
              off[q].cost.num_prompts + result->scan_pages_overfetched);
    summed += result->cost;
  }
  const llm::CostMeter stack_delta = db->model()->cost() - before;
  EXPECT_EQ(stack_delta.num_prompts, summed.num_prompts);
  EXPECT_EQ(stack_delta.prompt_tokens, summed.prompt_tokens);
  EXPECT_EQ(stack_delta.completion_tokens, summed.completion_tokens);
  EXPECT_EQ(stack_delta.num_batches, summed.num_batches);
}

}  // namespace
}  // namespace galois
