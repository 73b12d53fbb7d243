// The shared pool starts workers on demand, and a query takes them only
// from its budget of parallel_batches - 1 pool slots: however many
// tables, column chains and per-key round trips it overlaps, a query pays
// for at most that many pool workers, not for the pool's cap. This suite
// must be the only user of ThreadPool::Shared() in its process, so it
// lives in its own binary.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/galois_executor.h"
#include "knowledge/workload.h"
#include "llm/simulated_llm.h"

namespace galois::core {
namespace {

TEST(PhasePoolTest, TwoTableJoinStaysInsideTheQueryBudget) {
  auto workload = knowledge::SpiderLikeWorkload::Create();
  ASSERT_TRUE(workload.ok()) << workload.status();
  llm::SimulatedLlm model(&workload->kb(), llm::ModelProfile::ChatGpt(),
                          &workload->catalog(), 7);
  ASSERT_TRUE(model.thread_safe());
  ASSERT_EQ(ThreadPool::Shared().num_started(), 0u);

  // The city table runs on this thread and the country table on a pool
  // worker when it gets a slot. At batch off each key is one round trip,
  // so each table's attribute phase also starts chunk pullers, as many
  // as the slots left allow. The workers the pool starts are bounded by
  // the budget, not by the tables, columns and keys of the query.
  GaloisExecutor galois(&model, &workload->catalog());
  const int parallel_batches = galois.options().parallel_batches;
  ASSERT_GT(parallel_batches, 1);
  ASSERT_FALSE(galois.options().batch_prompts);
  auto out = galois.RunSql(
      "SELECT ci.name, co.capital FROM city ci, country co "
      "WHERE ci.country = co.name");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(out->cost.num_prompts, 0);
  EXPECT_GE(ThreadPool::Shared().num_started(), 1u);
  EXPECT_LE(ThreadPool::Shared().num_started(),
            static_cast<size_t>(parallel_batches - 1));
}

}  // namespace
}  // namespace galois::core
