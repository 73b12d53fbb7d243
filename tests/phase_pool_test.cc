// The shared pool starts workers on demand: a query that overlaps two
// phases pays for one pool worker, not for the pool's cap. This suite
// must be the only user of ThreadPool::Shared() in its process, so it
// lives in its own binary.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/galois_executor.h"
#include "knowledge/workload.h"
#include "llm/simulated_llm.h"

namespace galois::core {
namespace {

TEST(PhasePoolTest, TwoTableJoinStartsOnePhaseWorker) {
  auto workload = knowledge::SpiderLikeWorkload::Create();
  ASSERT_TRUE(workload.ok()) << workload.status();
  llm::SimulatedLlm model(&workload->kb(), llm::ModelProfile::ChatGpt(),
                          &workload->catalog(), 7);
  ASSERT_TRUE(model.thread_safe());
  ASSERT_EQ(ThreadPool::Shared().num_started(), 0u);

  // One needed column per table: the city table runs on this thread and
  // the country table on the shared pool, each with a single column
  // chain that runs on its table's thread. Each phase is one round trip,
  // so no chunk puller starts either, and the join overlaps on exactly
  // one pool worker.
  GaloisExecutor galois(&model, &workload->catalog());
  ASSERT_GT(galois.options().parallel_batches, 1);
  ASSERT_EQ(galois.options().max_batch_size, 0u);
  auto out = galois.RunSql(
      "SELECT ci.name, co.capital FROM city ci, country co "
      "WHERE ci.country = co.name");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(out->cost.num_prompts, 0);
  EXPECT_EQ(ThreadPool::Shared().num_started(), 1u);
}

}  // namespace
}  // namespace galois::core
