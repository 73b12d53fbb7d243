// perfbench_selftest — checks of the benchmark itself.
//
//   perfbench_selftest --galoisd PATH --out DIR
//
// 1. The same seed gives the same SQL (and another seed another stream).
// 2. The loopback endpoint's completions and CostMeter equal the
//    in-process SimulatedLlm's for the same prompts.
// 3. The tail rule picks the highest percentile with at least ten samples
//    beyond it.
// 4. A short run of each workload passes the correctness gate.
// Exit status 0 when every check passes.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "endpoint.h"
#include "llm/http_llm.h"
#include "llm/model_profile.h"
#include "llm/simulated_llm.h"
#include "stats.h"
#include "streams.h"
#include "workloads.h"

namespace {

namespace llm = galois::llm;
using galois::knowledge::SpiderLikeWorkload;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// Records every prompt that reaches the model below it.
class Recorder : public llm::LanguageModel {
 public:
  explicit Recorder(llm::LanguageModel* inner) : inner_(inner) {}
  const std::string& name() const override { return inner_->name(); }
  galois::Result<llm::Completion> Complete(const llm::Prompt& p) override {
    prompts.push_back(p);
    return inner_->Complete(p);
  }
  galois::Result<std::vector<llm::Completion>> CompleteBatch(
      const std::vector<llm::Prompt>& ps) override {
    prompts.insert(prompts.end(), ps.begin(), ps.end());
    return inner_->CompleteBatch(ps);
  }
  galois::Result<llm::Completion> CompleteMetered(
      const llm::Prompt& p, llm::CostMeter* usage) override {
    prompts.push_back(p);
    return inner_->CompleteMetered(p, usage);
  }
  galois::Result<std::vector<llm::Completion>> CompleteBatchMetered(
      const std::vector<llm::Prompt>& ps, llm::CostMeter* usage) override {
    prompts.insert(prompts.end(), ps.begin(), ps.end());
    return inner_->CompleteBatchMetered(ps, usage);
  }
  llm::CostMeter cost() const override { return inner_->cost(); }
  void ResetCost() override { inner_->ResetCost(); }

  std::vector<llm::Prompt> prompts;

 private:
  llm::LanguageModel* inner_;
};

void CheckStreams(const SpiderLikeWorkload& w) {
  using perfbench::ColdSessionStream;
  using perfbench::ExploreStream;
  using perfbench::WarmStream;
  Check(ColdSessionStream(w, 3, 1, 2) == ColdSessionStream(w, 3, 1, 2),
        "cold-llm: same seed, same SQL");
  Check(ColdSessionStream(w, 3, 1, 2) != ColdSessionStream(w, 4, 1, 2),
        "cold-llm: another seed, another order");
  Check(ColdSessionStream(w, 3, 0, 1) != ColdSessionStream(w, 3, 1, 1),
        "cold-llm: sessions differ");
  Check(WarmStream(w, 3) == WarmStream(w, 3), "warm-serve: same seed, same SQL");
  Check(WarmStream(w, 3) != WarmStream(w, 4),
        "warm-serve: another seed, another order");
  auto sql = [&](uint64_t seed) {
    std::vector<std::string> out;
    for (const auto& q : ExploreStream(w, seed, 300)) out.push_back(q.sql);
    return out;
  };
  Check(sql(3) == sql(3), "explore-mix: same seed, same SQL");
  Check(sql(3) != sql(4), "explore-mix: another seed, another stream");
}

void CheckEndpoint(const SpiderLikeWorkload& w) {
  // Collect real prompts by running a few queries over a recorder.
  llm::SimulatedLlm source(&w.kb(), llm::ModelProfile::ChatGpt(),
                           &w.catalog(), 7);
  Recorder recorder(&source);
  galois::DatabaseOptions options;
  options.workload = &w;
  galois::BackendSpec backend;
  backend.name = "rec";
  backend.external = &recorder;
  options.backends.push_back(backend);
  auto db = galois::Database::Open(std::move(options));
  Check(db.ok(), "endpoint: recording database opens");
  if (!db.ok()) return;
  galois::Session session = db.value()->CreateSession();
  for (int id : {1, 3, 16, 33}) {
    (void)session.Query(w.GetQuery(id).value()->sql);
  }
  std::vector<llm::Prompt> prompts = recorder.prompts;
  if (prompts.size() > 60) prompts.resize(60);
  Check(prompts.size() >= 20, "endpoint: collected prompts");
  if (prompts.size() < 20) return;

  perfbench::LlmEndpoint endpoint(&w, perfbench::kEndpointDelayMs);
  Check(endpoint.Start().ok(), "endpoint: starts");
  llm::HttpLlm remote(endpoint.ClientOptions());
  llm::SimulatedLlm local(&w.kb(), llm::ModelProfile::ChatGpt(), &w.catalog(),
                          7);
  bool same_text = true;
  for (const llm::Prompt& p : prompts) {
    auto a = remote.Complete(p);
    auto b = local.Complete(p);
    same_text = same_text && a.ok() && b.ok() && a.value().text == b.value().text;
  }
  const std::vector<llm::Prompt> batch(prompts.begin(), prompts.begin() + 12);
  auto ra = remote.CompleteBatch(batch);
  auto rb = local.CompleteBatch(batch);
  bool same_batch = ra.ok() && rb.ok() && ra.value().size() == rb.value().size();
  for (size_t i = 0; same_batch && i < ra.value().size(); ++i) {
    same_batch = ra.value()[i].text == rb.value()[i].text;
  }
  Check(same_text, "endpoint: single completions equal in-process ones");
  Check(same_batch, "endpoint: batch completions equal in-process ones");
  const llm::CostMeter m = remote.cost();
  const llm::CostMeter n = local.cost();
  Check(m.num_prompts == n.num_prompts && m.prompt_tokens == n.prompt_tokens &&
            m.completion_tokens == n.completion_tokens &&
            m.num_batches == n.num_batches &&
            std::fabs(m.simulated_latency_ms - n.simulated_latency_ms) < 1e-6,
        "endpoint: CostMeter equals the in-process meter (" +
            std::to_string(m.num_prompts) + " prompts, " +
            std::to_string(m.prompt_tokens + m.completion_tokens) +
            " tokens)");
  const perfbench::EndpointStats s = endpoint.Snapshot();
  Check(s.requests == static_cast<int64_t>(prompts.size()) + 1 &&
            s.prompts == static_cast<int64_t>(prompts.size() + batch.size()) &&
            s.errors == 0,
        "endpoint: counts requests and prompts");
  endpoint.Stop();
}

void CheckTailRule() {
  using perfbench::SamplesBeyond;
  using perfbench::TailPercentileFor;
  Check(TailPercentileFor(1000) == 99.0, "tail: 1000 samples -> p99");
  Check(TailPercentileFor(999) == 95.0, "tail: 999 samples -> p95");
  Check(TailPercentileFor(10000) == 99.9, "tail: 10000 samples -> p99.9");
  Check(TailPercentileFor(100000) == 99.99, "tail: 100000 samples -> p99.99");
  Check(TailPercentileFor(100) == 90.0, "tail: 100 samples -> p90");
  Check(TailPercentileFor(199) == 90.0, "tail: 199 samples -> p90");
  Check(TailPercentileFor(200) == 95.0, "tail: 200 samples -> p95");
  Check(TailPercentileFor(20) == 50.0 && TailPercentileFor(5) == 50.0,
        "tail: tiny samples -> p50");
  Check(SamplesBeyond(1000, 99.0) == 10 && SamplesBeyond(1000, 99.9) == 1,
        "tail: samples beyond a percentile");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Check(perfbench::Percentile(v, 50) == 50 && perfbench::Percentile(v, 99) == 99 &&
            perfbench::Percentile(v, 100) == 100,
        "tail: nearest-rank percentile");
}

void CheckShortRuns(const std::string& galoisd, const std::string& out) {
  for (const std::string& name : perfbench::WorkloadNames()) {
    perfbench::RunConfig config;
    config.workload = name;
    config.seed = 11;
    config.seconds = 1.0;
    config.galoisd = galoisd;
    config.out_dir = out + "/selftest-" + name;
    config.commit = "selftest";
    auto report = perfbench::RunBenchmark(config);
    const bool ran = report.ok();
    Check(ran, name + ": short run completes" +
                   (ran ? "" : " (" + report.status().ToString() + ")"));
    if (!ran) continue;
    const auto& r = report.value();
    Check(r.correct && r.failed == 0 && r.attempted > 0,
          name + ": correctness gate passes (" + std::to_string(r.attempted) +
              " answers checked" +
              (r.errors.empty() ? "" : ", first failure: " + r.errors[0]) +
              ")");
    bool positive = r.metrics.size() == 6;
    for (const auto& m : r.metrics) positive = positive && m.value > 0;
    Check(positive, name + ": every end-to-end metric is reported and > 0");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string galoisd, out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--galoisd") galoisd = argv[i + 1];
    if (flag == "--out") out = argv[i + 1];
  }
  if (galoisd.empty() || out.empty()) {
    std::fprintf(stderr, "usage: %s --galoisd PATH --out DIR\n", argv[0]);
    return 2;
  }
  auto workload = SpiderLikeWorkload::Create();
  if (!workload.ok()) return 1;
  CheckStreams(workload.value());
  CheckTailRule();
  CheckEndpoint(workload.value());
  CheckShortRuns(galoisd, out);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "OK" : "FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
