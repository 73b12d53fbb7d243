#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"

namespace perfbench {

/// Wall-clock delay the loopback endpoint adds to every round trip, the
/// same in every workload.
constexpr double kEndpointDelayMs = 2.0;
/// Set-ups per measured run; setup_s is their median.
constexpr int kSetupRepeats = 15;

struct RunConfig {
  std::string workload;  // cold-llm | warm-serve | explore-mix
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string galoisd;  // galoisd binary
  std::string out_dir;  // this run's output directory
  std::string commit;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// The metrics of the final result line: every end-to-end metric for a
  /// measured run, every per-layer metric for a traced run.
  std::vector<Metric> metrics;
  /// Printed and recorded, not part of the result line.
  std::vector<Metric> extra;
  galois::Json details = galois::Json::Object();
  std::vector<std::string> errors;  // the first few failures, verbatim
  std::string layer_table;          // traced runs: per-layer self times
};

/// The workloads, their fixed tail percentiles and client counts.
const std::vector<std::string>& WorkloadNames();
double TailPercentileOf(const std::string& workload);

/// Runs one measured (config.trace false) or traced run.
galois::Result<RunReport> RunBenchmark(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
