#ifndef PERFBENCH_ENV_STAMP_H_
#define PERFBENCH_ENV_STAMP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"

namespace perfbench {

/// What every result is recorded with: how the code was built, on what
/// machine, from which commit, with which seed, endpoint delay and
/// galoisd command line.
struct EnvStamp {
  std::string build_type;
  bool optimised = false;
  std::string compiler;
  std::string cxx_flags;
  int nproc = 0;
  std::string commit;
  uint64_t seed = 0;
  double delay_ms = 0.0;
  std::vector<std::string> galoisd_argv;  // empty for in-process runs
  /// Share of CPU time the host took from this machine during the run
  /// (the "steal" column of /proc/stat); -1 when unknown.
  double cpu_steal_pct = -1.0;
};

/// Cumulative CPU time counters of the machine (/proc/stat), for
/// StealPercent over an interval.
struct CpuTimes {
  int64_t steal = 0;
  int64_t total = 0;
};
CpuTimes ReadCpuTimes();
double StealPercent(const CpuTimes& before, const CpuTimes& after);

/// Samples the machine's CPU counters every 50 ms from a background
/// thread, so the host's CPU steal can be told for any part of a run.
class StealSampler {
 public:
  StealSampler() = default;
  ~StealSampler() { Stop(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  void Start();
  void Stop();
  /// Steal share (%) between the samples around [from_ns, to_ns]
  /// (steady-clock ns); -1 when the interval was not sampled. Call after
  /// Stop().
  double StealPct(int64_t from_ns, int64_t to_ns) const;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::pair<int64_t, CpuTimes>> samples_;  // written by thread_
  std::thread thread_;
};

EnvStamp MakeEnvStamp(const std::string& commit, uint64_t seed,
                      double delay_ms);
galois::Json EnvStampToJson(const EnvStamp& stamp);
std::string FormatEnvStamp(const EnvStamp& stamp);

}  // namespace perfbench

#endif  // PERFBENCH_ENV_STAMP_H_
