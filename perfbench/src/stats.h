#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// Nearest-rank percentile of `values` (copied and sorted), `p` in
/// [0, 100]. 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

double Median(std::vector<double> values);

/// Percentiles the benchmark may report as a tail, lowest first.
const std::vector<double>& TailLadder();

/// Number of samples strictly above the `p`th percentile of `n` samples
/// under the nearest-rank rule: n - ceil(p / 100 * n).
int64_t SamplesBeyond(int64_t n, double p);

/// The highest ladder percentile with at least `min_beyond` samples
/// beyond it (the tail rule), or 50 when even the median has fewer.
double TailPercentileFor(int64_t n, int64_t min_beyond = 10);

/// Peak resident set (VmHWM) of process `pid` in MiB; 0 when it cannot
/// be read. `pid` 0 means this process.
double PeakRssMib(int pid = 0);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
