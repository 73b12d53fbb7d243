#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(values.size()));
  return values[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

const std::vector<double>& TailLadder() {
  static const std::vector<double> ladder = {50.0, 90.0, 95.0,
                                             99.0, 99.9, 99.99};
  return ladder;
}

int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  // Round before ceil so 99.9% of 1000 is exactly rank 999, not 1000.
  const double scaled = std::round(p / 100.0 * static_cast<double>(n) * 1e6) /
                        1e6;
  return n - static_cast<int64_t>(std::ceil(scaled));
}

double TailPercentileFor(int64_t n, int64_t min_beyond) {
  double best = 50.0;
  for (double p : TailLadder()) {
    if (SamplesBeyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

double PeakRssMib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
