#include "env_stamp.h"

#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>

#include "stats.h"

namespace perfbench {

EnvStamp MakeEnvStamp(const std::string& commit, uint64_t seed,
                      double delay_ms) {
  EnvStamp s;
  s.build_type = PERFBENCH_BUILD_TYPE;
  s.cxx_flags = PERFBENCH_CXX_FLAGS;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  s.optimised = s.build_type == "Release" || s.build_type == "RelWithDebInfo";
#else
  s.optimised = false;
#endif
#if defined(__clang__)
  s.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  s.compiler = "gcc " __VERSION__;
#else
  s.compiler = "unknown";
#endif
  s.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  s.commit = commit;
  s.seed = seed;
  s.delay_ms = delay_ms;
  return s;
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  int64_t value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    t.total += value;
    if (field == 7) t.steal = value;
  }
  return t;
}

double StealPercent(const CpuTimes& before, const CpuTimes& after) {
  const int64_t total = after.total - before.total;
  return total > 0 ? 100.0 * static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : -1.0;
}

void StealSampler::Start() {
  stop_.store(false);
  samples_.clear();
  samples_.emplace_back(NowNs(), ReadCpuTimes());
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      samples_.emplace_back(NowNs(), ReadCpuTimes());
    }
  });
}

void StealSampler::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  thread_.join();
  samples_.emplace_back(NowNs(), ReadCpuTimes());
}

double StealSampler::StealPct(int64_t from_ns, int64_t to_ns) const {
  const std::pair<int64_t, CpuTimes>* before = nullptr;
  const std::pair<int64_t, CpuTimes>* after = nullptr;
  for (const auto& s : samples_) {
    if (s.first <= from_ns) before = &s;
    if (s.first >= to_ns && after == nullptr) after = &s;
  }
  if (before == nullptr || after == nullptr) return -1.0;
  return StealPercent(before->second, after->second);
}

galois::Json EnvStampToJson(const EnvStamp& s) {
  using galois::Json;
  Json j = Json::Object();
  j.Set("build_type", Json::String(s.build_type));
  j.Set("optimised", Json::Bool(s.optimised));
  j.Set("compiler", Json::String(s.compiler));
  j.Set("cxx_flags", Json::String(s.cxx_flags));
  j.Set("nproc", Json::Number(static_cast<int64_t>(s.nproc)));
  j.Set("commit", Json::String(s.commit));
  j.Set("seed", Json::Number(static_cast<int64_t>(s.seed)));
  j.Set("endpoint_delay_ms", Json::Number(s.delay_ms));
  Json argv = Json::Array();
  for (const std::string& a : s.galoisd_argv) argv.Append(Json::String(a));
  j.Set("galoisd_argv", std::move(argv));
  j.Set("cpu_steal_pct", Json::Number(s.cpu_steal_pct));
  return j;
}

std::string FormatEnvStamp(const EnvStamp& s) {
  std::ostringstream os;
  os << "env: build=" << s.build_type << (s.optimised ? "" : " (NOT OPTIMISED)")
     << " nproc=" << s.nproc << " compiler=\"" << s.compiler
     << "\" commit=" << s.commit << " seed=" << s.seed
     << " endpoint_delay_ms=" << s.delay_ms
     << " cpu_steal_pct=" << s.cpu_steal_pct << " galoisd=";
  if (s.galoisd_argv.empty()) {
    os << "(in-process)";
  } else {
    for (size_t i = 0; i < s.galoisd_argv.size(); ++i) {
      os << (i == 0 ? "\"" : " ") << s.galoisd_argv[i];
    }
    os << "\"";
  }
  return os.str();
}

}  // namespace perfbench
