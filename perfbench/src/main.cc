// galois_perfbench — the end-to-end benchmark of galois.
//
//   galois_perfbench --workload cold-llm|warm-serve|explore-mix --seed N
//                    --seconds S --trace 0|1 --galoisd PATH --out DIR
//                    [--commit SHA]
//
// --trace 0 measures the workload and reports its end-to-end metrics;
// --trace 1 replays it in-process with spans around every layer's entry
// points and reports the per-layer metrics. Every answer is checked
// against an in-process reference. The last line of stdout is the result
// as one JSON object; the full record (environment stamp, property report,
// spans) goes under --out. Exit status is 0 only when every answer was
// correct. perfbench/run.py builds this binary and passes the paths.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/json.h"
#include "workloads.h"

namespace {

using galois::Json;
using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunReport;

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// {"name": {"value": v, "unit": u}, ...} with every digit of each value.
std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + galois::JsonEscape(metrics[i].name) + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" +
           galois::JsonEscape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config->workload = value;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config->trace = value == "1";
    } else if (flag == "--galoisd") {
      config->galoisd = value;
    } else if (flag == "--out") {
      config->out_dir = value;
    } else if (flag == "--commit") {
      config->commit = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !config->workload.empty() &&
         !config->galoisd.empty() && !config->out_dir.empty() &&
         config->seconds > 0;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --trace 0|1 "
                 "--galoisd PATH --out DIR [--commit SHA]\n",
                 argv[0]);
    return 2;
  }
  if (config.commit.empty()) config.commit = "unknown";

  galois::Result<RunReport> result = perfbench::RunBenchmark(config);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const RunReport& report = result.value();

  std::printf("%s\n", report.details.GetString("env_line").c_str());
  std::printf("workload=%s seed=%llu trace=%d seconds=%g\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? 1 : 0, config.seconds);
  PrintMetrics(config.trace ? "per-layer metrics:" : "end-to-end metrics:",
               report.metrics);
  PrintMetrics("recorded alongside:", report.extra);
  if (!report.layer_table.empty()) {
    std::printf("per-layer self time (traced replay):\n%s",
                report.layer_table.c_str());
  }
  for (const std::string& e : report.errors) {
    std::printf("FAILED: %s\n", e.c_str());
  }

  const std::string line =
      std::string("{\"correct\": ") + (report.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(report.attempted) +
      ", \"failed\": " + std::to_string(report.failed) +
      ", \"metrics\": " + MetricsObject(report.metrics) + "}";

  std::ofstream record(config.out_dir + "/result.json");
  record << "{\"workload\": \"" << config.workload
         << "\", \"seed\": " << config.seed
         << ", \"trace\": " << (config.trace ? 1 : 0)
         << ", \"result\": " << line
         << ", \"recorded\": " << MetricsObject(report.extra)
         << ", \"details\": " << report.details.Dump() << "}\n";

  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
