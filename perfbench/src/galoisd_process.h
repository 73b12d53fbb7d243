#ifndef PERFBENCH_GALOISD_PROCESS_H_
#define PERFBENCH_GALOISD_PROCESS_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// One galoisd child process. Start() launches it on an ephemeral port
/// and waits until it reports the port it serves on; Stop() sends SIGTERM
/// and waits for the drain. The destructor kills and reaps a child that
/// was never stopped, so no daemon outlives the benchmark.
class GaloisdProcess {
 public:
  GaloisdProcess() = default;
  ~GaloisdProcess();
  GaloisdProcess(const GaloisdProcess&) = delete;
  GaloisdProcess& operator=(const GaloisdProcess&) = delete;

  /// `flags` are passed after `--port 0`; the daemon's stderr goes to
  /// `log_path` (a file never blocks the daemon the way a full pipe
  /// would).
  galois::Status Start(const std::string& binary,
                       const std::vector<std::string>& flags,
                       const std::string& log_path);

  /// SIGTERM, then waits up to `timeout_ms` for exit. OK only when the
  /// daemon drained and exited with status 0.
  galois::Status Stop(int timeout_ms = 20000);

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// The exact command line, for the environment stamp.
  const std::vector<std::string>& argv() const { return argv_; }

 private:
  std::string ReadLog() const;
  void Kill();

  pid_t pid_ = -1;
  int port_ = 0;
  std::string log_path_;
  std::vector<std::string> argv_;
};

}  // namespace perfbench

#endif  // PERFBENCH_GALOISD_PROCESS_H_
