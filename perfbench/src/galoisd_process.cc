#include "galoisd_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

using galois::Status;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

GaloisdProcess::~GaloisdProcess() { Kill(); }

std::string GaloisdProcess::ReadLog() const {
  std::ifstream in(log_path_);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Status GaloisdProcess::Start(const std::string& binary,
                             const std::vector<std::string>& flags,
                             const std::string& log_path) {
  argv_ = {binary, "--port", "0"};
  argv_.insert(argv_.end(), flags.begin(), flags.end());
  log_path_ = log_path;
  std::vector<char*> raw;
  for (std::string& a : argv_) raw.push_back(a.data());
  raw.push_back(nullptr);

  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return Status::IoError("cannot open " + log_path + ": " +
                           std::strerror(errno));
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(log_fd);
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    dup2(log_fd, STDERR_FILENO);
    dup2(log_fd, STDOUT_FILENO);
    execv(raw[0], raw.data());
    _exit(127);
  }
  close(log_fd);
  pid_ = pid;

  // galoisd prints "galoisd: serving on HOST:PORT (...)" once listening.
  const int64_t deadline = NowMs() + 30000;
  while (NowMs() < deadline) {
    const std::string log = ReadLog();
    const size_t at = log.find("serving on ");
    const size_t end = at == std::string::npos ? at : log.find(' ', at + 11);
    if (end != std::string::npos) {
      const std::string addr = log.substr(at + 11, end - at - 11);
      const size_t colon = addr.rfind(':');
      if (colon != std::string::npos) {
        port_ = std::atoi(addr.c_str() + colon + 1);
        if (port_ > 0) return Status::OK();
      }
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::IoError("galoisd exited before listening: " + log);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  Kill();
  return Status::IoError("galoisd did not start: " + ReadLog());
}

Status GaloisdProcess::Stop(int timeout_ms) {
  if (pid_ <= 0) return Status::OK();
  kill(pid_, SIGTERM);
  const int64_t deadline = NowMs() + timeout_ms;
  int status = 0;
  pid_t done = 0;
  while ((done = waitpid(pid_, &status, WNOHANG)) == 0 &&
         NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (done == 0) {
    Kill();
    return Status::Internal("galoisd did not drain within " +
                            std::to_string(timeout_ms) + " ms");
  }
  pid_ = -1;
  const std::string log = ReadLog();
  if (done < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("galoisd exited uncleanly (status " +
                            std::to_string(status) + "): " + log);
  }
  if (log.find("drained") == std::string::npos) {
    return Status::Internal("galoisd exited without draining: " + log);
  }
  return Status::OK();
}

void GaloisdProcess::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }
}

}  // namespace perfbench
