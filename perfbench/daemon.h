#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// CPU time and peak resident set of a process, read from /proc.
struct ProcSample {
  double cpu_ms = 0.0;       // utime + stime, all threads
  double peak_rss_mib = 0.0; // VmHWM
};

bool ReadProc(pid_t pid, ProcSample* sample);

// A folearnd child process. The destructor kills and reaps a daemon that
// is still running, so no exit path leaves one behind.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  // Forks and execs `binary` with `args`, its output going to `log_path`,
  // then waits until `socket_path` accepts connections.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& socket_path, const std::string& log_path,
             std::string* error);

  // Asks the daemon to shut down over its socket and reaps it (SIGKILL
  // after a grace period). True if it exited with status 0.
  bool Stop();

  pid_t pid() const { return pid_; }

 private:
  bool Reap(int timeout_ms, int* status);

  pid_t pid_ = -1;
  std::string socket_path_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
