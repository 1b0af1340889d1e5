#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "server/client.h"

namespace perfbench {

bool ReadProc(pid_t pid, ProcSample* sample) {
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream stat_file(base + "/stat");
  std::string stat((std::istreambuf_iterator<char>(stat_file)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  long long utime = 0;
  long long stime = 0;
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) utime = std::atoll(field.c_str());
    if (index == 15) stime = std::atoll(field.c_str());
  }
  const double tick_ms = 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  sample->cpu_ms = static_cast<double>(utime + stime) * tick_ms;

  std::ifstream status(base + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      sample->peak_rss_mib = std::atof(line.c_str() + 6) / 1024.0;
      return true;
    }
  }
  return false;
}

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    Reap(5000, &status);
  }
}

bool DaemonProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::string& socket_path,
                          const std::string& log_path, std::string* error) {
  socket_path_ = socket_path;
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // The daemon must not outlive a load generator that is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  pid_ = pid;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (folearn::Client::Connect(socket_path).ok()) return true;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "folearnd exited during start-up (see " + log_path + ")";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  *error = "folearnd did not listen on " + socket_path + " within 20 s";
  return false;
}

bool DaemonProcess::Reap(int timeout_ms, int* status) {
  for (int waited = 0; waited <= timeout_ms; ++waited) {
    const pid_t done = ::waitpid(pid_, status, WNOHANG);
    if (done == pid_ || done < 0) {
      pid_ = -1;
      return done > 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

bool DaemonProcess::Stop() {
  if (pid_ <= 0) return false;
  folearn::StatusOr<folearn::Client> client =
      folearn::Client::Connect(socket_path_, 5000);
  if (client.ok()) (void)client->RequestShutdown();
  int status = 0;
  if (Reap(10000, &status)) {
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  ::kill(pid_, SIGKILL);
  Reap(5000, &status);
  return false;
}

}  // namespace perfbench
