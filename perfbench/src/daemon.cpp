// daemon.cpp — spawning, measuring and stopping a bsrngd child.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  throw std::runtime_error("no VmHWM in " + path);
}

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuTimes t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

namespace {

struct ChildArgs {
  char** argv;
  char** envp;
  int out_fd;
  pid_t parent;
};

// The child's side of the spawn: it runs on its own stack in the parent's
// memory until execve replaces it, so it makes system calls only.
int exec_child(void* p) {
  const auto* a = static_cast<const ChildArgs*>(p);
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != a->parent) ::_exit(127);
  ::dup2(a->out_fd, STDOUT_FILENO);
  ::execve(a->argv[0], a->argv, a->envp);
  ::_exit(127);
}

}  // namespace

Daemon::Daemon(const std::string& path, unsigned workers, bool telemetry) {
  // Everything the child needs is built before the spawn.
  const std::string workers_arg = std::to_string(workers);
  std::vector<std::string> argv_s = {path, "--port", "0", "--workers",
                                     workers_arg};
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_s;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "BSRNG_TELEMETRY=", 16) != 0 &&
        std::strncmp(*e, "BSRNG_FAULTS=", 13) != 0)
      env_s.emplace_back(*e);
  env_s.emplace_back(telemetry ? "BSRNG_TELEMETRY=1" : "BSRNG_TELEMETRY=0");
  std::vector<char*> envp;
  for (auto& e : env_s) envp.push_back(e.data());
  envp.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  // clone(CLONE_VM | CLONE_VFORK), as posix_spawn does, rather than fork:
  // fork copies the benchmark's page tables, which grow with its expected
  // output buffers and would be charged to the daemon's set-up time.  The
  // parent sleeps until the child has exec'd.  Unlike posix_spawn, the
  // child can still ask to be killed when the benchmark dies.
  ChildArgs args{argv.data(), envp.data(), fds[1], ::getpid()};
  std::vector<char> stack(64u << 10);
  pid_ = ::clone(exec_child, stack.data() + stack.size(),
                 CLONE_VM | CLONE_VFORK | SIGCHLD, &args);
  ::close(fds[1]);
  if (pid_ < 0) {
    ::close(fds[0]);
    throw std::runtime_error("clone: " + std::string(std::strerror(errno)));
  }
  out_fd_ = fds[0];

  // Wait for "bsrngd: listening on ADDR:PORT".
  std::string buf;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (port_ == 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    pollfd pfd{out_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
    char tmp[256];
    const ssize_t n = ::read(out_fd_, tmp, sizeof tmp);
    if (n <= 0) break;
    buf.append(tmp, static_cast<std::size_t>(n));
    const auto at = buf.find("listening on ");
    const auto nl = at == std::string::npos ? at : buf.find('\n', at);
    if (nl != std::string::npos) {
      const auto colon = buf.rfind(':', nl);
      port_ = static_cast<std::uint16_t>(std::stoul(buf.substr(colon + 1)));
    }
  }
  if (port_ == 0) {
    stop();
    throw std::runtime_error("bsrngd did not start: " + path);
  }
}

Daemon::~Daemon() { stop(); }

double Daemon::cpu_seconds() const {
  // schedstat's first field is nanoseconds on CPU (per thread, exact).
  double ns = 0;
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  for (const auto& t : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(t.path() / "schedstat");
    double v = 0;
    if (in >> v) ns += v;
  }
  return ns * 1e-9;
}

double Daemon::peak_rss_mib() const { return perfbench::peak_rss_mib(pid_); }

std::string Daemon::scrape_metrics() const {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("metrics connect failed");
  }
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  if (::send(fd, req, sizeof req - 1, MSG_NOSIGNAL) !=
      static_cast<ssize_t>(sizeof req - 1)) {
    ::close(fd);
    throw std::runtime_error("metrics send failed");
  }
  std::string resp;
  char tmp[65536];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10000) <= 0) break;
    const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
    if (n <= 0) break;
    resp.append(tmp, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto body = resp.find("\r\n\r\n");
  if (body == std::string::npos) throw std::runtime_error("bad /metrics reply");
  return resp.substr(body + 4);
}

void Daemon::stop(bool graceful) {
  if (pid_ > 0) {
    ::kill(pid_, graceful ? SIGINT : SIGKILL);
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

}  // namespace perfbench
