#include "fleet.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {

void Fail(const std::string& message) {
  std::cerr << "perfbench: " << message << std::endl;
  std::exit(3);
}

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

ChildProcess::ChildProcess(const std::vector<std::string>& argv,
                           const std::string& log_path) {
  int to_child[2];
  if (::pipe(to_child) != 0) Fail("pipe failed");
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) Fail("cannot open " + log_path);
  pid_ = ::fork();
  if (pid_ < 0) Fail("fork failed");
  if (pid_ == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  ::close(to_child[0]);
  stdin_fd_ = to_child[1];
  ::fcntl(stdin_fd_, F_SETFD, FD_CLOEXEC);
}

ChildProcess::~ChildProcess() { Stop(); }

void ChildProcess::Stop() {
  if (pid_ < 0) return;
  ::close(stdin_fd_);
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > give_up) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

LineClient::LineClient(const std::string& path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) Fail("socket failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) Fail("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Fail("connect to " + path + " failed: " + std::strerror(errno));
  }
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::Send(const std::string& line) {
  std::string frame = line;
  frame.push_back('\n');
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN) {
        pollfd p{fd_, POLLOUT, 0};
        ::poll(&p, 1, 100);
        continue;
      }
      Fail(std::string("send failed: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  bytes_sent_ += frame.size();
}

bool LineClient::PopLine(std::string* line) {
  const size_t nl = buffer_.find('\n', scan_from_);
  if (nl == std::string::npos) {
    scan_from_ = buffer_.size();
    return false;
  }
  line->assign(buffer_, 0, nl);
  buffer_.erase(0, nl + 1);
  scan_from_ = 0;
  bytes_received_ += nl + 1;
  return true;
}

bool LineClient::TryRecv(std::string* line) {
  if (PopLine(line)) return true;
  char chunk[65536];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
  if (n == 0) Fail("server closed the connection (lost responses)");
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN) return false;
    Fail(std::string("recv failed: ") + std::strerror(errno));
  }
  buffer_.append(chunk, static_cast<size_t>(n));
  return PopLine(line);
}

std::string LineClient::RecvOrFail() {
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  std::string line;
  while (!TryRecv(&line)) {
    pollfd p{fd_, POLLIN, 0};
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now())
            .count());
    if (wait_ms <= 0) Fail("no response within 120 s (lost response)");
    if (::poll(&p, 1, wait_ms) < 0 && errno != EINTR) Fail("poll failed");
  }
  return line;
}

dpclustx::JsonValue LineClient::Call(const std::string& request) {
  Send(request);
  const std::string line = RecvOrFail();
  auto parsed = dpclustx::JsonValue::Parse(line);
  if (!parsed.ok()) Fail("garbled response: " + line.substr(0, 200));
  return *std::move(parsed);
}

void WaitForSocket(const std::string& path, double timeout_seconds) {
  const auto give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(),
                std::min(path.size() + 1, sizeof(addr.sun_path) - 1));
    const bool up =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    ::close(fd);
    if (up) return;
    if (Clock::now() > give_up) Fail("fleet never listened on " + path);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

namespace {

double PeakRssKb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return 0;
}

// Children of every thread of `pid` (a worker may be forked by whichever
// router thread respawned it).
std::vector<pid_t> Children(pid_t pid) {
  std::vector<pid_t> out;
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task/";
  DIR* dir = ::opendir(task_dir.c_str());
  if (dir == nullptr) return out;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream children(task_dir + entry->d_name + "/children");
    pid_t child = 0;
    while (children >> child) out.push_back(child);
  }
  ::closedir(dir);
  return out;
}

double CpuSeconds(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(stat, line);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  std::istringstream fields(line.substr(line.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace

double TreeCpuSeconds(pid_t pid) {
  double seconds = CpuSeconds(pid);
  for (pid_t child : Children(pid)) seconds += CpuSeconds(child);
  return seconds;
}

double TreePeakRssMb(pid_t pid) {
  double kb = PeakRssKb(pid);
  for (pid_t child : Children(pid)) kb += PeakRssKb(child);
  return kb / 1024.0;
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

int64_t SpanLog::Add(const std::string& name, Clock::time_point start,
                     Clock::time_point end, int64_t parent,
                     const std::string& request) {
  Span span;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      start - origin_).count();
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    end - origin_).count();
  span.parent = parent;
  span.request = request;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> SpanLog::DurationsMicros(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

void SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    dpclustx::JsonValue line = dpclustx::JsonValue::Object();
    line.Set("name", dpclustx::JsonValue::String(s.name));
    line.Set("start_ns", dpclustx::JsonValue::Number(static_cast<double>(s.start_ns)));
    line.Set("end_ns", dpclustx::JsonValue::Number(static_cast<double>(s.end_ns)));
    line.Set("parent", dpclustx::JsonValue::Number(static_cast<double>(s.parent)));
    line.Set("request", dpclustx::JsonValue::String(s.request));
    out << line.Dump() << "\n";
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

}  // namespace perfbench
