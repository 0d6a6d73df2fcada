// Process and socket plumbing for the fleet benchmark: launching
// dpclustx_router / dpclustx_serve, a minimal newline-framed unix-socket
// client with sub-millisecond waits, peak-RSS harvest from /proc, and an
// in-memory span log that is written out when the benchmark ends.
//
// Everything here talks to the program only through its public surfaces
// (command-line flags, the JSON-lines protocol), so the benchmark measures
// the fleet exactly as a client sees it.

#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Aborts the benchmark (exit 3, no result line) with `message` on stderr.
/// Used for conditions that make the run meaningless: a garbled or lost
/// response, a fleet that never came up, a setup request that failed.
[[noreturn]] void Fail(const std::string& message);

/// Microseconds between two steady-clock points.
double Micros(Clock::time_point from, Clock::time_point to);

/// A child process with its stdin held open through a pipe (both
/// dpclustx_router and dpclustx_serve treat stdin EOF as the graceful
/// shutdown signal) and stdout/stderr appended to `log_path`.
class ChildProcess {
 public:
  ChildProcess(const std::vector<std::string>& argv,
               const std::string& log_path);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const { return pid_; }
  /// Closes stdin and waits for the process; SIGKILLs it after 30 s.
  void Stop();

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
};

/// Blocking newline-framed client over a unix socket. Counts the bytes it
/// moves so the benchmark can report transport volume per request.
class LineClient {
 public:
  /// Connects to the unix socket at `path` (relative paths resolve against
  /// the working directory, which keeps sun_path short).
  explicit LineClient(const std::string& path);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void Send(const std::string& line);
  /// Next response line if one is already buffered or readable without
  /// blocking; false otherwise.
  bool TryRecv(std::string* line);
  /// Next response line, failing the run after 120 s or on a closed
  /// connection.
  std::string RecvOrFail();
  /// One synchronous round trip, parsed.
  dpclustx::JsonValue Call(const std::string& request);

  int fd() const { return fd_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  bool PopLine(std::string* line);

  int fd_ = -1;
  std::string buffer_;
  size_t scan_from_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

/// Waits until the unix socket at `path` accepts connections.
void WaitForSocket(const std::string& path, double timeout_seconds);

/// Peak resident set (VmHWM) of `pid` plus all of its child processes, in
/// MiB. Read before the fleet shuts down.
double TreePeakRssMb(pid_t pid);

/// CPU time (user + system, all threads) consumed so far by `pid` plus all
/// of its child processes, in seconds. Time the host steals from the VM is
/// not charged to them.
double TreeCpuSeconds(pid_t pid);

/// One recorded span: a named interval with the span that caused it and
/// the request it belongs to.
struct Span {
  std::string name;
  int64_t start_ns = 0;  // steady clock, relative to the log's origin
  int64_t end_ns = 0;
  int64_t parent = -1;   // index into the log, -1 for a root span
  std::string request;
};

/// In-memory span log. Thread-safe; spans are written out by Write at exit.
class SpanLog {
 public:
  SpanLog();
  /// Records a finished span and returns its index (for children).
  int64_t Add(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t parent = -1,
              const std::string& request = "");
  /// Durations (µs) of every span named `name`.
  std::vector<double> DurationsMicros(const std::string& name) const;
  /// Writes one JSON line per span to `path`.
  void Write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
