// Socket transport for the serving front doors (dpclustx_router and
// dpclustx_serve): a Unix-domain-socket / TCP listener behind one epoll
// event loop that accepts many concurrent clients and frames the existing
// newline-delimited JSON protocol, with bounded per-connection buffers and
// explicit backpressure.
//
// Model:
//
//   clients ──connect──▶ Transport (one epoll thread)
//                           │  OnFrame(conn, line)   [event-loop thread]
//                           ▼
//                        front door (router / serve) ──▶ workers / engine
//                           │
//                        Send(conn, line)             [any thread]
//
// Framing: one request per '\n'-terminated line, mirroring the stdin
// protocol byte for byte — the same scripted session works over a pipe,
// a Unix socket, or TCP. A connection whose partial frame exceeds
// max_frame_bytes is answered with a structured error and closed (framing
// cannot be resynchronized after an oversized frame); a partial frame at
// EOF ("torn") is dropped and counted. Both are strictly per-connection:
// other clients never notice.
//
// Backpressure (DESIGN.md §14): every connection has a byte-bounded
// response queue. Above write_soft_limit_bytes the transport stops
// *reading* that connection (EPOLLIN off) until the queue drains below
// half the soft limit — a slow reader throttles itself, not the server.
// The hard limit is the caller's shed line: front doors check
// QueuedBytes() when a frame arrives and answer with ResourceExhausted +
// retry_after_ms instead of doing work whose response would have to queue
// behind an unbounded backlog. Responses already owed are never dropped
// while the connection lives (the queue is unbounded between the caller's
// shed checks — bounded in practice by hard limit + one in-flight
// response per worker).
//
// Threading: one event-loop thread owns every fd — listeners, accepted
// sockets, adopted fd pairs — and every timer. Run() serves on the calling
// thread: both front doors call it from main, and the transport starts no
// thread of its own. OnFrame, adopted frame/EOF handlers, timers and the
// HTTP handler all run on the loop thread and must be quick (classify +
// hand off, never wait). Send(), QueuedBytes(), ActiveConnections() and
// Stop() are thread-safe (conns_mutex_ / an atomic state): a Send from
// another thread — dpclustx_serve's engine pool completing a request —
// wakes the loop through an eventfd, one from the loop thread just marks
// the connection for the flush that follows the current callback.
// Everything else is loop-thread-only once the loop runs.
// Send to a connection that has closed returns false and the response is
// counted dropped (dpclustx_transport_dropped_responses_total).
//
// Adopted fds: Adopt() serves an already-open fd pair — a pipe pair to a
// child process, or the process's own stdin/stdout — as a connection with
// the same non-blocking write queue, but no frame cap, no HTTP detection
// and none of the client counters. A pair adopted as a client (stdin
// carrying requests) pauses reading frame by frame while more than
// write_soft_limit_bytes of its responses are queued — the rest of a read
// waits, buffered, until the queue drains below half — so one large read
// never queues a whole batch of responses at once; a pair adopted as a
// server (a worker's pipes) is never paused. Read EOF calls the
// owner's handler instead of closing, so responses can still go out. The
// transport never changes an fd's O_NONBLOCK flag: a blocking fd (the
// inherited fd 0 and 1) is read once per readiness event and written in
// PIPE_BUF-sized pieces only after poll() reports room, and an fd epoll
// refuses (a regular file, /dev/null) is treated as always ready.
//
// Timers: RunAfter(ms, fn) queues fn on the loop thread; the earliest
// deadline bounds epoll_wait's timeout. There is no cancel — a callback
// that may have gone stale checks its own state when it fires.
//
// Addresses: "unix:/path/to.sock" (the path is unlinked before bind) and
// "tcp:PORT" / "tcp:HOST:PORT" (numeric host, default 127.0.0.1 — bind a
// public address explicitly when you mean it).
//
// ClientChannel is the matching blocking client (used by dpclustx_cli
// --connect, dpclustx_repl --connect, the load driver, and tests).

#ifndef DPCLUSTX_SERVICE_TRANSPORT_H_
#define DPCLUSTX_SERVICE_TRANSPORT_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace dpclustx::obs {
class Counter;
class Gauge;
}  // namespace dpclustx::obs

namespace dpclustx::service {

/// A parsed --listen / --connect address.
struct ListenAddress {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;              // kUnix: filesystem socket path
  std::string host = "127.0.0.1";  // kTcp: numeric IPv4 address
  uint16_t port = 0;             // kTcp
};

/// Parses "unix:/path", "tcp:PORT", or "tcp:HOST:PORT".
StatusOr<ListenAddress> ParseListenAddress(const std::string& spec);

struct TransportOptions {
  /// A single frame (one protocol line, newline excluded) may not exceed
  /// this; matches the engine's max_request_bytes default.
  size_t max_frame_bytes = 1u << 20;
  /// Reading a connection is suspended while its response queue holds more
  /// than this many bytes, and resumed below half of it.
  size_t write_soft_limit_bytes = 256u << 10;
  /// Advisory shed threshold for callers (see QueuedBytes); the transport
  /// itself never drops a queued response.
  size_t write_hard_limit_bytes = 4u << 20;
};

/// Connection identity, unique for the lifetime of a Transport (accepted
/// and adopted connections share one id space, starting at kFirstConnId).
using ConnId = uint64_t;
inline constexpr ConnId kFirstConnId = 1u << 10;

/// Body of a scrape-endpoint response (see Transport::SetHttpHandler).
struct HttpResponse {
  int status = 200;  // 200, 404, or 503
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class Transport {
 public:
  /// `on_frame` is invoked on the event-loop thread for every complete
  /// line received (newline stripped, never empty).
  using FrameHandler = std::function<void(ConnId, std::string&&)>;

  /// Invoked on the event-loop thread with the request path of an HTTP
  /// GET received on any listener (see SetHttpHandler). Must be quick —
  /// it blocks the loop, exactly like a frame handler.
  using HttpHandler = std::function<HttpResponse(const std::string& path)>;

  explicit Transport(TransportOptions options = {});
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Binds and listens on `spec` ("unix:/path" / "tcp:PORT"); call before
  /// the loop runs, any number of times (a router can listen on both). For
  /// "tcp:0" the kernel picks a port — read it back via BoundPort().
  Status Listen(const std::string& spec);

  /// Port of the `index`-th successful Listen (0 for unix listeners).
  uint16_t BoundPort(size_t index) const;

  /// Installs the scrape handler; call before the loop runs. A connection
  /// whose FIRST frame is an HTTP/1.x GET request line ("GET /metrics
  /// HTTP/1.1") switches into one-shot HTTP mode: the remaining request
  /// headers are consumed up to the blank terminator line, the handler's
  /// response is written with Connection: close, and the connection closes
  /// once it flushes — so a stock Prometheus scrapes the same --listen
  /// address the line protocol serves, with no sidecar and no separate
  /// port. Without a handler every path answers 404. JSON-protocol clients
  /// are unaffected: their first frame starts with '{', never "GET ".
  void SetHttpHandler(HttpHandler handler);

  /// Who is at the other end of an adopted pair. A client's frames are
  /// requests answered on the same pair, so its reads pause on its own
  /// response backlog. A server's frames answer requests written to it:
  /// pausing them on that request backlog would deadlock both processes.
  enum class Peer { kClient, kServer };

  /// Serves the distinct fds `read_fd` (frames to `on_frame`) and
  /// `write_fd` (Send) as one connection; the transport owns and closes
  /// both. `on_eof` runs once when `read_fd` reaches EOF or fails; the
  /// connection stays writable until Close(). Loop thread, or before the
  /// loop runs.
  ConnId Adopt(int read_fd, int write_fd, Peer peer, FrameHandler on_frame,
               std::function<void()> on_eof);

  /// Loop thread: closes an adopted connection's write fd (its peer reads
  /// EOF) and drops what was still queued; reading goes on until EOF.
  void CloseWrite(ConnId conn);

  /// Loop thread: closes `conn` and its fds; unflushed output is dropped.
  void Close(ConnId conn);

  /// Runs `fn` on the loop thread once `delay_ms` has passed. Loop thread,
  /// or before the loop runs.
  void RunAfter(int64_t delay_ms, std::function<void()> fn);

  /// Serves on the calling thread until Stop(); on return every connection
  /// and listener is closed. Runs at most once per Transport.
  void Run(FrameHandler on_frame);

  /// Thread-safe. Ends the loop: Run() unwinds after the current callback
  /// (from another thread, Stop wakes the loop; whoever started that thread
  /// joins it). A Stop before Run makes Run return at once. Queued
  /// responses not yet flushed are dropped (and counted).
  void Stop();

  /// Thread-safe. Queues `line` (+'\n') for `conn`; pass an rvalue to
  /// queue a large response without copying it. False when the
  /// connection (or its write side) is gone — the caller's response is
  /// dropped and counted; nothing else to do.
  bool Send(ConnId conn, std::string line);

  /// Thread-safe: bytes currently queued toward `conn` (0 when gone).
  /// Front doors compare this against write_hard_limit_bytes to shed.
  size_t QueuedBytes(ConnId conn) const;

  const TransportOptions& options() const { return options_; }

  /// Accepted client connection count (for status surfaces).
  size_t ActiveConnections() const;

 private:
  struct Conn;
  struct Listener;
  struct Timer {
    std::chrono::steady_clock::time_point due;
    uint64_t seq = 0;  // FIFO among equal deadlines
    std::function<void()> fn;
    friend bool operator>(const Timer& a, const Timer& b) {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };

  Conn* Find(ConnId id) const;  // nullptr once closed
  void Wake();                  // eventfd: the loop re-checks its state
  void EventLoop();
  int NextTimeoutMs() const;
  void RunDueTimers();
  void FlushDirty();
  void Accept(Listener& listener);
  void HandleReadable(Conn& conn);
  bool DeliverFrames(Conn& conn, const char* data, size_t size);
  /// Pauses `conn`'s reads when its queued responses exceed the soft limit;
  /// true when it did.
  bool PauseOnBacklog(Conn& conn);
  /// Delivers the frames a pause held back; false when reading must stop.
  bool ReplayFrames(Conn& conn);
  void RejectOversized(Conn& conn);
  void QueueHttpResponse(Conn& conn);  // headers consumed; answer + close
  void Enqueue(Conn& conn, std::string payload);  // holds conns_mutex_
  void FlushSome(Conn& conn);     // one non-blocking write burst
  ssize_t WriteSome(Conn& conn, const char* data, size_t size);
  void UpdateInterest(Conn& conn);
  void CloseWriteLocked(Conn& conn);  // holds conns_mutex_
  void CloseConn(Conn& conn);
  void CloseAll();

  TransportOptions options_;
  FrameHandler on_frame_;
  HttpHandler http_handler_;  // set before the loop runs

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::vector<std::unique_ptr<Listener>> listeners_;

  mutable std::mutex conns_mutex_;  // guards conns_, clients_, dirty_ and
                                    // per-conn out state
  std::map<ConnId, std::unique_ptr<Conn>> conns_;
  size_t clients_ = 0;              // accepted (not adopted) connections
  std::vector<ConnId> dirty_;       // conns with output to flush
  ConnId next_conn_id_ = kFirstConnId;

  // Event-loop-thread state.
  std::vector<std::unique_ptr<Conn>> closed_;  // freed after each iteration
  std::vector<ConnId> unpolled_readers_;       // read fds epoll refused
  std::vector<ConnId> replay_;  // resumed clients with buffered frames
  std::vector<Timer> timers_;  // min-heap on (due, seq): std::greater<>
  uint64_t timer_seq_ = 0;

  // kIdle until Run(); set to kStopped by Stop() from any thread. The loop
  // re-checks it after every callback.
  enum class State { kIdle, kRunning, kStopped };
  std::atomic<State> state_{State::kIdle};
  bool running() const { return state_ == State::kRunning; }

  // Metrics (process registry; names in DESIGN.md §14).
  obs::Counter* connections_total_ = nullptr;
  obs::Counter* frames_total_ = nullptr;
  obs::Counter* bytes_read_total_ = nullptr;
  obs::Counter* bytes_written_total_ = nullptr;
  obs::Counter* oversized_frames_total_ = nullptr;
  obs::Counter* torn_frames_total_ = nullptr;
  obs::Counter* reads_suspended_total_ = nullptr;
  obs::Counter* dropped_responses_total_ = nullptr;
  obs::Counter* http_requests_total_ = nullptr;
  obs::Gauge* active_connections_ = nullptr;
};

/// Blocking line-protocol client for Transport servers. Not thread-safe;
/// use one channel per client thread.
class ClientChannel {
 public:
  /// Connects to "unix:/path" / "tcp:PORT" / "tcp:HOST:PORT".
  static StatusOr<std::unique_ptr<ClientChannel>> Connect(
      const std::string& spec);

  ~ClientChannel();
  ClientChannel(const ClientChannel&) = delete;
  ClientChannel& operator=(const ClientChannel&) = delete;

  /// Writes `line` + '\n'. IoError when the server hung up.
  Status SendLine(const std::string& line);

  /// Next complete line (newline stripped). Blocks up to `timeout_ms`
  /// (-1 = forever): DeadlineExceeded on timeout, IoError on EOF.
  StatusOr<std::string> RecvLine(int timeout_ms = -1);

  /// Raw fd, for callers that multiplex with poll (the load driver).
  int fd() const { return fd_; }

 private:
  explicit ClientChannel(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace dpclustx::service

#endif  // DPCLUSTX_SERVICE_TRANSPORT_H_
