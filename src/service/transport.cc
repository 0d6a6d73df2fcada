#include "service/transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <deque>
#include <functional>

#include "common/logging.h"
#include "obs/metrics.h"

namespace dpclustx::service {
namespace {

/// epoll user-data tags. 0 = eventfd wake; [1, kFirstConnId) = listener
/// index + 1; >= kFirstConnId = the connection's ConnId, with kWriteSideTag
/// or-ed in for an adopted connection's separate write fd.
constexpr uint64_t kWakeTag = 0;
constexpr uint64_t kWriteSideTag = uint64_t{1} << 63;

/// The Transport whose loop runs on this thread, if any: Send() and Stop()
/// from the loop thread need no eventfd wake.
thread_local const Transport* current_loop = nullptr;

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + ::strerror(errno));
}

/// Canned protocol error sent before closing a connection whose frame
/// exceeded max_frame_bytes. Shaped like ServiceEngine's ErrorResponse so
/// clients need one error decoder; built by hand because the transport
/// layer has no JsonValue dependency.
std::string OversizedFrameError(size_t limit) {
  return std::string(
             "{\"error\":{\"code\":\"InvalidArgument\",\"message\":\"frame "
             "exceeds max_frame_bytes (") +
         std::to_string(limit) + ")\"},\"ok\":false}";
}

/// True when `frame` is an HTTP/1.x GET request line ("GET /path
/// HTTP/1.1", CR already stripped by the framer); extracts the path. The
/// parser is deliberately tiny: scrape endpoints serve GET only, anything
/// else stays a protocol frame.
bool ParseHttpGetLine(const std::string& frame, std::string* path) {
  if (frame.rfind("GET /", 0) != 0) return false;
  const size_t path_begin = 4;
  const size_t path_end = frame.find(' ', path_begin);
  if (path_end == std::string::npos) return false;
  const std::string version = frame.substr(path_end + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") return false;
  *path = frame.substr(path_begin, path_end - path_begin);
  return true;
}

const char* HttpReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 503: return "Service Unavailable";
    default: return "Not Found";
  }
}

/// A stream socket on `addr`: bound (`listen`: non-blocking, a stale unix
/// path unlinked first, tcp with SO_REUSEADDR and its port reported through
/// `bound_port`) or connected (tcp gets TCP_NODELAY).
StatusOr<int> OpenSocket(const ListenAddress& addr, bool listen,
                         uint16_t* bound_port) {
  sockaddr_storage storage{};
  socklen_t len = 0;
  std::string where;
  const bool unix_socket = addr.kind == ListenAddress::Kind::kUnix;
  if (unix_socket) {
    auto* sa = reinterpret_cast<sockaddr_un*>(&storage);
    sa->sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(sa->sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     addr.path);
    }
    ::memcpy(sa->sun_path, addr.path.c_str(), addr.path.size() + 1);
    len = sizeof(sockaddr_un);
    where = addr.path;
  } else {
    auto* sa = reinterpret_cast<sockaddr_in*>(&storage);
    sa->sin_family = AF_INET;
    sa->sin_port = htons(addr.port);
    if (::inet_pton(AF_INET, addr.host.c_str(), &sa->sin_addr) != 1) {
      return Status::InvalidArgument("not a numeric IPv4 address: " +
                                     addr.host);
    }
    len = sizeof(sockaddr_in);
    where = addr.host + ":" + std::to_string(addr.port);
  }
  const int type = SOCK_STREAM | SOCK_CLOEXEC | (listen ? SOCK_NONBLOCK : 0);
  const int fd = ::socket(storage.ss_family, type, 0);
  if (fd < 0) return Errno("socket(" + where + ")");
  int one = 1;
  if (listen && unix_socket) ::unlink(addr.path.c_str());
  if (listen && !unix_socket) {
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  auto* sa = reinterpret_cast<sockaddr*>(&storage);
  if ((listen ? ::bind(fd, sa, len) : ::connect(fd, sa, len)) < 0) {
    const Status s = Errno((listen ? "bind(" : "connect(") + where + ")");
    ::close(fd);
    return s;
  }
  if (!unix_socket && listen) {
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
        0) {
      *bound_port = ntohs(bound.sin_port);
    }
  }
  if (!unix_socket && !listen) {
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

}  // namespace

StatusOr<ListenAddress> ParseListenAddress(const std::string& spec) {
  ListenAddress out;
  if (spec.rfind("unix:", 0) == 0) {
    out.kind = ListenAddress::Kind::kUnix;
    out.path = spec.substr(5);
    if (out.path.empty()) {
      return Status::InvalidArgument("unix: address needs a path: " + spec);
    }
    return out;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    out.kind = ListenAddress::Kind::kTcp;
    std::string rest = spec.substr(4);
    std::string port_text = rest;
    const size_t colon = rest.rfind(':');
    if (colon != std::string::npos) {
      out.host = rest.substr(0, colon);
      port_text = rest.substr(colon + 1);
      if (out.host.empty()) {
        return Status::InvalidArgument("tcp: address has an empty host: " +
                                       spec);
      }
    }
    if (port_text.empty() ||
        port_text.find_first_not_of("0123456789") != std::string::npos) {
      return Status::InvalidArgument("tcp: port must be numeric: " + spec);
    }
    const unsigned long port = std::stoul(port_text);
    if (port > 65535) {
      return Status::InvalidArgument("tcp: port out of range: " + spec);
    }
    out.port = static_cast<uint16_t>(port);
    return out;
  }
  return Status::InvalidArgument(
      "listen address must be unix:/path or tcp:[host:]port, got: " + spec);
}

struct Transport::Conn {
  ConnId id = 0;
  int fd = -1;        // read side (sockets: both directions)
  int write_fd = -1;  // == fd for sockets; -1 once the write side closed
  std::string in;     // partial frame carry-over (event-loop thread only)

  // Outbound state, guarded by conns_mutex_.
  std::deque<std::string> out;  // each entry already newline-terminated
  size_t out_bytes = 0;
  size_t front_offset = 0;  // bytes of out.front() already written
  bool dirty = false;       // listed in dirty_

  // Event-loop-thread-only state.
  bool reading_suspended = false;
  bool close_after_flush = false;
  bool closed = false;           // in closed_, freed after this iteration
  uint32_t read_interest = 0;    // events registered for fd
  uint32_t write_interest = 0;   // events registered for write_fd (adopted)

  // Adopted fd pairs (see Adopt). A blocking fd is read once per readiness
  // event and written only in poll-gated PIPE_BUF pieces; an unpolled fd
  // (epoll refused it) is always ready.
  bool adopted = false;
  FrameHandler on_frame;
  std::function<void()> on_eof;
  bool read_eof = false;
  bool read_blocking = false;
  bool write_blocking = false;
  bool read_polled = true;
  bool write_polled = true;

  // HTTP scrape state (event-loop thread only). A connection whose first
  // frame is a GET request line flips into one-shot HTTP mode: header
  // lines are consumed until the blank terminator, then the response is
  // queued and the connection closes after flushing.
  bool saw_any_frame = false;
  bool http_mode = false;
  std::string http_path;
};

struct Transport::Listener {
  int fd = -1;
  ListenAddress addr;
  uint16_t bound_port = 0;  // actual port (kernel-assigned for tcp:0)
};

Transport::Transport(TransportOptions options) : options_(options) {
  DPX_CHECK(options_.write_soft_limit_bytes <= options_.write_hard_limit_bytes)
      << "write_soft_limit_bytes must not exceed write_hard_limit_bytes";
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  DPX_CHECK(epoll_fd_ >= 0 && wake_fd_ >= 0)
      << "epoll/eventfd: " << ::strerror(errno);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  DPX_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0)
      << "epoll_ctl(wake): " << ::strerror(errno);

  auto& reg = obs::MetricsRegistry::Default();
  connections_total_ = reg.RegisterCounter(
      "dpclustx_transport_connections_total",
      "Client connections accepted over the socket transport");
  frames_total_ =
      reg.RegisterCounter("dpclustx_transport_frames_total",
                          "Complete request frames received from clients");
  bytes_read_total_ = reg.RegisterCounter(
      "dpclustx_transport_bytes_read_total", "Bytes read from client sockets");
  bytes_written_total_ =
      reg.RegisterCounter("dpclustx_transport_bytes_written_total",
                          "Bytes written to client sockets");
  oversized_frames_total_ = reg.RegisterCounter(
      "dpclustx_transport_oversized_frames_total",
      "Connections closed for exceeding max_frame_bytes in one frame");
  torn_frames_total_ = reg.RegisterCounter(
      "dpclustx_transport_torn_frames_total",
      "Partial frames discarded at connection EOF");
  reads_suspended_total_ = reg.RegisterCounter(
      "dpclustx_transport_reads_suspended_total",
      "Times a connection's reads were paused for write backpressure");
  dropped_responses_total_ = reg.RegisterCounter(
      "dpclustx_transport_dropped_responses_total",
      "Responses dropped because the client connection was gone");
  http_requests_total_ = reg.RegisterCounter(
      "dpclustx_transport_http_requests_total",
      "HTTP scrape requests (GET /metrics, /healthz, /ready) answered");
  active_connections_ =
      reg.RegisterGauge("dpclustx_transport_active_connections",
                        "Currently connected transport clients");
}

Transport::~Transport() {
  CloseAll();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

Status Transport::Listen(const std::string& spec) {
  DPX_CHECK(state_ == State::kIdle) << "Listen must precede Run";
  DPX_ASSIGN_OR_RETURN(ListenAddress addr, ParseListenAddress(spec));
  auto listener = std::make_unique<Listener>();
  listener->addr = addr;
  DPX_ASSIGN_OR_RETURN(
      listener->fd, OpenSocket(addr, /*listen=*/true, &listener->bound_port));
  if (::listen(listener->fd, 128) < 0) {
    const Status s = Errno("listen(" + spec + ")");
    ::close(listener->fd);
    return s;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = listeners_.size() + 1;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener->fd, &ev) < 0) {
    const Status s = Errno("epoll_ctl(listener)");
    ::close(listener->fd);
    return s;
  }
  listeners_.push_back(std::move(listener));
  return Status::OK();
}

uint16_t Transport::BoundPort(size_t index) const {
  DPX_CHECK(index < listeners_.size()) << "BoundPort index out of range";
  return listeners_[index]->bound_port;
}

void Transport::SetHttpHandler(HttpHandler handler) {
  DPX_CHECK(state_ == State::kIdle) << "SetHttpHandler must precede Run";
  http_handler_ = std::move(handler);
}

ConnId Transport::Adopt(int read_fd, int write_fd, FrameHandler on_frame,
                        std::function<void()> on_eof) {
  DPX_CHECK(read_fd != write_fd) << "Adopt needs two distinct fds";
  auto owned = std::make_unique<Conn>();
  Conn& conn = *owned;
  conn.fd = read_fd;
  conn.write_fd = write_fd;
  conn.adopted = true;
  conn.on_frame = std::move(on_frame);
  conn.on_eof = std::move(on_eof);
  conn.read_blocking = (::fcntl(read_fd, F_GETFL) & O_NONBLOCK) == 0;
  conn.write_blocking = (::fcntl(write_fd, F_GETFL) & O_NONBLOCK) == 0;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conn.id = next_conn_id_++;
    conns_.emplace(conn.id, std::move(owned));
  }
  // EPERM: a regular file or /dev/null, which never blocks — serve it as
  // always ready instead of through epoll.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conn.id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, read_fd, &ev) == 0) {
    conn.read_interest = EPOLLIN;
  } else {
    DPX_CHECK(errno == EPERM) << "epoll_ctl(adopt): " << ::strerror(errno);
    conn.read_polled = false;
    unpolled_readers_.push_back(conn.id);
  }
  ev.events = 0;
  ev.data.u64 = conn.id | kWriteSideTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, write_fd, &ev) != 0) {
    DPX_CHECK(errno == EPERM) << "epoll_ctl(adopt): " << ::strerror(errno);
    conn.write_polled = false;
  }
  return conn.id;
}

void Transport::RunAfter(int64_t delay_ms, std::function<void()> fn) {
  const auto delay = std::chrono::milliseconds(std::max<int64_t>(0, delay_ms));
  timers_.push_back(
      {std::chrono::steady_clock::now() + delay, timer_seq_++, std::move(fn)});
  std::push_heap(timers_.begin(), timers_.end(), std::greater<>{});
}

void Transport::Run(FrameHandler on_frame) {
  on_frame_ = std::move(on_frame);
  // A Stop() that landed first wins: the loop closes everything at once.
  State idle = State::kIdle;
  state_.compare_exchange_strong(idle, State::kRunning);
  EventLoop();
}

void Transport::Stop() {
  state_ = State::kStopped;
  if (current_loop != this) Wake();  // the loop re-checks state_
}

bool Transport::Send(ConnId id, const std::string& line) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.find(id);
    if (it == conns_.end() || it->second->write_fd < 0) {
      dropped_responses_total_->Increment();
      return false;
    }
    Conn& conn = *it->second;
    wake = !conn.dirty && current_loop != this;
    Enqueue(conn, line + "\n");
  }
  if (wake) Wake();
  return true;
}

void Transport::Enqueue(Conn& conn, std::string payload) {
  conn.out_bytes += payload.size();
  conn.out.push_back(std::move(payload));
  if (!conn.dirty) {
    conn.dirty = true;
    dirty_.push_back(conn.id);
  }
}

size_t Transport::QueuedBytes(ConnId id) const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  auto it = conns_.find(id);
  return it == conns_.end() ? 0 : it->second->out_bytes;
}

size_t Transport::ActiveConnections() const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  return clients_;
}

int Transport::NextTimeoutMs() const {
  for (ConnId id : unpolled_readers_) {
    auto it = conns_.find(id);  // loop thread: the map only changes here
    if (it != conns_.end() && !it->second->read_eof) return 0;
  }
  if (timers_.empty()) return -1;
  const auto wait = timers_.front().due - std::chrono::steady_clock::now();
  if (wait <= std::chrono::steady_clock::duration::zero()) return 0;
  // Round up: waking a hair early would only spin until the deadline.
  const int64_t ms =
      (std::chrono::duration_cast<std::chrono::microseconds>(wait).count() +
       999) / 1000;
  return static_cast<int>(std::min<int64_t>(ms, INT_MAX));
}

void Transport::RunDueTimers() {
  const auto now = std::chrono::steady_clock::now();
  while (running() && !timers_.empty() && timers_.front().due <= now) {
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<>{});
    std::function<void()> fn = std::move(timers_.back().fn);
    timers_.pop_back();
    fn();
  }
}

Transport::Conn* Transport::Find(ConnId id) const {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void Transport::Wake() {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Transport::FlushDirty() {
  std::vector<Conn*> dirty;  // only the loop thread frees a Conn
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (ConnId id : dirty_) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      it->second->dirty = false;
      dirty.push_back(it->second.get());
    }
    dirty_.clear();
  }
  for (Conn* conn : dirty) FlushSome(*conn);
}

void Transport::EventLoop() {
  current_loop = this;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (running()) {
    RunDueTimers();
    FlushDirty();
    closed_.clear();
    if (!running()) break;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, NextTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "[transport] epoll_wait: %s\n", ::strerror(errno));
      break;
    }
    for (int i = 0; i < n && running(); ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (tag < kFirstConnId) {
        Accept(*listeners_[tag - 1]);
        continue;
      }
      Conn* conn = Find(tag & ~kWriteSideTag);
      if (conn == nullptr) continue;  // closed earlier in this batch
      const uint32_t got = events[i].events;
      if (tag & kWriteSideTag) {
        // EPOLLERR on a pipe's write end: the reader is gone. epoll reports
        // it whatever the interest set, so close the side rather than spin.
        if (got & (EPOLLERR | EPOLLHUP)) {
          CloseWrite(conn->id);
        } else {
          FlushSome(*conn);
        }
        continue;
      }
      if (!conn->adopted && (got & (EPOLLHUP | EPOLLERR))) {
        // Treat hard errors and hangups on client sockets as gone.
        CloseConn(*conn);
        continue;
      }
      if ((got & EPOLLOUT) && !conn->adopted) FlushSome(*conn);
      // A hangup on a pipe still leaves its buffered bytes to read.
      if (!conn->closed && (got & (EPOLLIN | EPOLLHUP | EPOLLERR))) {
        HandleReadable(*conn);
      }
    }
    for (size_t i = 0; i < unpolled_readers_.size() && running();) {
      Conn* conn = Find(unpolled_readers_[i]);
      if (conn == nullptr || conn->read_eof) {
        unpolled_readers_.erase(unpolled_readers_.begin() + i);
        continue;
      }
      HandleReadable(*conn);
      ++i;
    }
  }
  CloseAll();
  current_loop = nullptr;
}

void Transport::Accept(Listener& listener) {
  while (true) {
    const int fd = ::accept4(listener.fd, nullptr, nullptr,
                             SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      std::fprintf(stderr, "[transport] accept: %s\n", ::strerror(errno));
      return;
    }
    if (listener.addr.kind == ListenAddress::Kind::kTcp) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    auto owned = std::make_unique<Conn>();
    Conn& conn = *owned;
    conn.fd = fd;
    conn.write_fd = fd;
    conn.read_interest = EPOLLIN;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conn.id = next_conn_id_++;
      conns_.emplace(conn.id, std::move(owned));
      active_connections_->Set(static_cast<int64_t>(++clients_));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn.id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      std::fprintf(stderr, "[transport] epoll_ctl(add): %s\n",
                   ::strerror(errno));
      CloseConn(conn);
      continue;
    }
    connections_total_->Increment();
  }
}

void Transport::HandleReadable(Conn& conn) {
  char buf[64 << 10];
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      if (!conn.adopted) {
        bytes_read_total_->Increment(static_cast<uint64_t>(n));
      }
      if (!DeliverFrames(conn, buf, static_cast<size_t>(n))) return;
      // A blocking fd may only be read once per readiness event; a short
      // read means EAGAIN is probable next — wait for the next event.
      if (conn.read_blocking || static_cast<size_t>(n) < sizeof(buf)) return;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    // EOF or a read error.
    if (!conn.adopted) {
      if (n == 0 && !conn.in.empty()) torn_frames_total_->Increment();
      CloseConn(conn);
      return;
    }
    // Deregister: epoll would keep reporting the hangup of a pipe at EOF.
    conn.read_eof = true;
    conn.in.clear();
    if (conn.read_polled) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
      conn.read_polled = false;
    }
    if (conn.on_eof) conn.on_eof();
    return;
  }
}

bool Transport::DeliverFrames(Conn& conn, const char* data, size_t size) {
  size_t start = 0;
  while (const void* hit = ::memchr(data + start, '\n', size - start)) {
    const size_t end =
        static_cast<size_t>(static_cast<const char*>(hit) - data);
    std::string frame = std::move(conn.in);
    conn.in.clear();
    frame.append(data + start, end - start);
    start = end + 1;
    if (!frame.empty() && frame.back() == '\r') frame.pop_back();
    if (conn.adopted) {
      if (frame.empty()) continue;
      conn.on_frame(conn.id, std::move(frame));
      if (conn.closed) return false;
      continue;
    }
    if (frame.size() > options_.max_frame_bytes) {
      RejectOversized(conn);
      return false;
    }
    if (conn.http_mode) {
      // Request headers are consumed (responding before reading them
      // risks a TCP RST discarding the queued response); the blank
      // terminator line completes the request.
      if (!frame.empty()) continue;
      QueueHttpResponse(conn);
      return false;
    }
    if (frame.empty()) continue;  // blank keep-alive lines are legal
    const bool first_frame = !conn.saw_any_frame;
    conn.saw_any_frame = true;
    if (first_frame && ParseHttpGetLine(frame, &conn.http_path)) {
      conn.http_mode = true;
      continue;
    }
    frames_total_->Increment();
    on_frame_(conn.id, std::move(frame));
    if (conn.closed) return false;
  }
  conn.in.append(data + start, size - start);
  if (conn.adopted) return true;
  if (conn.in.size() > options_.max_frame_bytes) {
    RejectOversized(conn);
    return false;
  }
  // Backpressure: a reader slower than its own request stream gets its
  // reads paused until the response queue drains (see FlushSome).
  std::lock_guard<std::mutex> lock(conns_mutex_);
  if (conn.out_bytes > options_.write_soft_limit_bytes &&
      !conn.reading_suspended) {
    conn.reading_suspended = true;
    reads_suspended_total_->Increment();
    UpdateInterest(conn);
    return false;
  }
  return true;
}

void Transport::RejectOversized(Conn& conn) {
  oversized_frames_total_->Increment();
  conn.in.clear();
  conn.close_after_flush = true;
  conn.reading_suspended = true;
  std::lock_guard<std::mutex> lock(conns_mutex_);
  Enqueue(conn, OversizedFrameError(options_.max_frame_bytes) + "\n");
  UpdateInterest(conn);
}

void Transport::QueueHttpResponse(Conn& conn) {
  HttpResponse response;
  if (http_handler_) {
    response = http_handler_(conn.http_path);
  } else {
    response.status = 404;
    response.body = "no scrape handler installed\n";
  }
  http_requests_total_->Increment();
  std::string payload = "HTTP/1.1 " + std::to_string(response.status) + " " +
                        HttpReason(response.status) +
                        "\r\nContent-Type: " + response.content_type +
                        "\r\nContent-Length: " +
                        std::to_string(response.body.size()) +
                        "\r\nConnection: close\r\n\r\n" + response.body;
  conn.close_after_flush = true;
  conn.reading_suspended = true;
  std::lock_guard<std::mutex> lock(conns_mutex_);
  Enqueue(conn, std::move(payload));
  UpdateInterest(conn);
}

ssize_t Transport::WriteSome(Conn& conn, const char* data, size_t size) {
  if (conn.write_blocking && conn.write_polled) {
    // Never block the loop on an inherited blocking fd: write only what
    // poll() guarantees fits (PIPE_BUF bytes once the fd reports room).
    pollfd pfd{conn.write_fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 0) == 0) {
      errno = EAGAIN;
      return -1;
    }
    size = std::min<size_t>(size, PIPE_BUF);
  }
  return ::write(conn.write_fd, data, size);
}

void Transport::FlushSome(Conn& conn) {
  bool close_now = false;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    while (!conn.out.empty() && conn.write_fd >= 0) {
      const std::string& front = conn.out.front();
      const ssize_t n = WriteSome(conn, front.data() + conn.front_offset,
                                  front.size() - conn.front_offset);
      if (n > 0) {
        if (!conn.adopted) {
          bytes_written_total_->Increment(static_cast<uint64_t>(n));
        }
        conn.front_offset += static_cast<size_t>(n);
        conn.out_bytes -= static_cast<size_t>(n);
        if (conn.front_offset == front.size()) {
          conn.out.pop_front();
          conn.front_offset = 0;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EPIPE / reset: the peer is gone. An adopted pair keeps reading —
      // a dead child's last output is still in its stdout pipe.
      if (conn.adopted) {
        CloseWriteLocked(conn);
        return;
      }
      close_now = true;
      dropped_responses_total_->Increment(conn.out.size());
      conn.out.clear();
      conn.out_bytes = 0;
      conn.front_offset = 0;
      break;
    }
    if (!close_now) {
      if (conn.out.empty() && conn.close_after_flush) {
        close_now = true;
      } else {
        // Resume reading once the backlog has genuinely drained.
        if (conn.reading_suspended && !conn.close_after_flush &&
            conn.out_bytes < options_.write_soft_limit_bytes / 2) {
          conn.reading_suspended = false;
        }
        UpdateInterest(conn);
      }
    }
  }
  if (close_now) CloseConn(conn);
}

void Transport::UpdateInterest(Conn& conn) {
  // Loop thread; epoll_ctl only when the interest set actually changes.
  const uint32_t read = conn.reading_suspended ? 0u : uint32_t{EPOLLIN};
  const uint32_t write = conn.out_bytes > 0 ? uint32_t{EPOLLOUT} : 0u;
  const auto modify = [this](int fd, uint64_t tag, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
      std::fprintf(stderr, "[transport] epoll_ctl(mod): %s\n",
                   ::strerror(errno));
    }
  };
  if (!conn.adopted) {
    if ((read | write) != conn.read_interest) {
      conn.read_interest = read | write;
      modify(conn.fd, conn.id, conn.read_interest);
    }
    return;
  }
  if (conn.read_polled && read != conn.read_interest) {
    conn.read_interest = read;
    modify(conn.fd, conn.id, read);
  }
  if (conn.write_polled && conn.write_fd >= 0 &&
      write != conn.write_interest) {
    conn.write_interest = write;
    modify(conn.write_fd, conn.id | kWriteSideTag, write);
  }
}

void Transport::CloseWrite(ConnId id) {
  Conn* conn = Find(id);
  std::lock_guard<std::mutex> lock(conns_mutex_);
  if (conn != nullptr) CloseWriteLocked(*conn);
}

void Transport::CloseWriteLocked(Conn& conn) {
  DPX_CHECK(conn.adopted) << "CloseWrite is for adopted connections";
  if (conn.write_fd < 0) return;
  if (conn.write_polled) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.write_fd, nullptr);
  }
  ::close(conn.write_fd);
  conn.write_fd = -1;
  conn.out.clear();
  conn.out_bytes = 0;
  conn.front_offset = 0;
}

void Transport::Close(ConnId id) {
  if (Conn* conn = Find(id)) CloseConn(*conn);
}

void Transport::CloseConn(Conn& conn) {
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.find(conn.id);
    if (it == conns_.end()) return;
    closed_.push_back(std::move(it->second));
    conns_.erase(it);
    if (!conn.adopted) {
      active_connections_->Set(static_cast<int64_t>(--clients_));
      if (!conn.out.empty()) {
        dropped_responses_total_->Increment(conn.out.size());
      }
    }
  }
  conn.closed = true;
  if (conn.read_polled) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  if (conn.write_fd >= 0 && conn.write_fd != conn.fd) {
    if (conn.write_polled) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.write_fd, nullptr);
    }
    ::close(conn.write_fd);
  }
  conn.write_fd = -1;
}

void Transport::CloseAll() {
  std::vector<Conn*> open;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& [id, conn] : conns_) open.push_back(conn.get());
  }
  for (Conn* conn : open) CloseConn(*conn);
  closed_.clear();
  unpolled_readers_.clear();
  timers_.clear();
  for (auto& listener : listeners_) {
    ::close(listener->fd);
    if (listener->addr.kind == ListenAddress::Kind::kUnix) {
      ::unlink(listener->addr.path.c_str());
    }
  }
  listeners_.clear();
}

StatusOr<std::unique_ptr<ClientChannel>> ClientChannel::Connect(
    const std::string& spec) {
  DPX_ASSIGN_OR_RETURN(ListenAddress addr, ParseListenAddress(spec));
  DPX_ASSIGN_OR_RETURN(int fd, OpenSocket(addr, /*listen=*/false, nullptr));
  return std::unique_ptr<ClientChannel>(new ClientChannel(fd));
}

ClientChannel::~ClientChannel() {
  if (fd_ >= 0) ::close(fd_);
}

Status ClientChannel::SendLine(const std::string& line) {
  std::string framed = line + "\n";
  size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::write(fd_, framed.data() + off, framed.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("write");
  }
  return Status::OK();
}

StatusOr<std::string> ClientChannel::RecvLine(int timeout_ms) {
  while (true) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (timeout_ms >= 0) {
      pollfd pfd{fd_, POLLIN, 0};
      const int r = ::poll(&pfd, 1, timeout_ms);
      if (r < 0 && errno != EINTR) return Errno("poll");
      if (r == 0) return Status::DeadlineExceeded("RecvLine timed out");
      if (r < 0) continue;  // EINTR
    }
    char buf[16 << 10];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      buffer_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::IoError("connection closed by server");
    if (errno == EINTR) continue;
    return Errno("read");
  }
}

}  // namespace dpclustx::service
