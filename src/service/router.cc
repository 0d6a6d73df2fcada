#include "service/router.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <random>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "service/json_relay.h"
#include "service/router_core.h"

namespace dpclustx::service {
namespace {

using Clock = std::chrono::steady_clock;

/// How long a shutdown waits for in-flight requests (checking every
/// kDrainPollMs), and then for workers to snapshot and exit, before failing
/// the rest / SIGKILLing the stragglers.
constexpr int64_t kDrainMs = 10000;
constexpr int64_t kDrainPollMs = 10;
constexpr int64_t kWorkerExitMs = 60000;
/// Deadline of each shard's save_snapshot during _router_sync_replicas.
constexpr int64_t kSnapshotSaveDeadlineMs = 10000;

/// Engine-shaped error response so clients see one vocabulary regardless of
/// whether the router or a worker produced the error. retry_after_ms > 0
/// adds the back-off hint shed responses carry.
JsonValue ErrorBody(StatusCode code, const std::string& message,
                    int64_t retry_after_ms = 0) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(StatusCodeName(code)));
  error.Set("message", JsonValue::String(message));
  if (retry_after_ms > 0) {
    error.Set("retry_after_ms",
              JsonValue::Number(static_cast<double>(retry_after_ms)));
  }
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(false));
  response.Set("error", std::move(error));
  return response;
}

/// Duration → whole microseconds, rounded UP with a floor of 1 — matching
/// obs::Trace's convention that a span which ran at all reports >= 1 µs.
uint64_t CeilMicros(Clock::duration d) {
  if (d <= Clock::duration::zero()) return 1;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  const uint64_t micros = static_cast<uint64_t>((ns + 999) / 1000);
  return micros == 0 ? 1 : micros;
}

int64_t NowSteadyMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One span in the stitched timeline, shaped exactly like obs::Trace's
/// ToJson nodes ({"name","start_micros","wall_micros","cpu_micros",
/// "children"}) so clients render router and worker spans uniformly. The
/// router has no per-span CPU clock; cpu_micros is 0 for router spans.
/// `name` must come from the fixed span vocabulary below — never client
/// data (the DP-safety rule trace.h states for worker spans holds here).
JsonValue SpanJson(const char* name, uint64_t start_micros,
                   uint64_t wall_micros) {
  JsonValue span = JsonValue::Object();
  span.Set("name", JsonValue::String(name));
  span.Set("start_micros",
           JsonValue::Number(static_cast<double>(start_micros)));
  span.Set("wall_micros", JsonValue::Number(static_cast<double>(wall_micros)));
  span.Set("cpu_micros", JsonValue::Number(0));
  span.Set("children", JsonValue::Array());
  return span;
}

/// "name" → "name{worker=\"shard-0\"}", "name{op=\"x\"}" →
/// "name{op=\"x\",worker=\"shard-0\"}" — how the fleet rollup folds every
/// worker's registry into one namespace without key collisions.
std::string InjectWorkerLabel(const std::string& key,
                              const std::string& worker) {
  const std::string label = "worker=\"" + worker + "\"";
  if (!key.empty() && key.back() == '}') {
    return key.substr(0, key.size() - 1) + "," + label + "}";
  }
  return key + "{" + label + "}";
}

/// One in-flight forwarded request. kInternal entries (health pings,
/// replica-sync snapshot saves) complete a callback instead of writing to a
/// client.
struct PendingEntry {
  enum class Kind { kSingle, kBroadcast, kInternal };
  Kind kind = Kind::kSingle;

  ConnId client = 0;  // connection owed the response
  bool has_client_id = false;
  JsonValue client_id;
  std::string client_id_json;  // client_id pre-serialized: the splice path
                               // does zero JSON work per response
  Clock::time_point enqueued;  // receive time; _router_status aging

  std::string worker;        // who currently owes the response
  std::string request_line;  // rewritten line (router id), for fallback
  std::string dataset;       // kSingle: owning dataset, "" for unknown-op
  bool on_replica = false;   // kSingle: true while a replica is trying

  // Timeline bookkeeping. written is refreshed when a replica miss moves
  // the request to the primary, so worker_roundtrip measures the leg that
  // actually answered.
  std::string op;            // for the slow log and the metrics rollup
  bool traced = false;       // "trace":true — a stitched timeline is owed
  std::string tid;           // propagated trace id ("t<seq>")
  Clock::time_point written;   // queued-to-worker time
  uint64_t parse_micros = 0;   // request parse
  uint64_t route_micros = 0;   // classify + shard pick
  uint64_t splice_micros = 0;  // _tc splice into the forwarded line

  size_t awaiting = 0;       // kBroadcast: responses still outstanding
  JsonValue merged = JsonValue::Object();

  // kInternal: called once, with the response line, or with nullptr when
  // the worker died or the deadline passed first.
  std::function<void(const std::string*)> on_done;
};

struct WorkerProc {
  std::string name;            // "shard-0" / "replica-0.1"
  std::vector<std::string> args;
  size_t shard = 0;            // owning shard index (== own index for shards)
  bool replica = false;

  pid_t pid = -1;
  ConnId conn = 0;             // the adopted pipe pair while alive
  bool alive = false;
  uint64_t life = 0;           // bumped per spawn; stale timers check it
  uint64_t restarts = 0;       // crash respawns (not deliberate ones)
  int misses = 0;              // consecutive health-check misses

  // Per-worker labeled instruments ({worker="<name>"}), registered once at
  // router construction in the process registry. spawned_at_ms feeds the
  // replica-staleness gauge: replicas only refresh by respawning, so their
  // age IS the staleness of the snapshot they serve.
  obs::LatencyHistogram* latency = nullptr;
  obs::Counter* restarts_counter = nullptr;
  obs::Gauge* backoff_gauge = nullptr;
  int64_t spawned_at_ms = 0;
};

/// The stitched end-to-end timeline for one traced request: router-side
/// spans with start offsets on the router's clock, plus (when the worker
/// answered) the worker's own span tree nested under worker_roundtrip.
///
///   router_request
///   ├─ parse              request JSON parse
///   ├─ shard_pick         classify + consistent-hash lookup
///   ├─ relay_splice       _tc splice into the forwarded line
///   ├─ worker_roundtrip   queued to the worker → response line
///   │  ├─ worker_queue_wait   roundtrip − worker-reported wall: pipe
///   │  │                      transit + time queued in the worker
///   │  └─ <worker tree>       offsets relative to the WORKER's root (its
///   │                         clock domain; only durations line up)
///   └─ write_back         response stitch + serialize, up to the reply
///
/// `worker_tree` is null when the worker died or answered without a tree —
/// the caller marks those responses "trace_partial". Span names here are
/// the fixed vocabulary above; like worker spans they carry timings only.
JsonValue StitchTimeline(const PendingEntry& entry, Clock::time_point replied,
                         const JsonValue* worker_tree) {
  JsonValue children = JsonValue::Array();
  children.Append(SpanJson("parse", 0, entry.parse_micros));
  uint64_t cursor = entry.parse_micros;
  children.Append(SpanJson("shard_pick", cursor, entry.route_micros));
  cursor += entry.route_micros;
  children.Append(SpanJson("relay_splice", cursor, entry.splice_micros));
  const uint64_t roundtrip_start = CeilMicros(entry.written - entry.enqueued);
  const uint64_t roundtrip_wall = CeilMicros(replied - entry.written);
  JsonValue roundtrip =
      SpanJson("worker_roundtrip", roundtrip_start, roundtrip_wall);
  if (worker_tree != nullptr) {
    uint64_t worker_wall = 0;
    if (worker_tree->Has("wall_micros") &&
        worker_tree->at("wall_micros").type() == JsonValue::Type::kNumber) {
      // Worker output is untrusted once a worker has crashed mid-write:
      // cast only values in range.
      const double wall = worker_tree->at("wall_micros").AsNumber();
      if (wall > 0.0 && wall < 0x1.0p63) {
        worker_wall = static_cast<uint64_t>(wall);
      }
    }
    const uint64_t queue_wait =
        roundtrip_wall > worker_wall ? roundtrip_wall - worker_wall : 1;
    JsonValue nested = JsonValue::Array();
    nested.Append(SpanJson("worker_queue_wait", roundtrip_start, queue_wait));
    nested.Append(*worker_tree);
    roundtrip.Set("children", std::move(nested));
  }
  children.Append(std::move(roundtrip));
  const auto stitched_at = Clock::now();
  children.Append(SpanJson("write_back", CeilMicros(replied - entry.enqueued),
                           CeilMicros(stitched_at - replied)));
  JsonValue root =
      SpanJson("router_request", 0, CeilMicros(stitched_at - entry.enqueued));
  root.Set("children", std::move(children));
  return root;
}

/// The full-parse relay: decode the worker line, rewrite the id, dump.
/// The splice path must match this byte for byte (verify_relay checks).
std::string FullParseRelay(const JsonValue& parsed, const PendingEntry& entry) {
  JsonValue response = parsed;
  if (entry.has_client_id) {
    response.Set("id", entry.client_id);
  } else {
    response.Remove("id");
  }
  return response.Dump();
}

/// True when a worker response is the read-only / unknown-state refusal a
/// replica emits on a cache miss — the signal to fall back to the primary.
bool ReplicaRefusal(const JsonValue& response) {
  if (!response.Has("ok") ||
      response.at("ok").type() != JsonValue::Type::kBool ||
      response.at("ok").AsBool() || !response.Has("error")) {
    return false;
  }
  const JsonValue& error = response.at("error");
  if (error.type() != JsonValue::Type::kObject || !error.Has("code") ||
      error.at("code").type() != JsonValue::Type::kString) {
    return false;
  }
  const std::string& code = error.at("code").AsString();
  return code == StatusCodeName(StatusCode::kFailedPrecondition) ||
         code == StatusCodeName(StatusCode::kNotFound);
}

obs::Counter* RouterCounter(const char* name, const char* help) {
  return obs::MetricsRegistry::Default().RegisterCounter(name, help);
}

void SetNonBlocking(int fd) {
  DPX_CHECK(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) == 0)
      << "fcntl(O_NONBLOCK): " << std::strerror(errno);
}

}  // namespace

class Router::Impl {
 public:
  explicit Impl(RouterOptions options)
      : options_(std::move(options)),
        core_(ShardNames(options_.num_shards), options_.vnodes),
        dropped_lines_counter_(RouterCounter(
            "dpclustx_router_dropped_lines_total",
            "worker stdout lines the router could not parse or attribute to "
            "a request")),
        relay_spliced_counter_(RouterCounter(
            "dpclustx_router_relay_spliced_total",
            "worker responses relayed via the zero-reparse id splice")),
        relay_full_parse_counter_(RouterCounter(
            "dpclustx_router_relay_full_parse_total",
            "worker responses relayed via the full parse/dump path")),
        shed_requests_counter_(RouterCounter(
            "dpclustx_router_shed_requests_total",
            "requests refused with ResourceExhausted because the client's "
            "response backlog passed the hard write limit")),
        tc_spliced_counter_(RouterCounter(
            "dpclustx_router_tc_spliced_total",
            "trace contexts injected via the zero-reparse splice")),
        tc_full_parse_counter_(RouterCounter(
            "dpclustx_router_tc_full_parse_total",
            "trace contexts injected via the full parse/dump fallback")),
        transport_(options_.transport) {
    // worker_listen_base P hands worker k (in spawn order: shards first,
    // then replicas) its own tcp scrape listener on 127.0.0.1:(P+k). The
    // port rides in the respawn args, so a respawned worker comes back on
    // the same address (SO_REUSEADDR makes the rebind immediate).
    uint16_t next_port = options_.worker_listen_base;
    const auto add_worker = [&](std::string name, size_t shard, bool replica,
                                std::vector<std::string> args) {
      auto w = std::make_unique<WorkerProc>();
      w->name = std::move(name);
      w->shard = shard;
      w->replica = replica;
      w->args = std::move(args);
      if (options_.worker_listen_base != 0) {
        w->args.push_back("--listen");
        w->args.push_back("tcp:127.0.0.1:" + std::to_string(next_port++));
      }
      w->args.insert(w->args.end(), options_.worker_extra_args.begin(),
                     options_.worker_extra_args.end());
      workers_.push_back(std::move(w));
    };
    const size_t shards = options_.num_shards;
    for (size_t i = 0; i < shards; ++i) {
      add_worker("shard-" + std::to_string(i), i, false,
                 {options_.serve_bin, "--snapshot", SnapshotPath(i),
                  "--audit-journal", options_.state_dir + "/shard-" +
                                         std::to_string(i) + ".journal"});
    }
    for (size_t i = 0; i < shards; ++i) {
      for (size_t r = 0; r < options_.replicas_per_shard; ++r) {
        // Replicas restore from the shard's snapshot but never journal or
        // save: they are disposable caches, refreshed by respawning
        // (_router_sync_replicas).
        add_worker("replica-" + std::to_string(i) + "." + std::to_string(r),
                   i, true,
                   {options_.serve_bin, "--read-only", "--snapshot",
                    SnapshotPath(i)});
      }
    }
    RegisterWorkerInstruments();
  }

  Status Run() {
    for (const std::string& spec : options_.listen_specs) {
      DPX_RETURN_IF_ERROR(transport_.Listen(spec));
    }
    // Native scrape endpoints on the same listeners the line protocol
    // uses: registry reads only, never a worker round trip.
    transport_.SetHttpHandler(
        [this](const std::string& path) { return HttpScrape(path); });
    EnsureStateDir();
    for (auto& w : workers_) Spawn(*w);
    // stdin stays the lifecycle handle even in socket mode: EOF there is
    // the shutdown signal (run under a supervisor, hold the pipe open).
    stdio_ = transport_.Adopt(
        STDIN_FILENO, STDOUT_FILENO, Transport::Peer::kClient,
        [this](ConnId conn, std::string&& line) {
          HandleClientLine(conn, line);
        },
        [this] {
          Drain(Clock::now() + std::chrono::milliseconds(kDrainMs));
        });
    transport_.Run([this](ConnId conn, std::string&& line) {
      HandleClientLine(conn, line);
    });
    return Status::OK();
  }

 private:
  static std::vector<std::string> ShardNames(size_t n) {
    std::vector<std::string> names;
    names.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      names.push_back("shard-" + std::to_string(i));
    }
    return names;
  }

  std::string SnapshotPath(size_t shard) const {
    return options_.state_dir + "/shard-" + std::to_string(shard) + ".snap";
  }

  // Workers refuse to start if their journal path is unwritable, so a
  // missing state directory would look like an instant crash loop. mkdir -p.
  void EnsureStateDir() const {
    std::error_code ec;
    std::filesystem::create_directories(options_.state_dir, ec);
    DPX_CHECK(std::filesystem::is_directory(options_.state_dir, ec))
        << "--state-dir '" << options_.state_dir << "' cannot be created";
  }

  // ---- telemetry plane -----------------------------------------------

  /// Registers the per-worker labeled instruments in the process registry.
  /// Callback gauges read loop-owned state; every exposition runs on the
  /// loop thread (HTTP scrapes, the metrics op), so they need no lock.
  void RegisterWorkerInstruments() {
    auto& registry = obs::MetricsRegistry::Default();
    for (auto& owned : workers_) {
      WorkerProc* w = owned.get();
      const obs::MetricLabels labels = {{"worker", w->name}};
      w->latency = registry.RegisterLatencyHistogram(
          "dpclustx_router_worker_latency_micros",
          "Round trip from pipe write to response line, per worker", labels);
      w->restarts_counter = registry.RegisterCounter(
          "dpclustx_router_worker_restarts_total",
          "Crash respawns (deliberate replica refreshes excluded)", labels);
      w->backoff_gauge = registry.RegisterGauge(
          "dpclustx_router_worker_backoff_ms",
          "Backoff applied to the worker's most recent crash respawn",
          labels);
      registry.AddCallbackGauge(
          "dpclustx_router_worker_alive", "1 while the worker process lives",
          labels, [w] { return w->alive ? 1.0 : 0.0; });
      registry.AddCallbackGauge(
          "dpclustx_router_worker_pending",
          "Requests currently in flight on this worker", labels, [this, w] {
            double depth = 0;
            for (const auto& [id, entry] : pending_) {
              if (entry->kind != PendingEntry::Kind::kBroadcast &&
                  entry->worker == w->name) {
                ++depth;
              }
            }
            return depth;
          });
      if (w->replica) {
        registry.AddCallbackGauge(
            "dpclustx_router_replica_staleness_seconds",
            "Seconds since the replica was (re)spawned from its shard's "
            "snapshot — replicas only refresh by respawning, so their age "
            "is their snapshot's staleness",
            labels, [w] {
              if (w->spawned_at_ms == 0) return 0.0;
              const int64_t now_ms = NowSteadyMs();
              return now_ms > w->spawned_at_ms
                         ? (now_ms - w->spawned_at_ms) / 1000.0
                         : 0.0;
            });
      }
    }
    registry.AddCallbackGauge(
        "dpclustx_router_trace_dropped_total",
        "Stitched timelines evicted from the bounded router trace ring", {},
        [this] { return static_cast<double>(trace_dropped_); });
  }

  /// GET /metrics | /healthz | /ready on any listener.
  HttpResponse HttpScrape(const std::string& path) {
    HttpResponse response;
    if (path == "/metrics") {
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = obs::MetricsRegistry::Default().PrometheusText();
    } else if (path == "/healthz") {
      // Liveness: the event loop answered, the router process is up.
      response.body = "ok\n";
    } else if (path == "/ready") {
      // Readiness: every shard primary is live (replicas are optional
      // caches; a dead replica degrades latency, not correctness).
      size_t down = 0;
      for (size_t i = 0; i < options_.num_shards; ++i) {
        if (!workers_[i]->alive) ++down;
      }
      if (down == 0) {
        response.body = "ready\n";
      } else {
        response.status = 503;
        response.body = "not ready: " + std::to_string(down) +
                        " shard(s) down, respawn pending\n";
      }
    } else {
      response.status = 404;
      response.body = "not found (try /metrics, /healthz, /ready)\n";
    }
    return response;
  }

  // ---- client replies ------------------------------------------------

  /// Sends `response` to the client `request` came from, echoing its id.
  /// A client that disconnected is not an error: the transport counts the
  /// dropped response.
  void Respond(const PendingEntry& request, JsonValue response) {
    if (request.has_client_id) response.Set("id", request.client_id);
    transport_.Send(request.client, response.Dump());
  }

  void RespondError(const PendingEntry& request, StatusCode code,
                    const std::string& message, int64_t retry_after_ms = 0) {
    Respond(request, ErrorBody(code, message, retry_after_ms));
  }

  WorkerProc* FindWorker(const std::string& name) {
    for (auto& w : workers_) {
      if (w->name == name) return w.get();
    }
    return nullptr;
  }

  /// An alive replica of `shard`, round-robin; nullptr when none.
  WorkerProc* PickReplica(size_t shard) {
    std::vector<WorkerProc*> candidates;
    for (auto& w : workers_) {
      if (w->replica && w->shard == shard && w->alive) {
        candidates.push_back(w.get());
      }
    }
    if (candidates.empty()) return nullptr;
    return candidates[replica_rr_++ % candidates.size()];
  }

  // ---- process plumbing ----------------------------------------------

  void Spawn(WorkerProc& w) {
    // O_CLOEXEC: no worker may inherit another worker's pipe ends (a
    // stray write end would hide that worker's stdin EOF at shutdown).
    int to_child[2];
    int from_child[2];
    DPX_CHECK(::pipe2(to_child, O_CLOEXEC) == 0 &&
              ::pipe2(from_child, O_CLOEXEC) == 0)
        << "pipe: " << std::strerror(errno);
    const pid_t pid = ::fork();
    DPX_CHECK(pid >= 0) << "fork: " << std::strerror(errno);
    if (pid == 0) {
      ::dup2(to_child[0], STDIN_FILENO);  // dup2 clears O_CLOEXEC
      ::dup2(from_child[1], STDOUT_FILENO);
      std::vector<char*> argv;
      argv.reserve(w.args.size() + 1);
      for (const std::string& a : w.args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::cerr << "execv " << w.args[0] << ": " << std::strerror(errno)
                << "\n";
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    // Only the router's own pipe ends go non-blocking.
    SetNonBlocking(to_child[1]);
    SetNonBlocking(from_child[0]);
    w.pid = pid;
    w.alive = true;
    w.misses = 0;
    w.spawned_at_ms = NowSteadyMs();
    const uint64_t life = ++w.life;
    w.conn = transport_.Adopt(
        from_child[0], to_child[1], Transport::Peer::kServer,
        [this, &w](ConnId, std::string&& line) { HandleWorkerLine(w, line); },
        [this, &w, life] {
          if (w.life == life) WorkerDied(w);
        });
    SchedulePing(w, life);
  }

  bool SendToWorker(WorkerProc& w, const std::string& line) {
    return w.alive && transport_.Send(w.conn, line);
  }

  /// SIGKILLs and reaps `w` if it still runs (a blocking waitpid is safe
  /// only after SIGKILL), then fails or re-routes everything it owed.
  void Bury(WorkerProc& w) {
    w.alive = false;
    transport_.Close(w.conn);
    w.conn = 0;
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
    }
    FailWorkerPending(w.name);
  }

  /// EOF on the worker's stdout, or its health checks gave up on it.
  void WorkerDied(WorkerProc& w) {
    if (!w.alive) return;
    Bury(w);
    if (stopping_) {
      FinishIfWorkersExited();
      return;
    }
    const uint64_t attempt = ++w.restarts;
    w.restarts_counter->Increment();
    // Jittered so N workers felled by a common cause (bad snapshot, OOM
    // sweep) fan back in over a window instead of re-stampeding in
    // lockstep.
    const int64_t delay = backoff_.JitteredDelayMs(
        attempt,
        std::uniform_real_distribution<double>(0.0, 1.0)(respawn_rng_));
    w.backoff_gauge->Set(delay);
    std::cerr << "[router] respawning " << w.name << " (attempt " << attempt
              << ", backoff " << delay << "ms)\n";
    transport_.RunAfter(delay, [this, &w, life = w.life] {
      if (w.life == life && !stopping_) Spawn(w);
    });
  }

  /// Kill + respawn without counting it as a crash and without backoff —
  /// used to refresh replicas from a newly saved shard snapshot.
  void RespawnDeliberately(WorkerProc& w) {
    Bury(w);
    if (!stopping_) Spawn(w);
  }

  // ---- health checks -------------------------------------------------

  void SchedulePing(WorkerProc& w, uint64_t life) {
    transport_.RunAfter(options_.health_interval_ms,
                        [this, &w, life] { Ping(w, life); });
  }

  /// One ping with a deadline; the next follows one interval after the
  /// answer (or the miss), so each worker has at most one ping in flight.
  void Ping(WorkerProc& w, uint64_t life) {
    if (w.life != life || !w.alive || stopping_) return;
    JsonValue ping = JsonValue::Object();
    ping.Set("op", JsonValue::String("ping"));
    SendInternal(w, std::move(ping), options_.health_deadline_ms,
                 [this, &w, life](const std::string* line) {
                   if (w.life != life || !w.alive) return;
                   if (line != nullptr) {
                     w.misses = 0;
                   } else if (++w.misses >= options_.health_misses) {
                     std::cerr << "[router] " << w.name << " missed "
                               << w.misses << " health checks; killing\n";
                     WorkerDied(w);
                     return;
                   }
                   SchedulePing(w, life);
                 });
  }

  /// Sends a router-originated request to `w`; `on_done` gets the response
  /// line, or nullptr when the worker dies or `deadline_ms` passes first.
  void SendInternal(WorkerProc& w, JsonValue request, int64_t deadline_ms,
                    std::function<void(const std::string*)> on_done) {
    const std::string rid = "hc-" + std::to_string(next_id_++);
    request.Set("id", JsonValue::String(rid));
    if (!SendToWorker(w, request.Dump())) {
      on_done(nullptr);
      return;
    }
    auto entry = std::make_unique<PendingEntry>();
    entry->kind = PendingEntry::Kind::kInternal;
    entry->worker = w.name;
    entry->enqueued = Clock::now();
    entry->on_done = std::move(on_done);
    pending_[rid] = std::move(entry);
    transport_.RunAfter(deadline_ms, [this, rid] {
      auto it = pending_.find(rid);
      if (it == pending_.end()) return;
      std::unique_ptr<PendingEntry> expired = std::move(it->second);
      pending_.erase(it);
      expired->on_done(nullptr);
    });
  }

  // ---- response plumbing ---------------------------------------------

  void HandleWorkerLine(WorkerProc& w, const std::string& line) {
    // Hot path: one structural scan finds the router id without building a
    // document tree. The full parser runs only for lines the scanner
    // refuses (torn output, escaped ids) and for the cold response kinds
    // that genuinely need a tree (broadcast merge, replica refusal check,
    // traced responses).
    StatusOr<RelayScan> scan = ScanTopLevelId(line);
    StatusOr<JsonValue> parsed = Status::Internal("not parsed");
    bool have_parsed = false;
    const auto ensure_parsed = [&]() -> bool {
      if (!have_parsed) {
        parsed = JsonValue::Parse(line);
        have_parsed = true;
      }
      return parsed.ok() && parsed->type() == JsonValue::Type::kObject;
    };

    std::string rid;
    if (scan.ok()) {
      rid = scan->id;
    } else {
      if (!ensure_parsed() || !parsed->Has("id") ||
          parsed->at("id").type() != JsonValue::Type::kString) {
        DropMalformedLine(w, line);
        return;
      }
      rid = parsed->at("id").AsString();
    }

    const auto replied = Clock::now();
    auto it = pending_.find(rid);
    if (it == pending_.end()) return;
    PendingEntry& entry = *it->second;
    if (entry.kind == PendingEntry::Kind::kSingle && entry.on_replica &&
        ensure_parsed() && ReplicaRefusal(*parsed)) {
      // The replica's cache had no hit (or its snapshot predates the
      // session): retry the identical line against the primary; the
      // pending entry stays, the response comes from the primary.
      WorkerProc* primary = FindWorker(core_.ShardFor(entry.dataset));
      if (primary != nullptr) {
        entry.on_replica = false;
        entry.worker = primary->name;
        entry.written = replied;  // roundtrip = the primary's leg
        if (!SendToWorker(*primary, entry.request_line)) {
          FinishWithError(rid, "primary '" + primary->name +
                                   "' is down; retry once it respawns");
        }
        return;
      }
    }
    if (entry.kind == PendingEntry::Kind::kBroadcast) {
      if (!ensure_parsed()) {
        std::unique_ptr<PendingEntry> victim = std::move(it->second);
        pending_.erase(it);
        FailUnparseable(w, *victim);
        return;
      }
      if (w.latency != nullptr) {
        w.latency->Observe(CeilMicros(replied - entry.written));
      }
      JsonValue piece = *parsed;
      piece.Remove("id");
      entry.merged.Set(w.name, std::move(piece));
      if (--entry.awaiting > 0) return;
    }
    std::unique_ptr<PendingEntry> done = std::move(it->second);
    pending_.erase(it);
    switch (done->kind) {
      case PendingEntry::Kind::kInternal:
        done->on_done(&line);
        return;
      case PendingEntry::Kind::kBroadcast:
        Respond(*done, BroadcastResponse(*done));
        MaybeSlowLog(*done, replied);
        return;
      case PendingEntry::Kind::kSingle:
        break;
    }
    if (w.latency != nullptr) {
      w.latency->Observe(CeilMicros(replied - done->written));
    }
    std::string out;
    if (done->traced) {
      // A traced response is the one relay that genuinely needs the tree:
      // the worker's span tree moves from the envelope into the stitched
      // timeline.
      if (!ensure_parsed()) {
        FailUnparseable(w, *done);
        return;
      }
      JsonValue response = *parsed;
      if (done->has_client_id) {
        response.Set("id", done->client_id);
      } else {
        response.Remove("id");
      }
      const bool have_tree =
          response.Has("trace") &&
          response.at("trace").type() == JsonValue::Type::kObject;
      JsonValue stitched = StitchTimeline(
          *done, replied, have_tree ? &response.at("trace") : nullptr);
      response.Set("trace", stitched);
      response.Set("trace_id", JsonValue::String(done->tid));
      if (!have_tree) {
        // Worker answered without a tree (e.g. a pre-dispatch refusal):
        // the timeline covers the router side only.
        response.Set("trace_partial", JsonValue::Bool(true));
      }
      out = response.Dump();
      relay_full_parse_counter_->Increment();
      // Ring first, reply second: a client that sends `trace` the instant
      // it sees this response must find the timeline there.
      PushRouterTrace(done->op, done->tid, std::move(stitched),
                      /*partial=*/false);
    } else if (scan.ok()) {
      out = done->client_id_json.empty()
                ? EraseId(line, *scan)
                : SpliceId(line, *scan, done->client_id_json);
      relay_spliced_counter_->Increment();
      if (options_.verify_relay) {
        DPX_CHECK(ensure_parsed())
            << "verify-relay: spliced line failed the full parser";
        const std::string expect = FullParseRelay(*parsed, *done);
        DPX_CHECK(out == expect)
            << "relay splice diverged from the full-parse path: " << out
            << " vs " << expect;
      }
    } else {
      if (!ensure_parsed()) {
        FailUnparseable(w, *done);
        return;
      }
      out = FullParseRelay(*parsed, *done);
      relay_full_parse_counter_->Increment();
    }
    transport_.Send(done->client, std::move(out));
    MaybeSlowLog(*done, replied);
  }

  /// A line the scanner accepted but the full parser refused (possible only
  /// off the splice fast path, where the tree is actually needed): the owed
  /// response is unrecoverable, fail that exact request.
  void FailUnparseable(const WorkerProc& w, const PendingEntry& entry) {
    ++dropped_lines_;
    dropped_lines_counter_->Increment();
    RespondError(entry, StatusCode::kInternal,
                 "worker '" + w.name +
                     "' emitted an unparseable response line");
  }

  /// A malformed worker line — unparseable JSON, or missing the string
  /// router id every forwarded request carries — means some request's
  /// response is unrecoverable: the worker consumed a request slot and
  /// produced garbage. Silently ignoring it would leave that client waiting
  /// until the worker dies. Workers answer in request order (the protocol
  /// is pipelined per worker), so the garbage overwhelmingly belongs to the
  /// oldest single-shot request the worker still owes: that request is
  /// failed with a structured Internal error and the breach is counted in
  /// dpclustx_router_dropped_lines_total (exposed via _router_status).
  void DropMalformedLine(WorkerProc& w, const std::string& line) {
    ++dropped_lines_;
    dropped_lines_counter_->Increment();
    std::cerr << "[router] " << w.name << " emitted a malformed line ("
              << line.size() << " bytes); failing its oldest pending"
              << " request\n";
    const std::string* victim = nullptr;
    uint64_t oldest = 0;
    for (const auto& [id, entry] : pending_) {
      if (entry->kind != PendingEntry::Kind::kSingle) continue;
      if (entry->worker != w.name) continue;
      // Single ids are "r<seq>"; the smallest sequence is the oldest.
      const uint64_t seq = std::strtoull(id.c_str() + 1, nullptr, 10);
      if (victim == nullptr || seq < oldest) {
        oldest = seq;
        victim = &id;
      }
    }
    if (victim == nullptr) return;  // a stray; nothing was waiting on it
    FinishWithError(*victim,
                    "worker '" + w.name +
                        "' emitted a malformed response line; the request "
                        "was consumed but its response is unrecoverable — "
                        "retry");
  }

  /// Resolves (erases) a pending client request with a router-generated
  /// Internal error.
  void FinishWithError(const std::string& rid, const std::string& message) {
    auto it = pending_.find(rid);
    if (it == pending_.end()) return;
    std::unique_ptr<PendingEntry> entry = std::move(it->second);
    pending_.erase(it);
    RespondError(*entry, StatusCode::kInternal, message);
  }

  /// Called when `worker` died: every request it still owed is either
  /// retried (replica reads move to the primary) or failed with a retryable
  /// error. The worker's own snapshot+journal restore makes the retry safe:
  /// a charge that reached the journal is restored, its response re-served
  /// from the cache for zero ε. The map is settled before any callback or
  /// retry runs, since those may start or fail requests themselves.
  void FailWorkerPending(const std::string& worker) {
    const auto now = Clock::now();
    std::vector<std::string> retries;
    std::vector<std::unique_ptr<PendingEntry>> finished;
    for (auto it = pending_.begin(); it != pending_.end();) {
      PendingEntry& entry = *it->second;
      if (entry.kind == PendingEntry::Kind::kBroadcast) {
        // Broadcasts owe one slot per shard; a dead shard contributes an
        // error object instead of blocking the merge forever.
        if (!entry.merged.Has(worker) && entry.awaiting > 0) {
          entry.merged.Set(worker, ErrorBody(StatusCode::kInternal,
                                             "worker died before responding"));
          if (--entry.awaiting == 0) {
            finished.push_back(std::move(it->second));
            it = pending_.erase(it);
            continue;
          }
        }
        ++it;
        continue;
      }
      if (entry.worker != worker) {
        ++it;
        continue;
      }
      if (entry.on_replica) {
        WorkerProc* primary = FindWorker(core_.ShardFor(entry.dataset));
        if (primary != nullptr) {
          entry.on_replica = false;
          entry.worker = primary->name;
          entry.written = now;  // roundtrip = the primary's leg
          retries.push_back(it->first);
          ++it;
          continue;
        }
      }
      finished.push_back(std::move(it->second));
      it = pending_.erase(it);
    }
    for (auto& entry : finished) {
      switch (entry->kind) {
        case PendingEntry::Kind::kInternal:
          entry->on_done(nullptr);
          break;
        case PendingEntry::Kind::kBroadcast:
          Respond(*entry, BroadcastResponse(*entry));
          MaybeSlowLog(*entry, now);
          break;
        case PendingEntry::Kind::kSingle: {
          JsonValue response = ErrorBody(
              StatusCode::kInternal,
              "worker '" + worker +
                  "' died mid-request; it will be respawned and restored "
                  "from its snapshot and audit journal — retry (a charge "
                  "that was journaled re-serves from the cache for zero "
                  "ε)");
          if (entry->traced) {
            // No hang, no garbled splice: the client still gets a
            // timeline — the router-side spans, honestly marked partial
            // (the worker's subtree died with the worker). Ring before
            // reply, as on the completion path.
            JsonValue partial = StitchTimeline(*entry, now, nullptr);
            response.Set("trace", partial);
            response.Set("trace_id", JsonValue::String(entry->tid));
            response.Set("trace_partial", JsonValue::Bool(true));
            PushRouterTrace(entry->op, entry->tid, std::move(partial),
                            /*partial=*/true);
          }
          Respond(*entry, std::move(response));
          MaybeSlowLog(*entry, now);
          break;
        }
      }
    }
    for (const std::string& rid : retries) {
      auto it = pending_.find(rid);
      if (it == pending_.end()) continue;
      WorkerProc* primary = FindWorker(it->second->worker);
      if (!SendToWorker(*primary, it->second->request_line)) {
        FinishWithError(rid, "primary '" + primary->name +
                                 "' is down; retry once it respawns");
      }
    }
  }

  // ---- request handling ----------------------------------------------

  void HandleClientLine(ConnId conn, const std::string& line) {
    // The entry carries the receive-side timings, so traced requests can
    // render them as spans and the slow log can anchor on the true receive
    // time; router-answered requests use it for the reply address and id.
    auto entry = std::make_unique<PendingEntry>();
    entry->client = conn;
    entry->enqueued = Clock::now();
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    entry->parse_micros = CeilMicros(Clock::now() - entry->enqueued);
    if (!parsed.ok() || parsed->type() != JsonValue::Type::kObject) {
      RespondError(*entry, StatusCode::kInvalidArgument,
                   "request is not a JSON object: " +
                       parsed.status().message());
      return;
    }
    entry->has_client_id = parsed->Has("id");
    if (entry->has_client_id) entry->client_id = parsed->at("id");

    // Shed: a socket client whose response backlog has passed the hard cap
    // gets a back-off hint instead of more queued work. (The transport
    // already paused its reads at the soft limit; reaching the hard cap
    // means responses are piling up faster than the client drains them —
    // e.g. broadcast fan-in responses racing a stalled reader.)
    if (conn != stdio_ && transport_.QueuedBytes(conn) >
                              options_.transport.write_hard_limit_bytes) {
      shed_requests_counter_->Increment();
      RespondError(*entry, StatusCode::kResourceExhausted,
                   "client response backlog exceeds the hard write limit; "
                   "drain responses before sending more requests",
                   options_.retry_after_ms);
      return;
    }

    if (parsed->Has("op") &&
        parsed->at("op").type() == JsonValue::Type::kString) {
      entry->op = parsed->at("op").AsString();
      if (entry->op == "_router_status") {
        RespondStatus(*entry);
        return;
      }
      if (entry->op == "_router_sync_replicas") {
        SyncReplicas(*entry);
        return;
      }
      // Intercepted like _router_status, BEFORE Classify (which would
      // broadcast it): at the router, `trace` means the fleet view — the
      // ring of stitched end-to-end timelines. A worker's own ring stays
      // reachable through its worker_listen_base port.
      if (entry->op == "trace") {
        RespondTraces(*entry, *parsed);
        return;
      }
    }

    const auto route_start = Clock::now();
    StatusOr<RouteDecision> decision = core_.Classify(*parsed);
    entry->route_micros = CeilMicros(Clock::now() - route_start);
    if (!decision.ok()) {
      RespondError(*entry, decision.status().code(),
                   decision.status().message());
      return;
    }

    switch (decision->kind) {
      case RouteKind::kRefused:
        RespondError(
            *entry, StatusCode::kFailedPrecondition,
            "the router manages snapshots: each shard saves to its own file "
            "under --state-dir (use _router_sync_replicas to refresh "
            "replicas)");
        return;
      case RouteKind::kBroadcast:
        ForwardBroadcast(std::move(entry), *parsed);
        return;
      case RouteKind::kShard:
      case RouteKind::kReplicaRead:
      case RouteKind::kUnknownOp:
        ForwardSingle(std::move(entry), *parsed, *decision);
        return;
    }
  }

  void ForwardSingle(std::unique_ptr<PendingEntry> entry, JsonValue request,
                     const RouteDecision& decision) {
    // Unknown ops go to shard 0 so the engine produces its canonical
    // unknown-op error.
    WorkerProc* primary = decision.kind == RouteKind::kUnknownOp
                              ? workers_[0].get()
                              : FindWorker(core_.ShardFor(decision.dataset));
    DPX_CHECK(primary != nullptr);

    WorkerProc* target = primary;
    bool on_replica = false;
    if (decision.kind == RouteKind::kReplicaRead) {
      WorkerProc* replica = PickReplica(primary->shard);
      if (replica != nullptr) {
        target = replica;
        on_replica = true;
      }
    }

    const uint64_t seq = next_id_++;
    const std::string rid = "r" + std::to_string(seq);
    request.Set("id", JsonValue::String(rid));
    std::string forwarded = request.Dump();

    // Cross-process trace propagation: a traced request gets its context
    // spliced into the already-dumped line — zero reparse, same byte-splice
    // contract as the response id rewrite. pid/tid is Dump-canonical
    // ("pid" < "tid", compact), so whenever the splice is accepted the
    // line is byte-identical to parse→Set("_tc")→Dump (verify_relay
    // cross-checks). A refused splice (a top-level key sorting before
    // "_tc") falls back to the full-parse path, never to silence.
    entry->traced = request.Has("trace") &&
                    request.at("trace").type() == JsonValue::Type::kBool &&
                    request.at("trace").AsBool();
    if (entry->traced) {
      entry->tid = "t" + std::to_string(seq);
      const std::string tc_json =
          "{\"pid\":\"" + rid + "\",\"tid\":\"" + entry->tid + "\"}";
      const auto splice_start = Clock::now();
      StatusOr<std::string> spliced = SpliceTraceContext(forwarded, tc_json);
      StatusOr<JsonValue> tc = JsonValue::Parse(tc_json);
      DPX_CHECK(tc.ok());
      if (spliced.ok()) {
        if (options_.verify_relay) {
          JsonValue check = request;
          check.Set("_tc", *tc);
          DPX_CHECK(*spliced == check.Dump())
              << "trace-context splice diverged from the full-parse path: "
              << *spliced << " vs " << check.Dump();
        }
        forwarded = std::move(*spliced);
        tc_spliced_counter_->Increment();
      } else {
        request.Set("_tc", std::move(*tc));
        forwarded = request.Dump();
        tc_full_parse_counter_->Increment();
      }
      entry->splice_micros = CeilMicros(Clock::now() - splice_start);
    }

    entry->kind = PendingEntry::Kind::kSingle;
    // Serialized once here so the splice relay does zero JSON work when
    // the worker's response comes back.
    if (entry->has_client_id) entry->client_id_json = entry->client_id.Dump();
    entry->dataset = decision.dataset;
    entry->written = Clock::now();
    bool sent = SendToWorker(*target, forwarded);
    if (!sent && on_replica) {
      // The replica's pipe was gone; the primary takes it directly.
      target = primary;
      on_replica = false;
      sent = SendToWorker(*primary, forwarded);
    }
    if (!sent) {
      RespondError(*entry, StatusCode::kInternal,
                   "worker '" + primary->name +
                       "' is down; retry once it respawns");
      return;
    }
    entry->worker = target->name;
    entry->on_replica = on_replica;
    entry->request_line = std::move(forwarded);
    pending_[rid] = std::move(entry);
  }

  void ForwardBroadcast(std::unique_ptr<PendingEntry> entry,
                        JsonValue request) {
    const std::string rid = "r" + std::to_string(next_id_++);
    request.Set("id", JsonValue::String(rid));
    const std::string forwarded = request.Dump();
    entry->kind = PendingEntry::Kind::kBroadcast;
    entry->written = Clock::now();
    for (auto& shard : workers_) {
      if (shard->replica) continue;
      if (SendToWorker(*shard, forwarded)) {
        ++entry->awaiting;
      } else {
        entry->merged.Set(shard->name,
                          ErrorBody(StatusCode::kInternal,
                                    "worker is down; respawn pending"));
      }
    }
    if (entry->awaiting == 0) {
      Respond(*entry, BroadcastResponse(*entry));
      return;
    }
    pending_[rid] = std::move(entry);
  }

  /// The completed-broadcast response: per-worker pieces under "workers",
  /// and for `metrics` additionally the labeled "fleet" rollup.
  JsonValue BroadcastResponse(const PendingEntry& entry) {
    JsonValue response = JsonValue::Object();
    response.Set("ok", JsonValue::Bool(true));
    if (entry.op == "metrics") {
      response.Set("fleet", FleetRollup(entry.merged));
    }
    response.Set("workers", entry.merged);
    return response;
  }

  /// Folds every worker's metrics JSON into one registry-shaped document
  /// ({"counters","gauges","histograms"}) with worker="<name>" injected
  /// into each key, seeded with the router's own registry (which already
  /// carries its per-worker labeled series) — a fleet rollup instead of a
  /// concatenation of per-worker dumps.
  JsonValue FleetRollup(const JsonValue& merged) {
    JsonValue rollup = obs::MetricsRegistry::Default().ToJson();
    for (const std::string& worker : merged.ObjectKeys()) {
      const JsonValue& piece = merged.at(worker);
      if (piece.type() != JsonValue::Type::kObject ||
          !piece.Has("metrics") ||
          piece.at("metrics").type() != JsonValue::Type::kObject) {
        continue;  // dead worker (error object) or format:"prometheus"
      }
      const JsonValue& metrics = piece.at("metrics");
      for (const char* section : {"counters", "gauges", "histograms"}) {
        if (!metrics.Has(section) ||
            metrics.at(section).type() != JsonValue::Type::kObject) {
          continue;
        }
        if (!rollup.Has(section)) rollup.Set(section, JsonValue::Object());
        JsonValue merged_section = rollup.at(section);
        const JsonValue& worker_section = metrics.at(section);
        for (const std::string& key : worker_section.ObjectKeys()) {
          merged_section.Set(InjectWorkerLabel(key, worker),
                             worker_section.at(key));
        }
        rollup.Set(section, std::move(merged_section));
      }
    }
    return rollup;
  }

  /// Appends a finished stitched timeline to the bounded router trace
  /// ring. Evictions are counted, never silent
  /// (dpclustx_router_trace_dropped_total).
  void PushRouterTrace(const std::string& op, const std::string& tid,
                       JsonValue trace, bool partial) {
    JsonValue record = JsonValue::Object();
    record.Set("op", JsonValue::String(op));
    record.Set("tid", JsonValue::String(tid));
    if (partial) record.Set("partial", JsonValue::Bool(true));
    record.Set("trace", std::move(trace));
    while (trace_ring_.size() >= kTraceRingCapacity) {
      trace_ring_.pop_front();
      ++trace_dropped_;
    }
    trace_ring_.push_back(std::move(record));
  }

  /// The router-level `trace` op: the ring of stitched end-to-end
  /// timelines, oldest first, mirroring the engine's trace-op envelope
  /// (traces / ring_capacity / retained / dropped; "limit" keeps the
  /// newest N).
  void RespondTraces(const PendingEntry& entry, const JsonValue& request) {
    size_t limit = 0;
    if (request.Has("limit") &&
        request.at("limit").type() == JsonValue::Type::kNumber) {
      // A limit at or beyond the ring size keeps everything, like 0; the
      // range check also keeps the cast defined for values like 1e20.
      const double requested = request.at("limit").AsNumber();
      if (requested > 0 &&
          requested < static_cast<double>(trace_ring_.size())) {
        limit = static_cast<size_t>(requested);
      }
    }
    JsonValue traces = JsonValue::Array();
    size_t start = 0;
    if (limit != 0 && trace_ring_.size() > limit) {
      start = trace_ring_.size() - limit;
    }
    for (size_t i = start; i < trace_ring_.size(); ++i) {
      traces.Append(trace_ring_[i]);
    }
    JsonValue response = JsonValue::Object();
    response.Set("ok", JsonValue::Bool(true));
    response.Set("traces", std::move(traces));
    response.Set("ring_capacity",
                 JsonValue::Number(static_cast<double>(kTraceRingCapacity)));
    response.Set("retained",
                 JsonValue::Number(static_cast<double>(trace_ring_.size())));
    response.Set("dropped",
                 JsonValue::Number(static_cast<double>(trace_dropped_)));
    Respond(entry, std::move(response));
  }

  /// One structured line to stderr when a finished (or failed) request
  /// took longer than slow_request_ms — machine-parseable, and carrying
  /// the trace id when the request was traced so the operator can pull
  /// the matching stitched timeline from the ring.
  void MaybeSlowLog(const PendingEntry& entry, Clock::time_point finished) {
    if (options_.slow_request_ms <= 0) return;
    const int64_t elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            finished - entry.enqueued)
            .count();
    if (elapsed_ms < options_.slow_request_ms) return;
    JsonValue record = JsonValue::Object();
    record.Set("event", JsonValue::String("slow_request"));
    record.Set("op", JsonValue::String(entry.op));
    if (!entry.worker.empty()) {
      record.Set("worker", JsonValue::String(entry.worker));
    }
    if (!entry.tid.empty()) {
      record.Set("tid", JsonValue::String(entry.tid));
    }
    record.Set("elapsed_ms",
               JsonValue::Number(static_cast<double>(elapsed_ms)));
    record.Set("threshold_ms", JsonValue::Number(static_cast<double>(
                                   options_.slow_request_ms)));
    std::cerr << "[router] " << record.Dump() << "\n";
  }

  void RespondStatus(const PendingEntry& request) {
    // Per-worker pending depth + oldest-pending age: a wedged worker shows
    // up here as a growing queue and a climbing age long before the health
    // ping gives up on it. Broadcast entries are owed by several workers at
    // once and are reported in the top-level "pending_broadcasts" instead.
    struct PendingStat {
      size_t depth = 0;
      Clock::time_point oldest;
    };
    std::map<std::string, PendingStat> per_worker;
    size_t pending_broadcasts = 0;
    const auto now = Clock::now();
    for (const auto& [id, entry] : pending_) {
      if (entry->kind == PendingEntry::Kind::kBroadcast) {
        ++pending_broadcasts;
        continue;
      }
      PendingStat& stat = per_worker[entry->worker];
      if (stat.depth == 0 || entry->enqueued < stat.oldest) {
        stat.oldest = entry->enqueued;
      }
      ++stat.depth;
    }

    JsonValue workers = JsonValue::Array();
    for (auto& w : workers_) {
      JsonValue entry = JsonValue::Object();
      entry.Set("name", JsonValue::String(w->name));
      entry.Set("role", JsonValue::String(w->replica ? "replica" : "shard"));
      entry.Set("shard", JsonValue::Number(static_cast<double>(w->shard)));
      entry.Set("alive", JsonValue::Bool(w->alive));
      entry.Set("pid", JsonValue::Number(static_cast<double>(w->pid)));
      entry.Set("restarts",
                JsonValue::Number(static_cast<double>(w->restarts)));
      const auto stat_it = per_worker.find(w->name);
      const size_t depth =
          stat_it == per_worker.end() ? 0 : stat_it->second.depth;
      const double oldest_ms =
          depth == 0
              ? 0.0
              : static_cast<double>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        now - stat_it->second.oldest)
                        .count());
      entry.Set("pending", JsonValue::Number(static_cast<double>(depth)));
      entry.Set("oldest_pending_ms", JsonValue::Number(oldest_ms));
      workers.Append(std::move(entry));
    }
    JsonValue response = JsonValue::Object();
    response.Set("pending_broadcasts",
                 JsonValue::Number(static_cast<double>(pending_broadcasts)));
    if (!options_.listen_specs.empty()) {
      JsonValue transport = JsonValue::Object();
      transport.Set("active_connections",
                    JsonValue::Number(static_cast<double>(
                        transport_.ActiveConnections())));
      response.Set("transport", std::move(transport));
    }
    response.Set("ok", JsonValue::Bool(true));
    response.Set("workers", std::move(workers));
    response.Set("shards",
                 JsonValue::Number(static_cast<double>(options_.num_shards)));
    response.Set("bound_sessions",
                 JsonValue::Number(
                     static_cast<double>(core_.sessions().size())));
    response.Set("state_dir", JsonValue::String(options_.state_dir));
    response.Set("dropped_lines_total",
                 JsonValue::Number(static_cast<double>(dropped_lines_)));
    Respond(request, std::move(response));
  }

  /// save_snapshot on every live shard (all at once; the reply waits for
  /// each save, or for its shard's death or deadline, so the files are
  /// complete before any replica reads them), then respawn every replica
  /// from the fresh snapshots. Deterministic replica refresh for tests and
  /// benches; other clients are served meanwhile.
  struct ReplicaSync {
    PendingEntry request;  // reply address and id
    size_t awaiting = 1;   // held until every save has been sent
    size_t saved = 0;
  };

  void SyncReplicas(const PendingEntry& request) {
    // Shared: each shard's completion holds it; they finish in any order.
    auto sync = std::make_shared<ReplicaSync>();
    sync->request = request;
    const auto one_done = [this, sync](const std::string* line) {
      if (line != nullptr) ++sync->saved;
      if (--sync->awaiting == 0) FinishSync(*sync);
    };
    for (size_t i = 0; i < options_.num_shards; ++i) {
      if (!workers_[i]->alive) continue;
      JsonValue save = JsonValue::Object();
      save.Set("op", JsonValue::String("save_snapshot"));
      save.Set("path", JsonValue::String(SnapshotPath(i)));
      ++sync->awaiting;
      SendInternal(*workers_[i], std::move(save), kSnapshotSaveDeadlineMs,
                   one_done);
    }
    one_done(nullptr);
  }

  void FinishSync(const ReplicaSync& sync) {
    size_t respawned = 0;
    for (auto& w : workers_) {
      if (!w->replica) continue;
      RespawnDeliberately(*w);
      ++respawned;
    }
    JsonValue response = JsonValue::Object();
    response.Set("ok", JsonValue::Bool(true));
    response.Set("synced_shards",
                 JsonValue::Number(static_cast<double>(sync.saved)));
    response.Set("respawned_replicas",
                 JsonValue::Number(static_cast<double>(respawned)));
    Respond(sync.request, std::move(response));
  }

  // ---- shutdown ------------------------------------------------------

  /// Stdin EOF: keep serving until nothing is in flight (a replica fallback
  /// still needs the primary's pipe) or `deadline` passes, then stop the
  /// workers.
  void Drain(Clock::time_point deadline) {
    if (!pending_.empty() && Clock::now() < deadline) {
      transport_.RunAfter(kDrainPollMs,
                          [this, deadline] { Drain(deadline); });
      return;
    }
    stopping_ = true;
    // Closing a worker's stdin makes it drain, snapshot, and exit 0; the
    // EOF on its stdout then reaps it. Stragglers get SIGKILL.
    for (auto& w : workers_) {
      if (w->alive) transport_.CloseWrite(w->conn);
    }
    transport_.RunAfter(kWorkerExitMs, [this] {
      for (auto& w : workers_) WorkerDied(*w);
    });
    FinishIfWorkersExited();
  }

  /// Once every worker is gone and stdout has flushed, the loop stops.
  void FinishIfWorkersExited() {
    for (auto& w : workers_) {
      if (w->alive) return;
    }
    if (transport_.QueuedBytes(stdio_) == 0) {
      transport_.Stop();
      return;
    }
    transport_.RunAfter(kDrainPollMs, [this] { FinishIfWorkersExited(); });
  }

  RouterOptions options_;
  RouterCore core_;
  std::vector<std::unique_ptr<WorkerProc>> workers_;  // shards first

  std::map<std::string, std::unique_ptr<PendingEntry>> pending_;
  uint64_t next_id_ = 1;
  uint64_t replica_rr_ = 0;

  Backoff backoff_;
  std::mt19937_64 respawn_rng_{std::random_device{}()};
  bool stopping_ = false;  // workers told to exit; no pings, no respawns

  // Malformed worker output lines. The count feeds _router_status; the
  // registry counter keeps the metric name dpclustx_router_dropped_lines_total
  // in the process registry alongside every other instrument.
  uint64_t dropped_lines_ = 0;
  obs::Counter* dropped_lines_counter_;
  obs::Counter* relay_spliced_counter_;
  obs::Counter* relay_full_parse_counter_;
  obs::Counter* shed_requests_counter_;
  obs::Counter* tc_spliced_counter_;
  obs::Counter* tc_full_parse_counter_;

  // Stitched end-to-end timelines, bounded like the engine's trace ring;
  // served by the router-level `trace` op.
  static constexpr size_t kTraceRingCapacity = 64;
  std::deque<JsonValue> trace_ring_;
  uint64_t trace_dropped_ = 0;

  // Declared last, so destroyed first: its connections' handlers point
  // into the members above.
  Transport transport_;
  ConnId stdio_ = 0;  // stdin/stdout compatibility client
};

Router::Router(RouterOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Router::~Router() = default;

Status Router::Run() { return impl_->Run(); }

}  // namespace dpclustx::service
