// dpclustx_serve — JSON line-protocol explanation server on stdin/stdout.
//
// Reads one JSON request per line, dispatches it to the service engine's
// worker pool, and writes one JSON response per line. Responses can arrive
// out of order relative to requests; clients that care pass an "id" field,
// which is echoed back verbatim. When the request queue is full the request
// is answered immediately with a ResourceExhausted error (backpressure is
// explicit, never silent).
//
// One event loop (service::Transport, DESIGN.md §14) runs on the main
// thread and owns every fd: stdin/stdout are an adopted connection, and
// each --listen socket (unix:/path or tcp:[host:]port) accepts many more
// with the same newline framing. One frame handler serves them all: it
// sheds a request with ResourceExhausted + retry_after_ms once its
// connection's response backlog passes the transport's hard write limit,
// runs it inline under --sync, and otherwise queues it on the engine's
// pool, whose threads Send the response back through the loop. The
// periodic metrics dump and snapshot are loop timers; the snapshot save
// itself runs on the pool, because it holds the spend gate while it
// writes the whole state.
//
// Durability (DESIGN.md §11): with --snapshot the worker restores its hot
// state (datasets, session ledgers, release cache, audit cursor) at startup
// and saves it periodically and at shutdown; with --audit-journal every ε
// charge/denial is appended and flushed to a JSONL write-ahead log before
// its response leaves the process, so restore + journal replay puts every
// observable charge back exactly once after a SIGKILL. A restore error
// other than "no snapshot yet" refuses to serve — wrong ledgers are worse
// than downtime.
//
// stdin is the lifecycle handle, even with sockets open. EOF there drains
// the pool, writes the final snapshot and metrics dump, and exits 0 once
// stdout has flushed. The snapshot is durable before stdout closes: the
// router kills a worker as soon as its stdout reaches EOF.
//
// The --listen sockets also answer plain HTTP GETs (DESIGN.md §15):
// GET /metrics returns the Prometheus text exposition of the process-wide
// registry (engine ops, transport, ISA dispatch — one scrape, no sidecar),
// /healthz answers "ok" while the event loop runs, and /ready answers
// "ready" — the listeners open only after the snapshot restore completes,
// so no connection ever sees a restoring worker. JSON-protocol clients are
// unaffected: their first byte is '{', never 'G'.
//
// kUsage below is the flag reference (`--help` prints it; README.md
// "Serving flags" mirrors it).

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "flag_parse.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "service/service_engine.h"
#include "service/transport.h"
#include "snapshot/snapshot_io.h"

namespace {

using dpclustx::Status;
using dpclustx::StatusCode;
using dpclustx::StatusCodeName;
using dpclustx::StatusOr;
using dpclustx::service::ConnId;
using dpclustx::service::HttpResponse;
using dpclustx::service::ServiceEngine;
using dpclustx::service::ServiceEngineOptions;
using dpclustx::service::Transport;
using dpclustx::tools::ParseIntFlag;
using dpclustx::tools::ParseStringFlag;
using dpclustx::tools::UsageError;

// Keep in sync with README.md "Serving flags" — this text IS the reference
// table.
constexpr const char kUsage[] =
    "usage: dpclustx_serve [flags]\n"
    "\n"
    "  --listen SPEC            also accept clients on unix:/path or\n"
    "                           tcp:[host:]port (repeatable); the same\n"
    "                           socket answers HTTP GET /metrics, /healthz,\n"
    "                           /ready\n"
    "  --threads N              worker threads (default 4)\n"
    "  --queue N                pending-request bound (default 256)\n"
    "  --cache N                release-cache entries (default 1024)\n"
    "  --deadline-ms N          default per-request deadline in ms, counted\n"
    "                           from enqueue (default 0 = none)\n"
    "  --max-csv-bytes N        refuse load_dataset csv files larger than N\n"
    "                           bytes (default 0 = no limit; use\n"
    "                           dpclustx_convert for big files)\n"
    "  --sync                   serve each request on the event loop thread,\n"
    "                           in order (deterministic scripted sessions)\n"
    "  --trace-all              trace every request into the trace ring\n"
    "  --metrics-dump FILE      periodic Prometheus exposition to FILE\n"
    "                           (atomic tmp+rename; final dump at shutdown)\n"
    "  --metrics-interval-ms N  metrics dump period in ms (default 5000)\n"
    "  --snapshot FILE          durable state snapshot: restored at startup,\n"
    "                           saved every --snapshot-interval-ms and at\n"
    "                           shutdown\n"
    "  --snapshot-interval-ms N snapshot save period in ms (default 10000;\n"
    "                           0 = save only at shutdown)\n"
    "  --audit-journal FILE     append+flush every charge/denial to FILE\n"
    "                           before its response (crash-recovery WAL)\n"
    "  --read-only              replica mode: refuse charging/mutating ops;\n"
    "                           cache hits still serve\n"
    "  --version                print build provenance and exit\n"
    "  --help                   print this flag table and exit\n";

// Scrapers that read `path` see either the previous complete dump or the
// new one, never a torn file.
void DumpMetrics(ServiceEngine& engine, const std::string& path) {
  const Status written =
      dpclustx::WriteFileAtomic(path, engine.metrics().PrometheusText());
  if (!written.ok()) {
    std::cerr << "metrics dump failed: " << written.ToString() << "\n";
  }
}

void SaveSnapshot(ServiceEngine& engine, const std::string& path) {
  const Status saved = engine.SaveSnapshotToFile(path);
  if (!saved.ok()) {
    std::cerr << "snapshot save to '" << path
              << "' failed: " << StatusCodeName(saved.code()) << ": "
              << saved.message() << "\n";
  }
}

/// Runs `tick` now, then on the loop every `interval_ms`.
void RunEvery(Transport& transport, int64_t interval_ms,
              std::function<void()> tick) {
  tick();
  transport.RunAfter(interval_ms, [&transport, interval_ms,
                                   tick = std::move(tick)]() mutable {
    RunEvery(transport, interval_ms, std::move(tick));
  });
}

}  // namespace

int main(int argc, char** argv) {
  ServiceEngineOptions options;
  bool sync = false;
  size_t deadline_ms = 0;
  std::string metrics_dump;
  size_t metrics_interval_ms = 5000;
  std::string snapshot_path;
  size_t snapshot_interval_ms = 10000;
  std::string audit_journal;
  std::vector<std::string> listen_specs;
  const dpclustx::tools::FlagArgs args{argc, argv, kUsage};
  for (int i = 1; i < argc; ++i) {
    std::string listen_spec;
    if (ParseStringFlag(args, &i, "--listen", &listen_spec)) {
      listen_specs.push_back(listen_spec);
      continue;
    }
    if (ParseIntFlag(args, &i, "--threads", &options.num_threads) ||
        ParseIntFlag(args, &i, "--queue", &options.queue_capacity) ||
        ParseIntFlag(args, &i, "--cache", &options.cache_capacity) ||
        ParseIntFlag(args, &i, "--deadline-ms", &deadline_ms) ||
        ParseIntFlag(args, &i, "--max-csv-bytes", &options.max_csv_bytes) ||
        ParseIntFlag(args, &i, "--metrics-interval-ms",
                     &metrics_interval_ms) ||
        ParseIntFlag(args, &i, "--snapshot-interval-ms",
                     &snapshot_interval_ms) ||
        ParseStringFlag(args, &i, "--metrics-dump", &metrics_dump) ||
        ParseStringFlag(args, &i, "--snapshot", &snapshot_path) ||
        ParseStringFlag(args, &i, "--audit-journal", &audit_journal)) {
      continue;
    }
    if (std::strcmp(argv[i], "--sync") == 0) {
      sync = true;
      continue;
    }
    if (std::strcmp(argv[i], "--trace-all") == 0) {
      options.trace_all = true;
      continue;
    }
    if (std::strcmp(argv[i], "--read-only") == 0) {
      options.read_only = true;
      continue;
    }
    if (std::strcmp(argv[i], "--version") == 0) {
      // The snapshot format rides along so operators (and the bench
      // snapshot scripts) can tell which format a binary writes without
      // inspecting a file.
      std::cout << dpclustx::obs::BuildInfoVersionLine() << ", snapshot-format v"
                << dpclustx::snapshot::kSnapshotFormatVersion << "\n";
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << kUsage;
      return 0;
    }
    UsageError(kUsage, "unknown flag '" + std::string(argv[i]) + "'");
  }
  options.default_deadline_ms = static_cast<int64_t>(deadline_ms);
  if (metrics_interval_ms == 0) metrics_interval_ms = 5000;

  // A socket client hanging up mid-response must surface as EPIPE (the
  // transport closes that connection), not kill the shard; EPIPE on stdout
  // closes its write side.
  ::signal(SIGPIPE, SIG_IGN);

  // One process, one scrape: the engine registers its instruments in the
  // process-global registry so GET /metrics exposes engine ops, transport
  // counters, and the ISA dispatch gauge in a single exposition.
  options.metrics_registry = &dpclustx::obs::MetricsRegistry::Default();

  // Declared before the engine so both outlive its pool threads, which
  // Send through the transport and clear `saving` after a periodic save.
  Transport transport;
  std::atomic<bool> saving{false};  // a periodic save is queued or running
  ServiceEngine engine(options);

  // Restore BEFORE the journal is opened for append and before any request
  // is read: RestoreFromFiles requires an empty engine, and the journal must
  // hold only records the restored audit cursor accounts for.
  if (!snapshot_path.empty()) {
    StatusOr<ServiceEngine::RestoreReport> restored =
        engine.RestoreFromFiles(snapshot_path, audit_journal);
    if (restored.ok()) {
      std::cerr << "restored snapshot '" << snapshot_path << "' (format v"
                << restored->format_version << "): " << restored->datasets
                << " datasets, " << restored->sessions << " sessions, "
                << restored->cache_entries << " cached releases, "
                << restored->replayed_records << " journal records replayed";
      if (!restored->unrecovered_sessions.empty()) {
        std::cerr << "; unrecovered sessions:";
        for (const std::string& tenant : restored->unrecovered_sessions) {
          std::cerr << " " << tenant;
        }
      }
      std::cerr << "\n";
    } else if (restored.status().code() == StatusCode::kNotFound) {
      std::cerr << "no snapshot at '" << snapshot_path
                << "'; starting fresh\n";
    } else {
      // Corrupt snapshot, newer format, journal gap, snapshot-less journal:
      // serving with wrong ledgers is worse than not serving.
      std::cerr << "refusing to serve: "
                << StatusCodeName(restored.status().code()) << ": "
                << restored.status().message() << "\n";
      return 1;
    }
  }
  if (!audit_journal.empty()) {
    const Status journaling = engine.EnableAuditJournal(audit_journal);
    if (!journaling.ok()) {
      std::cerr << "cannot open audit journal '" << audit_journal
                << "': " << journaling.message() << "\n";
      return 1;
    }
  }

  for (const std::string& spec : listen_specs) {
    const Status listening = transport.Listen(spec);
    if (!listening.ok()) {
      std::cerr << "cannot listen: " << listening.ToString() << "\n";
      return 1;
    }
  }
  transport.SetHttpHandler([&engine](const std::string& path) {
    constexpr const char kText[] = "text/plain; charset=utf-8";
    if (path == "/metrics") {
      return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                          engine.metrics().PrometheusText()};
    }
    if (path == "/healthz") return HttpResponse{200, kText, "ok\n"};
    if (path == "/ready") return HttpResponse{200, kText, "ready\n"};
    return HttpResponse{404, kText, "not found\n"};
  });

  bool stdin_closed = false;  // loop thread only
  const Transport::FrameHandler on_frame = [&](ConnId conn,
                                               std::string&& request) {
    const auto reject = [&](const Status& reason) {
      transport.Send(conn, ServiceEngine::RejectionResponse(
                               request, reason, options.retry_after_ms));
    };
    if (transport.QueuedBytes(conn) >
        transport.options().write_hard_limit_bytes) {
      reject(Status::ResourceExhausted(
          "client response backlog exceeds the hard write limit; drain "
          "responses first"));
      return;
    }
    if (stdin_closed) {
      reject(Status::FailedPrecondition("server is shutting down"));
      return;
    }
    if (sync) {
      transport.Send(conn, engine.Handle(request));
      return;
    }
    const Status submitted = engine.HandleAsync(
        request, [&transport, conn](std::string response) {
          transport.Send(conn, response);
        });
    if (!submitted.ok()) reject(submitted);
  };

  if (!metrics_dump.empty()) {
    RunEvery(transport, static_cast<int64_t>(metrics_interval_ms),
             [&] { DumpMetrics(engine, metrics_dump); });
  }
  // At most one periodic save queued or running; a tick that finds the pool
  // full or shut down (or the last save still going) is skipped.
  if (!snapshot_path.empty() && snapshot_interval_ms > 0 &&
      !options.read_only) {
    RunEvery(transport, static_cast<int64_t>(snapshot_interval_ms), [&] {
      if (saving.exchange(true)) return;
      const Status submitted = engine.pool().TrySubmit([&] {
        SaveSnapshot(engine, snapshot_path);
        saving = false;
      });
      if (!submitted.ok()) saving = false;
    });
  }

  ConnId stdio = 0;
  const std::function<void()> stop_once_flushed = [&] {
    if (transport.QueuedBytes(stdio) == 0) {
      transport.Stop();
    } else {
      transport.RunAfter(1, stop_once_flushed);
    }
  };
  // EOF on stdin: draining the pool blocks the loop, which is fine — the
  // process is exiting. The final snapshot must be on disk before Stop
  // closes stdout.
  stdio = transport.Adopt(STDIN_FILENO, STDOUT_FILENO, on_frame, [&] {
    stdin_closed = true;
    engine.Shutdown();
    if (!snapshot_path.empty() && !options.read_only) {
      SaveSnapshot(engine, snapshot_path);
    }
    if (!metrics_dump.empty()) DumpMetrics(engine, metrics_dump);
    stop_once_flushed();
  });
  transport.Run(on_frame);
  return 0;
}
