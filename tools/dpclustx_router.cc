// dpclustx_router — sharded multi-worker front door for dpclustx_serve.
//
// Flag parsing only: the router itself is service::Router
// (src/service/router.h), which documents the topology, the one event loop
// it runs on, fault handling, relay, tracing and telemetry.
//
// kUsage below is the flag reference (`--help` prints it). The protocol
// runs on stdin/stdout and on every --listen socket; EOF on stdin is the
// shutdown signal. Everything after a bare `--` is appended to every
// worker's command line (e.g. `-- --sync` for scripted sessions: the
// protocol is pipelined, so without --sync two requests to the same shard
// may be served out of order).

#include <signal.h>
#include <unistd.h>

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "obs/build_info.h"
#include "service/router.h"

namespace {

constexpr const char kUsage[] =
    "usage: dpclustx_router [flags]\n"
    "\n"
    "  --listen SPEC            accept clients on unix:/path or\n"
    "                           tcp:[host:]port (repeatable)\n"
    "  --verify-relay           cross-check spliced responses against the\n"
    "                           full-parse path (aborts on drift)\n"
    "  --max-frame-bytes N      socket frame cap (default 1048576)\n"
    "  --write-soft-limit-bytes N  pause reads above this backlog\n"
    "                           (default 262144)\n"
    "  --write-hard-limit-bytes N  shed requests above this backlog\n"
    "                           (default 4194304)\n"
    "  --retry-after-ms N       back-off hint on shed responses (default "
    "100)\n"
    "  --slow-request-ms N      structured slow-log line to stderr for any\n"
    "                           request slower than N ms (default 0 = off)\n"
    "  --worker-listen-base P   per-worker tcp scrape listener on\n"
    "                           127.0.0.1:(P + worker index) (default 0 = "
    "off)\n"
    "  --workers N              shard workers (default 2)\n"
    "  --replicas R             read-only replicas per shard (default 0)\n"
    "  --serve BIN              dpclustx_serve binary (default: next to this\n"
    "                           executable)\n"
    "  --state-dir DIR          shard snapshot/journal directory (default .)\n"
    "  --vnodes N               virtual nodes per shard (default 64)\n"
    "  --health-interval-ms N   ping period (default 1000)\n"
    "  --health-deadline-ms N   ping response deadline (default 2000)\n"
    "  --health-misses N        consecutive misses before respawn (default 3)\n"
    "  --version                print build provenance and exit\n"
    "  --help                   print this flag table and exit\n"
    "  -- FLAGS...              appended to every worker's command line\n"
    "                           (e.g. `-- --sync` for scripted sessions)\n";

std::string DefaultServeBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "dpclustx_serve";
  buf[n] = '\0';
  std::string path(buf);
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "dpclustx_serve";
  return path.substr(0, slash) + "/dpclustx_serve";
}

[[noreturn]] void UsageError(const std::string& message) {
  std::cerr << message << "\n" << kUsage;
  std::exit(2);
}

/// Parses a non-negative decimal flag value into `out`'s type; anything
/// else — a sign, a non-digit, an empty string, a value `out` cannot hold —
/// is a usage error.
template <typename Int>
bool ParseIntFlag(int argc, char** argv, int* i, const char* name, Int* out) {
  if (std::strcmp(argv[*i], name) != 0) return false;
  if (*i + 1 >= argc) UsageError(std::string(name) + " needs a value");
  const char* text = argv[++*i];
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  if (ec != std::errc() || ptr != end || text == end || *text == '-') {
    UsageError(std::string(name) + " needs a non-negative integer, got '" +
               text + "'");
  }
  return true;
}

bool ParseStringFlag(int argc, char** argv, int* i, const char* name,
                     std::string* out) {
  if (std::strcmp(argv[*i], name) != 0) return false;
  if (*i + 1 >= argc) UsageError(std::string(name) + " needs a value");
  *out = argv[++*i];
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  dpclustx::service::RouterOptions options;
  options.serve_bin = DefaultServeBinary();
  dpclustx::service::TransportOptions& transport = options.transport;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--") == 0) {
      options.worker_extra_args.assign(argv + i + 1, argv + argc);
      break;
    }
    std::string listen_spec;
    if (ParseStringFlag(argc, argv, &i, "--listen", &listen_spec)) {
      options.listen_specs.push_back(listen_spec);
      continue;
    }
    if (std::strcmp(argv[i], "--verify-relay") == 0) {
      options.verify_relay = true;
      continue;
    }
    if (ParseIntFlag(argc, argv, &i, "--workers", &options.num_shards) ||
        ParseIntFlag(argc, argv, &i, "--replicas",
                     &options.replicas_per_shard) ||
        ParseIntFlag(argc, argv, &i, "--vnodes", &options.vnodes) ||
        ParseIntFlag(argc, argv, &i, "--health-interval-ms",
                     &options.health_interval_ms) ||
        ParseIntFlag(argc, argv, &i, "--health-deadline-ms",
                     &options.health_deadline_ms) ||
        ParseIntFlag(argc, argv, &i, "--health-misses",
                     &options.health_misses) ||
        ParseIntFlag(argc, argv, &i, "--max-frame-bytes",
                     &transport.max_frame_bytes) ||
        ParseIntFlag(argc, argv, &i, "--write-soft-limit-bytes",
                     &transport.write_soft_limit_bytes) ||
        ParseIntFlag(argc, argv, &i, "--write-hard-limit-bytes",
                     &transport.write_hard_limit_bytes) ||
        ParseIntFlag(argc, argv, &i, "--retry-after-ms",
                     &options.retry_after_ms) ||
        ParseIntFlag(argc, argv, &i, "--slow-request-ms",
                     &options.slow_request_ms) ||
        ParseIntFlag(argc, argv, &i, "--worker-listen-base",
                     &options.worker_listen_base) ||
        ParseStringFlag(argc, argv, &i, "--serve", &options.serve_bin) ||
        ParseStringFlag(argc, argv, &i, "--state-dir", &options.state_dir)) {
      continue;
    }
    if (std::strcmp(argv[i], "--version") == 0) {
      std::cout << dpclustx::obs::BuildInfoVersionLine() << "\n";
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << kUsage;
      return 0;
    }
    UsageError("unknown flag '" + std::string(argv[i]) + "'");
  }
  if (options.num_shards == 0) {
    std::cerr << "--workers must be at least 1\n";
    return 2;
  }
  if (options.vnodes == 0) options.vnodes = 1;
  if (transport.write_soft_limit_bytes > transport.write_hard_limit_bytes) {
    std::cerr << "--write-soft-limit-bytes must not exceed "
                 "--write-hard-limit-bytes\n";
    return 2;
  }

  // A worker dying while we write to its pipe must surface as EPIPE (we
  // respawn it), not kill the router. Socket clients disconnecting
  // mid-response are the same story.
  ::signal(SIGPIPE, SIG_IGN);

  dpclustx::service::Router router(std::move(options));
  const dpclustx::Status ran = router.Run();
  if (!ran.ok()) {
    std::cerr << "cannot listen: " << ran.ToString() << "\n";
    return 1;
  }
  return 0;
}
