// Router: the sharded multi-worker front door behind tools/dpclustx_router.
//
// Speaks the same JSON line protocol as dpclustx_serve, but behind it
// supervises N shard workers (each a dpclustx_serve child with its own
// snapshot + audit journal under the state directory) and optionally R
// read-only replicas per shard (spawned from the shard's snapshot).
// Datasets are consistent-hashed across shards (service/router_core.h), so
// every request touching a dataset or a session bound to one lands on the
// worker whose ledgers own it.
//
//   stdin/stdout ─┐
//   --listen ─────┴▶ router ──pipes──▶ shard-0 (snapshot + journal)
//                       │              shard-1 (snapshot + journal)
//                       │              ...
//                       └─ explain/hist may try ─▶ replica-i.r (--read-only,
//                          restored from shard-i's snapshot; serves cache
//                          hits for free, refuses misses → router retries
//                          against the primary)
//
// One event loop (service/transport.h) does all of the router's work on
// one thread. Socket clients, the stdin/stdout compatibility client and
// every worker's pipe pair are connections of that loop, each with a
// non-blocking write queue, so a stopped worker only grows its own queue
// and never blocks another client. Health pings, ping deadlines, respawn
// backoff and the shutdown drain are loop timers.
//
// Fault handling: every worker is pinged on an interval with a deadline;
// after `health_misses` consecutive misses (or an EOF on the worker's
// stdout) the worker is SIGKILLed and respawned after a jittered
// exponential backoff. Shards restore themselves at startup from their own
// --snapshot and --audit-journal flags, so the respawn is just re-exec —
// the exactly-once ε accounting lives in the worker (DESIGN.md §11).
// Requests in flight on a dead worker get an Internal error telling the
// client to retry (replica reads silently retry against the primary
// instead).
//
// Transport: stdin/stdout always serve one client; `listen_specs` adds
// Unix-domain / TCP listeners with newline framing identical to stdin,
// bounded per-connection buffers, reads suspended above the soft write
// budget, and requests shed with ResourceExhausted + retry_after_ms once a
// connection's response backlog passes the hard cap. EOF on stdin is the
// shutdown signal either way.
//
// Relay: worker responses carry the router's internal id and go back out
// with the client's original id through a zero-reparse splice
// (service/json_relay.h) — byte-identical to parse→mutate→dump, which
// `verify_relay` checks per response. Broadcast merges, replica refusal
// checks and traced responses use the full parser.
//
// Tracing and telemetry (DESIGN.md §15): "trace":true splices a trace
// context ("_tc") into the forwarded line and returns one stitched
// timeline — router spans (parse, shard_pick, relay_splice,
// worker_roundtrip with worker_queue_wait, write_back) around the worker's
// own span tree, marked "trace_partial" when the worker died mid-request —
// and keeps it in a bounded ring served by the `trace` op;
// `slow_request_ms` logs slow requests to stderr. The registry carries
// per-worker {worker="..."} series (latency, in-flight depth, restarts,
// backoff, liveness, replica staleness), the `metrics` op adds a "fleet"
// rollup of every worker's registry, and listeners answer HTTP GET
// /metrics, /healthz and /ready.
//
// Router-level ops (handled here, never forwarded):
//
//   {"op":"_router_status"}          topology, worker liveness, restarts,
//                                    bound sessions, dropped worker lines
//                                    (dpclustx_router_dropped_lines_total)
//   {"op":"_router_sync_replicas"}   save_snapshot on every shard, then
//                                    respawn replicas from the fresh files
//
// save_snapshot / load_snapshot from clients are refused: the router owns
// snapshot scheduling (per-shard files under the state directory). ping /
// stats / audit broadcast to every shard and return the per-shard
// responses under "workers"; metrics broadcasts too and adds the labeled
// "fleet" rollup. trace is answered by the router itself with its ring of
// stitched end-to-end timelines.

#ifndef DPCLUSTX_SERVICE_ROUTER_H_
#define DPCLUSTX_SERVICE_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/transport.h"

namespace dpclustx::service {

struct RouterOptions {
  std::string serve_bin = "dpclustx_serve";  // worker binary
  std::string state_dir = ".";  // shard-i.snap / shard-i.journal live here
  size_t num_shards = 2;
  size_t replicas_per_shard = 0;
  size_t vnodes = 64;  // per shard on the hash ring: a placement contract
  int64_t health_interval_ms = 1000;
  int64_t health_deadline_ms = 2000;
  int health_misses = 3;
  /// Worker k (shards first, then replicas) listens on
  /// tcp:127.0.0.1:(base + k) for scrapes; 0 = off.
  uint16_t worker_listen_base = 0;
  std::vector<std::string> worker_extra_args;  // appended to every worker
  std::vector<std::string> listen_specs;       // unix:/path, tcp:[host:]port
  TransportOptions transport;
  int64_t retry_after_ms = 100;  // back-off hint on shed responses
  int64_t slow_request_ms = 0;   // slow-log threshold; 0 = off
  bool verify_relay = false;     // check every splice against a full parse
};

class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds every listener, spawns the workers and serves stdin/stdout plus
  /// every socket client on the calling thread. Returns once stdin reached
  /// EOF, in-flight requests drained (10 s at most) and every worker exited
  /// (workers snapshot on their way out; stragglers are SIGKILLed after
  /// 60 s). Fails only when a listener cannot bind, before any worker
  /// spawns.
  Status Run();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dpclustx::service

#endif  // DPCLUSTX_SERVICE_ROUTER_H_
