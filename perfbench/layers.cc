#include "layers.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>

#include "cluster/kmeans.h"
#include "cluster/kmodes.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/candidate_selection.h"
#include "core/explainer.h"
#include "core/quality.h"
#include "core/stats_cache.h"
#include "data/columnar_format.h"
#include "data/dataset.h"
#include "dp/dp_histogram.h"
#include "service/json_relay.h"
#include "service/service_engine.h"
#include "snapshot/audit_journal.h"

namespace perfbench {
namespace {

using dpclustx::JsonValue;

// Targets of the sequential per-op probe, outermost first. The round trip
// through each one minus the next one inward is that hop's cost.
constexpr const char* kFleet = "fleet";
constexpr const char* kDirect = "direct";
constexpr const char* kEngine = "engine";

// Probe-loop bounds: at least kMinReps calls, then stop at `reps` calls or
// after kProbeSeconds, whichever comes first.
constexpr size_t kMinReps = 3;
// Appends per probe target (each 200 rows; together with the columnar probe
// they stay within the DPXCOL file's reserved capacity).
constexpr size_t kProbeAppends = 40;
constexpr double kProbeSeconds = 1.5;

std::string SpanName(const char* target, int op) {
  return std::string(target) + "." + OpName(op);
}

/// Times `fn` under span `name` (child of span `parent`), repeating as the
/// bounds above allow.
void Repeat(SpanLog& spans, const std::string& name, size_t reps,
            const std::function<void()>& fn, int64_t parent = -1) {
  const auto give_up = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(kProbeSeconds));
  for (size_t i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    const auto end = Clock::now();
    spans.Add(name, start, end, parent, name + "#" + std::to_string(i));
    if (i + 1 >= kMinReps && end > give_up) break;
  }
}

double MedianSpan(const SpanLog& spans, const std::string& name) {
  return Median(spans.DurationsMicros(name));
}

/// Request and response lines the in-process probe saw, per op.
struct Captured {
  std::vector<std::string> requests[kNumOps];
  std::vector<std::string> responses[kNumOps];
};

/// A server the sequential probe talks to.
struct Target {
  const char* name;
  CallFn call;
};

/// Sequential probe, one request in flight: `probe_rounds` rounds of
/// explain, hist and budget, then as many appends (last, so epoch bumps do
/// not perturb the reads). Each request goes to every target in turn,
/// timed under "<target>.<op>", so slow drift in host speed hits all
/// targets alike; `after_each(op, span)` then runs module probes in the
/// same window, as children of the last target's span. The last target's
/// lines are captured for the wire probes.
void ProbeOps(LayerContext& ctx, const std::vector<Target>& targets,
              const std::function<void(int, int64_t)>& after_each,
              Captured* captured) {
  RequestStream stream(ctx.spec, ctx.inputs, ctx.seed, 900, false, "p");
  std::vector<int> order;
  for (size_t round = 0; round < ctx.spec.probe_rounds; ++round) {
    order.insert(order.end(), {kExplain, kHist, kBudget});
  }
  order.insert(order.end(), std::min<size_t>(ctx.spec.probe_rounds, kProbeAppends),
               kAppend);
  for (int op : order) {
    const Request request = stream.Make(op);
    int64_t span = -1;
    for (const Target& target : targets) {
      const auto start = Clock::now();
      const JsonValue response = target.call(request.line);
      const auto end = Clock::now();
      if (!response.Has("ok") || !response.at("ok").AsBool()) {
        Fail(std::string(target.name) + " probe " + OpName(op) +
             " failed: " + response.Dump().substr(0, 300));
      }
      span = ctx.spans.Add(SpanName(target.name, op), start, end, -1,
                           request.id);
      if (&target == &targets.back()) {
        captured->requests[op].push_back(request.line);
        captured->responses[op].push_back(response.Dump());
      }
    }
    after_each(op, span);
  }
}

CallFn SocketCall(LineClient& client) {
  return [&client](const std::string& line) { return client.Call(line); };
}

CallFn EngineCall(dpclustx::service::ServiceEngine& engine) {
  return [&engine](const std::string& line) {
    auto parsed = JsonValue::Parse(engine.Handle(line));
    if (!parsed.ok()) Fail("engine returned unparseable JSON");
    return *std::move(parsed);
  };
}

/// HandleAsync driven by `threads` closed-loop submitters replaying the
/// workload's mix; records "<name>" spans from enqueue to callback.
void ProbeAsync(LayerContext& ctx, dpclustx::service::ServiceEngine& engine,
                size_t threads, const std::string& name) {
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < threads; ++t) {
    submitters.emplace_back([&, t] {
      RequestStream stream(ctx.spec, ctx.inputs, ctx.seed, 950 + t, false, "p");
      const auto give_up = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(kProbeSeconds));
      for (size_t i = 0; i < ctx.spec.probe_rounds && Clock::now() < give_up; ++i) {
        const Request request = stream.Next();
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        Clock::time_point finished;
        const auto start = Clock::now();
        const auto status = engine.HandleAsync(request.line, [&](std::string) {
          std::lock_guard<std::mutex> lock(mutex);
          finished = Clock::now();
          done = true;
          cv.notify_one();
        });
        if (!status.ok()) Fail("HandleAsync refused: " + status.ToString());
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return done; });
        ctx.spans.Add(name, start, finished, -1, request.id);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
}

}  // namespace

std::map<std::string, PerLayerMetric> RunLayers(LayerContext& ctx) {
  std::map<std::string, PerLayerMetric> out;
  const auto put = [&](const std::string& name, double value,
                       const char* unit) { out[name] = {value, unit}; };
  SpanLog& spans = ctx.spans;
  const std::string dir = ctx.work_dir + "/layers";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // ---- from the traced timed pass -------------------------------------
  std::vector<const PhaseResult*> phases = {&ctx.latency_phase};
  if (&ctx.throughput_phase != &ctx.latency_phase) {
    phases.push_back(&ctx.throughput_phase);
  }
  double requests = 0, bytes_in = 0, bytes_out = 0;
  std::vector<double> late;
  for (const PhaseResult* p : phases) {
    requests += static_cast<double>(p->samples.size());
    bytes_in += static_cast<double>(p->bytes_sent);
    bytes_out += static_cast<double>(p->bytes_received);
    late.insert(late.end(), p->late_us.begin(), p->late_us.end());
  }
  put("loadgen.late_p99_ms", Quantile(late, 0.99) / 1e3, "ms");
  put("transport.bytes_in_per_req", bytes_in / requests, "bytes");
  put("transport.bytes_out_per_req", bytes_out / requests, "bytes");
  const double hits = ctx.after.cache_hits - ctx.before.cache_hits;
  const double misses = ctx.after.cache_misses - ctx.before.cache_misses;
  put("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  put("journal.records_per_req",
      (ctx.after.journal_records - ctx.before.journal_records) / requests,
      "count");
  std::map<std::string, double> server_op = ServerOpMicros(ctx.before, ctx.after);

  // ---- sequential probe: fleet, a lone dpclustx_serve, in-process ------
  const std::string serve_dir = dir + "/serve";
  std::filesystem::create_directories(serve_dir);
  const std::vector<std::string> serve_paths = CopyInputs(ctx.inputs, serve_dir);
  const std::string serve_socket = serve_dir + "/serve.sock";
  ChildProcess serve({ctx.bin_dir + "/dpclustx_serve", "--listen",
                      "unix:" + serve_socket, "--snapshot",
                      serve_dir + "/shard.snap", "--audit-journal",
                      serve_dir + "/shard.journal"},
                     serve_dir + "/serve.log");
  WaitForSocket(serve_socket, 60);
  LineClient direct(serve_socket);
  SetUp(SocketCall(direct), ctx.spec, serve_paths, ctx.seed, {"p"});

  const std::string engine_dir = dir + "/engine";
  std::filesystem::create_directories(engine_dir);
  const std::vector<std::string> engine_paths =
      CopyInputs(ctx.inputs, engine_dir);
  dpclustx::service::ServiceEngine engine;
  if (!engine.EnableAuditJournal(engine_dir + "/engine.journal").ok()) {
    Fail("cannot open the in-process audit journal");
  }
  SetUp(EngineCall(engine), ctx.spec, engine_paths, ctx.seed, {"p"});

  // The explain pipeline's stages, timed on the engine's own StatsCache
  // right after each probed explain.
  const DatasetSpec& ds = ctx.spec.datasets[0];
  const auto clustering = [&] {
    auto entry = engine.registry().Get(ds.name);
    if (!entry.ok()) Fail("probe dataset missing");
    auto view = (*entry)->GetClustering(ds.clusterings[0].id);
    if (!view.ok()) Fail("probe clustering missing");
    return std::make_pair((*entry)->dataset(), *view);
  };
  const auto read_view = clustering().second;
  const dpclustx::StatsCache& read_stats = *read_view->stats;
  const size_t candidates =
      ctx.spec.num_candidates > 0 ? ctx.spec.num_candidates : 3;
  dpclustx::Rng rng(ctx.seed);
  dpclustx::DpClustXOptions explain_options;
  explain_options.num_candidates = candidates;
  explain_options.epsilon_cand_set = explain_options.epsilon_top_comb =
      explain_options.epsilon_hist = 0.1;
  std::vector<std::vector<dpclustx::AttrIndex>> candidate_sets;
  const auto core_probes = [&](int op, int64_t parent) {
    if (op != kExplain) return;
    Repeat(spans, "core.stage1", 1, [&] {
      dpclustx::CandidateSelectionOptions stage1;
      stage1.epsilon = explain_options.epsilon_cand_set;
      stage1.k = candidates;
      stage1.gamma = explain_options.lambda.ConditionalSingleClusterWeights();
      auto selected = dpclustx::SelectCandidates(read_stats, stage1, rng);
      if (!selected.ok()) Fail("SelectCandidates failed");
      candidate_sets = *std::move(selected);
    }, parent);
    Repeat(spans, "core.stage2", 1, [&] {
      const auto tables = dpclustx::core_internal::BuildLowSensitivityTables(
          read_stats, candidate_sets, explain_options.lambda);
      auto chosen = dpclustx::core_internal::SearchCombination(
          candidate_sets, tables, explain_options.epsilon_top_comb,
          dpclustx::kGlScoreSensitivity, explain_options.max_combinations, rng);
      if (!chosen.ok()) Fail("SearchCombination failed");
    }, parent);
    Repeat(spans, "core.explain", 1, [&] {
      explain_options.seed = rng.UniformInt(1ULL << 62) + 1;
      if (!dpclustx::ExplainDpClustXWithStats(read_stats, explain_options).ok()) {
        Fail("ExplainDpClustXWithStats failed");
      }
    }, parent);
  };

  Captured captured;
  {
    LineClient fleet(ctx.fleet_socket);
    const FleetCounters before = Harvest(ctx.control);
    ProbeOps(ctx,
             {{kFleet, SocketCall(fleet)},
              {kDirect, SocketCall(direct)},
              {kEngine, EngineCall(engine)}},
             core_probes, &captured);
    const FleetCounters after = Harvest(ctx.control);
    // Ops the timed load never sent are read from the probe's window.
    for (const auto& [op, micros] : ServerOpMicros(before, after)) {
      server_op.emplace(op, micros);
    }
  }
  serve.Stop();
  // Queue wait: HandleAsync latency at the workload's concurrency minus the
  // same path with one request in flight.
  ProbeAsync(ctx, engine, 1, "engine.async.single");
  ProbeAsync(ctx, engine, ctx.readers, "engine.async.concurrent");
  double combinations = 1;
  for (const auto& set : candidate_sets) combinations *= static_cast<double>(set.size());

  // ---- module probes on the in-process engine's state after the appends -
  const auto [dataset, view] = clustering();
  const dpclustx::StatsCache& stats = *view->stats;
  const size_t k = view->num_clusters;
  size_t release = 0;
  Repeat(spans, "dp.hist_release", 2000, [&] {
    const auto cluster = static_cast<dpclustx::ClusterId>(release % k);
    const auto attr = static_cast<dpclustx::AttrIndex>(
        (release / k) % dataset->num_attributes());
    ++release;
    if (!dpclustx::ReleaseDpHistogram(stats.cluster_histogram(cluster, attr),
                                      0.05, rng, dpclustx::DpHistogramOptions{})
             .ok()) {
      Fail("ReleaseDpHistogram failed");
    }
  });
  {
    auto session = engine.sessions().Get(SessionName("p", 0, 0));
    if (!session.ok()) Fail("probe session missing");
    Repeat(spans, "budget.spend", 2000, [&] {
      if (!(*session)->Spend(1e-9, "perfbench spend probe").ok()) {
        Fail("Spend failed");
      }
    });
  }
  {
    dpclustx::snapshot::AuditJournal journal;
    if (!journal.Open(dir + "/probe.journal").ok()) Fail("journal open failed");
    uint64_t seq = 0;
    Repeat(spans, "journal.append", 2000, [&] {
      dpclustx::snapshot::AuditRecordState record;
      record.seq = seq++;
      record.tenant = "p0-0";
      record.dataset = ds.name;
      record.label = "explain default";
      record.epsilon = 0.3;
      record.granted = true;
      if (!journal.Append(record).ok()) Fail("journal append failed");
    });
  }
  Repeat(spans, "stats_cache.build", 5, [&] {
    if (!dpclustx::StatsCache::Build(*dataset, view->labels, k).ok()) {
      Fail("StatsCache::Build failed");
    }
  });
  Repeat(spans, "data.group_hist", 5, [&] {
    if (!dataset->ComputeAllGroupHistograms(view->labels, k).ok()) {
      Fail("ComputeAllGroupHistograms failed");
    }
  });
  const std::vector<std::string> probe_paths = CopyInputs(ctx.inputs, dir);
  Repeat(spans, "data.columnar_open", 20, [&] {
    auto mapped = dpclustx::MappedColumnar::Open(probe_paths[0]);
    if (!mapped.ok() || !dpclustx::Dataset::FromMapped(*mapped).ok()) {
      Fail("DPXCOL open failed");
    }
  });
  const std::vector<std::vector<dpclustx::ValueCode>> batch(
      ctx.inputs.datasets[0].pool.begin(),
      ctx.inputs.datasets[0].pool.begin() + kAppendBatchRows);
  {
    auto mapped = dpclustx::MappedColumnar::Open(probe_paths[0]);
    if (!mapped.ok()) Fail("DPXCOL open failed");
    std::shared_ptr<const dpclustx::MappedColumnar> base = *mapped;
    Repeat(spans, "data.columnar_append", kProbeAppends, [&] {
      auto appended = dpclustx::AppendRowsToColumnar(base, batch);
      if (!appended.ok()) Fail("AppendRowsToColumnar failed");
      base = *appended;
    });
  }
  const auto kmodes_k = [&] {
    for (const ClusteringSpec& c : ds.clusterings) {
      if (c.method == "k-modes") return c.k;
    }
    return k;
  }();
  Repeat(spans, "cluster.fit.kmeans", 1, [&] {
    dpclustx::KMeansOptions options;
    options.num_clusters = k;
    options.seed = ctx.seed;
    if (!dpclustx::FitKMeans(*dataset, options).ok()) Fail("FitKMeans failed");
  });
  Repeat(spans, "cluster.fit.kmodes", 1, [&] {
    dpclustx::KModesOptions options;
    options.num_clusters = kmodes_k;
    options.seed = ctx.seed;
    if (!dpclustx::FitKModes(*dataset, options).ok()) Fail("FitKModes failed");
  });
  dpclustx::Dataset tail(dataset->schema());
  for (const auto& row : batch) {
    if (!tail.AppendRow(row).ok()) Fail("tail row rejected");
  }
  std::vector<dpclustx::ClusterId> tail_labels(tail.num_rows());
  Repeat(spans, "cluster.assign_batch", 500, [&] {
    view->model->AssignBatch(tail, 0, tail.num_rows(), tail_labels.data());
  });
  Repeat(spans, "stats_cache.append_delta", 500, [&] {
    if (!dpclustx::StatsCache::BuildAppended(stats, tail, tail_labels).ok()) {
      Fail("StatsCache::BuildAppended failed");
    }
  });

  // ---- wire-format probes on the captured request/response lines -------
  for (int op = 0; op < kNumOps; ++op) {
    const std::string name = OpName(op);
    double request_bytes = 0, response_bytes = 0;
    for (const std::string& line : captured.requests[op]) {
      request_bytes += static_cast<double>(line.size());
      const auto start = Clock::now();
      auto parsed = JsonValue::Parse(line);
      spans.Add("json.parse." + name, start, Clock::now());
      if (!parsed.ok()) Fail("captured request does not parse");
      const auto rewrite = Clock::now();
      auto request = JsonValue::Parse(line);
      request->Set("id", JsonValue::String("r1234567"));
      const std::string forwarded = request->Dump();
      spans.Add("router.request_rewrite." + name, rewrite, Clock::now());
    }
    for (const std::string& line : captured.responses[op]) {
      response_bytes += static_cast<double>(line.size());
      auto parsed = JsonValue::Parse(line);
      if (!parsed.ok()) Fail("captured response does not parse");
      const auto start = Clock::now();
      const std::string dumped = parsed->Dump();
      spans.Add("json.dump." + name, start, Clock::now());
      const auto splice = Clock::now();
      auto scan = dpclustx::service::ScanTopLevelId(line);
      if (!scan.ok()) Fail("captured response has no top-level id");
      const std::string relayed =
          dpclustx::service::SpliceId(line, *scan, "\"client-7\"");
      spans.Add("relay.splice", splice, Clock::now());
    }
    const double n = static_cast<double>(captured.requests[op].size());
    put("json.request_bytes." + name, request_bytes / n, "bytes");
    put("json.response_bytes." + name, response_bytes / n, "bytes");
  }

  // ---- per-layer metrics ----------------------------------------------
  const double stage1 = MedianSpan(spans, "core.stage1");
  const double stage2 = MedianSpan(spans, "core.stage2");
  const double explain = MedianSpan(spans, "core.explain");
  const double hist_release = MedianSpan(spans, "dp.hist_release");
  const double spend = MedianSpan(spans, "budget.spend");
  const double journal = MedianSpan(spans, "journal.append");
  const double columnar_append = MedianSpan(spans, "data.columnar_append");
  const double assign = MedianSpan(spans, "cluster.assign_batch");
  const double delta = MedianSpan(spans, "stats_cache.append_delta");
  put("core.stage1_us", stage1, "us");
  put("core.stage2_us", stage2, "us");
  put("core.combinations", combinations, "count");
  put("core.explain_us", explain, "us");
  put("dp.hist_release_us", hist_release, "us");
  put("budget.spend_us", spend, "us");
  put("journal.append_us", journal, "us");
  put("stats_cache.build_ms", MedianSpan(spans, "stats_cache.build") / 1e3, "ms");
  put("stats_cache.append_delta_us", delta, "us");
  put("data.group_hist_ms", MedianSpan(spans, "data.group_hist") / 1e3, "ms");
  put("data.columnar_open_ms", MedianSpan(spans, "data.columnar_open") / 1e3, "ms");
  put("data.columnar_append_us", columnar_append, "us");
  put("cluster.fit_ms.kmeans", MedianSpan(spans, "cluster.fit.kmeans") / 1e3, "ms");
  put("cluster.fit_ms.kmodes", MedianSpan(spans, "cluster.fit.kmodes") / 1e3, "ms");
  put("cluster.assign_batch_us", assign, "us");
  put("relay.splice_ns", MedianSpan(spans, "relay.splice") * 1e3, "ns");

  put("engine.queue_wait_us",
      MedianSpan(spans, "engine.async.concurrent") -
          MedianSpan(spans, "engine.async.single"),
      "us");

  // Layer ledger per op: client = router.hop + transport.hop + engine, and
  // engine = json + compute + budget/journal + unattributed.
  const size_t views = ds.clusterings.size();
  std::printf("  layer table (µs, medians of the sequential probe; share of "
              "the client round trip)\n");
  std::printf("    %-12s %9s %9s %9s %9s %9s %9s %9s %12s\n", "op", "client",
              "router", "transport", "json", "compute", "budget", "unattrib",
              "sum check");
  for (int op = 0; op < kNumOps; ++op) {
    const std::string name = OpName(op);
    const double fleet = MedianSpan(spans, SpanName(kFleet, op));
    const double direct = MedianSpan(spans, SpanName(kDirect, op));
    const double handle = MedianSpan(spans, SpanName(kEngine, op));
    const double parse = MedianSpan(spans, "json.parse." + name);
    const double dump = MedianSpan(spans, "json.dump." + name);
    double compute = 0, charge = 0;
    if (op == kExplain) {
      compute = explain;
      charge = spend;
    } else if (op == kHist) {
      compute = hist_release * static_cast<double>(k);
      charge = spend;
    } else if (op == kAppend) {
      compute = columnar_append + static_cast<double>(views) * (assign + delta);
    }
    const double router = fleet - direct;
    const double transport = direct - handle;
    const double unattributed = handle - parse - dump - compute - charge;
    const double sum = router + transport + parse + dump + compute + charge +
                       unattributed;
    const auto pct = [&](double v) { return 100.0 * v / fleet; };
    std::printf("    %-12s %9.1f %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%% "
                "%8.1f%% %12s\n",
                name.c_str(), fleet, pct(router), pct(transport),
                pct(parse + dump), pct(compute), pct(charge),
                pct(unattributed),
                std::abs(sum - fleet) <= 1e-6 * fleet ? "ok" : "MISMATCH");
    put("client.rtt_us." + name, fleet, "us");
    put("router.hop_us." + name, router, "us");
    put("transport.hop_us." + name, transport, "us");
    put("engine.handle_us." + name, handle, "us");
    put("engine.unattributed_us." + name, unattributed, "us");
    put("json.parse_us." + name, parse, "us");
    put("json.dump_us." + name, dump, "us");
    put("router.request_rewrite_us." + name,
        MedianSpan(spans, "router.request_rewrite." + name), "us");
    const auto it = server_op.find(name);
    put("engine.server_op_us." + name, it == server_op.end() ? 0.0 : it->second,
        "us");
  }

  // The split each workload was chosen for, as measured shares.
  const auto share = [&](double part, double whole) { return 100.0 * part / whole; };
  const double explain_rtt = out["client.rtt_us.explain"].value;
  double plumbing = 0, plumbing_rtt = 0;
  for (int op : {kExplain, kHist, kBudget}) {
    const std::string name = OpName(op);
    plumbing += out["router.hop_us." + name].value +
                out["transport.hop_us." + name].value +
                out["json.parse_us." + name].value + out["json.dump_us." + name].value;
    plumbing_rtt += out["client.rtt_us." + name].value;
  }
  const double append_rtt = out["client.rtt_us.append_rows"].value;
  const double append_path = out["router.request_rewrite_us.append_rows"].value +
                             out["json.parse_us.append_rows"].value +
                             out["json.dump_us.append_rows"].value +
                             columnar_append +
                             static_cast<double>(views) * (assign + delta);
  std::printf("  split: core.stage2_us is %.1f%% of an explain round trip; "
              "router+transport+json are %.1f%% of explain/hist/budget round "
              "trips; request_rewrite+json+append path are %.1f%% of an "
              "append round trip\n",
              share(stage2, explain_rtt), share(plumbing, plumbing_rtt),
              share(append_path, append_rtt));
  std::printf("  in-process: stage1 %.1f µs, stage2 %.1f µs over %.0f "
              "combinations, explain %.1f µs, spend %.2f µs, journal append "
              "%.2f µs, queue wait %.1f µs\n",
              stage1, stage2, combinations, explain, spend, journal,
              out["engine.queue_wait_us"].value);
  engine.Shutdown();
  return out;
}

}  // namespace perfbench
