// Fleet benchmark harness: generates a workload's inputs from the seed,
// launches the real fleet (dpclustx_router --workers 2 over dpclustx_serve
// shards, listening on a unix socket, deployment defaults throughout),
// times its set-up, drives the load, checks every response, and prints the
// result as one JSON line.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --bin-dir DIR --work-dir DIR
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the load twice,
// once plain and once with client spans recorded, prints the tracing
// overhead, then measures each layer from outside (layers.cc) and reports
// the per-layer metrics.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "fleet.h"
#include "layers.h"
#include "workload.h"

namespace perfbench {
namespace {

using dpclustx::JsonValue;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_bin = false, have_work = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--bin-dir") {
      args.bin_dir = value;
      have_bin = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
      have_work = true;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_bin || !have_work ||
      args.seconds <= 0) {
    Fail("usage: perfbench_harness --workload NAME --seed N --seconds S "
         "--trace 0|1 --bin-dir DIR --work-dir DIR");
  }
  return args;
}

/// A running fleet and the setup connection it was prepared on.
struct Fleet {
  std::unique_ptr<ChildProcess> router;
  std::unique_ptr<LineClient> control;
  std::string socket;
  double setup_seconds = 0;
};

/// Launches router + 2 shards in a fresh state directory and runs the
/// workload's setup; the time from launch to the last setup response is
/// the fleet's set-up time. The fleet loads the input files themselves
/// unless `copy` is set; copies, written without fsync, would leave dirty
/// pages that the kernel writes back during the measurement.
Fleet LaunchFleet(const Args& args, const WorkloadSpec& spec,
                  const Inputs& inputs, const std::string& dir,
                  const std::vector<std::string>& prefixes, bool copy) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Fleet fleet;
  fleet.socket = dir + "/router.sock";
  std::vector<std::string> paths;
  for (const DatasetInputs& d : inputs.datasets) paths.push_back(d.path);
  if (copy) paths = CopyInputs(inputs, dir);
  const auto start = Clock::now();
  fleet.router = std::make_unique<ChildProcess>(
      std::vector<std::string>{args.bin_dir + "/dpclustx_router", "--workers",
                               "2", "--serve", args.bin_dir + "/dpclustx_serve",
                               "--state-dir", dir, "--listen",
                               "unix:" + fleet.socket},
      dir + "/fleet.log");
  WaitForSocket(fleet.socket, 60);
  fleet.control = std::make_unique<LineClient>(fleet.socket);
  LineClient& control = *fleet.control;
  SetUp([&](const std::string& r) { return control.Call(r); }, spec, paths,
        args.seed, prefixes);
  fleet.setup_seconds = Micros(start, Clock::now()) / 1e6;
  return fleet;
}

/// Latencies (ms) of the samples of `phase` matching `op` (-1 = all), in
/// send order.
std::vector<double> Latencies(const PhaseResult& phase, int op) {
  std::vector<double> out;
  for (const Sample& s : phase.samples) {
    if (op < 0 || s.request.op == op) out.push_back(s.latency_us() / 1e3);
  }
  return out;
}

// Samples per window of the windowed quantiles: 1000 leaves ten samples
// beyond a window's p99.
constexpr size_t kWindow = 1000;

/// Splits `values` (send order) into consecutive windows of kWindow samples
/// (the remainder joins the last window), takes quantile `q` of each, and
/// returns the median across windows. A burst of host interference then
/// moves a few windows rather than the reported figure.
double WindowedQuantile(const std::vector<double>& values, double q) {
  const size_t windows = std::max<size_t>(1, values.size() / kWindow);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = values.begin() + w * kWindow;
    const auto end = w + 1 == windows ? values.end() : begin + kWindow;
    per_window.push_back(Quantile(std::vector<double>(begin, end), q));
  }
  return Median(per_window);
}

/// Completions per second: the phase's responses in arrival order are cut
/// into ten windows of equal count, and the median window rate is reported.
double WindowedThroughput(const PhaseResult& phase) {
  std::vector<Clock::time_point> arrivals;
  for (const Sample& s : phase.samples) arrivals.push_back(s.received);
  std::sort(arrivals.begin(), arrivals.end());
  constexpr size_t kWindows = 10;
  if (arrivals.size() < 2 * kWindows) {
    return static_cast<double>(arrivals.size()) / phase.seconds;
  }
  const size_t per_window = arrivals.size() / kWindows;
  std::vector<double> rates;
  for (size_t w = 0; w < kWindows; ++w) {
    const Clock::time_point first = arrivals[w * per_window];
    const Clock::time_point last = arrivals[(w + 1) * per_window - 1];
    rates.push_back(static_cast<double>(per_window - 1) /
                    (Micros(first, last) / 1e6));
  }
  return Median(rates);
}

/// What one pass of the timed phases produced.
struct Timed {
  PhaseResult latency_phase;     // open loop when the workload has one
  PhaseResult throughput_phase;  // closed loop (same object when no open)
  bool has_open = false;
  FleetCounters before, after;
  /// Fleet CPU time (router + workers) over the closed-loop phase.
  double throughput_cpu_seconds = 0;
  std::map<std::string, double> charged;
};

Timed RunTimed(const Args& args, const WorkloadSpec& spec,
               const Inputs& inputs, Fleet& fleet, size_t readers,
               double seconds, const std::string& tag, SpanLog* spans) {
  Timed timed;
  timed.before = Harvest(*fleet.control);
  timed.has_open = spec.open_rate_rps > 0.0;
  if (timed.has_open) {
    timed.latency_phase = RunPhase(spec, inputs, args.seed, fleet.socket,
                                   readers, spec.open_rate_rps, seconds / 2, 1,
                                   "o" + tag, spans);
  }
  const double cpu_before = TreeCpuSeconds(fleet.router->pid());
  timed.throughput_phase =
      RunPhase(spec, inputs, args.seed, fleet.socket, readers, 0.0,
               timed.has_open ? seconds / 2 : seconds, 2, "c" + tag, spans);
  timed.throughput_cpu_seconds = TreeCpuSeconds(fleet.router->pid()) - cpu_before;
  timed.after = Harvest(*fleet.control);
  if (timed.has_open) {
    CheckResponses(spec, inputs, &timed.latency_phase, &timed.charged);
  }
  CheckResponses(spec, inputs, &timed.throughput_phase, &timed.charged);
  return timed;
}

const PhaseResult& LatencyPhase(const Timed& t) {
  return t.has_open ? t.latency_phase : t.throughput_phase;
}

/// End-to-end figures of one timed pass. Every gated latency comes from the
/// closed-loop phase (on append_reads: closed-loop readers beside the paced
/// writer): there a host stall delays only the requests in flight, so the
/// figures repeat from run to run. The open loop's due-time latencies are
/// reported beside them ("open_*"), not gated: on a shared host one stall
/// delays every arrival it spans, and its p99 swings with the stall count.
std::map<std::string, double> EndToEnd(const WorkloadSpec& spec,
                                       const Timed& t) {
  const PhaseResult& thr = t.throughput_phase;
  std::map<std::string, double> m;
  m["req_p50_ms"] = WindowedQuantile(Latencies(thr, -1), 0.50);
  m["req_p99_ms"] = WindowedQuantile(Latencies(thr, -1), 0.99);
  m["explain_p50_ms"] = WindowedQuantile(Latencies(thr, kExplain), 0.50);
  m["explain_p99_ms"] = WindowedQuantile(Latencies(thr, kExplain), 0.99);
  // Completions/s; on append_reads every op of the phase (readers plus the
  // paced writer) counts.
  m["throughput_rps"] = WindowedThroughput(thr);
  m["fleet_cpu_ms_per_req"] =
      1e3 * t.throughput_cpu_seconds / static_cast<double>(thr.samples.size());
  if (t.has_open) {
    const PhaseResult& open = t.latency_phase;
    m["open_req_p50_ms"] = WindowedQuantile(Latencies(open, -1), 0.50);
    m["open_req_p99_ms"] = WindowedQuantile(Latencies(open, -1), 0.99);
    m["open_explain_p50_ms"] = WindowedQuantile(Latencies(open, kExplain), 0.50);
    m["open_explain_p99_ms"] = WindowedQuantile(Latencies(open, kExplain), 0.99);
  }
  if (spec.append_rate > 0.0) {
    m["append_p50_ms"] = WindowedQuantile(Latencies(thr, kAppend), 0.50);
    m["append_p99_ms"] = WindowedQuantile(Latencies(thr, kAppend), 0.99);
    m["append_rows_per_s"] =
        static_cast<double>(Latencies(thr, kAppend).size() *
                            kAppendBatchRows) /
        thr.seconds;
  }
  return m;
}

size_t Count(const PhaseResult& p, int op) {
  size_t n = 0;
  for (const Sample& s : p.samples) n += (op < 0 || s.request.op == op);
  return n;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  WorkloadSpec spec;
  if (!MakeWorkload(args.workload, &spec)) Fail("unknown workload " + args.workload);

  const size_t nproc = std::max<long>(1, ::sysconf(_SC_NPROCESSORS_ONLN));
  const size_t writer = spec.append_rate > 0.0 ? 1 : 0;
  // One connection and one thread per connection, never more than nproc.
  const size_t readers = std::max<size_t>(
      1, std::min(spec.connections, nproc > writer ? nproc - writer : 1));
  if (spec.append_rate > 0.0) {
    // Appended rows stay at or below the initial row count.
    spec.append_rate = std::min(
        spec.append_rate, static_cast<double>(spec.datasets[0].rows) /
                              (static_cast<double>(kAppendBatchRows) *
                               args.seconds));
  }

  std::filesystem::remove_all(args.work_dir);  // a previous run's state
  const std::string inputs_dir = args.work_dir + "/inputs";
  std::filesystem::create_directories(inputs_dir);
  const Inputs inputs = GenerateInputs(spec, args.seed, inputs_dir);

  // Session sets: one per timed pass ("" plain, "t" traced) and phase, so
  // every phase starts from fresh ledgers.
  const std::vector<std::string> prefixes =
      args.trace ? std::vector<std::string>{"o", "c", "ot", "ct", "p"}
                 : std::vector<std::string>{"o", "c"};
  std::vector<double> setups;
  // Set-up is short and noisy, so a plain run launches the fleet several
  // times and reports the median; the traced run needs only one fleet.
  const int launches = args.trace ? 1 : 5;
  Fleet fleet;
  for (int i = 0; i < launches; ++i) {
    if (fleet.router) {
      fleet.control.reset();
      fleet.router->Stop();
    }
    // The traced run keeps the inputs pristine for the layer probes' own
    // servers; a plain run's only appending fleet is its last one.
    fleet = LaunchFleet(args, spec, inputs,
                        args.work_dir + "/fleet" + std::to_string(i), prefixes,
                        args.trace);
    setups.push_back(fleet.setup_seconds);
  }

  SpanLog spans;
  // Plain pass; in trace mode each pass gets half the run.
  const double pass_seconds = args.trace ? args.seconds / 2 : args.seconds;
  Timed plain = RunTimed(args, spec, inputs, fleet, readers, pass_seconds, "",
                         nullptr);
  Timed traced;
  if (args.trace) {
    traced = RunTimed(args, spec, inputs, fleet, readers, pass_seconds, "t",
                      &spans);
  }
  Timed& last = args.trace ? traced : plain;

  bool correct = true;
  std::vector<std::string> errors;
  for (const Timed* t : {&plain, &traced}) {
    for (const PhaseResult* p : {&t->latency_phase, &t->throughput_phase}) {
      correct = correct && p->correct;
      errors.insert(errors.end(), p->errors.begin(), p->errors.end());
    }
  }
  std::map<std::string, double> charged = plain.charged;
  for (const auto& [s, e] : traced.charged) charged[s] += e;
  std::string noise_error;
  if (!CheckNoisePresent(*fleet.control, spec, inputs,
                         SessionName("c", 0, 0), &charged, &noise_error)) {
    correct = false;
    errors.push_back(noise_error);
  }
  if (!CheckLedgers(*fleet.control, charged, &errors)) correct = false;
  const double cache_hits = last.after.cache_hits - plain.before.cache_hits;
  const double cache_misses = last.after.cache_misses - plain.before.cache_misses;
  if (cache_hits != 0) {
    correct = false;
    errors.push_back("release cache served hits; the workload must bypass it");
  }
  const double rss_mb = TreePeakRssMb(fleet.router->pid());

  size_t attempted = 0, failed = 0, shed = 0;
  for (const Timed* t : {&plain, &traced}) {
    for (const PhaseResult* p : {&t->latency_phase, &t->throughput_phase}) {
      attempted += p->samples.size();
      failed += p->failed;
      shed += p->shed;
    }
  }
  const std::map<std::string, double> e2e = EndToEnd(spec, plain);
  const JsonValue& build = last.after.build;
  const auto field = [&](const char* key) {
    return build.Has(key) ? build.at(key).AsString() : std::string("unknown");
  };
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d | nproc=%zu "
              "commit=%s build=%s isa=%s (detected %s) | readers=%zu%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, nproc,
              field("git_sha").c_str(), field("build_type").c_str(),
              field("isa_active").c_str(), field("isa_detected").c_str(),
              readers, writer ? " writer=1" : "");
  std::printf("  setup_s median of %zu launches: %.4f  (", setups.size(),
              Median(setups));
  for (double s : setups) std::printf(" %.3f", s);
  std::printf(" )\n");
  const PhaseResult& thr = plain.throughput_phase;
  if (plain.has_open) {
    const PhaseResult& open = plain.latency_phase;
    std::printf("  open loop @%.0f rps, %.1fs: %zu requests, %zu explains; "
                "latency from due time; loadgen late p99 %.3f ms\n",
                spec.open_rate_rps, open.seconds, Count(open, -1),
                Count(open, kExplain), Quantile(open.late_us, 0.99) / 1e3);
  }
  std::printf("  closed loop %.1fs: %zu requests, %zu explains, %zu appends "
              "(quantiles: median over windows of %zu samples; whole-phase "
              "p99 req %.3f ms, explain %.3f ms); loadgen late p99 %.3f ms\n",
              thr.seconds, Count(thr, -1), Count(thr, kExplain),
              Count(thr, kAppend), kWindow, Quantile(Latencies(thr, -1), 0.99),
              Quantile(Latencies(thr, kExplain), 0.99),
              Quantile(thr.late_us, 0.99) / 1e3);
  std::printf("  fleet: cache hits %.0f misses %.0f (hit ratio %.3f), "
              "shed %.0f, journal records %.0f, queue depth %.0f\n",
              cache_hits, cache_misses,
              cache_hits + cache_misses > 0 ? cache_hits / (cache_hits + cache_misses) : 0.0,
              last.after.shed - plain.before.shed,
              last.after.journal_records - plain.before.journal_records,
              last.after.queue_depth);
  const double failed_ratio =
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  std::printf("  failed_ratio %.6f (%zu failed, %zu shed, of %zu attempted)\n",
              failed_ratio, failed, shed, attempted);
  for (const auto& [name, value] : e2e) {
    std::printf("  %-18s %.4f\n", name.c_str(), value);
  }
  std::printf("  fleet_rss_mb       %.1f\n", rss_mb);
  for (const std::string& e : errors) std::printf("  CHECK FAILED: %s\n", e.c_str());

  JsonValue metrics = JsonValue::Object();
  const auto put = [&](const std::string& name, double value,
                       const std::string& unit) {
    JsonValue m = JsonValue::Object();
    m.Set("value", JsonValue::Number(value));
    m.Set("unit", JsonValue::String(unit));
    metrics.Set(name, std::move(m));
  };
  if (!args.trace) {
    // Latencies and throughput are printed above but not reported here: on
    // a shared host, where the VM loses its CPUs for milliseconds up to whole
    // runs, their run-to-run spread exceeds any usable regression bound.
    // CPU time per request is not charged for stolen time.
    put("setup_s", Median(setups), "s");
    put("fleet_cpu_ms_per_req", e2e.at("fleet_cpu_ms_per_req"), "ms");
    put("fleet_rss_mb", rss_mb, "MB");
  } else {
    const std::map<std::string, double> e2e_traced = EndToEnd(spec, traced);
    std::printf("  tracing overhead (traced - plain, half-length passes):\n");
    for (const auto& [name, value] : e2e_traced) {
      std::printf("    %-18s plain %.4f traced %.4f  delta %+.4f (%+.1f%%)\n",
                  name.c_str(), e2e.at(name), value, value - e2e.at(name),
                  100.0 * (value - e2e.at(name)) / e2e.at(name));
    }
    LayerContext context{spec,       inputs,      args.seed,  args.bin_dir,
                         args.work_dir, readers, fleet.socket, *fleet.control,
                         traced.before, traced.after, LatencyPhase(traced),
                         traced.throughput_phase, spans};
    // The probes run off the main thread, like the server's request
    // threads: glibc serves a secondary thread from its own malloc arena,
    // and allocation-heavy handlers (Stage-2) measurably differ between the
    // two.
    std::map<std::string, PerLayerMetric> layers;
    std::thread([&] { layers = RunLayers(context); }).join();
    for (const auto& [name, m] : layers) put(name, m.value, m.unit);
  }
  spans.Write(args.work_dir + "/spans-" + spec.name + ".jsonl");
  fleet.control.reset();
  fleet.router->Stop();
  // The DPXCOL inputs and their per-server copies are the bulk of the disk
  // a run uses; logs, snapshots and the span file stay for inspection.
  std::vector<std::filesystem::path> copies;
  for (const auto& file :
       std::filesystem::recursive_directory_iterator(args.work_dir)) {
    if (file.path().extension() == ".dpxcol") copies.push_back(file.path());
  }
  for (const auto& path : copies) std::filesystem::remove(path);

  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(correct));
  result.Set("attempted", JsonValue::Number(static_cast<double>(attempted)));
  result.Set("failed", JsonValue::Number(static_cast<double>(failed)));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}
