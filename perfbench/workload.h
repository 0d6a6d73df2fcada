// The three fleet-benchmark workloads: what each one loads, how it is set
// up, the request stream it offers, and how every response is checked.
//
//   explain_mix   plumbing-bound. Four diabetes-like 20k-row datasets
//                 (k-means k=4), tenant sessions multiplexed over <= 4
//                 connections, op mix explain 40% / hist 40% / budget 20%.
//                 An open loop at a fixed rate (about half of capacity on a
//                 4-core host), then a closed loop, one request in flight
//                 per connection. The DP compute is a small share of each
//                 request, so router, transport, JSON, budget and journal
//                 dominate.
//   stage2_heavy  compute-bound. One census-like 250k x 68 dataset, k-means
//                 k=8, explains with num_candidates=5 (5^8 = 390,625
//                 Stage-2 combinations) on a closed loop over 2
//                 connections, leaving idle cores for intra-request
//                 parallelism.
//   append_reads  the write path beside reads. A census-like 250k x 68
//                 DPXCOL file with reserved capacity, clustered twice
//                 (k-means k=5, k-modes k=5); one paced writer sends
//                 200-row append_rows batches (~40 KB frames) while two
//                 closed-loop readers send explain/hist on both
//                 clusterings. Every append bumps the dataset epoch, so
//                 reads keep missing the release cache; the appended rows
//                 stay below the initial row count.
//
// Every explain/hist carries a distinct epsilon, so no request is served
// from the release cache on any workload.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/json.h"
#include "data/schema.h"
#include "fleet.h"

namespace perfbench {

struct ClusteringSpec {
  std::string id;
  std::string method;
  size_t k = 0;
};

struct DatasetSpec {
  std::string name;
  std::string generator;  // "diabetes" | "census"
  size_t rows = 0;
  std::vector<ClusteringSpec> clusterings;
};

/// Rows per append_rows request (~30 KB frames on the census-like schema).
inline constexpr size_t kAppendBatchRows = 200;

/// Ops the benchmark sends, in the order the per-op tables use.
enum Op { kExplain = 0, kHist = 1, kBudget = 2, kAppend = 3, kNumOps = 4 };
const char* OpName(int op);

struct WorkloadSpec {
  std::string name;
  std::vector<DatasetSpec> datasets;
  size_t sessions_per_dataset = 1;
  /// Closed-loop (reader) connections, before clamping to nproc.
  size_t connections = 1;
  /// Open-loop rate for the first phase; 0 = no open phase.
  double open_rate_rps = 0.0;
  /// Op mix of the reader stream (weights; append is the writer's alone).
  double explain_weight = 1.0;
  double hist_weight = 0.0;
  double budget_weight = 0.0;
  /// Explain num_candidates; 0 leaves the engine default.
  size_t num_candidates = 0;
  /// Paced writer: batches/s of kAppendBatchRows rows; 0 = no writer.
  double append_rate = 0.0;
  /// Traced run: rounds of the sequential per-op layer probe.
  size_t probe_rounds = 40;
};

/// Builds the named workload, or returns false for an unknown name.
bool MakeWorkload(const std::string& name, WorkloadSpec* spec);

/// Generated inputs for one dataset: the DPXCOL file the fleet loads and a
/// pool of further rows of the same distribution for append_rows batches.
struct DatasetInputs {
  std::string path;
  dpclustx::Schema schema;
  std::vector<std::string> append_lines;  // pre-encoded append_rows requests
  std::vector<std::vector<dpclustx::ValueCode>> pool;
};

struct Inputs {
  std::vector<DatasetInputs> datasets;
};

/// Writes every dataset of `spec` under `dir`, deterministically from
/// `seed`, and pre-encodes the append batches.
Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      const std::string& dir);

/// Copies every input DPXCOL file into `dir` and returns the copies' paths
/// (appends mutate the file they land in, so each server gets its own).
std::vector<std::string> CopyInputs(const Inputs& inputs,
                                    const std::string& dir);

/// One synchronous request/response exchange with a fleet, a single
/// dpclustx_serve, or an in-process engine.
using CallFn = std::function<dpclustx::JsonValue(const std::string&)>;

/// Sends the workload's setup requests through `call`: load every dataset
/// from `paths[d]`, fit every clustering, and open the workload's sessions
/// under each of `session_prefixes`. Fails the run on any error.
void SetUp(const CallFn& call, const WorkloadSpec& spec,
           const std::vector<std::string>& paths, uint64_t seed,
           const std::vector<std::string>& session_prefixes);

std::string SessionName(const std::string& prefix, size_t dataset,
                        size_t index);

/// One request a connection will send.
struct Request {
  int op = kExplain;
  size_t dataset = 0;
  size_t clustering = 0;
  std::string session_name;
  std::string attribute;
  std::string id;
  std::string line;
};

/// Per-connection request generator. Epsilons are drawn from one shared
/// counter so every budget-charged request in the run is distinct.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, const Inputs& inputs,
                uint64_t seed, size_t connection, bool writer,
                std::string session_prefix);
  Request Next();
  /// A request of a fixed op (sequential layer probes).
  Request Make(int op);

 private:
  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  std::mt19937_64 rng_;
  size_t connection_;
  bool writer_;
  std::string session_prefix_;
  uint64_t seq_ = 0;
  size_t next_batch_ = 0;
};

/// One request as it went over the wire.
struct Sample {
  Request request;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point received;
  std::string response;
  /// Microseconds from due time to response (open loop) or from send to
  /// response (closed loop, where due == sent).
  double latency_us() const { return Micros(due, received); }
};

/// Tally of one load phase after the correctness gate ran over it.
struct PhaseResult {
  std::vector<Sample> samples;
  double seconds = 0.0;  // wall time of the phase
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  size_t failed = 0;  // ok:false responses, shed included
  size_t shed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  /// Generator lateness: send time minus due time (µs).
  std::vector<double> late_us;
};

/// Runs one load phase on the fleet at `socket`: `readers` connections in a
/// closed loop (open_rate <= 0) or sharing an open-loop schedule of
/// `open_rate` requests/s, plus the paced writer when the workload has one.
/// Uses at most `readers` + 1 threads, one per connection, the calling
/// thread included. Garbled or lost responses abort the run.
PhaseResult RunPhase(const WorkloadSpec& spec, const Inputs& inputs,
                     uint64_t seed, const std::string& socket,
                     size_t readers, double open_rate, double seconds,
                     uint64_t phase_tag, const std::string& session_prefix,
                     SpanLog* spans);

/// Checks every response of `phase` (shape, ok, per-op invariants) and adds
/// its epsilon charges to `charged` (session name -> sum).
void CheckResponses(const WorkloadSpec& spec, const Inputs& inputs,
                    PhaseResult* phase,
                    std::map<std::string, double>* charged);

/// Requests two hist releases of one attribute and returns false when their
/// bins are identical (no noise). Adds the charges to `charged`.
bool CheckNoisePresent(LineClient& client, const WorkloadSpec& spec,
                       const Inputs& inputs, const std::string& session,
                       std::map<std::string, double>* charged,
                       std::string* error);

/// Compares each session's client-side charge sum with its `budget` ledger
/// and the fleet `audit` totals. Appends mismatches to `errors`.
bool CheckLedgers(LineClient& client,
                  const std::map<std::string, double>& charged,
                  std::vector<std::string>* errors);

/// Fleet counters harvested through the public `stats` and `metrics` ops.
struct FleetCounters {
  std::map<std::string, double> op_count;         // per op, summed over workers
  std::map<std::string, double> op_total_micros;  // per op
  double cache_hits = 0;
  double cache_misses = 0;
  double shed = 0;
  double queue_depth = 0;
  double journal_records = 0;
  dpclustx::JsonValue build;  // build info of the first worker
};
FleetCounters Harvest(LineClient& client);

/// Per-op mean server-side latency (µs) between two harvests.
std::map<std::string, double> ServerOpMicros(const FleetCounters& before,
                                             const FleetCounters& after);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
