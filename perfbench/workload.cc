#include "workload.h"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "data/columnar_format.h"
#include "data/synthetic.h"
#include "service/json_relay.h"

namespace perfbench {

using dpclustx::JsonValue;

namespace {

uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Rows kept back from each generated dataset for append_rows batches. The
// writer cycles through them, so the appended rows follow the loaded
// distribution without generating the whole appended volume.
constexpr size_t kPoolRows = 20000;

// One counter for the whole run: every budget-charged request carries a
// distinct epsilon, so none can be served from the release cache.
std::atomic<uint64_t> epsilon_sequence{0};

double NextEpsilon(double base) {
  return base + 1e-9 * static_cast<double>(epsilon_sequence.fetch_add(1));
}

JsonValue MustParse(const std::string& line) {
  auto parsed = JsonValue::Parse(line);
  if (!parsed.ok()) Fail("garbled response: " + line.substr(0, 200));
  return *std::move(parsed);
}

void MustBeOk(const JsonValue& response, const std::string& what) {
  if (response.type() != JsonValue::Type::kObject || !response.Has("ok") ||
      !response.at("ok").AsBool()) {
    Fail(what + " failed: " + response.Dump().substr(0, 300));
  }
}

}  // namespace

const char* OpName(int op) {
  static const char* const kNames[] = {"explain", "hist", "budget",
                                       "append_rows"};
  return kNames[op];
}

bool MakeWorkload(const std::string& name, WorkloadSpec* spec) {
  spec->name = name;
  if (name == "explain_mix") {
    for (size_t d = 0; d < 4; ++d) {
      spec->datasets.push_back({"mix" + std::to_string(d), "diabetes", 20000,
                                {{"default", "k-means", 4}}});
    }
    spec->sessions_per_dataset = 16;
    spec->connections = 4;
    spec->open_rate_rps = 2000.0;
    spec->explain_weight = 0.4;
    spec->hist_weight = 0.4;
    spec->budget_weight = 0.2;
    spec->probe_rounds = 200;
    return true;
  }
  if (name == "stage2_heavy") {
    spec->datasets.push_back(
        {"census", "census", 250000, {{"default", "k-means", 8}}});
    spec->sessions_per_dataset = 2;
    spec->connections = 2;
    spec->num_candidates = 5;
    return true;
  }
  if (name == "append_reads") {
    spec->datasets.push_back({"stream", "census", 250000,
                              {{"km", "k-means", 5}, {"kmo", "k-modes", 5}}});
    spec->sessions_per_dataset = 2;
    spec->connections = 2;
    spec->explain_weight = 0.5;
    spec->hist_weight = 0.5;
    spec->append_rate = 50.0;
    return true;
  }
  return false;
}

std::vector<std::string> CopyInputs(const Inputs& inputs,
                                    const std::string& dir) {
  std::vector<std::string> paths;
  for (const DatasetInputs& d : inputs.datasets) {
    const std::string to =
        dir + "/" + std::filesystem::path(d.path).filename().string();
    std::error_code ec;
    std::filesystem::copy_file(
        d.path, to, std::filesystem::copy_options::overwrite_existing, ec);
    if (ec) Fail("copy " + d.path + " -> " + to + ": " + ec.message());
    paths.push_back(to);
  }
  return paths;
}

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      const std::string& dir) {
  Inputs inputs;
  for (size_t d = 0; d < spec.datasets.size(); ++d) {
    const DatasetSpec& ds = spec.datasets[d];
    // The workload fixes each dataset's distribution and schema (generator
    // seed 11 + d); the run seed draws which rows are loaded, in which
    // order, and which are held back for appends. Domain sizes, and with
    // them response sizes and Stage-2 table costs, are thus the same on
    // every seed, while the inputs still differ.
    const size_t total = ds.rows + kPoolRows;
    dpclustx::synth::SyntheticConfig config =
        ds.generator == "census"
            ? dpclustx::synth::CensusLike(total, 11 + d)
            : dpclustx::synth::DiabetesLike(total, 11 + d);
    auto generated = dpclustx::synth::Generate(config);
    if (!generated.ok()) Fail("synthetic generation failed");
    std::vector<uint32_t> order(total);
    for (size_t r = 0; r < total; ++r) order[r] = static_cast<uint32_t>(r);
    std::shuffle(order.begin(), order.end(), std::mt19937_64(Mix(seed, 100 + d)));
    const dpclustx::Dataset base = generated->SelectRows(
        std::vector<uint32_t>(order.begin(), order.begin() + ds.rows));

    DatasetInputs out;
    out.path = dir + "/" + ds.name + ".dpxcol";
    out.schema = base.schema();
    dpclustx::ColumnarWriteOptions write;
    // Appends commit in place: the writer adds at most the initial row
    // count, the layer probes at most the pool's.
    write.capacity_rows = ds.rows + (spec.append_rate > 0 ? ds.rows : kPoolRows);
    const auto written = dpclustx::WriteColumnarFile(base, out.path, write);
    if (!written.ok()) Fail("writing " + out.path + ": " + written.ToString());

    out.pool.reserve(kPoolRows);
    for (size_t r = ds.rows; r < total; ++r) out.pool.push_back(generated->Row(order[r]));
    // Pre-encode the append batches so the writer sends without building.
    for (size_t b = 0; b + kAppendBatchRows <= out.pool.size();
         b += kAppendBatchRows) {
      std::string line = R"({"op":"append_rows","dataset":")" + ds.name +
                         R"(","rows":[)";
      for (size_t r = b; r < b + kAppendBatchRows; ++r) {
        line += r == b ? "[" : ",[";
        for (size_t a = 0; a < out.pool[r].size(); ++a) {
          if (a > 0) line += ',';
          line += std::to_string(out.pool[r][a]);
        }
        line += ']';
      }
      line += "]";
      out.append_lines.push_back(std::move(line));
    }
    inputs.datasets.push_back(std::move(out));
  }
  return inputs;
}

std::string SessionName(const std::string& prefix, size_t dataset,
                        size_t index) {
  return prefix + std::to_string(dataset) + "-" + std::to_string(index);
}

void SetUp(const CallFn& call, const WorkloadSpec& spec,
           const std::vector<std::string>& paths, uint64_t seed,
           const std::vector<std::string>& session_prefixes) {
  for (size_t d = 0; d < spec.datasets.size(); ++d) {
    const DatasetSpec& ds = spec.datasets[d];
    MustBeOk(call(R"({"op":"load_dataset","name":")" + ds.name +
                         R"(","source":"dpxcol","path":")" + paths[d] +
                         R"(","id":"setup"})"),
             "load_dataset " + ds.name);
    for (const ClusteringSpec& c : ds.clusterings) {
      char request[320];
      std::snprintf(request, sizeof(request),
                    R"({"op":"cluster","dataset":"%s","clustering":"%s",)"
                    R"("method":"%s","k":%zu,"seed":%)" PRIu64
                    R"(,"id":"setup"})",
                    ds.name.c_str(), c.id.c_str(), c.method.c_str(), c.k,
                    Mix(seed, 7) % 1000 + 1);
      MustBeOk(call(request), "cluster " + ds.name + "/" + c.id);
    }
  }
  for (const std::string& prefix : session_prefixes) {
    for (size_t d = 0; d < spec.datasets.size(); ++d) {
      for (size_t s = 0; s < spec.sessions_per_dataset; ++s) {
        MustBeOk(call(R"({"op":"create_session","dataset":")" +
                             spec.datasets[d].name + R"(","session":")" +
                             SessionName(prefix, d, s) +
                             R"(","epsilon":1000000000,"id":"setup"})"),
                 "create_session");
      }
    }
  }
}

RequestStream::RequestStream(const WorkloadSpec& spec, const Inputs& inputs,
                             uint64_t seed, size_t connection, bool writer,
                             std::string session_prefix)
    : spec_(spec),
      inputs_(inputs),
      rng_(Mix(seed, 1000 + connection)),
      connection_(connection),
      writer_(writer),
      session_prefix_(std::move(session_prefix)) {}

Request RequestStream::Next() {
  if (writer_) return Make(kAppend);
  const double total =
      spec_.explain_weight + spec_.hist_weight + spec_.budget_weight;
  const double u = std::uniform_real_distribution<double>(0.0, total)(rng_);
  if (u < spec_.explain_weight) return Make(kExplain);
  if (u < spec_.explain_weight + spec_.hist_weight) return Make(kHist);
  return Make(kBudget);
}

Request RequestStream::Make(int op) {
  Request r;
  r.op = op;
  r.dataset = rng_() % spec_.datasets.size();
  const DatasetSpec& ds = spec_.datasets[r.dataset];
  r.clustering = rng_() % ds.clusterings.size();
  r.session_name = SessionName(session_prefix_, r.dataset,
                               rng_() % spec_.sessions_per_dataset);
  r.id = "c" + std::to_string(connection_) + "-" + std::to_string(seq_++);
  const std::string& clustering = ds.clusterings[r.clustering].id;
  char buf[512];
  switch (op) {
    case kExplain: {
      char candidates[48] = "";
      if (spec_.num_candidates > 0) {
        std::snprintf(candidates, sizeof(candidates), R"("num_candidates":%zu,)",
                      spec_.num_candidates);
      }
      std::snprintf(buf, sizeof(buf),
                    R"({"op":"explain","session":"%s","clustering":"%s",)"
                    R"(%s"epsilon":%.12f,"id":"%s"})",
                    r.session_name.c_str(), clustering.c_str(), candidates,
                    NextEpsilon(0.3), r.id.c_str());
      r.line = buf;
      break;
    }
    case kHist: {
      const dpclustx::Schema& schema = inputs_.datasets[r.dataset].schema;
      r.attribute = schema.attribute(static_cast<dpclustx::AttrIndex>(
                                         rng_() % schema.num_attributes()))
                        .name();
      std::snprintf(buf, sizeof(buf),
                    R"({"op":"hist","session":"%s","clustering":"%s",)"
                    R"("attribute":"%s","epsilon":%.12f,"id":"%s"})",
                    r.session_name.c_str(), clustering.c_str(),
                    r.attribute.c_str(), NextEpsilon(0.05), r.id.c_str());
      r.line = buf;
      break;
    }
    case kBudget:
      std::snprintf(buf, sizeof(buf),
                    R"({"op":"budget","session":"%s","id":"%s"})",
                    r.session_name.c_str(), r.id.c_str());
      r.line = buf;
      break;
    default: {
      const std::vector<std::string>& lines =
          inputs_.datasets[r.dataset].append_lines;
      r.line = lines[next_batch_++ % lines.size()] + R"(,"id":")" + r.id +
               "\"}";
      break;
    }
  }
  return r;
}

namespace {

// Matches a response to its outstanding request by the top-level id. An
// unparseable line or an unknown id means the stream is corrupt.
size_t MatchResponse(const std::string& line,
                     std::map<std::string, size_t>* outstanding) {
  auto scan = dpclustx::service::ScanTopLevelId(line);
  if (!scan.ok()) Fail("garbled response: " + line.substr(0, 200));
  auto it = outstanding->find(scan->id);
  if (it == outstanding->end()) Fail("response with unknown id " + scan->id);
  const size_t index = it->second;
  outstanding->erase(it);
  return index;
}

/// One load connection: a closed loop (one request in flight, the next due
/// when the previous answer arrives) or an open-loop schedule.
struct Connection {
  std::unique_ptr<LineClient> client;
  std::unique_ptr<RequestStream> stream;
  bool open = false;
  Clock::duration interval{};
  Clock::time_point due;
  bool in_flight = false;
  std::map<std::string, size_t> outstanding;
};

}  // namespace

PhaseResult RunPhase(const WorkloadSpec& spec, const Inputs& inputs,
                     uint64_t seed, const std::string& socket,
                     size_t readers, double open_rate, double seconds,
                     uint64_t phase_tag, const std::string& session_prefix,
                     SpanLog* spans) {
  const auto to_duration = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto end = start + to_duration(seconds);
  std::vector<Connection> connections(readers + (spec.append_rate > 0 ? 1 : 0));
  for (size_t c = 0; c < connections.size(); ++c) {
    Connection& conn = connections[c];
    const bool writer = c == readers;
    conn.client = std::make_unique<LineClient>(socket);
    conn.stream = std::make_unique<RequestStream>(
        spec, inputs, seed, phase_tag * 100 + c, writer, session_prefix);
    conn.due = start;
    if (writer) {
      conn.open = true;
      conn.interval = to_duration(1.0 / spec.append_rate);
    } else if (open_rate > 0.0) {
      // Staggered offsets make the aggregate arrivals evenly spaced.
      conn.open = true;
      conn.interval = to_duration(static_cast<double>(readers) / open_rate);
      conn.due = start + conn.interval * c / readers;
    }
  }

  PhaseResult phase;
  std::string line;
  std::vector<pollfd> fds(connections.size());
  for (;;) {
    bool active = false;
    for (Connection& conn : connections) {
      const auto now = Clock::now();
      if (conn.due <= now && conn.due < end && (conn.open || !conn.in_flight)) {
        Sample sample;
        sample.request = conn.stream->Next();
        sample.sent = Clock::now();
        sample.due = conn.open ? conn.due : sample.sent;
        phase.late_us.push_back(Micros(conn.due, sample.sent));
        conn.outstanding[sample.request.id] = phase.samples.size();
        conn.client->Send(sample.request.line);
        phase.samples.push_back(std::move(sample));
        if (conn.open) {
          conn.due += conn.interval;
        } else {
          conn.in_flight = true;
        }
      }
      while (conn.client->TryRecv(&line)) {
        const size_t index = MatchResponse(line, &conn.outstanding);
        Sample& s = phase.samples[index];
        s.received = Clock::now();
        s.response = std::move(line);
        if (spans != nullptr) {
          spans->Add(std::string("client.") + OpName(s.request.op), s.due,
                     s.received, -1, s.request.id);
        }
        if (!conn.open) {
          conn.in_flight = false;
          conn.due = s.received;
        }
      }
      active = active || conn.due < end || !conn.outstanding.empty();
      if (!conn.outstanding.empty() && Clock::now() > end + std::chrono::seconds(120)) {
        Fail("responses lost: " + std::to_string(conn.outstanding.size()) +
             " requests unanswered 120 s after the phase");
      }
    }
    if (!active) break;
    // Sleep until a response arrives or the next send falls due.
    Clock::time_point wake = Clock::now() + std::chrono::milliseconds(100);
    for (const Connection& conn : connections) {
      if (conn.due < end && (conn.open || !conn.in_flight)) {
        wake = std::min(wake, conn.due);
      }
    }
    for (size_t c = 0; c < connections.size(); ++c) {
      fds[c] = pollfd{connections[c].client->fd(), POLLIN, 0};
    }
    const auto wait = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - Clock::now()).count());
    const timespec ts{static_cast<time_t>(wait / 1000000000),
                      static_cast<long>(wait % 1000000000)};
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  }
  phase.seconds = Micros(start, Clock::now()) / 1e6;
  for (const Connection& conn : connections) {
    phase.bytes_sent += conn.client->bytes_sent();
    phase.bytes_received += conn.client->bytes_received();
  }
  return phase;
}

namespace {

size_t DomainOf(const dpclustx::Schema& schema, const std::string& name,
                bool* found) {
  auto attr = schema.FindAttribute(name);
  *found = attr.ok();
  return attr.ok() ? schema.attribute(*attr).domain_size() : 0;
}

// Returns "" when `body` is a well-formed release for `request`, else what
// is wrong with it.
std::string CheckBody(const WorkloadSpec& spec, const Inputs& inputs,
                      const Request& request, const JsonValue& body) {
  const dpclustx::Schema& schema = inputs.datasets[request.dataset].schema;
  const size_t k =
      spec.datasets[request.dataset].clusterings[request.clustering].k;
  bool found = false;
  switch (request.op) {
    case kExplain: {
      if (!body.Has("explanation")) return "explain without explanation";
      const JsonValue& clusters = body.at("explanation").at("clusters");
      if (clusters.type() != JsonValue::Type::kArray || clusters.size() != k) {
        return "explanation does not have one attribute per cluster";
      }
      for (size_t c = 0; c < clusters.size(); ++c) {
        const JsonValue& e = clusters.at(c);
        const size_t domain = DomainOf(schema, e.at("attribute").AsString(), &found);
        if (!found) return "explanation names an unknown attribute";
        if (e.at("inside").size() != domain || e.at("outside").size() != domain) {
          return "explanation histogram length differs from the domain";
        }
      }
      return "";
    }
    case kHist: {
      const JsonValue& clusters = body.at("clusters");
      if (clusters.type() != JsonValue::Type::kArray || clusters.size() != k) {
        return "hist does not have one histogram per cluster";
      }
      const size_t domain = DomainOf(schema, request.attribute, &found);
      for (size_t c = 0; c < clusters.size(); ++c) {
        if (clusters.at(c).at("bins").size() != domain) {
          return "hist length differs from the attribute's domain";
        }
      }
      return "";
    }
    case kBudget:
      return body.Has("spent") ? "" : "budget without spent";
    default:
      return body.Has("appended") &&
                     body.at("appended").AsNumber() ==
                         static_cast<double>(kAppendBatchRows)
                 ? ""
                 : "append_rows did not append the batch";
  }
}

}  // namespace

void CheckResponses(const WorkloadSpec& spec, const Inputs& inputs,
                    PhaseResult* phase,
                    std::map<std::string, double>* charged) {
  for (const Sample& s : phase->samples) {
    const JsonValue body = MustParse(s.response);
    if (body.type() != JsonValue::Type::kObject || !body.Has("ok")) {
      Fail("response without ok: " + s.response.substr(0, 200));
    }
    if (!body.at("ok").AsBool()) {
      ++phase->failed;
      if (body.Has("error") && body.at("error").Has("retry_after_ms")) {
        ++phase->shed;
      }
      continue;
    }
    const std::string problem = CheckBody(spec, inputs, s.request, body);
    if (!problem.empty()) {
      phase->correct = false;
      if (phase->errors.size() < 5) phase->errors.push_back(problem);
    }
    if (body.Has("epsilon_charged")) {
      (*charged)[s.request.session_name] += body.at("epsilon_charged").AsNumber();
      if (body.Has("cache_hit") && body.at("cache_hit").AsBool()) {
        phase->correct = false;
        if (phase->errors.size() < 5) phase->errors.push_back("cache hit");
      }
    }
  }
}

bool CheckNoisePresent(LineClient& client, const WorkloadSpec& spec,
                       const Inputs& inputs, const std::string& session,
                       std::map<std::string, double>* charged,
                       std::string* error) {
  const std::string attribute = inputs.datasets[0].schema.attribute(0).name();
  const std::string clustering = spec.datasets[0].clusterings[0].id;
  std::vector<JsonValue> releases;
  for (int i = 0; i < 2; ++i) {
    char request[320];
    std::snprintf(request, sizeof(request),
                  R"({"op":"hist","session":"%s","clustering":"%s",)"
                  R"("attribute":"%s","epsilon":%.12f,"id":"noise%d"})",
                  session.c_str(), clustering.c_str(), attribute.c_str(),
                  NextEpsilon(0.05), i);
    JsonValue response = client.Call(request);
    MustBeOk(response, "noise-check hist");
    (*charged)[session] += response.at("epsilon_charged").AsNumber();
    releases.push_back(std::move(response));
  }
  if (releases[0].at("clusters").Dump() == releases[1].at("clusters").Dump()) {
    *error = "two releases of the same histogram are identical (no noise)";
    return false;
  }
  return true;
}

bool CheckLedgers(LineClient& client,
                  const std::map<std::string, double>& charged,
                  std::vector<std::string>* errors) {
  const auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };
  bool ok = true;
  std::map<std::string, double> audited;
  const JsonValue audit = client.Call(R"({"op":"audit","limit":1,"id":"audit"})");
  MustBeOk(audit, "audit");
  const JsonValue& workers = audit.at("workers");
  for (const std::string& worker : workers.ObjectKeys()) {
    const JsonValue& totals = workers.at(worker).at("totals");
    for (const std::string& tenant : totals.ObjectKeys()) {
      audited[tenant] += totals.at(tenant).at("epsilon_charged").AsNumber();
    }
  }
  for (const auto& [session, sum] : charged) {
    const JsonValue budget = client.Call(R"({"op":"budget","session":")" +
                                         session + R"(","id":"ledger"})");
    MustBeOk(budget, "budget " + session);
    if (!close(budget.at("spent").AsNumber(), sum)) {
      ok = false;
      errors->push_back("session " + session +
                        ": budget spent differs from the charges the client saw");
    }
    if (!close(audited[session], sum)) {
      ok = false;
      errors->push_back("session " + session +
                        ": audit total differs from the charges the client saw");
    }
  }
  return ok;
}

FleetCounters Harvest(LineClient& client) {
  FleetCounters counters;
  const JsonValue stats = client.Call(R"({"op":"stats","id":"harvest"})");
  MustBeOk(stats, "stats");
  const JsonValue& workers = stats.at("workers");
  for (const std::string& worker : workers.ObjectKeys()) {
    const JsonValue& w = workers.at(worker);
    if (counters.build.is_null()) counters.build = w.at("build");
    const JsonValue& ops = w.at("ops");
    for (const std::string& op : ops.ObjectKeys()) {
      counters.op_count[op] += ops.at(op).at("count").AsNumber();
      counters.op_total_micros[op] += ops.at(op).at("total_micros").AsNumber();
    }
    counters.cache_hits += w.at("cache").at("hits").AsNumber();
    counters.cache_misses += w.at("cache").at("misses").AsNumber();
    counters.shed += w.at("shed").AsNumber();
    counters.queue_depth += w.at("pool").at("queue_depth").AsNumber();
  }
  const JsonValue metrics = client.Call(R"({"op":"metrics","id":"harvest"})");
  MustBeOk(metrics, "metrics");
  if (metrics.Has("fleet") && metrics.at("fleet").Has("counters")) {
    const JsonValue& fleet = metrics.at("fleet").at("counters");
    for (const std::string& key : fleet.ObjectKeys()) {
      if (key.rfind("dpclustx_audit_journal_records_total", 0) == 0) {
        counters.journal_records += fleet.at(key).AsNumber();
      }
    }
  }
  return counters;
}

std::map<std::string, double> ServerOpMicros(const FleetCounters& before,
                                             const FleetCounters& after) {
  std::map<std::string, double> out;
  for (const auto& [op, count] : after.op_count) {
    const auto it = before.op_count.find(op);
    const double n = count - (it == before.op_count.end() ? 0.0 : it->second);
    if (n <= 0) continue;
    const auto t = before.op_total_micros.find(op);
    out[op] = (after.op_total_micros.at(op) -
               (t == before.op_total_micros.end() ? 0.0 : t->second)) /
              n;
  }
  return out;
}

}  // namespace perfbench
