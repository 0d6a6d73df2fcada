// Per-layer measurements for the fleet benchmark's traced run, taken from
// outside the program: the benchmark records its own spans around calls
// into each module's public functions (router and transport by round-trip
// differences, the engine in-process, core/dp/data/cluster/snapshot
// directly) and prints a layer table whose rows add up to the client's
// median round trip, with the remainder shown as `unattributed`.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>

#include "fleet.h"
#include "workload.h"

namespace perfbench {

struct PerLayerMetric {
  double value = 0.0;
  std::string unit;
};

/// What the traced run hands to the layer probes. The fleet is still up.
struct LayerContext {
  const WorkloadSpec& spec;
  const Inputs& inputs;
  uint64_t seed;
  std::string bin_dir;
  std::string work_dir;
  size_t readers;
  std::string fleet_socket;
  LineClient& control;
  FleetCounters before;  // harvested around the traced timed pass
  FleetCounters after;
  const PhaseResult& latency_phase;
  const PhaseResult& throughput_phase;
  SpanLog& spans;
};

/// Runs the layer probes, prints the layer table with the layer-sum check,
/// and returns every per-layer metric by name.
std::map<std::string, PerLayerMetric> RunLayers(LayerContext& context);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
