// Ablation: multithreaded Stage-2 search. The k^|C| enumeration dominates
// runtime past ~11 clusters (Fig. 9a). The search cuts it into blocks of at
// most 4,096 combinations whose max and weight-sum passes spread over the
// compute pool; the result depends on the seed alone, so every thread count
// returns the same combination in exact and private mode. This bench times
// the serial vs parallel search (exact mode: the max pass only) on large
// combination spaces and verifies that the results agree.

#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "common/logging.h"
#include "core/candidate_selection.h"
#include "eval/harness.h"

int main() {
  using namespace dpclustx;
  using namespace dpclustx::bench;

  const Dataset dataset = MakeDataset("diabetes");
  std::printf(
      "Ablation: serial vs multithreaded Stage-2 combination search "
      "(Diabetes, k=3)\n"
      "(this host reports %u hardware threads; speedups only materialize "
      "with >1 core — the exact-match column verifies correctness "
      "regardless)\n\n",
      std::thread::hardware_concurrency());

  eval::TablePrinter table({"|C|", "combinations", "serial_ms", "2thr_ms",
                            "4thr_ms", "8thr_ms", "exact match"});
  GlobalWeights lambda;
  for (const size_t clusters : {11u, 13u, 14u}) {
    const std::vector<ClusterId> labels =
        FitLabels(dataset, "k-means", clusters, 1);
    const auto stats = StatsCache::Build(dataset, labels, clusters);
    DPX_CHECK_OK(stats.status());
    const auto sets = SelectCandidatesExact(*stats, 3, {0.5, 0.5});
    DPX_CHECK_OK(sets.status());
    const auto tables =
        core_internal::BuildLowSensitivityTables(*stats, *sets, lambda);

    double combos = 1.0;
    for (size_t c = 0; c < clusters; ++c) combos *= 3.0;

    Rng rng(1);
    eval::WallTimer timer;
    const auto serial = core_internal::SearchCombination(
        *sets, tables, 0.0, 1.0, 1ull << 40, rng);
    const double serial_ms = timer.ElapsedSeconds() * 1e3;
    DPX_CHECK_OK(serial.status());

    std::vector<std::string> row = {std::to_string(clusters),
                                    eval::TablePrinter::Num(combos, 0),
                                    eval::TablePrinter::Num(serial_ms, 1)};
    bool all_match = true;
    for (const size_t threads : {2u, 4u, 8u}) {
      Rng thread_rng(1);
      timer.Reset();
      const auto parallel = core_internal::SearchCombinationParallel(
          *sets, tables, 0.0, 1.0, 1ull << 40, thread_rng, threads);
      const double ms = timer.ElapsedSeconds() * 1e3;
      DPX_CHECK_OK(parallel.status());
      all_match = all_match && (*parallel == *serial);
      row.push_back(eval::TablePrinter::Num(ms, 1));
    }
    row.push_back(all_match ? "yes" : "NO");
    table.AddRow(std::move(row));
  }
  table.Print();
  return 0;
}
