// Thread-count invariance of the parallel execution layer.
//
// The determinism contract (common/thread_pool.h): ParallelFor's chunk
// structure is a pure function of (n, grain), so chunk-merged results are
// bit-identical at any parallelism. These tests pin the contract for the
// primitives (ParallelFor itself), the fused StatsCache build, the
// clustering kernels (k-means, k-modes, GMM) and the Stage-2 combination
// search, whose private draw is a function of the seed alone.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "cluster/kmodes.h"
#include "common/thread_pool.h"
#include "core/explainer.h"
#include "core/stats_cache.h"
#include "data/kernels/isa.h"
#include "data/synthetic.h"

namespace dpclustx {
namespace {

// Force a multi-worker compute pool even on single-core CI hosts so the
// parallel dispatch path actually runs. Must happen before the first
// ParallelFor resolves the pool width; a file-scope initializer runs before
// gtest_main. overwrite=0 keeps an externally exported DPCLUSTX_THREADS
// (e.g. the TSan run in scripts/check.sh).
const bool g_env_ready = [] {
  setenv("DPCLUSTX_THREADS", "8", /*overwrite=*/0);
  return true;
}();

Dataset TestDataset(size_t rows) {
  synth::SyntheticConfig config;
  config.num_rows = rows;
  config.num_attributes = 10;
  config.num_latent_groups = 4;
  config.max_domain = 12;
  config.seed = 42;
  auto dataset = synth::Generate(config);
  EXPECT_TRUE(dataset.ok());
  return std::move(dataset).value();
}

std::vector<ClusterId> CyclicLabels(size_t rows, size_t num_clusters) {
  std::vector<ClusterId> labels(rows);
  for (size_t r = 0; r < rows; ++r) {
    labels[r] = static_cast<ClusterId>(r % num_clusters);
  }
  return labels;
}

TEST(ParallelForTest, CoversEveryIndexOnceAtAnyWidth) {
  const size_t n = 10000;
  const size_t grain = 128;
  const size_t chunks = ParallelForNumChunks(n, grain);
  ASSERT_GT(chunks, 1u);
  std::vector<size_t> reference_chunk_of;
  for (size_t threads : {size_t{1}, size_t{3}, size_t{8}, size_t{0}}) {
    std::vector<int> visits(n, 0);
    std::vector<size_t> chunk_of(n, chunks);
    ParallelFor(
        n, grain,
        [&](size_t chunk, size_t begin, size_t end) {
          ASSERT_LT(chunk, chunks);
          for (size_t i = begin; i < end; ++i) {
            ++visits[i];  // disjoint ranges: no synchronization needed
            chunk_of[i] = chunk;
          }
        },
        threads);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i], 1) << "index " << i << " at threads=" << threads;
    }
    if (reference_chunk_of.empty()) {
      reference_chunk_of = chunk_of;  // the serial run defines the structure
    } else {
      // Chunk boundaries are the same pure function of (n, grain) at every
      // width.
      ASSERT_EQ(chunk_of, reference_chunk_of) << "threads " << threads;
    }
  }
}

TEST(ParallelForTest, ChunkMergedSumsAreBitIdenticalAcrossWidths) {
  const size_t n = 50000;
  const size_t grain = 1000;
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  const size_t chunks = ParallelForNumChunks(n, grain);
  auto chunked_sum = [&](size_t threads) {
    std::vector<double> partial(chunks, 0.0);
    ParallelFor(
        n, grain,
        [&](size_t chunk, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) partial[chunk] += values[i];
        },
        threads);
    double total = 0.0;
    for (double p : partial) total += p;  // ascending chunk order
    return total;
  };
  const double serial = chunked_sum(1);
  EXPECT_EQ(serial, chunked_sum(3));
  EXPECT_EQ(serial, chunked_sum(8));
  EXPECT_EQ(serial, chunked_sum(0));
}

TEST(ParallelForTest, NestedCallsRunInlineAndFinish) {
  const size_t n = 64;
  std::vector<int> counts(n, 0);
  ParallelFor(n, 4, [&](size_t /*chunk*/, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // The inner call must not wait on the pool (it would deadlock when
      // every worker is already inside the outer loop); it runs inline.
      ParallelFor(8, 2, [&](size_t /*c*/, size_t b, size_t e) {
        counts[i] += static_cast<int>(e - b);
      });
    }
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i], 8);
}

TEST(ParallelForTest, HugeInputsKeepChunkCountBounded) {
  // The internal shard cap bounds per-chunk accumulator arrays; boundaries
  // must still tile [0, n) exactly.
  const size_t n = size_t{1} << 22;
  const size_t chunks = ParallelForNumChunks(n, 1);
  EXPECT_LE(chunks, 256u);
  size_t covered = 0;
  size_t last_end = 0;
  ParallelFor(n, 1, [&](size_t /*chunk*/, size_t begin, size_t end) {
    // Serial check (threads=1): ranges arrive in order and abut.
    EXPECT_EQ(begin, last_end);
    last_end = end;
    covered += end - begin;
  }, 1);
  EXPECT_EQ(covered, n);
  EXPECT_EQ(last_end, n);
}

TEST(HistogramTest, PlusInPlaceMatchesPlus) {
  Histogram a(std::vector<double>{1.0, 2.5, 0.0, 4.0});
  const Histogram b(std::vector<double>{0.5, 0.0, 3.0, 1.0});
  const Histogram sum = a.Plus(b);
  a.PlusInPlace(b);
  EXPECT_EQ(a.bins(), sum.bins());
}

TEST(DatasetTest, ReserveKeepsAppendSemantics) {
  Schema schema({Attribute::WithAnonymousDomain("a", 3),
                 Attribute::WithAnonymousDomain("b", 2)});
  Dataset dataset(schema);
  dataset.Reserve(100);
  EXPECT_EQ(dataset.num_rows(), 0u);
  dataset.AppendRowUnchecked({2, 1});
  dataset.AppendRowUnchecked({0, 0});
  EXPECT_EQ(dataset.num_rows(), 2u);
  EXPECT_EQ(dataset.at(0, 0), 2u);
  EXPECT_EQ(dataset.at(1, 1), 0u);
}

TEST(FusedCountsTest, MatchesPerAttributeReferenceExactly) {
  const Dataset dataset = TestDataset(20000);
  const size_t num_clusters = 7;
  const std::vector<ClusterId> labels =
      CyclicLabels(dataset.num_rows(), num_clusters);
  const auto fused =
      dataset.ComputeAllGroupHistograms(labels, num_clusters);
  ASSERT_TRUE(fused.ok());
  for (size_t a = 0; a < dataset.num_attributes(); ++a) {
    const std::vector<Histogram> reference = dataset.ComputeGroupHistograms(
        static_cast<AttrIndex>(a), labels, num_clusters);
    ASSERT_EQ((*fused)[a].size(), reference.size());
    for (size_t c = 0; c < num_clusters; ++c) {
      EXPECT_EQ((*fused)[a][c].bins(), reference[c].bins())
          << "attr " << a << " cluster " << c;
    }
  }
}

TEST(FusedCountsTest, BitwiseIdenticalAcrossThreadCounts) {
  const Dataset dataset = TestDataset(20000);
  const size_t num_clusters = 5;
  const std::vector<ClusterId> labels =
      CyclicLabels(dataset.num_rows(), num_clusters);
  const auto serial = dataset.ComputeAllGroupHistograms(labels, num_clusters,
                                                        /*max_threads=*/1);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {size_t{3}, size_t{8}, size_t{0}}) {
    const auto parallel =
        dataset.ComputeAllGroupHistograms(labels, num_clusters, threads);
    ASSERT_TRUE(parallel.ok());
    for (size_t a = 0; a < dataset.num_attributes(); ++a) {
      for (size_t c = 0; c < num_clusters; ++c) {
        ASSERT_EQ((*serial)[a][c].bins(), (*parallel)[a][c].bins())
            << "attr " << a << " cluster " << c << " threads " << threads;
      }
    }
  }
}

TEST(FusedCountsTest, RejectsBadLabelsInsteadOfCounting) {
  const Dataset dataset = TestDataset(20000);
  std::vector<ClusterId> labels = CyclicLabels(dataset.num_rows(), 4);
  labels[12345] = 9;  // >= num_clusters, deep inside a shard
  EXPECT_FALSE(dataset.ComputeAllGroupHistograms(labels, 4).ok());
  EXPECT_FALSE(
      dataset.ComputeAllGroupHistograms({0, 1}, 4).ok());  // wrong size
  EXPECT_FALSE(
      dataset
          .ComputeAllGroupHistograms(CyclicLabels(dataset.num_rows(), 4), 0)
          .ok());
}

TEST(StatsCacheParallelTest, BuildBitwiseIdenticalAcrossThreadCounts) {
  const Dataset dataset = TestDataset(20000);
  const size_t num_clusters = 6;
  const std::vector<ClusterId> labels =
      CyclicLabels(dataset.num_rows(), num_clusters);
  const auto serial =
      StatsCache::Build(dataset, labels, num_clusters, /*num_threads=*/1);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {size_t{3}, size_t{8}, size_t{0}}) {
    const auto parallel =
        StatsCache::Build(dataset, labels, num_clusters, threads);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->cluster_sizes(), serial->cluster_sizes());
    for (size_t a = 0; a < dataset.num_attributes(); ++a) {
      const auto attr = static_cast<AttrIndex>(a);
      ASSERT_EQ(parallel->full_histogram(attr).bins(),
                serial->full_histogram(attr).bins());
      for (size_t c = 0; c < num_clusters; ++c) {
        const auto cluster = static_cast<ClusterId>(c);
        ASSERT_EQ(parallel->cluster_histogram(cluster, attr).bins(),
                  serial->cluster_histogram(cluster, attr).bins());
      }
    }
  }
}

TEST(ClusteringParallelTest, KMeansLabelsInvariantAcrossThreadCounts) {
  const Dataset dataset = TestDataset(20000);
  KMeansOptions options;
  options.num_clusters = 4;
  options.max_iterations = 10;
  options.seed = 7;
  options.num_threads = 1;
  const auto serial = FitKMeans(dataset, options);
  ASSERT_TRUE(serial.ok());
  const std::vector<ClusterId> serial_labels = (*serial)->AssignAll(dataset);
  for (size_t threads : {size_t{3}, size_t{8}, size_t{0}}) {
    options.num_threads = threads;
    const auto parallel = FitKMeans(dataset, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ((*parallel)->AssignAll(dataset), serial_labels)
        << "threads " << threads;
  }
}

TEST(ClusteringParallelTest, KModesLabelsInvariantAcrossThreadCounts) {
  const Dataset dataset = TestDataset(20000);
  KModesOptions options;
  options.num_clusters = 4;
  options.max_iterations = 6;
  options.seed = 7;
  options.num_threads = 1;
  const auto serial = FitKModes(dataset, options);
  ASSERT_TRUE(serial.ok());
  const std::vector<ClusterId> serial_labels = (*serial)->AssignAll(dataset);
  for (size_t threads : {size_t{3}, size_t{8}, size_t{0}}) {
    options.num_threads = threads;
    const auto parallel = FitKModes(dataset, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ((*parallel)->AssignAll(dataset), serial_labels)
        << "threads " << threads;
  }
}

TEST(ClusteringParallelTest, GmmLabelsInvariantAcrossThreadCounts) {
  const Dataset dataset = TestDataset(20000);
  GmmOptions options;
  options.num_components = 4;
  options.max_iterations = 6;
  options.seed = 7;
  options.num_threads = 1;
  const auto serial = FitGmm(dataset, options);
  ASSERT_TRUE(serial.ok());
  const std::vector<ClusterId> serial_labels = (*serial)->AssignAll(dataset);
  for (size_t threads : {size_t{3}, size_t{8}, size_t{0}}) {
    options.num_threads = threads;
    const auto parallel = FitGmm(dataset, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ((*parallel)->AssignAll(dataset), serial_labels)
        << "threads " << threads;
  }
}

// The determinism contract is two-dimensional now: the result must be a
// pure function of the input at every (ISA level × thread count) pair, not
// just every thread count at the host's top level (DESIGN.md §12).
TEST(ClusteringParallelTest, FitsInvariantAcrossIsaLevelsAndThreadCounts) {
  const Dataset dataset = TestDataset(20000);
  const size_t num_clusters = 5;
  const std::vector<ClusterId> labels =
      CyclicLabels(dataset.num_rows(), num_clusters);

  KMeansOptions kmeans;
  kmeans.num_clusters = 4;
  kmeans.max_iterations = 6;
  kmeans.seed = 7;
  GmmOptions gmm;
  gmm.num_components = 4;
  gmm.max_iterations = 4;
  gmm.seed = 7;

  std::vector<ClusterId> ref_kmeans, ref_gmm;
  std::vector<std::vector<Histogram>> ref_counts;
  {
    kernels::ScopedForceIsa generic(kernels::IsaLevel::kGeneric);
    kmeans.num_threads = 1;
    gmm.num_threads = 1;
    ref_kmeans = (*FitKMeans(dataset, kmeans))->AssignAll(dataset);
    ref_gmm = (*FitGmm(dataset, gmm))->AssignAll(dataset);
    ref_counts = std::move(
        *dataset.ComputeAllGroupHistograms(labels, num_clusters, 1));
  }

  for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
    kernels::ScopedForceIsa force(level);
    for (size_t threads : {size_t{1}, size_t{8}, size_t{0}}) {
      kmeans.num_threads = threads;
      gmm.num_threads = threads;
      EXPECT_EQ((*FitKMeans(dataset, kmeans))->AssignAll(dataset), ref_kmeans)
          << "k-means at isa " << kernels::IsaLevelName(level) << " threads "
          << threads;
      EXPECT_EQ((*FitGmm(dataset, gmm))->AssignAll(dataset), ref_gmm)
          << "gmm at isa " << kernels::IsaLevelName(level) << " threads "
          << threads;
      const auto counts =
          dataset.ComputeAllGroupHistograms(labels, num_clusters, threads);
      ASSERT_TRUE(counts.ok());
      for (size_t a = 0; a < counts->size(); ++a) {
        for (size_t c = 0; c < num_clusters; ++c) {
          ASSERT_EQ((*counts)[a][c].bins(), ref_counts[a][c].bins())
              << "attr " << a << " cluster " << c << " isa "
              << kernels::IsaLevelName(level) << " threads " << threads;
        }
      }
    }
  }
}

// Random unary and pair score tables over candidate sets of `sizes`.
struct StageTwoSpace {
  std::vector<std::vector<AttrIndex>> sets;
  core_internal::CombinationScoreTables tables;
};

StageTwoSpace RandomStageTwoSpace(const std::vector<size_t>& sizes) {
  Rng table_rng(9);
  StageTwoSpace space;
  space.sets.resize(sizes.size());
  auto& tables = space.tables;
  tables.unary.resize(sizes.size());
  tables.pair.resize(sizes.size());
  for (size_t c = 0; c < sizes.size(); ++c) {
    for (size_t j = 0; j < sizes[c]; ++j) {
      space.sets[c].push_back(static_cast<AttrIndex>(10 * c + j));
      tables.unary[c].push_back(table_rng.UniformDouble());
    }
    tables.pair[c].resize(sizes.size());
    for (size_t cp = c + 1; cp < sizes.size(); ++cp) {
      tables.pair[c][cp].resize(sizes[c] * sizes[cp]);
      for (double& v : tables.pair[c][cp]) v = 0.3 * table_rng.UniformDouble();
    }
  }
  return space;
}

TEST(StageTwoParallelTest, PrivateSelectionIdenticalAcrossThreadCounts) {
  // 5·4·3·5·4·3·5·4 = 72,000 combinations with pair terms: 18 blocks.
  const StageTwoSpace space = RandomStageTwoSpace({5, 4, 3, 5, 4, 3, 5, 4});
  const auto& sets = space.sets;
  const auto& tables = space.tables;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng reference_rng(seed);
    const auto reference = core_internal::SearchCombination(
        sets, tables, /*epsilon=*/4.0, 1.0, 1 << 20, reference_rng);
    ASSERT_TRUE(reference.ok()) << reference.status();
    const uint64_t reference_next = reference_rng.engine()();
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8},
                           size_t{64}}) {
      Rng rng(seed);
      const auto combo = core_internal::SearchCombinationParallel(
          sets, tables, 4.0, 1.0, 1 << 20, rng, threads);
      ASSERT_TRUE(combo.ok()) << combo.status();
      EXPECT_EQ(*combo, *reference) << "seed " << seed << " threads "
                                    << threads;
      // The search leaves the stream where the serial search does.
      EXPECT_EQ(rng.engine()(), reference_next)
          << "seed " << seed << " threads " << threads;
    }
  }
}

// The Stage-2 weights come from the dispatched stage2_weights kernel, so the
// draw must not depend on the ISA level either: every (level × threads)
// pair returns the serial generic-level combination and leaves the Rng
// where it does, in private and in exact mode.
TEST(StageTwoParallelTest, SelectionIdenticalAcrossIsaLevelsAndThreadCounts) {
  // 5·4·3·5·4·3·5·4 = 72,000 combinations with pair terms: 18 blocks.
  const StageTwoSpace space = RandomStageTwoSpace({5, 4, 3, 5, 4, 3, 5, 4});
  for (const double epsilon : {4.0, 40.0, 0.0}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      AttributeCombination reference;
      uint64_t reference_next = 0;
      {
        kernels::ScopedForceIsa generic(kernels::IsaLevel::kGeneric);
        Rng rng(seed);
        const auto combo = core_internal::SearchCombination(
            space.sets, space.tables, epsilon, 1.0, 1 << 20, rng);
        ASSERT_TRUE(combo.ok()) << combo.status();
        reference = *combo;
        reference_next = rng.engine()();
      }
      for (const kernels::IsaLevel level : kernels::SupportedIsaLevels()) {
        kernels::ScopedForceIsa force(level);
        for (const size_t threads : {size_t{1}, size_t{4}}) {
          Rng rng(seed);
          const auto combo = core_internal::SearchCombinationParallel(
              space.sets, space.tables, epsilon, 1.0, 1 << 20, rng, threads);
          ASSERT_TRUE(combo.ok()) << combo.status();
          EXPECT_EQ(*combo, reference)
              << "epsilon " << epsilon << " seed " << seed << " isa "
              << kernels::IsaLevelName(level) << " threads " << threads;
          EXPECT_EQ(rng.engine()(), reference_next)
              << "epsilon " << epsilon << " seed " << seed << " isa "
              << kernels::IsaLevelName(level) << " threads " << threads;
        }
      }
    }
  }
}

TEST(StageTwoParallelTest, ExplanationIdenticalAcrossThreadCounts) {
  const Dataset dataset = TestDataset(5000);
  const size_t num_clusters = 5;
  const auto stats = StatsCache::Build(
      dataset, CyclicLabels(dataset.num_rows(), num_clusters), num_clusters);
  ASSERT_TRUE(stats.ok());
  DpClustXOptions options;
  options.num_candidates = 6;  // 6^5 = 7,776 combinations: two blocks
  options.seed = 17;
  const auto reference = ExplainDpClustXWithStats(*stats, options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (size_t threads : {size_t{2}, size_t{3}, size_t{8}}) {
    options.num_threads = threads;
    const auto explanation = ExplainDpClustXWithStats(*stats, options);
    ASSERT_TRUE(explanation.ok()) << explanation.status();
    EXPECT_EQ(explanation->combination, reference->combination)
        << "threads " << threads;
    ASSERT_EQ(explanation->per_cluster.size(), reference->per_cluster.size());
    for (size_t c = 0; c < num_clusters; ++c) {
      EXPECT_EQ(explanation->per_cluster[c].inside.bins(),
                reference->per_cluster[c].inside.bins())
          << "cluster " << c << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace dpclustx
