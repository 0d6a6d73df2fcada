#include "core/explainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "cluster/kmeans.h"
#include "data/synthetic.h"

namespace dpclustx {
namespace {

struct Fixture {
  Dataset dataset;
  std::vector<ClusterId> labels;
  size_t num_clusters;
};

Fixture MakeFixture(size_t rows = 4000, size_t clusters = 3,
                    uint64_t seed = 1) {
  synth::SyntheticConfig config;
  config.num_rows = rows;
  config.num_attributes = 10;
  config.num_latent_groups = clusters;
  config.min_domain = 2;
  config.max_domain = 8;
  config.signal_strength = 0.9;
  config.informative_fraction = 0.5;
  config.seed = seed;
  Dataset dataset = std::move(*synth::Generate(config));
  KMeansOptions kmeans;
  kmeans.num_clusters = clusters;
  kmeans.seed = seed;
  const auto clustering = FitKMeans(dataset, kmeans);
  std::vector<ClusterId> labels = (*clustering)->AssignAll(dataset);
  return {std::move(dataset), std::move(labels), clusters};
}

TEST(ExplainerTest, ValidatesOptions) {
  const Fixture f = MakeFixture(500);
  DpClustXOptions options;
  options.epsilon_cand_set = 0.0;
  EXPECT_FALSE(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                         options)
                   .ok());
  options = DpClustXOptions{};
  options.num_candidates = 0;
  EXPECT_FALSE(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                         options)
                   .ok());
  options = DpClustXOptions{};
  options.lambda = GlobalWeights{0.9, 0.9, 0.9};
  EXPECT_FALSE(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                         options)
                   .ok());
  options = DpClustXOptions{};
  options.epsilon_hist = 0.0;  // required when histograms are generated
  EXPECT_FALSE(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                         options)
                   .ok());
}

TEST(ExplainerTest, ProducesCompleteExplanation) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.seed = 2;
  const auto explanation = ExplainDpClustXWithLabels(
      f.dataset, f.labels, f.num_clusters, options);
  ASSERT_TRUE(explanation.ok()) << explanation.status();
  EXPECT_EQ(explanation->combination.size(), f.num_clusters);
  EXPECT_EQ(explanation->per_cluster.size(), f.num_clusters);
  EXPECT_EQ(explanation->candidate_sets.size(), f.num_clusters);
  for (size_t c = 0; c < f.num_clusters; ++c) {
    const SingleClusterExplanation& e = explanation->per_cluster[c];
    EXPECT_EQ(e.cluster, c);
    EXPECT_EQ(e.attribute, explanation->combination[c]);
    const size_t domain =
        f.dataset.schema().attribute(e.attribute).domain_size();
    EXPECT_EQ(e.inside.domain_size(), domain);
    EXPECT_EQ(e.outside.domain_size(), domain);
  }
}

TEST(ExplainerTest, CombinationDrawnFromCandidateSets) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.seed = 3;
  const auto explanation = ExplainDpClustXWithLabels(
      f.dataset, f.labels, f.num_clusters, options);
  ASSERT_TRUE(explanation.ok());
  for (size_t c = 0; c < f.num_clusters; ++c) {
    const auto& set = explanation->candidate_sets[c];
    EXPECT_EQ(set.size(), options.num_candidates);
    EXPECT_NE(std::find(set.begin(), set.end(),
                        explanation->combination[c]),
              set.end());
  }
}

TEST(ExplainerTest, NoisyHistogramsAreNonNegative) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.seed = 4;
  options.epsilon_hist = 0.05;  // heavy noise
  const auto explanation = ExplainDpClustXWithLabels(
      f.dataset, f.labels, f.num_clusters, options);
  ASSERT_TRUE(explanation.ok());
  for (const auto& e : explanation->per_cluster) {
    for (size_t i = 0; i < e.inside.domain_size(); ++i) {
      EXPECT_GE(e.inside.bin(static_cast<ValueCode>(i)), 0.0);
      EXPECT_GE(e.outside.bin(static_cast<ValueCode>(i)), 0.0);
    }
  }
}

TEST(ExplainerTest, SkipHistogramsLeavesThemEmpty) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.generate_histograms = false;
  options.epsilon_hist = 0.0;  // legal in this mode
  const auto explanation = ExplainDpClustXWithLabels(
      f.dataset, f.labels, f.num_clusters, options);
  ASSERT_TRUE(explanation.ok());
  EXPECT_TRUE(explanation->per_cluster.empty());
  EXPECT_EQ(explanation->combination.size(), f.num_clusters);
}

TEST(ExplainerTest, ChargesBudgetLedger) {
  const Fixture f = MakeFixture();
  PrivacyBudget budget(1.0);
  DpClustXOptions options;
  options.epsilon_cand_set = 0.1;
  options.epsilon_top_comb = 0.2;
  options.epsilon_hist = 0.3;
  ASSERT_TRUE(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                        options, &budget)
                  .ok());
  EXPECT_NEAR(budget.spent_epsilon(), 0.6, 1e-12);
  EXPECT_EQ(budget.ledger().size(), 3u);
}

TEST(ExplainerTest, BudgetShortfallFailsBeforeRelease) {
  const Fixture f = MakeFixture();
  PrivacyBudget budget(0.25);
  DpClustXOptions options;  // needs 0.3 total
  EXPECT_EQ(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                      options, &budget)
                .status()
                .code(),
            StatusCode::kOutOfBudget);
}

TEST(ExplainerTest, DeterministicGivenSeed) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.seed = 99;
  const auto a = ExplainDpClustXWithLabels(f.dataset, f.labels,
                                           f.num_clusters, options);
  const auto b = ExplainDpClustXWithLabels(f.dataset, f.labels,
                                           f.num_clusters, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->combination, b->combination);
  for (size_t c = 0; c < f.num_clusters; ++c) {
    EXPECT_DOUBLE_EQ(Histogram::L1Distance(a->per_cluster[c].inside,
                                           b->per_cluster[c].inside),
                     0.0);
  }
}

TEST(ExplainerTest, MaxCombinationsGuardTriggers) {
  const Fixture f = MakeFixture(2000, 3);
  DpClustXOptions options;
  options.max_combinations = 10;  // 3^3 = 27 > 10
  const auto result = ExplainDpClustXWithLabels(f.dataset, f.labels,
                                                f.num_clusters, options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExplainerTest, SvtStageOneProducesValidExplanation) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.stage1 = Stage1Selector::kSvt;
  options.svt_threshold_fraction = 0.2;
  options.epsilon_cand_set = 1.0;  // SVT needs more signal to be useful
  options.seed = 6;
  const auto explanation = ExplainDpClustXWithLabels(
      f.dataset, f.labels, f.num_clusters, options);
  ASSERT_TRUE(explanation.ok()) << explanation.status();
  EXPECT_EQ(explanation->combination.size(), f.num_clusters);
  for (size_t c = 0; c < f.num_clusters; ++c) {
    const auto& set = explanation->candidate_sets[c];
    ASSERT_FALSE(set.empty());
    EXPECT_LE(set.size(), options.num_candidates);
    EXPECT_NE(std::find(set.begin(), set.end(),
                        explanation->combination[c]),
              set.end());
  }
}

TEST(ExplainerTest, SvtStageOneValidatesThreshold) {
  const Fixture f = MakeFixture(500);
  DpClustXOptions options;
  options.stage1 = Stage1Selector::kSvt;
  options.svt_threshold_fraction = 0.0;
  EXPECT_FALSE(ExplainDpClustXWithLabels(f.dataset, f.labels, f.num_clusters,
                                         options)
                   .ok());
}

TEST(ExplainerTest, EndToEndAgainstClusteringFunction) {
  const Fixture f = MakeFixture();
  KMeansOptions kmeans;
  kmeans.num_clusters = 3;
  const auto clustering = FitKMeans(f.dataset, kmeans);
  ASSERT_TRUE(clustering.ok());
  DpClustXOptions options;
  const auto explanation =
      ExplainDpClustX(f.dataset, **clustering, options);
  ASSERT_TRUE(explanation.ok());
  EXPECT_EQ(explanation->combination.size(), 3u);
}

TEST(SearchCombinationTest, ExactModePicksArgmax) {
  // Hand-built tables: 2 clusters × 2 candidates; unary makes (1, 0) best.
  core_internal::CombinationScoreTables tables;
  tables.unary = {{0.0, 5.0}, {3.0, 1.0}};
  const std::vector<std::vector<AttrIndex>> sets = {{7, 8}, {9, 10}};
  Rng rng(1);
  const auto combo = core_internal::SearchCombination(
      sets, tables, /*epsilon=*/0.0, 1.0, 1000, rng);
  ASSERT_TRUE(combo.ok());
  EXPECT_EQ(*combo, (AttributeCombination{8, 9}));
}

TEST(SearchCombinationTest, PairTermsInfluenceSelection) {
  // Unary alone would pick (0, 0); a strong pair bonus flips to (1, 1).
  core_internal::CombinationScoreTables tables;
  tables.unary = {{1.0, 0.5}, {1.0, 0.5}};
  tables.pair.resize(2);
  tables.pair[0].resize(2);
  tables.pair[0][1] = {0.0, 0.0, 0.0, 10.0};  // bonus only for (1, 1)
  const std::vector<std::vector<AttrIndex>> sets = {{7, 8}, {9, 10}};
  Rng rng(2);
  const auto combo = core_internal::SearchCombination(
      sets, tables, 0.0, 1.0, 1000, rng);
  ASSERT_TRUE(combo.ok());
  EXPECT_EQ(*combo, (AttributeCombination{8, 10}));
}

TEST(SearchCombinationParallelTest, ExactModeMatchesSerial) {
  // Random tables over 4 clusters × 4 candidates; the exact argmax must be
  // identical in serial and parallel mode, for any thread count.
  Rng table_rng(77);
  const std::vector<std::vector<AttrIndex>> sets(4, {0, 1, 2, 3});
  core_internal::CombinationScoreTables tables;
  tables.unary.assign(4, std::vector<double>(4));
  for (auto& row : tables.unary) {
    for (double& value : row) value = table_rng.UniformDouble();
  }
  tables.pair.resize(4);
  for (size_t c = 0; c < 4; ++c) {
    tables.pair[c].resize(4);
    for (size_t cp = c + 1; cp < 4; ++cp) {
      tables.pair[c][cp].resize(16);
      for (double& value : tables.pair[c][cp]) {
        value = table_rng.UniformDouble();
      }
    }
  }
  Rng rng_serial(1);
  const auto serial = core_internal::SearchCombination(
      sets, tables, 0.0, 1.0, 1 << 20, rng_serial);
  ASSERT_TRUE(serial.ok());
  for (const size_t threads : {1u, 2u, 3u, 8u, 64u}) {
    Rng rng_parallel(1);
    const auto parallel = core_internal::SearchCombinationParallel(
        sets, tables, 0.0, 1.0, 1 << 20, rng_parallel, threads);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(*parallel, *serial) << threads << " threads";
  }
}

TEST(SearchCombinationParallelTest, PrivateModeReturnsValidCombination) {
  const std::vector<std::vector<AttrIndex>> sets = {{5, 6}, {7, 8}, {9, 1}};
  core_internal::CombinationScoreTables tables;
  tables.unary = {{0.1, 0.9}, {0.5, 0.4}, {0.2, 0.8}};
  Rng rng(3);
  const auto combo = core_internal::SearchCombinationParallel(
      sets, tables, 2.0, 1.0, 1000, rng, 4);
  ASSERT_TRUE(combo.ok());
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_TRUE((*combo)[c] == sets[c][0] || (*combo)[c] == sets[c][1]);
  }
}

TEST(ExplainerTest, MultithreadedOptionProducesValidExplanation) {
  const Fixture f = MakeFixture();
  DpClustXOptions options;
  options.num_threads = 4;
  options.seed = 5;
  const auto explanation = ExplainDpClustXWithLabels(
      f.dataset, f.labels, f.num_clusters, options);
  ASSERT_TRUE(explanation.ok()) << explanation.status();
  for (size_t c = 0; c < f.num_clusters; ++c) {
    const auto& set = explanation->candidate_sets[c];
    EXPECT_NE(std::find(set.begin(), set.end(),
                        explanation->combination[c]),
              set.end());
  }
}

TEST(SearchCombinationTest, ValidatesShapes) {
  core_internal::CombinationScoreTables tables;
  tables.unary = {{1.0}};
  Rng rng(3);
  EXPECT_FALSE(core_internal::SearchCombination({{0}, {1}}, tables, 0.0, 1.0,
                                                1000, rng)
                   .ok());
  EXPECT_FALSE(
      core_internal::SearchCombination({}, {}, 0.0, 1.0, 1000, rng).ok());
}

// ---- Stage-2 sampler against the closed-form exponential mechanism ------

// Candidate sets {0..k_c-1}, so a selected combination reads as its choices.
std::vector<std::vector<AttrIndex>> IdentitySets(
    const std::vector<size_t>& sizes) {
  std::vector<std::vector<AttrIndex>> sets(sizes.size());
  for (size_t c = 0; c < sizes.size(); ++c) {
    for (size_t j = 0; j < sizes[c]; ++j) {
      sets[c].push_back(static_cast<AttrIndex>(j));
    }
  }
  return sets;
}

// Unary terms uniform in [0, unary), pair terms (for every pair, when
// `pair` > 0) uniform in [0, pair).
core_internal::CombinationScoreTables RandomTables(
    const std::vector<size_t>& sizes, double unary, double pair,
    uint64_t seed) {
  Rng rng(seed);
  core_internal::CombinationScoreTables tables;
  for (const size_t k : sizes) {
    tables.unary.emplace_back(k);
    for (double& v : tables.unary.back()) v = unary * rng.UniformDouble();
  }
  if (pair <= 0.0) return tables;
  tables.pair.resize(sizes.size());
  for (size_t c = 0; c < sizes.size(); ++c) {
    tables.pair[c].resize(sizes.size());
    for (size_t cp = c + 1; cp < sizes.size(); ++cp) {
      tables.pair[c][cp].resize(sizes[c] * sizes[cp]);
      for (double& v : tables.pair[c][cp]) v = pair * rng.UniformDouble();
    }
  }
  return tables;
}

// Choices of combination `index`, cluster 0 least significant.
std::vector<size_t> Decode(size_t index, const std::vector<size_t>& sizes) {
  std::vector<size_t> choice(sizes.size());
  for (size_t c = 0; c < sizes.size(); ++c) {
    choice[c] = index % sizes[c];
    index /= sizes[c];
  }
  return choice;
}

size_t Encode(const AttributeCombination& combo,
              const std::vector<size_t>& sizes) {
  size_t index = 0;
  for (size_t c = sizes.size(); c-- > 0;) index = index * sizes[c] + combo[c];
  return index;
}

// Every combination's score, summed term by term.
std::vector<double> BruteForceScores(
    const core_internal::CombinationScoreTables& tables,
    const std::vector<size_t>& sizes) {
  size_t total = 1;
  for (const size_t k : sizes) total *= k;
  std::vector<double> scores(total, 0.0);
  for (size_t i = 0; i < total; ++i) {
    const std::vector<size_t> choice = Decode(i, sizes);
    for (size_t c = 0; c < sizes.size(); ++c) {
      scores[i] += tables.unary[c][choice[c]];
      for (size_t cp = c + 1; cp < sizes.size() && !tables.pair.empty();
           ++cp) {
        scores[i] += tables.pair[c][cp][choice[c] * sizes[cp] + choice[cp]];
      }
    }
  }
  return scores;
}

// Closed-form exponential mechanism: P(i) ∝ exp(ε·score_i / (2Δ)), Δ = 1.
std::vector<double> Softmax(const std::vector<double>& scores,
                            double epsilon) {
  const double top = *std::max_element(scores.begin(), scores.end());
  std::vector<double> p(scores.size());
  double total = 0.0;
  for (size_t i = 0; i < scores.size(); ++i) {
    p[i] = std::exp(epsilon / 2.0 * (scores[i] - top));
    total += p[i];
  }
  for (double& v : p) v /= total;
  return p;
}

double ChiSquare(const std::vector<size_t>& counts,
                 const std::vector<double>& probabilities, size_t samples) {
  double statistic = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const double expected = probabilities[i] * static_cast<double>(samples);
    const double diff = static_cast<double>(counts[i]) - expected;
    statistic += diff * diff / expected;
  }
  return statistic;
}

// Draws `samples` selections and tallies them into categories by
// category_of(combination index); returns the chi-square statistic against
// the closed-form distribution aggregated the same way.
template <typename CategoryFn>
double SelectionChiSquare(const std::vector<size_t>& sizes,
                          const core_internal::CombinationScoreTables& tables,
                          double epsilon, size_t threads, size_t samples,
                          size_t categories, CategoryFn category_of) {
  const std::vector<double> exact =
      Softmax(BruteForceScores(tables, sizes), epsilon);
  std::vector<double> expected(categories, 0.0);
  for (size_t i = 0; i < exact.size(); ++i) {
    expected[category_of(i)] += exact[i];
  }
  const auto sets = IdentitySets(sizes);
  std::vector<size_t> counts(categories, 0);
  Rng rng(2024);
  for (size_t s = 0; s < samples; ++s) {
    const auto combo = core_internal::SearchCombinationParallel(
        sets, tables, epsilon, 1.0, 1 << 20, rng, threads);
    EXPECT_TRUE(combo.ok()) << combo.status();
    if (!combo.ok()) return 1e300;
    ++counts[category_of(Encode(*combo, sizes))];
  }
  return ChiSquare(counts, expected, samples);
}

TEST(SearchCombinationTest, MatchesSoftmaxOnUnevenSpaces) {
  // {2,3,4}: 24 combinations, df = 23; 49.73 is the p = 0.001 critical value.
  const std::vector<size_t> sizes = {2, 3, 4};
  for (const double pair : {0.0, 0.8}) {
    const auto tables = RandomTables(sizes, 2.0, pair, 11);
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      const double chi2 = SelectionChiSquare(
          sizes, tables, /*epsilon=*/1.5, threads, 20000, 24,
          [](size_t index) { return index; });
      EXPECT_LT(chi2, 49.73) << "pair=" << pair << " threads=" << threads;
    }
  }
}

TEST(SearchCombinationTest, MultiBlockSelectionMatchesSoftmax) {
  // 4^7 = 16,384 combinations span four 4,096-combination blocks, one per
  // choice of the outermost cluster. The joint of the outermost choice (the
  // block) and cluster 0 (within the block) has 16 cells, df = 15; 37.70 is
  // the p = 0.001 critical value.
  const std::vector<size_t> sizes(7, 4);
  const auto tables = RandomTables(sizes, 1.0, 0.2, 12);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    const double chi2 = SelectionChiSquare(
        sizes, tables, /*epsilon=*/1.0, threads, 4000, 16,
        [](size_t index) { return (index % 4) * 4 + index / 4096; });
    EXPECT_LT(chi2, 37.70) << "threads=" << threads;
  }
}

TEST(SearchCombinationTest, ExactModeMatchesBruteForceArgmax) {
  const std::vector<std::vector<size_t>> shapes = {
      {1}, {5}, {3, 1, 2}, {2, 3, 4}, {4, 4, 4, 4, 4, 4, 4}, {70, 70, 2}};
  uint64_t seed = 30;
  for (const auto& sizes : shapes) {
    for (const double pair : {0.0, 0.5}) {
      const auto tables = RandomTables(sizes, 1.0, pair, ++seed);
      const std::vector<double> scores = BruteForceScores(tables, sizes);
      const size_t argmax = static_cast<size_t>(
          std::max_element(scores.begin(), scores.end()) - scores.begin());
      for (const size_t threads : {size_t{1}, size_t{3}}) {
        Rng rng(1);
        const auto combo = core_internal::SearchCombinationParallel(
            IdentitySets(sizes), tables, 0.0, 1.0, 1 << 20, rng, threads);
        ASSERT_TRUE(combo.ok()) << combo.status();
        EXPECT_EQ(Encode(*combo, sizes), argmax)
            << "shape of " << sizes.size() << " clusters, pair=" << pair;
      }
    }
  }
}

TEST(SearchCombinationTest, ExactModeBreaksTiesTowardLowestIndex) {
  const std::vector<size_t> sizes(6, 5);
  core_internal::CombinationScoreTables tables;
  tables.unary.assign(6, std::vector<double>(5, 0.25));
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    Rng rng(1);
    const auto combo = core_internal::SearchCombinationParallel(
        IdentitySets(sizes), tables, 0.0, 1.0, 1 << 20, rng, threads);
    ASSERT_TRUE(combo.ok());
    EXPECT_EQ(Encode(*combo, sizes), 0u);
  }
}

TEST(SearchCombinationTest, HugeEpsilonReturnsExactArgmax) {
  // Count-scale scores whose per-table maxima cannot be chosen together:
  // every cluster's unary favours candidate 0, every pair table rewards
  // (1, 1) and punishes (0, 0), so the best combination scores far below
  // the sum of the table maxima. At ε = 1e4 every other combination's
  // weight underflows; normalizing by anything but the exact maximum would
  // underflow the winner too.
  const std::vector<size_t> sizes = {3, 2, 3, 2, 3};
  core_internal::CombinationScoreTables tables;
  tables.pair.resize(sizes.size());
  for (size_t c = 0; c < sizes.size(); ++c) {
    tables.unary.emplace_back(sizes[c], 0.0);
    tables.unary[c][0] = 5000.0 + 17.0 * static_cast<double>(c);
    tables.unary[c][1] = 900.0 * static_cast<double>(c % 2);
    tables.pair[c].resize(sizes.size());
    for (size_t cp = c + 1; cp < sizes.size(); ++cp) {
      auto& m = tables.pair[c][cp];
      m.assign(sizes[c] * sizes[cp], 250.0);
      m[0] = -20000.0;                  // (0, 0)
      m[1 * sizes[cp] + 1] = 1400.0;    // (1, 1)
    }
  }
  const std::vector<double> scores = BruteForceScores(tables, sizes);
  const size_t argmax = static_cast<size_t>(
      std::max_element(scores.begin(), scores.end()) - scores.begin());
  std::vector<double> sorted = scores;
  std::sort(sorted.rbegin(), sorted.rend());
  ASSERT_GT(sorted[0] - sorted[1], 1.0);  // unique winner
  double table_maxima = 0.0;
  for (const auto& row : tables.unary) {
    table_maxima += *std::max_element(row.begin(), row.end());
  }
  for (size_t c = 0; c < sizes.size(); ++c) {
    for (size_t cp = c + 1; cp < sizes.size(); ++cp) {
      table_maxima += *std::max_element(tables.pair[c][cp].begin(),
                                        tables.pair[c][cp].end());
    }
  }
  ASSERT_GT(table_maxima - sorted[0], 1000.0);  // maxima are incompatible
  const auto sets = IdentitySets(sizes);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed);
      const auto combo = core_internal::SearchCombinationParallel(
          sets, tables, /*epsilon=*/1e4, 1.0, 1 << 20, rng, threads);
      ASSERT_TRUE(combo.ok()) << combo.status();
      EXPECT_EQ(Encode(*combo, sizes), argmax) << "seed " << seed;
    }
  }
}

TEST(SearchCombinationTest, TinyEpsilonIsNearUniform) {
  // ε = 1e-9 flattens the weights: a uniform fit over 24 cells (df = 23).
  const std::vector<size_t> sizes = {4, 3, 2};
  const auto tables = RandomTables(sizes, 5.0, 2.0, 13);
  const auto sets = IdentitySets(sizes);
  std::vector<size_t> counts(24, 0);
  Rng rng(77);
  constexpr size_t kSamples = 24000;
  for (size_t s = 0; s < kSamples; ++s) {
    const auto combo = core_internal::SearchCombination(
        sets, tables, /*epsilon=*/1e-9, 1.0, 1000, rng);
    ASSERT_TRUE(combo.ok());
    ++counts[Encode(*combo, sizes)];
  }
  EXPECT_LT(ChiSquare(counts, std::vector<double>(24, 1.0 / 24), kSamples),
            49.73);
}

TEST(SearchCombinationTest, RejectsNonFiniteScoresAndScale) {
  const std::vector<std::vector<AttrIndex>> sets = {{0, 1}, {2, 3}};
  core_internal::CombinationScoreTables tables;
  tables.unary = {{0.0, 1.0}, {0.5, 0.25}};
  Rng rng(1);
  EXPECT_TRUE(
      core_internal::SearchCombination(sets, tables, 1.0, 1.0, 100, rng).ok());
  EXPECT_FALSE(core_internal::SearchCombination(
                   sets, tables, std::numeric_limits<double>::infinity(), 1.0,
                   100, rng)
                   .ok());
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1e308}) {
    auto broken = tables;
    broken.unary[1][0] = bad;
    EXPECT_FALSE(
        core_internal::SearchCombination(sets, broken, 1.0, 1.0, 100, rng)
            .ok())
        << bad;
  }
  auto mismatched = tables;
  mismatched.pair.assign(2, std::vector<std::vector<double>>(2));
  mismatched.pair[0][1] = {1.0, 2.0, 3.0};  // needs 2 × 2
  EXPECT_FALSE(
      core_internal::SearchCombination(sets, mismatched, 1.0, 1.0, 100, rng)
          .ok());
}

}  // namespace
}  // namespace dpclustx
