#include "core/explainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "core/candidate_selection.h"
#include "data/kernels/kernel_table.h"
#include "obs/trace.h"

namespace dpclustx {

namespace core_internal {

CombinationScoreTables BuildLowSensitivityTables(
    const StatsCache& stats,
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const GlobalWeights& lambda) {
  const size_t clusters = candidate_sets.size();
  CombinationScoreTables tables;
  // Per-(cluster, candidate) interestingness/sufficiency terms; each of the
  // k^|C| combinations is then scored with table lookups only.
  tables.unary.resize(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    tables.unary[c].resize(candidate_sets[c].size());
    for (size_t j = 0; j < candidate_sets[c].size(); ++j) {
      const auto cluster = static_cast<ClusterId>(c);
      const AttrIndex attr = candidate_sets[c][j];
      tables.unary[c][j] =
          (lambda.interestingness * InterestingnessP(stats, cluster, attr) +
           lambda.sufficiency * SufficiencyP(stats, cluster, attr)) /
          static_cast<double>(clusters);
    }
  }
  // pair[c][cp]: λ_Div-weighted pair diversities divided by C(|C|,2).
  const double pair_norm =
      clusters >= 2 ? lambda.diversity / PairCount(clusters) : 0.0;
  if (pair_norm > 0.0) {
    tables.pair.resize(clusters);
    for (size_t c = 0; c < clusters; ++c) {
      tables.pair[c].resize(clusters);
      for (size_t cp = c + 1; cp < clusters; ++cp) {
        auto& matrix = tables.pair[c][cp];
        matrix.resize(candidate_sets[c].size() * candidate_sets[cp].size());
        for (size_t j = 0; j < candidate_sets[c].size(); ++j) {
          for (size_t jp = 0; jp < candidate_sets[cp].size(); ++jp) {
            matrix[j * candidate_sets[cp].size() + jp] =
                pair_norm *
                PairDiversity(stats, static_cast<ClusterId>(c),
                              static_cast<ClusterId>(cp),
                              candidate_sets[c][j], candidate_sets[cp][jp]);
          }
        }
      }
    }
  }
  return tables;
}

namespace {

// Most combinations in one block. A block is the unit of parallel work and
// of deadline checks, and the first level of the sampler; the search keeps
// O(k^|C| / 4096) block results, never a buffer per combination. Blocks hold
// whole tiles (below), so a block is one tile when k_0·k_1 exceeds this.
constexpr size_t kBlockCombinations = 4096;

// Selection weights exp(scale·(s − s*)) ∈ [0, 1] are truncated to integer
// multiples of 2^-62 by the stage2_weights kernel (src/data/kernels), which
// computes them identically at every ISA level. Their sums are then exact
// integers, identical in any summation order or thread count, and the draw
// is an exact uniform integer. A weight below 2^-62 truncates to 0: scaled
// gaps beyond 62·ln 2 ≈ 42.98 are unreachable (docs/PRIVACY.md, caveat 2).
__extension__ typedef unsigned __int128 WeightSum;

// Exactly uniform integer in [0, bound), bound > 0: rejection from the
// smallest power-of-two range covering it (fewer than two rounds expected).
WeightSum UniformBelow(Rng& rng, WeightSum bound) {
  WeightSum mask = bound - 1;
  for (int shift = 1; shift < 128; shift <<= 1) mask |= mask >> shift;
  for (;;) {
    const WeightSum high = rng.engine()();
    const WeightSum draw = ((high << 64) | rng.engine()()) & mask;
    if (draw < bound) return draw;
  }
}

// Largest of scores[0, n), n ≥ 1, over eight independent max chains.
double MaxScore(const double* scores, size_t n) {
  constexpr double kLowest = -std::numeric_limits<double>::infinity();
  double lane[8] = {kLowest, kLowest, kLowest, kLowest,
                    kLowest, kLowest, kLowest, kLowest};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t j = 0; j < 8; ++j) lane[j] = std::max(lane[j], scores[i + j]);
  }
  for (; i < n; ++i) lane[0] = std::max(lane[0], scores[i]);
  return *std::max_element(lane, lane + 8);
}

// One block's scores and their weights; a chunk of blocks reuses one.
struct BlockBuffers {
  explicit BlockBuffers(size_t capacity)
      : scores(std::make_unique_for_overwrite<double[]>(capacity)),
        weights(std::make_unique_for_overwrite<uint64_t[]>(capacity)) {}
  std::unique_ptr<double[]> scores;
  std::unique_ptr<uint64_t[]> weights;
};

// Enumerates the combinations in mixed-radix order (cluster 0 least
// significant) and scores them incrementally, a tile at a time: a tile fixes
// the choices of clusters 2..|C|-1 and spans every choice of clusters 0 and
// 1, so its scores are v0[j0] + v1[j1] + pair01[j0][j1]. Level c (2 ≤ c <
// |C|) holds v0 and v1 summed over clusters c..|C|-1: their unary terms,
// their pair terms among themselves (in v0) and their pair terms against
// clusters 0 and 1. An odometer step recomputes only the levels whose choice
// changed. Every score is the same sequence of additions over its choices,
// so a combination scores bitwise-identically in every pass and from any
// block start, and the work per block depends only on the candidate-set
// sizes, never on the scores.
class CombinationScanner {
 public:
  CombinationScanner(const std::vector<std::vector<AttrIndex>>& candidate_sets,
                     const CombinationScoreTables& tables)
      : clusters_(candidate_sets.size()),
        has_pairs_(!tables.pair.empty()),
        sizes_(clusters_),
        unary_(clusters_),
        pair_(clusters_ * clusters_) {
    for (size_t c = 0; c < clusters_; ++c) {
      sizes_[c] = candidate_sets[c].size();
      unary_[c] = tables.unary[c].data();
      if (c >= 2) num_tiles_ *= sizes_[c];
    }
    k0_ = sizes_[0];
    k1_ = clusters_ >= 2 ? sizes_[1] : 1;
    // With one cluster, cluster 1 is a single choice scoring 0.
    v1_base_ = clusters_ >= 2 ? tables.unary[1] : std::vector<double>{0.0};
    // pair01_[j1·k0 + j0]; zero without pair terms keeps the tile uniform.
    pair01_.assign(k0_ * k1_, 0.0);
    if (has_pairs_ && clusters_ >= 2) {
      for (size_t j0 = 0; j0 < k0_; ++j0) {
        for (size_t j1 = 0; j1 < k1_; ++j1) {
          pair01_[j1 * k0_ + j0] = tables.pair[0][1][j0 * k1_ + j1];
        }
      }
    }
    tiles_per_block_ = std::max<size_t>(1, kBlockCombinations / (k0_ * k1_));
    num_blocks_ = (num_tiles_ + tiles_per_block_ - 1) / tiles_per_block_;
    if (!has_pairs_) return;
    // Pair terms of clusters 0 and 1 against an outer cluster c, transposed
    // to k_c contiguous rows of k0 (resp. k1).
    outer_offset_.resize(clusters_);
    for (size_t c = 2; c < clusters_; ++c) {
      for (size_t cp = c + 1; cp < clusters_; ++cp) {
        pair_[c * clusters_ + cp] = tables.pair[c][cp].data();
      }
      outer_offset_[c] = outer_pairs_.size();
      for (size_t inner = 0; inner < 2; ++inner) {
        const size_t k = sizes_[inner];
        for (size_t j = 0; j < sizes_[c]; ++j) {
          for (size_t ji = 0; ji < k; ++ji) {
            outer_pairs_.push_back(tables.pair[inner][c][ji * sizes_[c] + j]);
          }
        }
      }
    }
  }

  size_t num_blocks() const { return num_blocks_; }

  /// Most scores one block holds: the size of a ScanBlock buffer.
  size_t block_capacity() const {
    return std::min(tiles_per_block_, num_tiles_) * k0_ * k1_;
  }

  /// Combination index of the first score of `block`.
  size_t first_combination(size_t block) const {
    return block * tiles_per_block_ * k0_ * k1_;
  }

  /// Writes the scores of `block` to scores[0, count) and returns count;
  /// scores[i] is the score of combination first_combination(block) + i.
  size_t ScanBlock(size_t block, double* scores) const {
    const size_t tile_begin = block * tiles_per_block_;
    const size_t tile_end = std::min(num_tiles_, tile_begin + tiles_per_block_);
    const size_t outer = clusters_ > 2 ? clusters_ - 2 : 0;
    std::vector<size_t> choice(clusters_, 0);
    // Level c (outer cluster c) at levels[(c - 2)·(k0 + k1)]: k0 values of
    // v0, then k1 of v1.
    std::vector<double> levels(outer * (k0_ + k1_));
    size_t remainder = tile_begin;
    for (size_t c = 2; c < clusters_; ++c) {
      choice[c] = remainder % sizes_[c];
      remainder /= sizes_[c];
    }
    for (size_t c = clusters_; c-- > 2;) Recompute(c, choice, levels);
    const double* v0 = outer > 0 ? levels.data() : unary_[0];
    const double* v1 = outer > 0 ? levels.data() + k0_ : v1_base_.data();
    double* row = scores;
    for (size_t t = tile_begin; t < tile_end; ++t) {
      for (size_t j1 = 0; j1 < k1_; ++j1, row += k0_) {
        const double* pair01 = &pair01_[j1 * k0_];
        for (size_t j0 = 0; j0 < k0_; ++j0) {
          row[j0] = v0[j0] + v1[j1] + pair01[j0];
        }
      }
      size_t top = 2;
      for (; top < clusters_; ++top) {
        if (++choice[top] < sizes_[top]) break;
        choice[top] = 0;
      }
      if (t + 1 == tile_end) break;
      for (size_t c = top + 1; c-- > 2;) Recompute(c, choice, levels);
    }
    return static_cast<size_t>(row - scores);
  }

 private:
  // Level c from level c+1 (level |C| is the unary rows of clusters 0 and 1)
  // and cluster c's current choice.
  void Recompute(size_t c, const std::vector<size_t>& choice,
                 std::vector<double>& levels) const {
    const size_t stride = k0_ + k1_;
    const size_t j = choice[c];
    double own = unary_[c][j];
    const double* parent0 = unary_[0];
    const double* parent1 = v1_base_.data();
    if (c + 1 < clusters_) {
      parent0 = &levels[(c - 1) * stride];
      parent1 = parent0 + k0_;
    }
    double* out0 = &levels[(c - 2) * stride];
    double* out1 = out0 + k0_;
    if (!has_pairs_) {
      for (size_t j0 = 0; j0 < k0_; ++j0) out0[j0] = parent0[j0] + own;
      for (size_t j1 = 0; j1 < k1_; ++j1) out1[j1] = parent1[j1];
      return;
    }
    for (size_t cp = c + 1; cp < clusters_; ++cp) {
      own += pair_[c * clusters_ + cp][j * sizes_[cp] + choice[cp]];
    }
    const double* pair0 = &outer_pairs_[outer_offset_[c] + j * k0_];
    const double* pair1 =
        &outer_pairs_[outer_offset_[c] + sizes_[c] * k0_ + j * k1_];
    for (size_t j0 = 0; j0 < k0_; ++j0) {
      out0[j0] = parent0[j0] + own + pair0[j0];
    }
    for (size_t j1 = 0; j1 < k1_; ++j1) out1[j1] = parent1[j1] + pair1[j1];
  }

  const size_t clusters_;
  const bool has_pairs_;
  std::vector<size_t> sizes_;
  std::vector<const double*> unary_;
  std::vector<const double*> pair_;  // [c·|C| + cp] for 2 ≤ c < cp
  size_t k0_ = 1;
  size_t k1_ = 1;
  std::vector<double> v1_base_;
  std::vector<double> pair01_;
  std::vector<double> outer_pairs_;
  std::vector<size_t> outer_offset_;
  size_t num_tiles_ = 1;
  size_t tiles_per_block_ = 1;
  size_t num_blocks_ = 1;
};

// Rejects tables that do not match the candidate sets, and entries that are
// not finite or so large that a score could overflow: every partial sum is
// bounded by the sum of all |entries|, kept below max/2 so that score
// differences stay finite.
Status ValidateTables(const std::vector<std::vector<AttrIndex>>& candidate_sets,
                      const CombinationScoreTables& tables) {
  const size_t clusters = candidate_sets.size();
  if (tables.unary.size() != clusters) {
    return Status::InvalidArgument("score tables do not match clusters");
  }
  auto abs_sum = [](const std::vector<double>& values) {
    double sum = 0.0;
    for (const double v : values) sum += std::fabs(v);
    return sum;
  };
  double bound = 0.0;
  for (size_t c = 0; c < clusters; ++c) {
    if (tables.unary[c].size() != candidate_sets[c].size()) {
      return Status::InvalidArgument("score tables do not match clusters");
    }
    bound += abs_sum(tables.unary[c]);
    for (size_t cp = c + 1; cp < clusters && !tables.pair.empty(); ++cp) {
      if (c >= tables.pair.size() || cp >= tables.pair[c].size() ||
          tables.pair[c][cp].size() !=
              candidate_sets[c].size() * candidate_sets[cp].size()) {
        return Status::InvalidArgument("pair tables do not match clusters");
      }
      bound += abs_sum(tables.pair[c][cp]);
    }
  }
  if (!(bound <= std::numeric_limits<double>::max() / 2)) {
    return Status::InvalidArgument("score tables must be finite");
  }
  return Status::OK();
}

}  // namespace

StatusOr<AttributeCombination> SearchCombination(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables, double epsilon, double sensitivity,
    size_t max_combinations, Rng& rng, const Deadline& deadline) {
  return SearchCombinationParallel(candidate_sets, tables, epsilon,
                                   sensitivity, max_combinations, rng,
                                   /*num_threads=*/1, deadline);
}

StatusOr<AttributeCombination> SearchCombinationParallel(
    const std::vector<std::vector<AttrIndex>>& candidate_sets,
    const CombinationScoreTables& tables, double epsilon, double sensitivity,
    size_t max_combinations, Rng& rng, size_t num_threads,
    const Deadline& deadline) {
  const size_t clusters = candidate_sets.size();
  if (clusters == 0) {
    return Status::InvalidArgument("need at least one cluster");
  }
  if (num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  // Search-space size k_1·k_2·...·k_|C| with overflow-safe accumulation.
  size_t num_combinations = 1;
  for (const auto& set : candidate_sets) {
    if (set.empty()) {
      return Status::InvalidArgument("empty candidate set");
    }
    if (num_combinations > max_combinations / set.size()) {
      return Status::InvalidArgument(
          "combination space exceeds max_combinations=" +
          std::to_string(max_combinations) +
          "; reduce the candidate-set size k or the number of clusters");
    }
    num_combinations *= set.size();
  }
  DPX_RETURN_IF_ERROR(ValidateTables(candidate_sets, tables));
  // The exponential mechanism at ε over score/Δ draws a combination with
  // probability ∝ exp(scale·score); epsilon <= 0 asks for the exact argmax
  // (the non-private limit).
  const bool private_selection = epsilon > 0.0;
  const double scale = epsilon / (2.0 * sensitivity);
  if (private_selection && !(sensitivity > 0.0 && std::isfinite(scale))) {
    return Status::InvalidArgument(
        "sensitivity must be positive and epsilon/sensitivity finite");
  }

  const CombinationScanner scanner(candidate_sets, tables);
  const size_t blocks = scanner.num_blocks();
  const size_t capacity = scanner.block_capacity();
  const kernels::KernelTable& kernels = kernels::Active();
  // Runs pass(block, buffers) for every block on the shared compute pool,
  // one BlockBuffers per chunk. Each block writes only its own slot, so
  // results do not depend on num_threads. ParallelFor bodies cannot
  // propagate Status, so cancellation is a shared flag polled once per
  // block; relaxed ordering suffices — it gates no data.
  std::atomic<bool> cancelled{false};
  auto for_each_block = [&](auto&& pass) -> Status {
    ParallelFor(
        blocks, /*grain=*/1,
        [&](size_t /*chunk*/, size_t begin, size_t end) {
          BlockBuffers buffers(capacity);
          for (size_t b = begin; b < end; ++b) {
            if (cancelled.load(std::memory_order_relaxed)) return;
            if (deadline.Expired()) {
              cancelled.store(true, std::memory_order_relaxed);
              return;
            }
            pass(b, buffers);
          }
        },
        num_threads);
    if (cancelled.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded("deadline exceeded in stage2 search");
    }
    return Status::OK();
  };

  // Pass 1: the exact maximum s* (max-plus scan).
  std::vector<double> block_max(blocks);
  DPX_RETURN_IF_ERROR(for_each_block([&](size_t b, BlockBuffers& in) {
    const size_t count = scanner.ScanBlock(b, in.scores.get());
    block_max[b] = MaxScore(in.scores.get(), count);
  }));
  size_t best_block = 0;
  for (size_t b = 1; b < blocks; ++b) {
    if (block_max[b] > block_max[best_block]) best_block = b;
  }
  const double top = block_max[best_block];
  BlockBuffers rescan(capacity);

  size_t selected = 0;
  if (!private_selection) {
    // The lowest-index argmax: the first s* in the first block holding it.
    const double* scores = rescan.scores.get();
    const size_t count = scanner.ScanBlock(best_block, rescan.scores.get());
    selected = scanner.first_combination(best_block) +
               static_cast<size_t>(std::find(scores, scores + count, top) -
                                   scores);
  } else {
    // Pass 2: exact block sums of the weights exp(scale·(s − s*)), which
    // lie in [0, 1] with the maximum's exactly 1. Then one uniform draw over
    // the total picks a block, and a rescan of that block walks the same
    // weights to the combination. Every block is weighed in full, so the
    // time depends only on k^|C|.
    auto weigh = [&](size_t b, BlockBuffers& in) {
      const size_t count = scanner.ScanBlock(b, in.scores.get());
      kernels.stage2_weights(in.scores.get(), count, top, scale,
                             in.weights.get());
      return count;
    };
    std::vector<WeightSum> block_sum(blocks);
    DPX_RETURN_IF_ERROR(for_each_block([&](size_t b, BlockBuffers& in) {
      const size_t count = weigh(b, in);
      WeightSum sum = 0;
      for (size_t i = 0; i < count; ++i) sum += in.weights[i];
      block_sum[b] = sum;
    }));
    WeightSum total = 0;
    for (const WeightSum sum : block_sum) total += sum;
    WeightSum remaining = UniformBelow(rng, total);
    size_t chosen_block = blocks;
    for (size_t b = 0; b < blocks; ++b) {
      if (chosen_block == blocks) {
        if (remaining < block_sum[b]) {
          chosen_block = b;
        } else {
          remaining -= block_sum[b];
        }
      }
    }
    DPX_CHECK_LT(chosen_block, blocks);
    const size_t count = weigh(chosen_block, rescan);
    const uint64_t* weights = rescan.weights.get();
    size_t i = 0;
    for (; i < count && remaining >= weights[i]; ++i) remaining -= weights[i];
    DPX_CHECK_LT(i, count);
    selected = scanner.first_combination(chosen_block) + i;
  }

  AttributeCombination combination(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    combination[c] = candidate_sets[c][selected % candidate_sets[c].size()];
    selected /= candidate_sets[c].size();
  }
  return combination;
}

}  // namespace core_internal

namespace {

Status ValidateOptions(const DpClustXOptions& options) {
  DPX_RETURN_IF_ERROR(options.lambda.Validate());
  if (options.epsilon_cand_set <= 0.0 || options.epsilon_top_comb <= 0.0) {
    return Status::InvalidArgument(
        "epsilon_cand_set and epsilon_top_comb must be positive");
  }
  if (options.generate_histograms && options.epsilon_hist <= 0.0) {
    return Status::InvalidArgument(
        "epsilon_hist must be positive when histograms are generated");
  }
  if (options.num_candidates == 0) {
    return Status::InvalidArgument("num_candidates must be >= 1");
  }
  return Status::OK();
}

}  // namespace

StatusOr<GlobalExplanation> ExplainDpClustXWithLabels(
    const Dataset& dataset, const std::vector<ClusterId>& labels,
    size_t num_clusters, const DpClustXOptions& options,
    PrivacyBudget* budget) {
  DPX_RETURN_IF_ERROR(ValidateOptions(options));
  DPX_ASSIGN_OR_RETURN(const StatsCache stats,
                       StatsCache::Build(dataset, labels, num_clusters,
                                         options.num_threads));
  return ExplainDpClustXWithStats(stats, options, budget);
}

StatusOr<GlobalExplanation> ExplainDpClustXWithStats(
    const StatsCache& stats, const DpClustXOptions& options,
    PrivacyBudget* budget) {
  DPX_RETURN_IF_ERROR(ValidateOptions(options));
  // Check the deadline BEFORE reserving budget: a request that expired while
  // queued must charge nothing. Checkpoints past this point do not refund —
  // the accountant may overstate, never understate, the released ε.
  DPX_RETURN_IF_ERROR(options.deadline.Check("explain start"));

  // Reserve the whole run's budget up front so a failure cannot leave a
  // partially-released explanation.
  {
    DPX_SPAN("budget_reserve");
    if (budget != nullptr) {
      DPX_RETURN_IF_ERROR(budget->Spend(options.epsilon_cand_set,
                                        "dpclustx/stage1-candidates"));
      DPX_RETURN_IF_ERROR(budget->Spend(options.epsilon_top_comb,
                                        "dpclustx/stage2-selection"));
      if (options.generate_histograms) {
        DPX_RETURN_IF_ERROR(
            budget->Spend(options.epsilon_hist, "dpclustx/histograms"));
      }
    }
  }

  Rng rng(options.seed);

  // Algorithm 2, lines 1–2: conditional single-cluster weights γ from λ,
  // then the configured Stage-1 mechanism. (Spans time the stages only —
  // they never touch the Rng, so the noise-stream contract is untouched.)
  std::vector<std::vector<AttrIndex>> candidate_sets;
  {
    DPX_SPAN("stage1_candidates");
    const SingleClusterWeights gamma =
        options.lambda.ConditionalSingleClusterWeights();
    switch (options.stage1) {
      case Stage1Selector::kOneShotTopK: {
        CandidateSelectionOptions stage1;
        stage1.epsilon = options.epsilon_cand_set;
        stage1.k = options.num_candidates;
        stage1.gamma = gamma;
        stage1.deadline = options.deadline;
        DPX_ASSIGN_OR_RETURN(candidate_sets,
                             SelectCandidates(stats, stage1, rng));
        break;
      }
      case Stage1Selector::kSvt: {
        SvtCandidateOptions stage1;
        stage1.epsilon = options.epsilon_cand_set;
        stage1.max_candidates = options.num_candidates;
        stage1.threshold_fraction = options.svt_threshold_fraction;
        stage1.gamma = gamma;
        stage1.deadline = options.deadline;
        DPX_ASSIGN_OR_RETURN(candidate_sets,
                             SvtSelectCandidates(stats, stage1, rng));
        break;
      }
    }
  }

  // Lines 4–5: exponential mechanism over candidate combinations.
  AttributeCombination combination;
  {
    DPX_SPAN("stage2_select");
    const core_internal::CombinationScoreTables tables =
        core_internal::BuildLowSensitivityTables(stats, candidate_sets,
                                                 options.lambda);
    StatusOr<AttributeCombination> selected =
        core_internal::SearchCombinationParallel(
            candidate_sets, tables, options.epsilon_top_comb,
            kGlScoreSensitivity, options.max_combinations, rng,
            std::max<size_t>(options.num_threads, 1), options.deadline);
    DPX_RETURN_IF_ERROR(selected.status());
    combination = std::move(selected).value();
  }

  GlobalExplanation explanation;
  explanation.combination = combination;
  explanation.candidate_sets = std::move(candidate_sets);
  if (!options.generate_histograms) return explanation;

  DPX_SPAN("stage2_histograms");
  // Line 6: distinct selected attributes A'.
  const std::set<AttrIndex> distinct(combination.begin(), combination.end());
  // Line 7: budget split between full-dataset and cluster histograms.
  const double eps_hist_all =
      options.epsilon_hist / (2.0 * static_cast<double>(distinct.size()));
  const double eps_hist_cluster = options.epsilon_hist / 2.0;

  // Lines 8–10: noisy full-dataset histograms (sequential composition over
  // the |A'| attributes).
  std::vector<Histogram> noisy_full(stats.num_attributes());
  for (AttrIndex attr : distinct) {
    DPX_RETURN_IF_ERROR(options.deadline.Check("full histograms"));
    DPX_ASSIGN_OR_RETURN(
        noisy_full[attr],
        ReleaseDpHistogram(stats.full_histogram(attr), eps_hist_all, rng,
                           options.histogram));
  }

  // Lines 11–15: per-cluster noisy histograms (parallel composition across
  // the disjoint clusters) and post-processed out-of-cluster histograms.
  explanation.per_cluster.resize(stats.num_clusters());
  for (size_t c = 0; c < stats.num_clusters(); ++c) {
    DPX_RETURN_IF_ERROR(options.deadline.Check("cluster histograms"));
    const auto cluster = static_cast<ClusterId>(c);
    const AttrIndex attr = combination[c];
    SingleClusterExplanation& e = explanation.per_cluster[c];
    e.cluster = cluster;
    e.attribute = attr;
    e.epsilon_inside = eps_hist_cluster;
    e.epsilon_full = eps_hist_all;
    e.noise = options.histogram.noise;
    DPX_ASSIGN_OR_RETURN(
        e.inside,
        ReleaseDpHistogram(stats.cluster_histogram(cluster, attr),
                           eps_hist_cluster, rng, options.histogram));
    e.outside = noisy_full[attr].SubtractClamped(e.inside);
  }
  return explanation;
}

StatusOr<GlobalExplanation> ExplainDpClustX(const Dataset& dataset,
                                            const ClusteringFunction& clustering,
                                            const DpClustXOptions& options,
                                            PrivacyBudget* budget) {
  const std::vector<ClusterId> labels = clustering.AssignAll(dataset);
  return ExplainDpClustXWithLabels(dataset, labels, clustering.num_clusters(),
                                   options, budget);
}

}  // namespace dpclustx
