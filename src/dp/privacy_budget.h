// Privacy-budget accounting.
//
// A PrivacyBudget tracks ε spent by a sequence of mechanism invocations under
// sequential composition (Prop. 2.5 of the paper): total ε is the sum of the
// ε's of the sequential steps. Parallel composition (disjoint inputs cost
// max ε, not the sum) is exposed via SpendParallel, which charges the maximum
// of a group of per-partition costs. Post-processing is free and never
// touches the accountant.
//
// The accountant is thread-safe: Spend is an atomic check-and-charge, so
// concurrent callers (the service layer shares one accountant per dataset
// across sessions) can never jointly overdraw the budget. Accessors take the
// same lock; ledger() returns a snapshot.

#ifndef DPCLUSTX_DP_PRIVACY_BUDGET_H_
#define DPCLUSTX_DP_PRIVACY_BUDGET_H_

#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace dpclustx {

class PrivacyBudget {
 public:
  /// One charged step, for audit output.
  struct LedgerEntry {
    std::string label;
    double epsilon;
  };

  /// Accountant with `total_epsilon` to spend. Requires total_epsilon > 0.
  explicit PrivacyBudget(double total_epsilon);

  PrivacyBudget(const PrivacyBudget&) = delete;
  PrivacyBudget& operator=(const PrivacyBudget&) = delete;

  double total_epsilon() const { return total_; }
  double spent_epsilon() const;
  /// Never negative: summing many small charges can overshoot `total` by a
  /// few ulps, which is clamped away rather than reported as negative budget.
  double remaining_epsilon() const;

  /// Charges `epsilon` under sequential composition. Returns OutOfBudget
  /// (charging nothing) if it would exceed the total beyond a 1e-9 relative
  /// tolerance (so an exact spend-down of the budget in many small steps
  /// never fails on floating-point drift); InvalidArgument for non-positive
  /// epsilon. Atomic check-and-charge under concurrency.
  Status Spend(double epsilon, const std::string& label);

  /// True when Spend(epsilon, ...) would currently succeed. Advisory under
  /// concurrency unless the caller serializes spenders externally (the
  /// service layer holds a per-session lock across CanSpend + Spend).
  bool CanSpend(double epsilon) const;

  /// Charges max(per_partition_epsilons) — parallel composition over disjoint
  /// data partitions. Requires a non-empty list of positive epsilons.
  Status SpendParallel(const std::vector<double>& per_partition_epsilons,
                       const std::string& label);

  /// Snapshot of the charges so far.
  std::vector<LedgerEntry> ledger() const;

  /// Calls `fn(entry)` for each charge so far, in order, under the lock —
  /// for serializing a long ledger without copying it first. `fn` must not
  /// call back into this accountant.
  template <typename Fn>
  void ForEachLedgerEntry(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const LedgerEntry& entry : ledger_) fn(entry);
  }

  /// Multi-line, human-readable spend report.
  std::string Report() const;

 private:
  const double total_;
  mutable std::mutex mutex_;
  double spent_ = 0.0;              // guarded by mutex_
  std::vector<LedgerEntry> ledger_;  // guarded by mutex_
};

}  // namespace dpclustx

#endif  // DPCLUSTX_DP_PRIVACY_BUDGET_H_
