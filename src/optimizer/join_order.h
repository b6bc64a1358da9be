#ifndef CBQT_OPTIMIZER_JOIN_ORDER_H_
#define CBQT_OPTIMIZER_JOIN_ORDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "optimizer/plan.h"

namespace cbqt {

/// One step of a join order being built: a plan fragment plus its estimates.
/// The fragment is immutable and may be shared with a memo entry, a cached
/// base-relation plan and every join built on top of it.
struct JoinStepPlan {
  PlanPtr plan;
  double rows = 0;
  double cost = 0;
};

/// Cost callbacks implemented by the planner: the enumerator drives the
/// search, the coster knows scans, join methods and predicates.
class JoinCoster {
 public:
  virtual ~JoinCoster() = default;

  /// Best standalone access plan for relation `rel` (best scan, derived
  /// plan, ...).
  virtual Result<JoinStepPlan> BaseRel(int rel) = 0;

  /// Cheapest join of `left` (covering the relations in `left_mask`) with
  /// relation `rel` on the right, over all join methods.
  virtual Result<JoinStepPlan> Join(const JoinStepPlan& left,
                                    uint64_t left_mask, int rel) = 0;
};

/// Cross-state memo for join-order subproblems. The caller (the planner)
/// owns key construction: a subset `mask` of this enumeration is translated
/// into a canonical fingerprint of the member relations and the predicates
/// that apply within the subset, so byte-identical subproblems arising in
/// different transformation states share results.
///
/// Contract (relies on join-cost monotonicity, joined.cost >= left.cost,
/// which every coster here satisfies): a stored entry is the
/// cutoff-independent best plan for its subset. Lookup must fill `out` only
/// when returning kHit; the plan it fills in is the memoized tree itself,
/// which the enumerator links into larger joins as a shared child.
class JoinOrderMemo {
 public:
  virtual ~JoinOrderMemo() = default;

  enum class Probe {
    kMiss,    ///< nothing memoized for this subset
    kHit,     ///< `out` filled with the best plan, cost <= cutoff
    kPruned,  ///< memoized best exceeds cutoff: subset is pruned
  };

  virtual Probe Lookup(uint64_t mask, double cutoff, JoinStepPlan* out) = 0;
  virtual void Store(uint64_t mask, const JoinStepPlan& step) = 0;
};

/// Join-order search with non-commutative-join partial orders (paper
/// §2.1.1/§2.2.3): `deps[i]` is the bitmask of relations that must precede
/// relation i (semijoin/antijoin/outer-join right sides and JPPD lateral
/// views). Exhaustive dynamic programming over subsets for small FROM lists,
/// greedy otherwise (left-deep trees only, per the traditional optimizer the
/// paper describes).
///
/// `cutoff`: partial plans costing more than this are pruned; if nothing
/// survives, Enumerate returns StatusCode::kCostCutoff (paper §3.4.1).
///
/// `memo`: optional cross-state subproblem memo. Memoized subsets are
/// settled without re-costing; every freshly computed valid subset is
/// stored. With the monotonicity contract above, a subset is valid under a
/// cutoff iff its unconstrained best cost is within the cutoff — so hits
/// from states searched under different cutoffs are exact, and a hit whose
/// cost exceeds the current cutoff is exactly a pruned subset.
class JoinOrderEnumerator {
 public:
  JoinOrderEnumerator(std::vector<uint64_t> deps, JoinCoster* coster,
                      double cutoff, int dp_threshold = 10,
                      JoinOrderMemo* memo = nullptr);

  Result<JoinStepPlan> Enumerate();

 private:
  Result<JoinStepPlan> EnumerateDp();
  Result<JoinStepPlan> EnumerateGreedy();

  std::vector<uint64_t> deps_;
  JoinCoster* coster_;
  double cutoff_;
  int dp_threshold_;
  JoinOrderMemo* memo_;
};

}  // namespace cbqt

#endif  // CBQT_OPTIMIZER_JOIN_ORDER_H_
