#ifndef CBQT_OPTIMIZER_PLANNER_H_
#define CBQT_OPTIMIZER_PLANNER_H_

#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cbqt/annotation_cache.h"
#include "common/budget.h"
#include "common/guardrails.h"
#include "common/status.h"
#include "optimizer/card_est.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "optimizer/plan.h"
#include "sql/fingerprint.h"
#include "sql/query_block.h"
#include "storage/database.h"

namespace cbqt {

/// A planned query block: physical plan plus output statistics (used when
/// the block is a derived table of some outer block).
struct BlockPlan {
  PlanPtr plan;
  RelStats out_stats;
};

/// The traditional physical optimizer: plans one (bound) query block tree
/// bottom-up — access paths, join order (DP with partial-order constraints,
/// greedy fallback), join methods (hash / merge / nested-loop / index
/// nested-loop, with semi/anti/outer/null-aware variants), aggregation,
/// windows, set operations, ROWNUM limits, and TIS subquery-filter costing
/// with correlation-value caching.
///
/// The CBQT framework invokes this as its "cost estimation technique"
/// (paper §3.1, Figure 1): each transformation state's query tree is handed
/// here for costing. `cost_cutoff` implements §3.4.1; `cache` implements
/// §3.4.2 (sub-tree cost-annotation reuse). Plans are immutable once built
/// (see PlanPtr): a cache hit, a join-memo hit or a join input is shared
/// into the new plan, never copied. Both caches are keyed by structural
/// fingerprints (sql/fingerprint.h), each block hashed once per top-level
/// PlanBlock call. `budget` is the
/// optimization resource governor, polled once per planned block — when the
/// deadline trips mid-plan the planner aborts with kBudgetExhausted and the
/// caller degrades to its best-so-far answer.
class Planner {
 public:
  Planner(const Database& db, const CostParams& params,
          AnnotationCache* cache = nullptr,
          double cost_cutoff = std::numeric_limits<double>::infinity(),
          BudgetTracker* budget = nullptr,
          AnnotationCache* join_memo = nullptr, QueryGuards guards = {},
          bool relaxed_reuse = false)
      : db_(db),
        params_(params),
        cache_(cache),
        cutoff_(cost_cutoff),
        budget_(budget),
        join_memo_(join_memo),
        guards_(guards),
        relaxed_reuse_(relaxed_reuse) {}

  /// Plans a bound query block (and, recursively, all nested blocks). The
  /// tree must not change until the call returns.
  Result<BlockPlan> PlanBlock(const QueryBlock& qb);

  /// Number of blocks fully optimized by this planner instance (annotation
  /// cache hits excluded) — the unit Table 1 counts.
  int64_t blocks_planned() const { return blocks_planned_; }

 private:
  /// PlanBlock below the fingerprint-memo scope: annotation-cache lookup,
  /// then planning and insertion on a miss.
  Result<BlockPlan> PlanBlockCached(const QueryBlock& qb);
  Result<BlockPlan> PlanRegular(const QueryBlock& qb);
  Result<BlockPlan> PlanSetOp(const QueryBlock& qb);

  /// Best standalone scan of a base table `tr` with `filters` applied:
  /// chooses a full scan or an index scan driven by constant/bound equality
  /// predicates. `extra_probes` (column-name, probe-expr) adds join-derived
  /// equalities for index nested-loop planning. When `used_extra_probes` is
  /// non-null it receives the probe-expr of every extra probe the chosen
  /// index actually consumed — the caller must keep re-checking the rest.
  Result<JoinStepPlan> BuildScan(
      const TableRef& tr, const std::vector<const Expr*>& filters,
      const std::vector<std::pair<std::string, const Expr*>>& extra_probes,
      const StatsContext& ctx,
      std::set<const Expr*>* used_extra_probes = nullptr);

  friend class BlockJoinCoster;

  const Database& db_;
  CostParams params_;
  AnnotationCache* cache_;
  double cutoff_;
  BudgetTracker* budget_;
  /// Cross-state join-order memo: subset-granularity DP results keyed by
  /// 128-bit combinations of the member relations' and predicates' exact
  /// fingerprints (see SubsetJoinMemo in planner.cc). Shared by the CBQT framework across transformation states
  /// alongside the block-level annotation cache.
  AnnotationCache* join_memo_;
  /// Runtime guardrails, polled at the same per-block quantum as the
  /// budget: a tripped CancellationToken aborts planning with kCancelled.
  QueryGuards guards_;
  /// Accept annotation hits from any member of the canonical fingerprint's
  /// equivalence class (MQO cross-query sharing); default false also
  /// requires the exact fingerprint to match (bit-identical plan
  /// determinism).
  bool relaxed_reuse_;
  int64_t blocks_planned_ = 0;
  /// Block fingerprints of the tree being planned, reset at the start of
  /// each top-level PlanBlock call (depth_ == 0).
  Fingerprinter fingerprints_;
  int depth_ = 0;
};

}  // namespace cbqt

#endif  // CBQT_OPTIMIZER_PLANNER_H_
