#include "optimizer/planner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/hash.h"
#include "common/str_util.h"
#include "sql/expr_util.h"

namespace cbqt {

namespace {

// ---------------------------------------------------------------------------
// small helpers
// ---------------------------------------------------------------------------

int CountExpensiveCalls(const Expr& e) {
  int n = 0;
  VisitExprConst(&e, [&n](const Expr* x) {
    if (x->kind == ExprKind::kFuncCall && x->scalar_fn == ScalarFn::kExpensive) {
      ++n;
    }
  });
  return n;
}

// Per-row evaluation cost of a set of predicates.
double PredEvalCost(const std::vector<const Expr*>& preds,
                    const CostParams& P) {
  double cost = 0;
  for (const Expr* p : preds) {
    cost += P.cpu_pred;
    cost += CountExpensiveCalls(*p) * P.expensive_call;
  }
  return cost;
}

double ConjSelectivity(const std::vector<const Expr*>& preds,
                       const StatsContext& ctx) {
  double s = 1.0;
  for (const Expr* p : preds) s *= Selectivity(*p, ctx);
  return std::max(s, 1e-9);
}

Schema SchemaForTable(const TableRef& tr) {
  Schema schema;
  for (const auto& col : tr.table_def->columns) {
    schema.push_back(ColumnSlot{tr.alias, col.name, col.type});
  }
  schema.push_back(ColumnSlot{tr.alias, "rowid", DataType::kInt64});
  return schema;
}

RelStats StatsForTable(const Database& db, const TableRef& tr) {
  RelStats rel;
  const TableStats* ts = db.stats().Find(tr.table_name);
  if (ts == nullptr) {
    rel.rows = 1000;  // dynamic-sampling default for unanalyzed tables
    return rel;
  }
  rel.rows = ts->rows;
  for (size_t i = 0; i < tr.table_def->columns.size() && i < ts->columns.size();
       ++i) {
    rel.columns[tr.table_def->columns[i].name] = ts->columns[i];
  }
  ColumnStats rowid;
  rowid.ndv = ts->rows;
  rowid.null_frac = 0;
  rel.columns["rowid"] = rowid;
  return rel;
}

// Replaces, in-place, any subtree of *e structurally equal to patterns[k]
// with a column ref ("", names[k]). Does not descend into subquery blocks.
void SubstituteSlots(ExprPtr* e, const std::vector<const Expr*>& patterns,
                     const std::vector<std::string>& names) {
  if (*e == nullptr) return;
  for (size_t k = 0; k < patterns.size(); ++k) {
    if (ExprEquals(**e, *patterns[k])) {
      auto ref = MakeColumnRef("", names[k]);
      ref->type = (*e)->type;
      *e = std::move(ref);
      return;
    }
  }
  for (auto& c : (*e)->children) SubstituteSlots(&c, patterns, names);
  for (auto& c : (*e)->partition_by) SubstituteSlots(&c, patterns, names);
  for (auto& c : (*e)->win_order_by) SubstituteSlots(&c, patterns, names);
}

// Collects kSubquery nodes in `e` in pre-order (not descending into nested
// subquery blocks). The executor uses the same traversal order to pair
// subquery expressions with their planned subplans.
void CollectSubqueryNodes(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kSubquery) {
    out->push_back(e);
    // IN/ANY left operands cannot contain further subqueries in our subset.
    return;
  }
  for (const auto& c : e->children) CollectSubqueryNodes(c.get(), out);
  for (const auto& c : e->partition_by) CollectSubqueryNodes(c.get(), out);
  for (const auto& c : e->win_order_by) CollectSubqueryNodes(c.get(), out);
}

// Outer column references of a (sub)query block: refs whose alias is not
// defined anywhere inside the block tree.
std::vector<std::pair<std::string, std::string>> CollectOuterRefs(
    const QueryBlock& qb) {
  std::set<std::string> inner;
  CollectDefinedAliases(qb, &inner);
  std::set<std::pair<std::string, std::string>> seen;
  std::vector<std::pair<std::string, std::string>> out;
  VisitAllExprsConst(&qb, [&](const Expr* e) {
    if (e->kind == ExprKind::kColumnRef && inner.count(e->table_alias) == 0 &&
        !e->table_alias.empty()) {
      auto key = std::make_pair(e->table_alias, e->column_name);
      if (seen.insert(key).second) out.push_back(key);
    }
  });
  return out;
}

double GroupOutputRows(const std::vector<ExprPtr>& keys,
                       const std::vector<int>* set, const StatsContext& ctx,
                       double input_rows) {
  if (keys.empty()) return 1;
  double prod = 1;
  if (set == nullptr) {
    for (const auto& k : keys) prod *= EstimateNdv(*k, ctx, input_rows);
  } else {
    if (set->empty()) return 1;
    for (int i : *set) {
      prod *= EstimateNdv(*keys[static_cast<size_t>(i)], ctx, input_rows);
    }
  }
  return std::min(std::max(1.0, input_rows), prod);
}

}  // namespace

// ---------------------------------------------------------------------------
// BuildScan: access-path selection for one base table
// ---------------------------------------------------------------------------

Result<JoinStepPlan> Planner::BuildScan(
    const TableRef& tr, const std::vector<const Expr*>& filters,
    const std::vector<std::pair<std::string, const Expr*>>& extra_probes,
    const StatsContext& ctx, std::set<const Expr*>* used_extra_probes) {
  const CostParams& P = params_;
  const RelStats* rel = ctx.FindRelation(tr.alias);
  double base_rows = rel != nullptr ? rel->rows : 1000;
  const TableStats* ts = db_.stats().Find(tr.table_name);
  double blocks = ts != nullptr ? ts->blocks : std::max(1.0, base_rows / 100);

  // Candidate equality probes: filter conjuncts `col = bound-value` plus
  // join-derived probes handed in by the join coster.
  struct Probe {
    std::string column;
    const Expr* value;       // expression producing the probe value
    const Expr* source;      // original predicate (to exclude from residual)
    double sel;
  };
  std::vector<Probe> probes;
  for (const Expr* f : filters) {
    if (f->kind != ExprKind::kBinary || f->bop != BinaryOp::kEq) continue;
    const Expr* l = f->children[0].get();
    const Expr* r = f->children[1].get();
    const Expr* col = nullptr;
    const Expr* val = nullptr;
    if (l->kind == ExprKind::kColumnRef && l->corr_depth == 0 &&
        l->table_alias == tr.alias) {
      col = l;
      val = r;
    } else if (r->kind == ExprKind::kColumnRef && r->corr_depth == 0 &&
               r->table_alias == tr.alias) {
      col = r;
      val = l;
    }
    if (col == nullptr) continue;
    // The probe value must not depend on this table.
    if (ExprUsesAlias(*val, tr.alias)) continue;
    double sel = Selectivity(*f, ctx);
    probes.push_back(Probe{col->column_name, val, f, sel});
  }
  for (const auto& [col, val] : extra_probes) {
    const ColumnStats* cs = ctx.FindColumn(tr.alias, col);
    double sel = (cs != nullptr && cs->ndv > 0) ? 1.0 / cs->ndv : 0.01;
    probes.push_back(Probe{col, val, nullptr, sel});
  }

  // Full-scan option.
  double full_sel = ConjSelectivity(filters, ctx);
  double full_rows = std::max(base_rows * full_sel, 0.0);
  double full_cost = blocks * P.seq_block + base_rows * P.cpu_tuple +
                     base_rows * PredEvalCost(filters, P);

  // Best index option.
  double best_cost = full_cost;
  double best_rows = full_rows;
  const IndexDef* best_index = nullptr;
  std::vector<const Probe*> best_used;
  for (const auto& idx : tr.table_def->indexes) {
    std::vector<const Probe*> used;
    for (const auto& key_col : idx.columns) {
      const Probe* found = nullptr;
      for (const auto& p : probes) {
        bool already = false;
        for (const Probe* u : used) {
          if (u == &p) already = true;
        }
        if (!already && p.column == key_col) {
          found = &p;
          break;
        }
      }
      if (found == nullptr) break;
      used.push_back(found);
    }
    if (used.empty()) continue;
    double probe_sel = 1.0;
    std::set<const Expr*> used_sources;
    for (const Probe* u : used) {
      probe_sel *= u->sel;
      if (u->source != nullptr) used_sources.insert(u->source);
    }
    double match_rows = std::max(base_rows * probe_sel, 0.0);
    std::vector<const Expr*> residual;
    for (const Expr* f : filters) {
      if (used_sources.count(f) == 0) residual.push_back(f);
    }
    double out_rows = match_rows * ConjSelectivity(residual, ctx);
    double cost = P.index_probe + match_rows * P.index_row +
                  match_rows * PredEvalCost(residual, P);
    if (cost < best_cost) {
      best_cost = cost;
      best_rows = out_rows;
      best_index = &idx;
      best_used = used;
    }
  }

  JoinStepPlan step;
  if (best_index == nullptr) {
    auto node = std::make_shared<PlanNode>(PlanOp::kTableScan);
    node->table_name = tr.table_name;
    node->table_alias = tr.alias;
    node->output = SchemaForTable(tr);
    for (const Expr* f : filters) node->filter.push_back(f->Clone());
    node->est_rows = full_rows;
    node->est_cost = full_cost;
    step.plan = std::move(node);
    step.rows = full_rows;
    step.cost = full_cost;
    return step;
  }
  auto node = std::make_shared<PlanNode>(PlanOp::kIndexScan);
  node->table_name = tr.table_name;
  node->table_alias = tr.alias;
  node->index_name = best_index->name;
  node->output = SchemaForTable(tr);
  std::set<const Expr*> used_sources;
  for (const Probe* u : best_used) {
    node->probes.push_back(u->value->Clone());
    if (u->source != nullptr) used_sources.insert(u->source);
    if (u->source == nullptr && used_extra_probes != nullptr) {
      used_extra_probes->insert(u->value);
    }
  }
  for (const Expr* f : filters) {
    if (used_sources.count(f) == 0) node->filter.push_back(f->Clone());
  }
  node->est_rows = best_rows;
  node->est_cost = best_cost;
  step.plan = std::move(node);
  step.rows = best_rows;
  step.cost = best_cost;
  return step;
}

// ---------------------------------------------------------------------------
// BlockJoinCoster: join-method and join-step costing for one block
// ---------------------------------------------------------------------------

namespace {

struct RelEntry {
  const TableRef* tr = nullptr;
  std::vector<const Expr*> filters;          // single-alias predicates
  PlanPtr derived_plan;                      // planned view (shared on use)
  double derived_cost = 0;
  double derived_rows = 0;
  bool lateral = false;
  uint64_t deps = 0;
};

struct WherePred {
  const Expr* expr;
  uint64_t mask;  // relations referenced
};

}  // namespace

class BlockJoinCoster : public JoinCoster {
 public:
  BlockJoinCoster(Planner* planner, const CostParams& P,
                  const StatsContext& ctx, std::vector<RelEntry> rels,
                  std::vector<WherePred> preds,
                  const std::map<std::string, int>& alias_to_rel)
      : planner_(planner),
        P_(P),
        ctx_(ctx),
        rels_(std::move(rels)),
        preds_(std::move(preds)),
        alias_to_rel_(alias_to_rel) {}

  Result<JoinStepPlan> BaseRel(int rel) override {
    RelEntry& r = rels_[static_cast<size_t>(rel)];
    if (r.tr->IsBaseTable()) {
      return planner_->BuildScan(*r.tr, r.filters, {}, ctx_);
    }
    // Derived table: the pre-planned view, with its filters applied.
    JoinStepPlan step;
    step.plan = r.derived_plan;
    step.rows = r.derived_rows;
    step.cost = r.derived_cost;
    if (!r.filters.empty()) {
      auto filter = std::make_shared<PlanNode>(PlanOp::kFilter);
      filter->output = step.plan->output;
      for (const Expr* f : r.filters) filter->filter.push_back(f->Clone());
      step.rows *= ConjSelectivity(r.filters, ctx_);
      step.cost += r.derived_rows * PredEvalCost(r.filters, P_);
      filter->est_rows = step.rows;
      filter->est_cost = step.cost;
      filter->children.push_back(std::move(step.plan));
      step.plan = std::move(filter);
    }
    return step;
  }

  Result<JoinStepPlan> Join(const JoinStepPlan& left, uint64_t left_mask,
                            int rel) override {
    RelEntry& r = rels_[static_cast<size_t>(rel)];
    uint64_t bit = 1ULL << rel;
    uint64_t new_mask = left_mask | bit;

    JoinKind kind = r.tr->join;
    bool null_aware = kind == JoinKind::kAntiNA;

    // Applicable predicates: WHERE join predicates completed by adding
    // `rel`, plus the relation's own ON/unnesting conditions. WHERE
    // predicates completed at an outer join must NOT become part of the
    // join condition (that would re-admit null-extended rows the WHERE
    // clause rejects); they are applied as a filter above the join.
    std::vector<const Expr*> conds;
    std::vector<const Expr*> post_conds;
    for (const auto& p : preds_) {
      if ((p.mask & ~new_mask) == 0 && (p.mask & bit) != 0) {
        if (kind == JoinKind::kLeftOuter) {
          post_conds.push_back(p.expr);
        } else {
          conds.push_back(p.expr);
        }
      }
    }
    for (const auto& c : r.tr->join_conds) conds.push_back(c.get());

    // Equi conditions usable as hash keys / index probes: one side only
    // references `rel`, the other only relations in left_mask.
    struct EquiCond {
      const Expr* pred;
      const Expr* left_side;   // refers to left_mask relations
      const Expr* right_side;  // refers to rel
    };
    std::vector<EquiCond> equis;
    for (const Expr* c : conds) {
      if (c->kind != ExprKind::kBinary || c->bop != BinaryOp::kEq) continue;
      const Expr* a = c->children[0].get();
      const Expr* b = c->children[1].get();
      uint64_t am = AliasMask(*a);
      uint64_t bm = AliasMask(*b);
      if (am != 0 && (am & ~left_mask) == 0 && bm == bit) {
        equis.push_back(EquiCond{c, a, b});
      } else if (bm != 0 && (bm & ~left_mask) == 0 && am == bit) {
        equis.push_back(EquiCond{c, b, a});
      }
    }

    // Output cardinality estimates.
    double conds_sel = ConjSelectivity(conds, ctx_);
    double right_rows_base = RightRows(rel);
    double inner_rows =
        std::max(left.rows * right_rows_base * conds_sel, 0.0);
    double semi_sel = 0.5;
    if (!equis.empty()) {
      semi_sel = SemiJoinSelectivity(*equis[0].pred, ctx_, r.tr->alias);
    }
    double out_rows;
    switch (kind) {
      case JoinKind::kSemi:
        out_rows = std::max(1.0, left.rows * semi_sel);
        break;
      case JoinKind::kAnti:
      case JoinKind::kAntiNA:
        out_rows = std::max(1.0, left.rows * (1.0 - semi_sel));
        break;
      case JoinKind::kLeftOuter:
        out_rows = std::max(left.rows, inner_rows);
        break;
      default:
        out_rows = inner_rows;
        break;
    }

    // ---- candidate methods ----
    struct Option {
      double cost = 0;
      PlanOp op = PlanOp::kNestedLoopJoin;
      bool use_index = false;
      bool valid = false;
    };
    Option best;
    best.cost = std::numeric_limits<double>::infinity();

    Result<JoinStepPlan> right_base = BaseRightPlan(rel);
    if (!right_base.ok()) return right_base.status();

    if (r.lateral) {
      // JPPD views must be joined by nested loop after their referenced
      // tables (paper §2.2.3).
      double cost = left.cost + left.rows * r.derived_cost +
                    out_rows * P_.cpu_tuple;
      best = Option{cost, PlanOp::kNestedLoopJoin, false, true};
      // The lateral view's internal predicates already account for the
      // correlation; per execution it returns derived_rows rows.
      out_rows = std::max(1.0, left.rows * r.derived_rows * conds_sel);
      if (kind == JoinKind::kSemi) {
        out_rows = std::max(1.0, left.rows * std::min(1.0, r.derived_rows));
      }
    } else {
      // Hash join.
      if (!equis.empty()) {
        double penalty = null_aware ? 1.6 : 1.0;
        double cost = left.cost + right_base->cost +
                      right_base->rows * P_.hash_build * penalty +
                      left.rows * P_.hash_probe * penalty +
                      out_rows * P_.cpu_tuple;
        if (cost < best.cost) best = Option{cost, PlanOp::kHashJoin, false, true};
      }
      // Merge join (inner only).
      if (!equis.empty() && kind == JoinKind::kInner) {
        double cost = left.cost + right_base->cost + P_.SortCost(left.rows) +
                      P_.SortCost(right_base->rows) +
                      (left.rows + right_base->rows) * P_.cpu_tuple +
                      out_rows * P_.cpu_tuple;
        if (cost < best.cost) {
          best = Option{cost, PlanOp::kMergeJoin, false, true};
        }
      }
      // Index nested loop (base tables with a usable index).
      if (r.tr->IsBaseTable() && !equis.empty()) {
        std::vector<std::pair<std::string, const Expr*>> extra;
        for (const auto& eq : equis) {
          if (eq.right_side->kind == ExprKind::kColumnRef) {
            extra.push_back({eq.right_side->column_name, eq.left_side});
          }
        }
        if (!extra.empty()) {
          auto probe_scan = planner_->BuildScan(*r.tr, r.filters, extra, ctx_);
          if (probe_scan.ok() &&
              probe_scan->plan->op == PlanOp::kIndexScan) {
            double per_exec = probe_scan->cost;
            double cost = left.cost + left.rows * per_exec +
                          out_rows * P_.cpu_tuple;
            if (cost < best.cost) {
              best = Option{cost, PlanOp::kNestedLoopJoin, true, true};
            }
          }
        }
      }
      // Plain nested loop over the materialized right input.
      {
        double pair_cost = PredEvalCost(conds, P_) + P_.rescan_row;
        double cost = left.cost + right_base->cost +
                      left.rows * right_base->rows * pair_cost +
                      out_rows * P_.cpu_tuple;
        if (cost < best.cost) {
          best = Option{cost, PlanOp::kNestedLoopJoin, false, true};
        }
      }
    }

    if (!best.valid) return Status::CostCutoff();

    // ---- build the chosen node ----
    auto node = std::make_shared<PlanNode>(best.op);
    node->join_kind = kind;
    node->null_aware = null_aware;
    node->children.push_back(left.plan);

    if (best.op == PlanOp::kHashJoin || best.op == PlanOp::kMergeJoin) {
      node->children.push_back(right_base->plan);
      std::set<const Expr*> used;
      for (const auto& eq : equis) {
        node->hash_left_keys.push_back(eq.left_side->Clone());
        node->hash_right_keys.push_back(eq.right_side->Clone());
        used.insert(eq.pred);
      }
      for (const Expr* c : conds) {
        if (used.count(c) == 0) node->join_conds.push_back(c->Clone());
      }
    } else if (best.use_index) {
      node->rescan_right = true;
      std::vector<std::pair<std::string, const Expr*>> extra;
      for (const auto& eq : equis) {
        if (eq.right_side->kind == ExprKind::kColumnRef) {
          extra.push_back({eq.right_side->column_name, eq.left_side});
        }
      }
      std::set<const Expr*> used_values;
      auto probe_scan =
          planner_->BuildScan(*r.tr, r.filters, extra, ctx_, &used_values);
      if (!probe_scan.ok()) return probe_scan.status();
      node->children.push_back(std::move(probe_scan->plan));
      // Only conditions whose probe the chosen index actually consumed are
      // guaranteed by the scan; everything else — including equis on columns
      // the index does not cover — must still be evaluated at the join.
      std::set<const Expr*> probe_preds;
      for (const auto& eq : equis) {
        if (used_values.count(eq.left_side) != 0) probe_preds.insert(eq.pred);
      }
      for (const Expr* c : conds) {
        if (probe_preds.count(c) == 0) node->join_conds.push_back(c->Clone());
      }
    } else {
      // A lateral view (with its single-alias WHERE filters on top, see
      // BaseRel) is re-evaluated for every left row.
      node->rescan_right = r.lateral;
      node->children.push_back(right_base->plan);
      for (const Expr* c : conds) node->join_conds.push_back(c->Clone());
    }

    // Output schema: left ⊕ right for inner/outer, left only for semi/anti.
    node->output = node->children[0]->output;
    if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter) {
      const Schema& right_schema = node->children[1]->output;
      node->output.insert(node->output.end(), right_schema.begin(),
                          right_schema.end());
    }
    node->est_rows = out_rows;
    node->est_cost = best.cost;

    double step_cost = best.cost;
    if (!post_conds.empty()) {
      auto filter = std::make_shared<PlanNode>(PlanOp::kFilter);
      filter->output = node->output;
      for (const Expr* c : post_conds) filter->filter.push_back(c->Clone());
      step_cost += out_rows * PredEvalCost(post_conds, P_);
      out_rows = std::max(out_rows * ConjSelectivity(post_conds, ctx_), 0.0);
      filter->est_rows = out_rows;
      filter->est_cost = step_cost;
      filter->children.push_back(std::move(node));
      node = std::move(filter);
    }

    JoinStepPlan step;
    step.plan = std::move(node);
    step.rows = out_rows;
    step.cost = step_cost;
    return step;
  }

 private:
  uint64_t AliasMask(const Expr& e) const {
    uint64_t mask = 0;
    bool unknown = false;
    VisitExprConst(&e, [&](const Expr* x) {
      if (x->kind == ExprKind::kColumnRef) {
        auto it = alias_to_rel_.find(x->table_alias);
        if (it != alias_to_rel_.end() && x->corr_depth == 0) {
          mask |= 1ULL << it->second;
        } else if (x->corr_depth == 0) {
          unknown = true;
        }
      }
    });
    if (unknown) return ~0ULL;  // refuses to classify — never matches a side
    return mask;
  }

  double RightRows(int rel) {
    RelEntry& r = rels_[static_cast<size_t>(rel)];
    if (r.tr->IsBaseTable()) {
      const RelStats* rs = ctx_.FindRelation(r.tr->alias);
      double rows = rs != nullptr ? rs->rows : 1000;
      return std::max(rows * ConjSelectivity(r.filters, ctx_), 0.0);
    }
    return std::max(r.derived_rows * ConjSelectivity(r.filters, ctx_), 0.0);
  }

  Result<JoinStepPlan> BaseRightPlan(int rel) {
    auto it = base_cache_.find(rel);
    if (it == base_cache_.end()) {
      auto base = BaseRel(rel);
      if (!base.ok()) return base.status();
      it = base_cache_.emplace(rel, std::move(base.value())).first;
    }
    return it->second;
  }

  Planner* planner_;
  const CostParams& P_;
  const StatsContext& ctx_;
  std::vector<RelEntry> rels_;
  std::vector<WherePred> preds_;
  std::map<std::string, int> alias_to_rel_;
  std::map<int, JoinStepPlan> base_cache_;
};

// ---------------------------------------------------------------------------
// SubsetJoinMemo: cross-state join-order memoization
// ---------------------------------------------------------------------------

namespace {

constexpr uint64_t kMemoSeedHi = 0x9e3779b97f4a7c15ULL;

/// The 128-bit identity of one relation or join predicate: two differently
/// seeded hash chains over the same words.
struct MemoHash {
  Hash128 h{kFnvOffset, kMemoSeedHi};
  void Add(uint64_t v) {
    h.lo = HashCombine(h.lo, v);
    h.hi = HashCombine(h.hi, v);
  }
  void AddName(const std::string& s) { Add(HashBytes(s, kFnvOffset)); }
};

// Keys one block's join-order DP subproblems so their results transfer
// across transformation states. A subset mask is fingerprinted by its member
// relations in FROM order — alias, content (table name or the derived
// block's exact fingerprint), join kind, laterality, ON conditions,
// single-relation filters (including the constant predicates attached to
// relation 0), dependency aliases — plus every WHERE join predicate falling
// entirely within the subset, in WHERE order; expressions enter by their
// exact fingerprints (sql/fingerprint.h). Everything the DP value of a
// subset depends on is covered: selectivities resolve through the member
// aliases only, derived-table stats are functions of the block, and
// correlated references degrade to defaults deterministically.
//
// Combination keeps relative FROM / WHERE order (rather than sorting) so
// the enumerator's tie-break order is identical whenever keys match — a hit
// returns exactly what this state's own DP would have built. The exact
// fingerprints, not the canonical ones: a key collision must imply the DP
// would re-run with the same inputs in the same order (tie-break identity),
// which canonicalized views would weaken. A key is trusted as 128 bits
// without re-verification (DESIGN.md "Cross-state join-order memoization").
class SubsetJoinMemo : public JoinOrderMemo {
 public:
  SubsetJoinMemo(AnnotationCache* cache, std::vector<Hash128> rel_h,
                 std::vector<std::pair<uint64_t, Hash128>> pred_h)
      : cache_(cache), rel_h_(std::move(rel_h)), pred_h_(std::move(pred_h)) {}

  Probe Lookup(uint64_t mask, double cutoff, JoinStepPlan* out) override {
    std::shared_ptr<const CostAnnotation> hit = cache_->Find(KeyFor(mask));
    if (hit == nullptr) return Probe::kMiss;
    // The stored entry is the subset's cutoff-independent best (see
    // join_order.h): a best above the cutoff means the subset is pruned
    // under it, exactly as a from-scratch DP would conclude.
    if (hit->cost > cutoff) return Probe::kPruned;
    // The memoized plan itself, shared: it stays valid even if the entry is
    // evicted mid-enumeration.
    out->plan = hit->plan;
    out->rows = hit->rows;
    out->cost = hit->cost;
    return Probe::kHit;
  }

  void Store(uint64_t mask, const JoinStepPlan& step) override {
    CostAnnotation ann;
    ann.cost = step.cost;
    ann.rows = step.rows;
    ann.plan = step.plan;
    cache_->Put(KeyFor(mask), std::move(ann));
  }

 private:
  static void Mix(Hash128* acc, const Hash128& v) {
    // Order-dependent combine (combination order carries the tie-break
    // identity argument, so the key must not be commutative).
    acc->lo = FnvMix(acc->lo, v.lo) + (acc->lo << 7);
    acc->hi = (acc->hi ^ v.hi) * 0xc2b2ae3d27d4eb4fULL + (acc->hi >> 9);
  }

  Hash128 KeyFor(uint64_t mask) const {
    Hash128 acc{kFnvOffset, kMemoSeedHi};
    for (size_t i = 0; i < rel_h_.size(); ++i) {
      if (mask & (1ULL << i)) Mix(&acc, rel_h_[i]);
    }
    Mix(&acc, {0x50u, 0x50u});  // relation/predicate section separator
    for (const auto& [pmask, h] : pred_h_) {
      if ((pmask & ~mask) == 0) Mix(&acc, h);
    }
    return acc;
  }

  AnnotationCache* cache_;
  std::vector<Hash128> rel_h_;
  std::vector<std::pair<uint64_t, Hash128>> pred_h_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

Result<BlockPlan> Planner::PlanBlock(const QueryBlock& qb) {
  // Cooperative governor poll: one cheap deadline check per planned block,
  // so a runaway optimization of a deeply nested query cancels mid-plan.
  if (budget_ != nullptr && budget_->CheckDeadline()) {
    return Status::BudgetExhausted(
        "optimization deadline exceeded while planning");
  }
  // Same quantum, harder stop: a tripped cancellation token fails the
  // query outright instead of degrading it.
  if (guards_.any()) CBQT_RETURN_IF_ERROR(guards_.Poll());
  // Fingerprints are memoized per block for one top-level planning call:
  // the tree is read-only until it returns.
  if (depth_ == 0) fingerprints_ = Fingerprinter();
  ++depth_;
  Result<BlockPlan> result = PlanBlockCached(qb);
  --depth_;
  return result;
}

Result<BlockPlan> Planner::PlanBlockCached(const QueryBlock& qb) {
  Fingerprint fp;
  if (cache_ != nullptr) {
    fp = fingerprints_.OfBlock(qb);
    std::shared_ptr<const CostAnnotation> hit = cache_->Find(BlockKey(fp));
    // The canonical fingerprint keys a whole equivalence class of blocks
    // (conjunct order, commuted operands, inner FROM order). Default reuse
    // additionally requires the exact fingerprint to match, so a hit is
    // guaranteed bit-identical to what planning this block would produce —
    // parallel state evaluation stays deterministic no matter which class
    // member reached the cache first. Relaxed reuse (MQO batch sharing)
    // accepts any class member: row-identical results, possibly different
    // plan text (tie-breaks followed the cached member's orderings).
    if (hit != nullptr &&
        (relaxed_reuse_ || hit->exact_fingerprint == fp.exact)) {
      BlockPlan out;
      out.plan = hit->plan;
      out.out_stats = hit->out_stats;
      return out;
    }
  }
  Result<BlockPlan> result =
      qb.IsSetOp() ? PlanSetOp(qb) : PlanRegular(qb);
  if (!result.ok()) return result;
  ++blocks_planned_;
  if (cache_ != nullptr) {
    CostAnnotation ann;
    ann.cost = result->plan->est_cost;
    ann.rows = result->plan->est_rows;
    ann.out_stats = result->out_stats;
    ann.plan = result->plan;
    ann.exact_fingerprint = fp.exact;
    cache_->Put(BlockKey(fp), std::move(ann));
  }
  return result;
}

Result<BlockPlan> Planner::PlanSetOp(const QueryBlock& qb) {
  auto node = std::make_shared<PlanNode>(PlanOp::kSetOp);
  node->set_op = qb.set_op;
  double rows = 0;
  double cost = 0;
  RelStats first_stats;
  for (size_t i = 0; i < qb.branches.size(); ++i) {
    auto branch = PlanBlock(*qb.branches[i]);
    if (!branch.ok()) return branch.status();
    if (i == 0) first_stats = branch->out_stats;
    double brows = branch->plan->est_rows;
    double bcost = branch->plan->est_cost;
    switch (qb.set_op) {
      case SetOpKind::kUnionAll:
      case SetOpKind::kUnion:
        rows += brows;
        break;
      case SetOpKind::kIntersect:
        rows = (i == 0) ? brows : std::min(rows, brows) * 0.5;
        break;
      case SetOpKind::kMinus:
        rows = (i == 0) ? brows : rows * 0.5;
        break;
      default:
        break;
    }
    cost += bcost;
    if (qb.set_op != SetOpKind::kUnionAll) cost += brows * params_.agg_row;
    node->children.push_back(std::move(branch->plan));
  }
  if (qb.set_op == SetOpKind::kUnion) rows *= 0.8;
  node->output = node->children[0]->output;
  node->est_rows = std::max(rows, 0.0);
  node->est_cost = cost;
  if (node->est_cost > cutoff_) return Status::CostCutoff();

  PlanPtr top = std::move(node);
  if (qb.rownum_limit >= 0) {
    auto limit = std::make_shared<PlanNode>(PlanOp::kLimit);
    limit->limit = qb.rownum_limit;
    limit->output = top->output;
    limit->est_rows = std::min(static_cast<double>(qb.rownum_limit),
                               top->est_rows);
    limit->est_cost = top->est_cost;
    limit->children.push_back(std::move(top));
    top = std::move(limit);
  }

  BlockPlan out;
  out.out_stats = first_stats;
  out.out_stats.rows = top->est_rows;
  out.plan = std::move(top);
  return out;
}

Result<BlockPlan> Planner::PlanRegular(const QueryBlock& qb) {
  const CostParams& P = params_;

  // ---- 0. No-FROM block: a single synthetic row. ----
  if (qb.from.empty()) {
    auto node = std::make_shared<PlanNode>(PlanOp::kProject);
    for (const auto& item : qb.select) {
      node->projections.push_back(item.expr->Clone());
      node->output.push_back(ColumnSlot{"", item.alias, item.expr->type});
    }
    node->est_rows = 1;
    node->est_cost = P.cpu_tuple;
    BlockPlan out;
    out.out_stats.rows = 1;
    out.plan = std::move(node);
    return out;
  }

  // ---- 1. Classify WHERE conjuncts. ----
  bool lazy_limit_ok = qb.rownum_limit >= 0 && !qb.IsAggregating() &&
                       !qb.distinct && qb.order_by.empty();
  std::vector<const Expr*> tis_preds;
  std::map<std::string, std::vector<const Expr*>> rel_filters;
  std::vector<WherePred> join_preds;
  std::vector<const Expr*> deferred_preds;  // lazy under ROWNUM
  std::vector<const Expr*> const_preds;

  std::map<std::string, int> alias_to_rel;
  for (size_t i = 0; i < qb.from.size(); ++i) {
    alias_to_rel[qb.from[i].alias] = static_cast<int>(i);
  }
  auto alias_mask_of = [&](const Expr& e) {
    uint64_t mask = 0;
    VisitExprDeepConst(&e, [&](const Expr* x) {
      if (x->kind == ExprKind::kColumnRef) {
        auto it = alias_to_rel.find(x->table_alias);
        if (it != alias_to_rel.end()) mask |= 1ULL << it->second;
      }
    });
    return mask;
  };

  for (const auto& w : qb.where) {
    if (ContainsSubquery(*w)) {
      tis_preds.push_back(w.get());
      continue;
    }
    if (lazy_limit_ok && ContainsExpensivePredicate(*w)) {
      deferred_preds.push_back(w.get());
      continue;
    }
    std::set<std::string> aliases = CollectLocalAliases(*w);
    // Only aliases of this block count (correlated refs are bound values).
    std::set<std::string> local;
    for (const auto& a : aliases) {
      if (alias_to_rel.count(a) > 0) local.insert(a);
    }
    if (local.empty()) {
      const_preds.push_back(w.get());
    } else if (local.size() == 1 &&
               qb.from[static_cast<size_t>(
                           alias_to_rel[*local.begin()])].join !=
                   JoinKind::kLeftOuter) {
      rel_filters[*local.begin()].push_back(w.get());
    } else {
      // Multi-relation predicates, plus single-relation predicates on the
      // nullable side of an outer join: the latter must not be pushed below
      // the join (WHERE filters after null-extension), so they stay join
      // predicates and BlockJoinCoster applies them above the outer join.
      join_preds.push_back(WherePred{w.get(), alias_mask_of(*w)});
    }
  }

  // ---- 2. Relations + stats context. ----
  StatsContext ctx;
  std::vector<RelEntry> rels;
  rels.reserve(qb.from.size());
  for (size_t i = 0; i < qb.from.size(); ++i) {
    const TableRef& tr = qb.from[i];
    RelEntry entry;
    entry.tr = &tr;
    auto fit = rel_filters.find(tr.alias);
    if (fit != rel_filters.end()) entry.filters = fit->second;
    if (i == 0) {
      // Constant predicates: evaluate once at the driving relation.
      for (const Expr* c : const_preds) entry.filters.push_back(c);
    }
    if (tr.IsBaseTable()) {
      if (tr.table_def == nullptr) {
        return Status::Internal("unbound table ref: " + tr.alias);
      }
      ctx.AddRelation(tr.alias, StatsForTable(db_, tr));
    } else {
      auto sub = PlanBlock(*tr.derived);
      if (!sub.ok()) return sub.status();
      // Re-tag the view's output schema with the view alias, on a copy of
      // the root: the planned view may be shared with the annotation cache.
      std::shared_ptr<PlanNode> view = CopyNode(*sub->plan);
      for (auto& slot : view->output) slot.alias = tr.alias;
      entry.derived_rows = sub->plan->est_rows;
      entry.derived_cost = sub->plan->est_cost;
      entry.lateral = tr.lateral;
      RelStats vstats = sub->out_stats;
      vstats.rows = entry.derived_rows;
      ctx.AddRelation(tr.alias, std::move(vstats));
      entry.derived_plan = std::move(view);
    }
    rels.push_back(std::move(entry));
  }

  // Dependencies (partial join orders).
  std::vector<uint64_t> deps(rels.size(), 0);
  for (size_t i = 0; i < rels.size(); ++i) {
    const TableRef& tr = qb.from[i];
    uint64_t self = 1ULL << i;
    for (const auto& c : tr.join_conds) {
      deps[i] |= alias_mask_of(*c) & ~self;
    }
    if (tr.lateral && tr.derived != nullptr) {
      for (const auto& [alias, col] : CollectOuterRefs(*tr.derived)) {
        auto it = alias_to_rel.find(alias);
        if (it != alias_to_rel.end()) deps[i] |= 1ULL << it->second;
      }
    }
  }

  // ---- 3. Join order search. ----
  std::unique_ptr<SubsetJoinMemo> memo;
  if (join_memo_ != nullptr && qb.from.size() >= 2 && qb.from.size() <= 64) {
    std::vector<Hash128> rel_h;
    rel_h.reserve(qb.from.size());
    for (size_t i = 0; i < qb.from.size(); ++i) {
      const TableRef& tr = qb.from[i];
      MemoHash h;
      h.AddName(tr.alias);
      if (tr.IsBaseTable()) {
        h.Add(0);
        h.AddName(tr.table_name);
      } else {
        h.Add(1);
        h.Add(fingerprints_.OfBlock(*tr.derived).exact);
      }
      h.Add(static_cast<uint64_t>(tr.join));
      h.Add(tr.lateral ? 1 : 0);
      h.Add(tr.join_conds.size());
      for (const auto& c : tr.join_conds) {
        h.Add(fingerprints_.OfExpr(*c).exact);
      }
      h.Add(rels[i].filters.size());
      for (const Expr* f : rels[i].filters) {
        h.Add(fingerprints_.OfExpr(*f).exact);
      }
      // Dependencies as alias names, so the key is independent of absolute
      // FROM positions (masks are not transferable across blocks).
      for (size_t j = 0; j < qb.from.size(); ++j) {
        if (deps[i] & (1ULL << j)) h.AddName(qb.from[j].alias);
      }
      rel_h.push_back(h.h);
    }
    std::vector<std::pair<uint64_t, Hash128>> pred_h;
    pred_h.reserve(join_preds.size());
    for (const auto& p : join_preds) {
      MemoHash h;
      h.Add(fingerprints_.OfExpr(*p.expr).exact);
      pred_h.emplace_back(p.mask, h.h);
    }
    memo = std::make_unique<SubsetJoinMemo>(join_memo_, std::move(rel_h),
                                            std::move(pred_h));
  }
  BlockJoinCoster coster(this, P, ctx, std::move(rels), join_preds,
                         alias_to_rel);
  JoinOrderEnumerator enumerator(deps, &coster, cutoff_,
                                 /*dp_threshold=*/10, memo.get());
  auto joined = enumerator.Enumerate();
  if (!joined.ok()) return joined.status();
  PlanPtr top = std::move(joined->plan);
  double rows = joined->rows;
  double cost = joined->cost;

  // ---- 4. TIS subquery filter. ----
  if (!tis_preds.empty()) {
    auto node = std::make_shared<PlanNode>(PlanOp::kSubqueryFilter);
    node->output = top->output;
    double sel = 1.0;
    for (const Expr* p : tis_preds) {
      node->filter.push_back(p->Clone());
      sel *= Selectivity(*p, ctx);
      std::vector<const Expr*> subs;
      CollectSubqueryNodes(p, &subs);
      for (const Expr* s : subs) {
        auto subplan = PlanBlock(*s->subquery);
        if (!subplan.ok()) return subplan.status();
        // TIS execution count: one evaluation per distinct correlation
        // value (the engine caches results, paper §2.1.1/§3.4.4).
        auto outer_refs = CollectOuterRefs(*s->subquery);
        double distinct_keys = 1;
        std::vector<ExprPtr> keys;
        for (const auto& [alias, col] : outer_refs) {
          auto ref = MakeColumnRef(alias, col);
          const ColumnStats* cs = ctx.FindColumn(alias, col);
          distinct_keys *= (cs != nullptr && cs->ndv > 0) ? cs->ndv : rows;
          keys.push_back(std::move(ref));
        }
        double nexec = outer_refs.empty()
                           ? 1.0
                           : std::min(rows, std::max(1.0, distinct_keys));
        cost += nexec * subplan->plan->est_cost + rows * P.cpu_pred;
        node->subplans.push_back(std::move(subplan->plan));
        node->subplan_corr_keys.push_back(std::move(keys));
      }
      cost += rows * PredEvalCost({p}, P);
    }
    rows = std::max(rows * sel, 0.0);
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
    if (cost > cutoff_) return Status::CostCutoff();
  }

  // ---- 5. Lazy ROWNUM limit (before projection; the deferred predicates
  // reference FROM columns). ----
  if (lazy_limit_ok && qb.rownum_limit >= 0) {
    auto node = std::make_shared<PlanNode>(PlanOp::kLimit);
    node->limit = qb.rownum_limit;
    node->output = top->output;
    double sel = std::max(ConjSelectivity(deferred_preds, ctx), 1e-6);
    double scanned =
        std::min(rows, static_cast<double>(qb.rownum_limit) / sel);
    for (const Expr* p : deferred_preds) node->filter.push_back(p->Clone());
    cost += scanned * PredEvalCost(deferred_preds, P) + scanned * P.cpu_tuple;
    rows = std::min(static_cast<double>(qb.rownum_limit), rows * sel);
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
  }

  // Prepare (cloned) upper expressions for substitution.
  std::vector<ExprPtr> sel_exprs;
  for (const auto& item : qb.select) sel_exprs.push_back(item.expr->Clone());
  std::vector<ExprPtr> having_exprs;
  for (const auto& h : qb.having) having_exprs.push_back(h->Clone());
  std::vector<ExprPtr> order_exprs;
  for (const auto& o : qb.order_by) order_exprs.push_back(o.expr->Clone());

  // ---- 6. Aggregation. ----
  if (qb.IsAggregating()) {
    std::vector<const Expr*> agg_nodes;
    auto collect_aggs = [&](const ExprPtr& e) {
      VisitExprConst(e.get(), [&](const Expr* x) {
        if (x->kind != ExprKind::kAggregate) return;
        for (const Expr* seen : agg_nodes) {
          if (ExprEquals(*seen, *x)) return;
        }
        agg_nodes.push_back(x);
      });
    };
    for (const auto& e : sel_exprs) collect_aggs(e);
    for (const auto& e : having_exprs) collect_aggs(e);
    for (const auto& e : order_exprs) collect_aggs(e);

    auto node = std::make_shared<PlanNode>(PlanOp::kAggregate);
    // Patterns must be owned clones: the raw nodes live inside the very
    // expressions SubstituteSlots rewrites, and would dangle after the
    // first replacement.
    std::vector<ExprPtr> pattern_storage;
    std::vector<const Expr*> patterns;
    std::vector<std::string> names;
    for (size_t j = 0; j < agg_nodes.size(); ++j) {
      node->agg_exprs.push_back(agg_nodes[j]->Clone());
      pattern_storage.push_back(agg_nodes[j]->Clone());
      names.push_back("$a" + std::to_string(j));
    }
    for (size_t g = 0; g < qb.group_by.size(); ++g) {
      node->group_keys.push_back(qb.group_by[g]->Clone());
      pattern_storage.push_back(qb.group_by[g]->Clone());
      names.push_back("$g" + std::to_string(g));
    }
    for (const auto& pat : pattern_storage) patterns.push_back(pat.get());
    node->grouping_sets = qb.grouping_sets;
    // Output schema: group keys then aggregates.
    Schema schema;
    for (size_t g = 0; g < qb.group_by.size(); ++g) {
      schema.push_back(ColumnSlot{"", "$g" + std::to_string(g),
                                  qb.group_by[g]->type});
    }
    for (size_t j = 0; j < agg_nodes.size(); ++j) {
      schema.push_back(ColumnSlot{"", "$a" + std::to_string(j),
                                  agg_nodes[j]->type});
    }
    node->output = std::move(schema);

    double out_rows = 0;
    int num_sets = 1;
    if (qb.grouping_sets.empty()) {
      out_rows = GroupOutputRows(qb.group_by, nullptr, ctx, rows);
    } else {
      num_sets = static_cast<int>(qb.grouping_sets.size());
      for (const auto& set : qb.grouping_sets) {
        out_rows += GroupOutputRows(qb.group_by, &set, ctx, rows);
      }
    }
    cost += rows * P.agg_row * num_sets + out_rows * P.cpu_tuple;
    rows = std::max(1.0, out_rows);
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
    if (cost > cutoff_) return Status::CostCutoff();

    for (auto& e : sel_exprs) SubstituteSlots(&e, patterns, names);
    for (auto& e : having_exprs) SubstituteSlots(&e, patterns, names);
    for (auto& e : order_exprs) SubstituteSlots(&e, patterns, names);
  }

  // ---- 7. HAVING. ----
  if (!having_exprs.empty()) {
    std::vector<const Expr*> plain;
    std::vector<const Expr*> with_sub;
    for (const auto& h : having_exprs) {
      if (ContainsSubquery(*h)) {
        with_sub.push_back(h.get());
      } else {
        plain.push_back(h.get());
      }
    }
    if (!plain.empty()) {
      auto node = std::make_shared<PlanNode>(PlanOp::kFilter);
      node->output = top->output;
      for (const Expr* p : plain) node->filter.push_back(p->Clone());
      rows = std::max(rows * ConjSelectivity(plain, ctx), 0.0);
      cost += top->est_rows * PredEvalCost(plain, P);
      node->est_rows = rows;
      node->est_cost = cost;
      node->children.push_back(std::move(top));
      top = std::move(node);
    }
    if (!with_sub.empty()) {
      auto node = std::make_shared<PlanNode>(PlanOp::kSubqueryFilter);
      node->output = top->output;
      for (const Expr* p : with_sub) {
        node->filter.push_back(p->Clone());
        std::vector<const Expr*> subs;
        CollectSubqueryNodes(p, &subs);
        for (const Expr* s : subs) {
          auto subplan = PlanBlock(*s->subquery);
          if (!subplan.ok()) return subplan.status();
          auto outer_refs = CollectOuterRefs(*s->subquery);
          std::vector<ExprPtr> keys;
          for (const auto& [alias, col] : outer_refs) {
            keys.push_back(MakeColumnRef(alias, col));
          }
          cost += std::max(1.0, rows) * subplan->plan->est_cost * 0.5;
          node->subplans.push_back(std::move(subplan->plan));
          node->subplan_corr_keys.push_back(std::move(keys));
        }
        rows = std::max(rows * Selectivity(*p, ctx), 0.0);
      }
      node->est_rows = rows;
      node->est_cost = cost;
      node->children.push_back(std::move(top));
      top = std::move(node);
    }
  }

  // ---- 8. Window functions. ----
  {
    std::vector<const Expr*> win_nodes;
    auto collect_wins = [&](const ExprPtr& e) {
      VisitExprConst(e.get(), [&](const Expr* x) {
        if (x->kind != ExprKind::kWindow) return;
        for (const Expr* seen : win_nodes) {
          if (ExprEquals(*seen, *x)) return;
        }
        win_nodes.push_back(x);
      });
    };
    for (const auto& e : sel_exprs) collect_wins(e);
    for (const auto& e : order_exprs) collect_wins(e);
    if (!win_nodes.empty()) {
      auto node = std::make_shared<PlanNode>(PlanOp::kWindow);
      node->output = top->output;
      std::vector<ExprPtr> pattern_storage;
      std::vector<const Expr*> patterns;
      std::vector<std::string> names;
      for (size_t j = 0; j < win_nodes.size(); ++j) {
        node->window_exprs.push_back(win_nodes[j]->Clone());
        std::string name = "$w" + std::to_string(j);
        node->output.push_back(ColumnSlot{"", name, win_nodes[j]->type});
        pattern_storage.push_back(win_nodes[j]->Clone());
        names.push_back(name);
      }
      for (const auto& pat : pattern_storage) patterns.push_back(pat.get());
      cost += P.SortCost(rows) + rows * P.cpu_tuple;
      node->est_rows = rows;
      node->est_cost = cost;
      node->children.push_back(std::move(top));
      top = std::move(node);
      for (auto& e : sel_exprs) SubstituteSlots(&e, patterns, names);
      for (auto& e : order_exprs) SubstituteSlots(&e, patterns, names);
    }
  }

  // ---- 9. Projection. ----
  // The projection and the DISTINCT above it stay writable through step 11,
  // which may widen both with hidden sort columns: no cache, memo or other
  // plan can reach them before this block's plan is returned.
  auto proj = std::make_shared<PlanNode>(PlanOp::kProject);
  {
    double proj_cost = rows * P.cpu_tuple;
    for (size_t i = 0; i < qb.select.size(); ++i) {
      proj_cost += rows * CountExpensiveCalls(*sel_exprs[i]) * P.expensive_call;
      proj->output.push_back(
          ColumnSlot{"", qb.select[i].alias, sel_exprs[i]->type});
      proj->projections.push_back(std::move(sel_exprs[i]));
    }
    cost += proj_cost;
    proj->est_rows = rows;
    proj->est_cost = cost;
    proj->children.push_back(std::move(top));
    top = proj;
  }

  // ---- 10. DISTINCT. ----
  std::shared_ptr<PlanNode> distinct;
  if (qb.distinct) {
    distinct = std::make_shared<PlanNode>(PlanOp::kDistinct);
    distinct->output = top->output;
    double ndv = 1;
    for (const auto& item : qb.select) {
      ndv *= EstimateNdv(*item.expr, ctx, rows);
    }
    double out_rows = std::min(rows, std::max(1.0, ndv));
    cost += rows * P.agg_row;
    rows = out_rows;
    distinct->est_rows = rows;
    distinct->est_cost = cost;
    distinct->children.push_back(std::move(top));
    top = distinct;
  }

  // ---- 11. ORDER BY (above the projection; keys referencing select items
  // are substituted, others are appended as hidden projection slots). ----
  bool added_hidden = false;
  if (!qb.order_by.empty()) {
    std::vector<const Expr*> patterns;
    std::vector<std::string> names;
    for (size_t i = 0; i < qb.select.size(); ++i) {
      patterns.push_back(qb.select[i].expr.get());
      names.push_back(qb.select[i].alias);
    }
    // NOTE: sel_exprs were consumed by the projection; match against the
    // original select expressions (identical pre-substitution structure
    // only when no aggregation happened; after aggregation order_exprs were
    // substituted the same way the select exprs were, so matching against
    // the *projected* expressions is done via the projection node).
    auto node = std::make_shared<PlanNode>(PlanOp::kSort);
    node->output = top->output;
    for (size_t i = 0; i < qb.order_by.size(); ++i) {
      ExprPtr key = std::move(order_exprs[i]);
      // Try to match a projected expression.
      int match = -1;
      for (size_t j = 0; j < proj->projections.size(); ++j) {
        if (ExprEquals(*proj->projections[j], *key)) {
          match = static_cast<int>(j);
          break;
        }
      }
      if (match >= 0) {
        auto ref = MakeColumnRef("", proj->output[static_cast<size_t>(match)].name);
        ref->type = key->type;
        key = std::move(ref);
      } else {
        // Hidden sort column.
        std::string name = "$ord" + std::to_string(i);
        proj->output.push_back(ColumnSlot{"", name, key->type});
        proj->projections.push_back(std::move(key));
        auto ref = MakeColumnRef("", name);
        key = std::move(ref);
        added_hidden = true;
        // Propagate the widened schema up to `top`.
        if (distinct != nullptr) distinct->output = proj->output;
        node->output = top->output;
      }
      node->sort_keys.push_back(std::move(key));
      node->sort_ascending.push_back(qb.order_by[i].ascending);
    }
    cost += P.SortCost(rows);
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
  }

  // ---- 12. Plain ROWNUM limit. ----
  if (qb.rownum_limit >= 0 && !lazy_limit_ok) {
    auto node = std::make_shared<PlanNode>(PlanOp::kLimit);
    node->limit = qb.rownum_limit;
    node->output = top->output;
    rows = std::min(static_cast<double>(qb.rownum_limit), rows);
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
  }

  // ---- 13. Trim hidden sort columns for clean block output. ----
  if (added_hidden) {
    auto node = std::make_shared<PlanNode>(PlanOp::kProject);
    for (const auto& item : qb.select) {
      auto ref = MakeColumnRef("", item.alias);
      ref->type = item.expr->type;
      node->output.push_back(ColumnSlot{"", item.alias, item.expr->type});
      node->projections.push_back(std::move(ref));
    }
    node->est_rows = rows;
    node->est_cost = cost;
    node->children.push_back(std::move(top));
    top = std::move(node);
  }

  if (cost > cutoff_) return Status::CostCutoff();

  // ---- Output stats for the enclosing block. ----
  BlockPlan out;
  out.out_stats.rows = rows;
  for (const auto& item : qb.select) {
    ColumnStats cs;
    const Expr& e = *item.expr;
    if (e.kind == ExprKind::kColumnRef && e.corr_depth == 0) {
      const ColumnStats* base = ctx.FindColumn(e.table_alias, e.column_name);
      if (base != nullptr) {
        cs = *base;
        cs.ndv = std::min(cs.ndv, std::max(1.0, rows));
      } else {
        cs.ndv = std::max(1.0, rows / 10);
      }
    } else if (e.kind == ExprKind::kAggregate || e.kind == ExprKind::kWindow) {
      cs.ndv = std::max(1.0, rows * 0.9);
    } else {
      cs.ndv = std::max(1.0, rows / 10);
    }
    out.out_stats.columns[item.alias] = cs;
  }
  out.plan = std::move(top);
  return out;
}

}  // namespace cbqt
