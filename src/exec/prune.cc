#include "exec/prune.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sql/expr_util.h"

namespace cbqt {
namespace {

void MarkAll(std::vector<bool>* req) {
  std::fill(req->begin(), req->end(), true);
}

bool AllMarked(const std::vector<bool>& req) {
  return std::all_of(req.begin(), req.end(), [](bool b) { return b; });
}

std::vector<size_t> IdentityKept(size_t n) {
  std::vector<size_t> kept(n);
  for (size_t i = 0; i < n; ++i) kept[i] = i;
  return kept;
}

/// Marks the slots of `schema` that `e` binds to. Returns false when the
/// expression contains a subquery — its subplan reaches this schema through
/// frames in ways the walk cannot enumerate, so the caller must keep all
/// slots. References that do not resolve in `schema` belong to an enclosing
/// frame (kept whole by the conservative cases below) or to an alternate
/// naming of the same positions (derived-table renames; callers mark against
/// both namings). Over-marking is always safe; only a missed local binding
/// would be a bug.
bool MarkRefs(const Expr* e, const Schema& schema, std::vector<bool>* req) {
  bool precise = true;
  VisitExprConst(e, [&](const Expr* x) {
    if (x->kind == ExprKind::kSubquery) precise = false;
    if (x->kind != ExprKind::kColumnRef) return;
    int slot = FindSlot(schema, x->table_alias, x->column_name);
    if (slot >= 0) (*req)[static_cast<size_t>(slot)] = true;
  });
  return precise;
}

bool MarkList(const std::vector<ExprPtr>& list, const Schema& schema,
              std::vector<bool>* req) {
  bool precise = true;
  for (const auto& e : list) precise = MarkRefs(e.get(), schema, req) && precise;
  return precise;
}

Schema Select(const Schema& schema, const std::vector<size_t>& kept) {
  Schema out;
  out.reserve(kept.size());
  for (size_t i : kept) out.push_back(schema[i]);
  return out;
}

/// Prunes under `node` given `required[i]` = some ancestor needs slot i of
/// node->output (indices into the schema as it stands *before* this call).
/// Returns the original positions the node still produces, in order. Each
/// node rebuilds its output from its *own* original slots at the kept
/// positions — never from the child's — because pass-through nodes at
/// derived-table boundaries rename slots (same positions, different
/// (alias, name)) and ancestors bind against the renamed schema.
std::vector<size_t> PruneNode(PlanNode* node, std::vector<bool> required) {
  switch (node->op) {
    case PlanOp::kTableScan:
    case PlanOp::kIndexScan: {
      // The pushed filter evaluates against the scan's own output; probes
      // resolve through enclosing frames before any row exists, so they
      // impose nothing on the output (a name collision just over-marks).
      if (!MarkList(node->filter, node->output, &required)) MarkAll(&required);
      MarkList(node->probes, node->output, &required);
      if (AllMarked(required)) return IdentityKept(node->output.size());
      std::vector<size_t> kept;
      for (size_t i = 0; i < node->output.size(); ++i) {
        if (required[i]) kept.push_back(i);
      }
      node->output = Select(node->output, kept);
      return kept;
    }

    case PlanOp::kFilter:
    case PlanOp::kSort:
    case PlanOp::kLimit: {
      // Pass-through: output slot i is child slot i, possibly renamed.
      // Expressions on these nodes compile against the node's own schema
      // (filters) or the child's (sort keys); mark against both namings.
      PlanNode* child = MutablePlan(node->children[0]);
      std::vector<bool> creq = required;
      bool ok = MarkList(node->filter, node->output, &creq);
      ok = MarkList(node->filter, child->output, &creq) && ok;
      ok = MarkList(node->sort_keys, node->output, &creq) && ok;
      ok = MarkList(node->sort_keys, child->output, &creq) && ok;
      if (!ok) MarkAll(&creq);
      std::vector<size_t> kept = PruneNode(child, std::move(creq));
      node->output = Select(node->output, kept);
      return kept;
    }

    case PlanOp::kDistinct: {
      // Deduplicates on the whole row — every column is semantic.
      PlanNode* child = MutablePlan(node->children[0]);
      PruneNode(child, std::vector<bool>(child->output.size(), true));
      return IdentityKept(node->output.size());
    }

    case PlanOp::kSetOp: {
      // Branch outputs align by position and row equality drives the set
      // semantics; pruning any branch would misalign or change results.
      for (const auto& child : node->children) {
        PruneNode(MutablePlan(child),
                  std::vector<bool>(child->output.size(), true));
      }
      return IdentityKept(node->output.size());
    }

    case PlanOp::kWindow: {
      PlanNode* child = MutablePlan(node->children[0]);
      size_t cn = child->output.size();
      std::vector<bool> creq(cn, false);
      for (size_t i = 0; i < cn && i < required.size(); ++i) {
        creq[i] = required[i];
      }
      bool ok = MarkList(node->window_exprs, child->output, &creq);
      std::vector<bool> own(node->output.size(), false);
      ok = MarkList(node->window_exprs, node->output, &own) && ok;
      for (size_t i = 0; i < cn; ++i) creq[i] = creq[i] || own[i];
      if (!ok) MarkAll(&creq);
      std::vector<size_t> kept = PruneNode(child, std::move(creq));
      // Appended window slots stay at the tail of the output.
      for (size_t i = cn; i < node->output.size(); ++i) kept.push_back(i);
      node->output = Select(node->output, kept);
      return kept;
    }

    case PlanOp::kProject: {
      // Output is defined by the projections, not the child.
      if (!node->children.empty()) {
        PlanNode* child = MutablePlan(node->children[0]);
        std::vector<bool> creq(child->output.size(), false);
        bool ok = MarkList(node->projections, child->output, &creq);
        ok = MarkList(node->filter, child->output, &creq) && ok;
        if (!ok) MarkAll(&creq);
        PruneNode(child, std::move(creq));
      }
      return IdentityKept(node->output.size());
    }

    case PlanOp::kAggregate: {
      // Output is keys + aggregates, independent of the input width.
      PlanNode* child = MutablePlan(node->children[0]);
      std::vector<bool> creq(child->output.size(), false);
      bool ok = MarkList(node->group_keys, child->output, &creq);
      ok = MarkList(node->agg_exprs, child->output, &creq) && ok;
      ok = MarkList(node->filter, child->output, &creq) && ok;
      if (!ok) MarkAll(&creq);
      PruneNode(child, std::move(creq));
      return IdentityKept(node->output.size());
    }

    case PlanOp::kNestedLoopJoin:
    case PlanOp::kHashJoin:
    case PlanOp::kMergeJoin: {
      PlanNode* left = MutablePlan(node->children[0]);
      PlanNode* right = MutablePlan(node->children[1]);
      size_t ln = left->output.size();
      size_t rn = right->output.size();
      bool left_only = node->join_kind == JoinKind::kSemi ||
                       node->join_kind == JoinKind::kAnti ||
                       node->join_kind == JoinKind::kAntiNA;
      std::vector<bool> lreq(ln, false);
      std::vector<bool> rreq(rn, false);
      for (size_t i = 0; i < required.size(); ++i) {
        if (!required[i]) continue;
        if (i < ln) {
          lreq[i] = true;
        } else if (!left_only && i - ln < rn) {
          rreq[i - ln] = true;
        }
      }
      bool ok = MarkList(node->hash_left_keys, left->output, &lreq);
      ok = MarkList(node->hash_right_keys, right->output, &rreq) && ok;
      // Generic conditions and residual filters see the combined row.
      Schema combined = left->output;
      combined.insert(combined.end(), right->output.begin(),
                      right->output.end());
      std::vector<bool> creq(ln + rn, false);
      ok = MarkList(node->join_conds, combined, &creq) && ok;
      ok = MarkList(node->filter, combined, &creq) && ok;
      for (size_t i = 0; i < ln; ++i) lreq[i] = lreq[i] || creq[i];
      for (size_t i = 0; i < rn; ++i) rreq[i] = rreq[i] || creq[ln + i];
      if (!ok) {
        MarkAll(&lreq);
        MarkAll(&rreq);
      }
      // A rescanning right subtree resolves outer references into the left
      // row's frame by name; keep the left side whole.
      if (node->op == PlanOp::kNestedLoopJoin && node->rescan_right) {
        MarkAll(&lreq);
      }
      std::vector<size_t> lkept = PruneNode(left, std::move(lreq));
      std::vector<size_t> rkept = PruneNode(right, std::move(rreq));
      std::vector<size_t> kept = std::move(lkept);
      if (!left_only) {
        for (size_t i : rkept) kept.push_back(ln + i);
      }
      node->output = Select(node->output, kept);
      return kept;
    }

    case PlanOp::kSubqueryFilter: {
      // Subplans resolve correlated references into the outer row's frame by
      // name; keep the child whole, and prune inside each subplan on its own.
      PlanNode* child = MutablePlan(node->children[0]);
      PruneNode(child, std::vector<bool>(child->output.size(), true));
      for (const auto& sp : node->subplans) {
        PruneNode(MutablePlan(sp), std::vector<bool>(sp->output.size(), true));
      }
      return IdentityKept(node->output.size());
    }
  }
  return IdentityKept(node->output.size());
}

}  // namespace

PlanPtr PruneScanColumns(const PlanNode& root) {
  // Every node of the copy is private to this call, so it is pruned in
  // place. The caller consumes the root schema as-is.
  std::shared_ptr<PlanNode> copy = ClonePlan(root);
  PruneNode(copy.get(), std::vector<bool>(copy->output.size(), true));
  return copy;
}

}  // namespace cbqt
