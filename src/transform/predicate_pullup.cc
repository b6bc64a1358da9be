#include "transform/predicate_pullup.h"

#include "transform/transform_util.h"

namespace cbqt {

namespace {

struct PullupCandidate {
  QueryBlock* block;   // containing block (has the ROWNUM limit)
  size_t from_index;   // the view
  size_t conjunct;     // index into the view's WHERE
};

bool HasExpensiveCall(const Expr& e) {
  bool found = false;
  VisitExprConst(&e, [&](const Expr* x) {
    if (x->kind == ExprKind::kFuncCall &&
        x->scalar_fn == ScalarFn::kExpensive) {
      found = true;
    }
  });
  return found;
}

// Every column ref of `pred` must be exported by the view verbatim (a
// select item that is exactly that column ref), so the predicate can be
// rewritten over the view's outputs.
bool PullableThroughSelect(const QueryBlock& view, const Expr& pred,
                           std::map<std::string, std::string>* reverse_map) {
  for (const Expr* ref : CollectLocalColumnRefs(pred)) {
    bool found = false;
    for (const auto& item : view.select) {
      if (item.expr->kind == ExprKind::kColumnRef &&
          item.expr->table_alias == ref->table_alias &&
          item.expr->column_name == ref->column_name) {
        (*reverse_map)[ref->table_alias + "." + ref->column_name] = item.alias;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

std::vector<PullupCandidate> FindCandidates(QueryBlock* root) {
  std::vector<PullupCandidate> out;
  VisitAllBlocks(root, [&](QueryBlock* b) {
    if (b->IsSetOp() || b->rownum_limit < 0) return;
    for (size_t i = 0; i < b->from.size(); ++i) {
      const TableRef& tr = b->from[i];
      if (tr.IsBaseTable() || tr.lateral) continue;
      if (tr.join != JoinKind::kInner) continue;
      const QueryBlock& v = *tr.derived;
      if (v.IsSetOp()) continue;
      // Blocking operator, but not aggregation (filters do not commute with
      // GROUP BY).
      bool blocking = !v.order_by.empty() || v.distinct;
      if (!blocking || v.IsAggregating()) continue;
      for (size_t p = 0; p < v.where.size(); ++p) {
        const Expr& pred = *v.where[p];
        if (!HasExpensiveCall(pred)) continue;
        if (ContainsSubquery(pred) || ContainsRownum(pred)) continue;
        std::map<std::string, std::string> reverse_map;
        if (!PullableThroughSelect(v, pred, &reverse_map)) continue;
        out.push_back(PullupCandidate{b, i, p});
      }
    }
  });
  return out;
}

void ApplyPullup(QueryBlock* b, size_t from_index, size_t conjunct) {
  TableRef& tr = b->from[from_index];
  QueryBlock& v = *tr.derived;
  ExprPtr pred = std::move(v.where[conjunct]);
  v.where.erase(v.where.begin() + static_cast<long>(conjunct));
  std::map<std::string, std::string> reverse_map;
  PullableThroughSelect(v, *pred, &reverse_map);
  const std::string valias = tr.alias;
  RewriteColumnRefs(&pred, [&](const Expr& ref) -> ExprPtr {
    auto it = reverse_map.find(ref.table_alias + "." + ref.column_name);
    if (it == reverse_map.end()) return nullptr;
    ExprPtr out = MakeColumnRef(valias, it->second);
    out->type = ref.type;
    return out;
  });
  b->where.push_back(std::move(pred));
}

}  // namespace

int PredicatePullupTransformation::CountObjects(
    const TransformContext& ctx) const {
  return static_cast<int>(FindCandidates(ctx.root).size());
}

Status PredicatePullupTransformation::Apply(
    TransformContext& ctx, const std::vector<bool>& bits) const {
  auto candidates = FindCandidates(ctx.root);
  if (candidates.size() != bits.size()) {
    return Status::Internal("predicate pullup object count changed");
  }
  // Reverse order keeps smaller conjunct indices of the same view valid.
  for (size_t i = candidates.size(); i-- > 0;) {
    if (!bits[i]) continue;
    ApplyPullup(candidates[i].block, candidates[i].from_index,
                candidates[i].conjunct);
  }
  return Status::OK();
}

}  // namespace cbqt
