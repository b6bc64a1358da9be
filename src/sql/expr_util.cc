#include "sql/expr_util.h"

#include "common/str_util.h"

namespace cbqt {

void VisitExpr(Expr* e, const std::function<void(Expr*)>& fn) {
  if (e == nullptr) return;
  fn(e);
  for (auto& c : e->children) VisitExpr(c.get(), fn);
  for (auto& c : e->partition_by) VisitExpr(c.get(), fn);
  for (auto& c : e->win_order_by) VisitExpr(c.get(), fn);
}

void VisitExprConst(const Expr* e,
                    const std::function<void(const Expr*)>& fn) {
  if (e == nullptr) return;
  fn(e);
  for (const auto& c : e->children) VisitExprConst(c.get(), fn);
  for (const auto& c : e->partition_by) VisitExprConst(c.get(), fn);
  for (const auto& c : e->win_order_by) VisitExprConst(c.get(), fn);
}

void VisitExprDeep(Expr* e, const std::function<void(Expr*)>& fn) {
  if (e == nullptr) return;
  fn(e);
  for (auto& c : e->children) VisitExprDeep(c.get(), fn);
  for (auto& c : e->partition_by) VisitExprDeep(c.get(), fn);
  for (auto& c : e->win_order_by) VisitExprDeep(c.get(), fn);
  if (e->subquery != nullptr) {
    VisitAllExprs(e->subquery.get(), fn);
  }
}

void VisitExprDeepConst(const Expr* e,
                        const std::function<void(const Expr*)>& fn) {
  // A real const walk (not a const_cast wrapper): non-const traversal of a
  // CowPtr subquery edge would thaw it, deep-copying shared blocks on what
  // are read-only analysis paths.
  if (e == nullptr) return;
  fn(e);
  for (const auto& c : e->children) VisitExprDeepConst(c.get(), fn);
  for (const auto& c : e->partition_by) VisitExprDeepConst(c.get(), fn);
  for (const auto& c : e->win_order_by) VisitExprDeepConst(c.get(), fn);
  if (e->subquery != nullptr) {
    VisitAllExprsConst(e->subquery.peek(), fn);
  }
}

void VisitAllExprs(QueryBlock* qb, const std::function<void(Expr*)>& fn) {
  if (qb == nullptr) return;
  for (auto& b : qb->branches) VisitAllExprs(b.get(), fn);
  for (auto& item : qb->select) VisitExprDeep(item.expr.get(), fn);
  for (auto& tr : qb->from) {
    for (auto& c : tr.join_conds) VisitExprDeep(c.get(), fn);
    if (tr.derived != nullptr) VisitAllExprs(tr.derived.get(), fn);
  }
  for (auto& w : qb->where) VisitExprDeep(w.get(), fn);
  for (auto& g : qb->group_by) VisitExprDeep(g.get(), fn);
  for (auto& h : qb->having) VisitExprDeep(h.get(), fn);
  for (auto& o : qb->order_by) VisitExprDeep(o.expr.get(), fn);
}

void VisitAllExprsConst(const QueryBlock* qb,
                        const std::function<void(const Expr*)>& fn) {
  if (qb == nullptr) return;
  for (const auto& b : qb->branches) VisitAllExprsConst(b.peek(), fn);
  for (const auto& item : qb->select) VisitExprDeepConst(item.expr.get(), fn);
  for (const auto& tr : qb->from) {
    for (const auto& c : tr.join_conds) VisitExprDeepConst(c.get(), fn);
    if (tr.derived != nullptr) VisitAllExprsConst(tr.derived.peek(), fn);
  }
  for (const auto& w : qb->where) VisitExprDeepConst(w.get(), fn);
  for (const auto& g : qb->group_by) VisitExprDeepConst(g.get(), fn);
  for (const auto& h : qb->having) VisitExprDeepConst(h.get(), fn);
  for (const auto& o : qb->order_by) VisitExprDeepConst(o.expr.get(), fn);
}

void VisitLocalExprSlots(QueryBlock* qb,
                         const std::function<void(ExprPtr&)>& fn) {
  for (auto& item : qb->select) fn(item.expr);
  for (auto& tr : qb->from) {
    for (auto& c : tr.join_conds) fn(c);
  }
  for (auto& w : qb->where) fn(w);
  for (auto& g : qb->group_by) fn(g);
  for (auto& h : qb->having) fn(h);
  for (auto& o : qb->order_by) fn(o.expr);
}

void SplitConjuncts(ExprPtr e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->bop == BinaryOp::kAnd) {
    SplitConjuncts(std::move(e->children[0]), out);
    SplitConjuncts(std::move(e->children[1]), out);
    return;
  }
  out->push_back(std::move(e));
}

std::set<std::string> CollectLocalAliases(const Expr& e) {
  std::set<std::string> out;
  VisitExprConst(&e, [&out](const Expr* x) {
    if (x->kind == ExprKind::kColumnRef && x->corr_depth == 0) {
      out.insert(x->table_alias);
    }
  });
  return out;
}

std::vector<const Expr*> CollectLocalColumnRefs(const Expr& e) {
  std::vector<const Expr*> out;
  VisitExprConst(&e, [&out](const Expr* x) {
    if (x->kind == ExprKind::kColumnRef && x->corr_depth == 0) {
      out.push_back(x);
    }
  });
  return out;
}

std::vector<const Expr*> CollectAllColumnRefs(const Expr& e) {
  std::vector<const Expr*> out;
  VisitExprDeepConst(&e, [&out](const Expr* x) {
    if (x->kind == ExprKind::kColumnRef) out.push_back(x);
  });
  return out;
}

bool ExprUsesAlias(const Expr& e, const std::string& alias) {
  bool found = false;
  VisitExprDeepConst(&e, [&](const Expr* x) {
    if (x->kind == ExprKind::kColumnRef && x->table_alias == alias) {
      found = true;
    }
  });
  return found;
}

bool ContainsAggregate(const Expr& e) {
  bool found = false;
  VisitExprConst(&e, [&](const Expr* x) {
    if (x->kind == ExprKind::kAggregate) found = true;
  });
  return found;
}

bool ContainsSubquery(const Expr& e) {
  bool found = false;
  VisitExprConst(&e, [&](const Expr* x) {
    if (x->kind == ExprKind::kSubquery) found = true;
  });
  return found;
}

bool ContainsWindow(const Expr& e) {
  bool found = false;
  VisitExprConst(&e, [&](const Expr* x) {
    if (x->kind == ExprKind::kWindow) found = true;
  });
  return found;
}

bool ContainsRownum(const Expr& e) {
  bool found = false;
  VisitExprConst(&e, [&](const Expr* x) {
    if (x->kind == ExprKind::kRownum) found = true;
  });
  return found;
}

bool IsConstExpr(const Expr& e) {
  bool non_const = false;
  VisitExprConst(&e, [&](const Expr* x) {
    switch (x->kind) {
      case ExprKind::kColumnRef:
      case ExprKind::kSubquery:
      case ExprKind::kAggregate:
      case ExprKind::kWindow:
      case ExprKind::kRownum:
        non_const = true;
        break;
      default:
        break;
    }
  });
  return !non_const;
}

bool ContainsExpensivePredicate(const Expr& e) {
  bool found = false;
  VisitExprConst(&e, [&](const Expr* x) {
    if (x->kind == ExprKind::kFuncCall &&
        x->scalar_fn == ScalarFn::kExpensive) {
      found = true;
    }
    if (x->kind == ExprKind::kSubquery) found = true;
  });
  return found;
}

void VisitAllBlocks(QueryBlock* qb,
                    const std::function<void(QueryBlock*)>& fn) {
  if (qb == nullptr) return;
  fn(qb);
  for (auto& b : qb->branches) VisitAllBlocks(b.get(), fn);
  for (auto& tr : qb->from) {
    if (tr.derived != nullptr) VisitAllBlocks(tr.derived.get(), fn);
  }
  // Subquery blocks hang off expressions of this block.
  auto visit_subqueries = [&fn](Expr* e) {
    if (e->kind == ExprKind::kSubquery && e->subquery != nullptr) {
      VisitAllBlocks(e->subquery.get(), fn);
    }
  };
  for (auto& item : qb->select) VisitExpr(item.expr.get(), visit_subqueries);
  for (auto& tr : qb->from) {
    for (auto& c : tr.join_conds) VisitExpr(c.get(), visit_subqueries);
  }
  for (auto& w : qb->where) VisitExpr(w.get(), visit_subqueries);
  for (auto& g : qb->group_by) VisitExpr(g.get(), visit_subqueries);
  for (auto& h : qb->having) VisitExpr(h.get(), visit_subqueries);
  for (auto& o : qb->order_by) VisitExpr(o.expr.get(), visit_subqueries);
}

void VisitAllBlocksConst(const QueryBlock* qb,
                         const std::function<void(const QueryBlock*)>& fn) {
  if (qb == nullptr) return;
  fn(qb);
  for (const auto& b : qb->branches) VisitAllBlocksConst(b.peek(), fn);
  for (const auto& tr : qb->from) {
    if (tr.derived != nullptr) VisitAllBlocksConst(tr.derived.peek(), fn);
  }
  auto visit_subqueries = [&fn](const Expr* e) {
    if (e->kind == ExprKind::kSubquery && e->subquery != nullptr) {
      VisitAllBlocksConst(e->subquery.peek(), fn);
    }
  };
  for (const auto& item : qb->select) {
    VisitExprConst(item.expr.get(), visit_subqueries);
  }
  for (const auto& tr : qb->from) {
    for (const auto& c : tr.join_conds) {
      VisitExprConst(c.get(), visit_subqueries);
    }
  }
  for (const auto& w : qb->where) VisitExprConst(w.get(), visit_subqueries);
  for (const auto& g : qb->group_by) VisitExprConst(g.get(), visit_subqueries);
  for (const auto& h : qb->having) VisitExprConst(h.get(), visit_subqueries);
  for (const auto& o : qb->order_by) {
    VisitExprConst(o.expr.get(), visit_subqueries);
  }
}

namespace {

// Thaws and returns the k-th subquery block hanging off `qb`'s own
// expressions, counted in the same pre-order as VisitAllBlocks' subquery
// descent (select, join_conds, where, group_by, having, order_by).
QueryBlock* WritableSubqueryEdge(QueryBlock* qb, size_t k) {
  QueryBlock* out = nullptr;
  size_t seen = 0;
  auto scan = [&](Expr* e) {
    VisitExpr(e, [&](Expr* x) {
      if (x->kind == ExprKind::kSubquery && x->subquery != nullptr) {
        if (seen == k && out == nullptr) out = x->subquery.write();
        ++seen;
      }
    });
  };
  for (auto& item : qb->select) scan(item.expr.get());
  for (auto& tr : qb->from) {
    for (auto& c : tr.join_conds) scan(c.get());
  }
  for (auto& w : qb->where) scan(w.get());
  for (auto& g : qb->group_by) scan(g.get());
  for (auto& h : qb->having) scan(h.get());
  for (auto& o : qb->order_by) scan(o.expr.get());
  return out;
}

void VisitBlocksWithPathImpl(
    const QueryBlock* qb, std::vector<BlockStep>* path,
    const std::function<void(const QueryBlock*, const std::vector<BlockStep>&)>&
        fn) {
  if (qb == nullptr) return;
  fn(qb, *path);
  for (size_t i = 0; i < qb->branches.size(); ++i) {
    path->push_back({BlockStep::Kind::kBranch, i});
    VisitBlocksWithPathImpl(qb->branches[i].peek(), path, fn);
    path->pop_back();
  }
  for (size_t i = 0; i < qb->from.size(); ++i) {
    if (qb->from[i].derived == nullptr) continue;
    path->push_back({BlockStep::Kind::kDerived, i});
    VisitBlocksWithPathImpl(qb->from[i].derived.peek(), path, fn);
    path->pop_back();
  }
  size_t sub_idx = 0;
  auto visit_subqueries = [&](const Expr* e) {
    VisitExprConst(e, [&](const Expr* x) {
      if (x->kind == ExprKind::kSubquery && x->subquery != nullptr) {
        path->push_back({BlockStep::Kind::kSubquery, sub_idx});
        VisitBlocksWithPathImpl(x->subquery.peek(), path, fn);
        path->pop_back();
        ++sub_idx;
      }
    });
  };
  for (const auto& item : qb->select) visit_subqueries(item.expr.get());
  for (const auto& tr : qb->from) {
    for (const auto& c : tr.join_conds) visit_subqueries(c.get());
  }
  for (const auto& w : qb->where) visit_subqueries(w.get());
  for (const auto& g : qb->group_by) visit_subqueries(g.get());
  for (const auto& h : qb->having) visit_subqueries(h.get());
  for (const auto& o : qb->order_by) visit_subqueries(o.expr.get());
}

bool MutateBlocksCowImpl(const QueryBlock* node,
                         const std::function<QueryBlock*()>& thaw,
                         const std::function<bool(const QueryBlock&)>& decide,
                         const std::function<bool(QueryBlock*)>& mutate) {
  if (node == nullptr) return false;
  bool changed = false;
  // After any thaw below, `node` can be a stale pre-thaw peek. That is safe:
  // a thaw clones the block faithfully and shares its children, so the stale
  // copy's containers and nested-block targets match the writable copy's
  // until `mutate` runs — and when mutate runs we switch to the writable
  // block so its structural changes are visible to the descent.
  const QueryBlock* cur = node;
  if (decide(*cur)) {
    QueryBlock* w = thaw();
    if (mutate(w)) changed = true;
    cur = w;
  }
  for (size_t i = 0; i < cur->branches.size(); ++i) {
    std::function<QueryBlock*()> child = [&thaw, i]() {
      return thaw()->branches[i].write();
    };
    if (MutateBlocksCowImpl(cur->branches[i].peek(), child, decide, mutate)) {
      changed = true;
    }
  }
  for (size_t i = 0; i < cur->from.size(); ++i) {
    if (cur->from[i].derived == nullptr) continue;
    std::function<QueryBlock*()> child = [&thaw, i]() {
      return thaw()->from[i].derived.write();
    };
    if (MutateBlocksCowImpl(cur->from[i].derived.peek(), child, decide,
                            mutate)) {
      changed = true;
    }
  }
  // Subquery blocks are addressed positionally (k-th subquery node) because
  // thawing a block clones its expression nodes, invalidating pointers.
  size_t sub_idx = 0;
  auto visit_subqueries = [&](const Expr* e) {
    VisitExprConst(e, [&](const Expr* x) {
      if (x->kind == ExprKind::kSubquery && x->subquery != nullptr) {
        size_t k = sub_idx;
        ++sub_idx;
        std::function<QueryBlock*()> child = [&thaw, k]() {
          return WritableSubqueryEdge(thaw(), k);
        };
        if (MutateBlocksCowImpl(x->subquery.peek(), child, decide, mutate)) {
          changed = true;
        }
      }
    });
  };
  for (const auto& item : cur->select) visit_subqueries(item.expr.get());
  for (const auto& tr : cur->from) {
    for (const auto& c : tr.join_conds) visit_subqueries(c.get());
  }
  for (const auto& w : cur->where) visit_subqueries(w.get());
  for (const auto& g : cur->group_by) visit_subqueries(g.get());
  for (const auto& h : cur->having) visit_subqueries(h.get());
  for (const auto& o : cur->order_by) visit_subqueries(o.expr.get());
  return changed;
}

}  // namespace

void VisitAllBlocksWithPath(
    const QueryBlock* qb,
    const std::function<void(const QueryBlock*, const std::vector<BlockStep>&)>&
        fn) {
  std::vector<BlockStep> path;
  VisitBlocksWithPathImpl(qb, &path, fn);
}

QueryBlock* ThawBlockPath(QueryBlock* root,
                          const std::vector<BlockStep>& path) {
  QueryBlock* w = root;
  for (const auto& step : path) {
    if (w == nullptr) return nullptr;
    switch (step.kind) {
      case BlockStep::Kind::kBranch:
        if (step.index >= w->branches.size()) return nullptr;
        w = w->branches[step.index].write();
        break;
      case BlockStep::Kind::kDerived:
        if (step.index >= w->from.size()) return nullptr;
        w = w->from[step.index].derived.write();
        break;
      case BlockStep::Kind::kSubquery:
        w = WritableSubqueryEdge(w, step.index);
        break;
    }
  }
  return w;
}

bool MutateBlocksCow(QueryBlock* root,
                     const std::function<bool(const QueryBlock&)>& decide,
                     const std::function<bool(QueryBlock*)>& mutate) {
  std::function<QueryBlock*()> thaw = [root]() { return root; };
  return MutateBlocksCowImpl(root, thaw, decide, mutate);
}

void RenameTableAlias(QueryBlock* qb, const std::string& old_alias,
                      const std::string& new_alias) {
  VisitAllBlocks(qb, [&](QueryBlock* b) {
    int idx = b->FindFrom(old_alias);
    if (idx >= 0) b->from[static_cast<size_t>(idx)].alias = new_alias;
  });
  VisitAllExprs(qb, [&](Expr* e) {
    if (e->kind == ExprKind::kColumnRef && e->table_alias == old_alias) {
      e->table_alias = new_alias;
    }
  });
}

void RewriteColumnRefs(ExprPtr* e,
                       const std::function<ExprPtr(const Expr& colref)>& fn) {
  if (*e == nullptr) return;
  if ((*e)->kind == ExprKind::kColumnRef) {
    ExprPtr replacement = fn(**e);
    if (replacement != nullptr) *e = std::move(replacement);
    return;
  }
  for (auto& c : (*e)->children) RewriteColumnRefs(&c, fn);
  for (auto& c : (*e)->partition_by) RewriteColumnRefs(&c, fn);
  for (auto& c : (*e)->win_order_by) RewriteColumnRefs(&c, fn);
  if ((*e)->subquery != nullptr) {
    RewriteColumnRefsInBlock((*e)->subquery.get(), fn);
  }
}

void RewriteColumnRefsInBlock(
    QueryBlock* qb, const std::function<ExprPtr(const Expr& colref)>& fn) {
  VisitLocalExprSlots(qb, [&](ExprPtr& slot) {
    RewriteColumnRefs(&slot, fn);
  });
  for (auto& b : qb->branches) RewriteColumnRefsInBlock(b.get(), fn);
  for (auto& tr : qb->from) {
    if (tr.derived != nullptr) RewriteColumnRefsInBlock(tr.derived.get(), fn);
  }
}

bool IsJoinPredicate(const Expr& e, const Expr** left, const Expr** right) {
  if (e.kind != ExprKind::kBinary || !IsComparisonOp(e.bop)) return false;
  const Expr* l = e.children[0].get();
  const Expr* r = e.children[1].get();
  if (l->kind != ExprKind::kColumnRef || r->kind != ExprKind::kColumnRef) {
    return false;
  }
  if (l->corr_depth != 0 || r->corr_depth != 0) return false;
  if (l->table_alias == r->table_alias) return false;
  if (left != nullptr) *left = l;
  if (right != nullptr) *right = r;
  return true;
}

bool IsSingleTableFilter(const Expr& e, std::string* alias) {
  if (ContainsSubquery(e)) return false;
  std::set<std::string> aliases = CollectLocalAliases(e);
  if (aliases.size() != 1) return false;
  if (alias != nullptr) *alias = *aliases.begin();
  return true;
}

void CollectDefinedAliases(const QueryBlock& qb, std::set<std::string>* out) {
  VisitAllBlocksConst(&qb, [out](const QueryBlock* b) {
    for (const auto& tr : b->from) out->insert(tr.alias);
  });
}

std::string GlobalUniqueAlias(const QueryBlock& root,
                              const std::string& prefix) {
  std::set<std::string> used;
  CollectDefinedAliases(root, &used);
  for (int i = 1;; ++i) {
    std::string candidate = prefix + "_" + std::to_string(i);
    if (used.count(candidate) == 0) return candidate;
  }
}

}  // namespace cbqt
