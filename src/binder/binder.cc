#include "binder/binder.h"

#include <functional>

#include "common/str_util.h"
#include "sql/expr_util.h"

namespace cbqt {

std::vector<OutputColumn> BlockOutputColumns(const QueryBlock& qb) {
  if (qb.IsSetOp()) {
    if (qb.branches.empty()) return {};
    return BlockOutputColumns(*qb.branches[0]);
  }
  std::vector<OutputColumn> out;
  out.reserve(qb.select.size());
  for (const auto& item : qb.select) {
    out.push_back(OutputColumn{item.alias, item.expr->type});
  }
  return out;
}

namespace {

// Predicate positions — WHERE / HAVING / ON conjuncts and AND / OR / NOT
// operands — must be boolean. Both evaluators read a predicate's value as
// a truth value; NULL-typed (kUnknown) operands are fine.
Status RequireBoolean(const Expr& e, const char* position) {
  if (e.type == DataType::kBool || e.type == DataType::kUnknown) {
    return Status::OK();
  }
  return Status::BindError(std::string(position) +
                           " must be a boolean expression, got " +
                           DataTypeName(e.type));
}

Status RequireBooleanList(const std::vector<ExprPtr>& preds,
                          const char* position) {
  for (const auto& p : preds) {
    CBQT_RETURN_IF_ERROR(RequireBoolean(*p, position));
  }
  return Status::OK();
}

// A scalar function call must name a registered function with the right
// argument count, and arguments whose static type the function accepts.
Status CheckScalarFnCall(const Expr& e) {
  if (e.scalar_fn == ScalarFn::kNone) {
    return Status::BindError("unknown function: " + e.func_name);
  }
  const ScalarFnInfo& info = GetScalarFnInfo(e.scalar_fn);
  const int n = static_cast<int>(e.children.size());
  if (n < info.min_args || n > info.max_args) {
    std::string want = std::to_string(info.min_args);
    if (info.max_args != info.min_args) {
      want += ".." + std::to_string(info.max_args);
    }
    return Status::BindError(e.func_name + " takes " + want +
                             " argument(s), got " + std::to_string(n));
  }
  for (const auto& arg : e.children) {
    DataType t = arg->type;
    bool bad = false;
    if (info.arg_kind == FnArgKind::kString) {
      bad = t != DataType::kString && t != DataType::kUnknown;
    } else if (info.arg_kind == FnArgKind::kNumeric) {
      bad = t == DataType::kString || t == DataType::kBool;
    }
    if (bad) {
      return Status::BindError(e.func_name + " does not accept a " +
                               DataTypeName(t) + " argument");
    }
  }
  return Status::OK();
}

bool BlockDeclaresAlias(const QueryBlock& qb, const std::string& alias) {
  return qb.FindFrom(alias) >= 0;
}

// Renames references to `old_a` throughout `b`'s expressions and nested
// blocks, stopping at any nested block that redeclares `old_a` (SQL
// shadowing). The caller has already renamed the declaring FROM entry.
void RenameRefsScoped(QueryBlock* b, const std::string& old_a,
                      const std::string& new_a);

void RenameRefsScopedExpr(Expr* e, const std::string& old_a,
                          const std::string& new_a) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kColumnRef && e->table_alias == old_a) {
    e->table_alias = new_a;
  }
  for (auto& c : e->children) RenameRefsScopedExpr(c.get(), old_a, new_a);
  for (auto& c : e->partition_by) RenameRefsScopedExpr(c.get(), old_a, new_a);
  for (auto& c : e->win_order_by) RenameRefsScopedExpr(c.get(), old_a, new_a);
  if (e->subquery != nullptr && !BlockDeclaresAlias(*e->subquery.peek(), old_a)) {
    RenameRefsScoped(e->subquery.get(), old_a, new_a);
  }
}

void RenameRefsScoped(QueryBlock* b, const std::string& old_a,
                      const std::string& new_a) {
  for (auto& item : b->select) RenameRefsScopedExpr(item.expr.get(), old_a, new_a);
  for (auto& tr : b->from) {
    for (auto& c : tr.join_conds) RenameRefsScopedExpr(c.get(), old_a, new_a);
    if (tr.derived != nullptr && !BlockDeclaresAlias(*tr.derived.peek(), old_a)) {
      RenameRefsScoped(tr.derived.get(), old_a, new_a);
    }
  }
  for (auto& w : b->where) RenameRefsScopedExpr(w.get(), old_a, new_a);
  for (auto& g : b->group_by) RenameRefsScopedExpr(g.get(), old_a, new_a);
  for (auto& h : b->having) RenameRefsScopedExpr(h.get(), old_a, new_a);
  for (auto& o : b->order_by) RenameRefsScopedExpr(o.expr.get(), old_a, new_a);
  for (auto& br : b->branches) {
    if (!BlockDeclaresAlias(*br.peek(), old_a)) {
      RenameRefsScoped(br.get(), old_a, new_a);
    }
  }
}

}  // namespace

Status BindQuery(const Database& db, QueryBlock* root) {
  Binder binder(db);
  return binder.Bind(root);
}

Status Binder::Bind(QueryBlock* root) {
  scopes_.clear();
  used_aliases_.clear();
  return BindBlock(root);
}

bool Binder::TrySkipSharedSubtree(CowPtr<QueryBlock>& edge) {
  if (!edge.shared()) return false;
  std::set<std::string> defined;
  CollectDefinedAliases(*edge.peek(), &defined);
  for (const auto& a : defined) {
    if (used_aliases_.count(a) > 0) return false;
  }
  used_aliases_.insert(defined.begin(), defined.end());
  return true;
}

Status Binder::BindBlock(QueryBlock* qb) {
  if (qb->IsSetOp()) {
    if (qb->branches.size() < 2) {
      return Status::BindError("set operation requires at least two branches");
    }
    size_t arity = 0;
    for (size_t i = 0; i < qb->branches.size(); ++i) {
      if (!TrySkipSharedSubtree(qb->branches[i])) {
        CBQT_RETURN_IF_ERROR(BindBlock(qb->branches[i].get()));
      }
      size_t n = BlockOutputColumns(*qb->branches[i].peek()).size();
      if (i == 0) {
        arity = n;
      } else if (n != arity) {
        return Status::BindError("set operation branches differ in arity");
      }
    }
    return Status::OK();
  }
  return BindRegularBlock(qb);
}

Status Binder::EnsureUniqueAliases(QueryBlock* qb) {
  for (auto& tr : qb->from) {
    if (used_aliases_.count(tr.alias) > 0) {
      std::string fresh;
      for (int i = 2;; ++i) {
        fresh = tr.alias + "_" + std::to_string(i);
        if (used_aliases_.count(fresh) == 0) break;
      }
      std::string old = tr.alias;
      tr.alias = fresh;
      RenameRefsScoped(qb, old, fresh);
    }
    used_aliases_.insert(tr.alias);
  }
  return Status::OK();
}

Status Binder::ExpandStars(QueryBlock* qb) {
  std::vector<SelectItem> expanded;
  for (auto& item : qb->select) {
    Expr* e = item.expr.get();
    if (e->kind != ExprKind::kColumnRef || e->column_name != "*") {
      expanded.push_back(std::move(item));
      continue;
    }
    auto expand_ref = [&](const TableRef& tr) -> Status {
      if (tr.IsBaseTable()) {
        if (tr.table_def == nullptr) {
          return Status::BindError("unbound table in star expansion");
        }
        for (const auto& col : tr.table_def->columns) {
          SelectItem si;
          si.expr = MakeColumnRef(tr.alias, col.name);
          si.alias = col.name;
          expanded.push_back(std::move(si));
        }
      } else {
        for (const auto& col : BlockOutputColumns(*tr.derived)) {
          SelectItem si;
          si.expr = MakeColumnRef(tr.alias, col.name);
          si.alias = col.name;
          expanded.push_back(std::move(si));
        }
      }
      return Status::OK();
    };
    if (e->table_alias.empty()) {
      for (const auto& tr : qb->from) CBQT_RETURN_IF_ERROR(expand_ref(tr));
    } else {
      int idx = qb->FindFrom(e->table_alias);
      if (idx < 0) {
        return Status::BindError("unknown alias in star expansion: " +
                                 e->table_alias);
      }
      CBQT_RETURN_IF_ERROR(expand_ref(qb->from[static_cast<size_t>(idx)]));
    }
  }
  qb->select = std::move(expanded);
  return Status::OK();
}

Status Binder::BindRegularBlock(QueryBlock* qb) {
  CBQT_RETURN_IF_ERROR(EnsureUniqueAliases(qb));
  scopes_.push_back(Scope{qb});
  Status st = Status::OK();

  // 1. FROM entries, in order (lateral views may reference earlier ones).
  for (auto& tr : qb->from) {
    if (tr.IsBaseTable()) {
      tr.table_def = db_.catalog().FindTable(tr.table_name);
      if (tr.table_def == nullptr) {
        st = Status::BindError("no such table: " + tr.table_name);
        break;
      }
    } else if (!TrySkipSharedSubtree(tr.derived)) {
      st = BindBlock(tr.derived.get());
      if (!st.ok()) break;
    }
  }

  // 2. Star expansion (needs bound FROM).
  if (st.ok()) st = ExpandStars(qb);

  // 3. Expressions.
  if (st.ok()) {
    for (auto& tr : qb->from) {
      for (auto& c : tr.join_conds) {
        st = BindExpr(c.get(), qb, false);
        if (!st.ok()) break;
      }
      if (st.ok()) st = RequireBooleanList(tr.join_conds, "ON condition");
      if (!st.ok()) break;
    }
  }
  if (st.ok()) {
    for (auto& w : qb->where) {
      st = BindExpr(w.get(), qb, false);
      if (!st.ok()) break;
    }
    if (st.ok()) st = RequireBooleanList(qb->where, "WHERE condition");
  }
  if (st.ok()) {
    for (auto& g : qb->group_by) {
      st = BindExpr(g.get(), qb, false);
      if (!st.ok()) break;
    }
  }
  if (st.ok()) {
    for (auto& item : qb->select) {
      st = BindExpr(item.expr.get(), qb, false);
      if (!st.ok()) break;
    }
  }
  if (st.ok()) {
    for (auto& h : qb->having) {
      st = BindExpr(h.get(), qb, false);
      if (!st.ok()) break;
    }
    if (st.ok()) st = RequireBooleanList(qb->having, "HAVING condition");
  }
  if (st.ok()) {
    for (auto& o : qb->order_by) {
      st = BindExpr(o.expr.get(), qb, true);
      if (!st.ok()) break;
    }
  }

  // 4. Select-item aliases (unique within the block).
  if (st.ok()) {
    std::set<std::string> used;
    int counter = 0;
    for (auto& item : qb->select) {
      std::string base = item.alias;
      if (base.empty()) {
        if (item.expr->kind == ExprKind::kColumnRef) {
          base = item.expr->column_name;
        } else {
          base = "c" + std::to_string(counter);
        }
      }
      std::string name = base;
      int suffix = 2;
      while (used.count(name) > 0) {
        name = base + "_" + std::to_string(suffix++);
      }
      item.alias = name;
      used.insert(name);
      ++counter;
    }
  }

  if (st.ok()) ExtractRownumLimit(qb);

  scopes_.pop_back();
  return st;
}

Status Binder::BindExpr(Expr* e, QueryBlock* qb, bool allow_order_alias) {
  if (e == nullptr) return Status::OK();
  if (e->kind == ExprKind::kColumnRef) {
    CBQT_RETURN_IF_ERROR(ResolveColumnRef(e, qb, allow_order_alias));
    // ResolveColumnRef may have replaced the node with a select-item copy;
    // if it is no longer a column ref, bind the replacement.
    if (e->kind != ExprKind::kColumnRef) {
      return BindExpr(e, qb, false);
    }
    return Status::OK();
  }
  for (auto& c : e->children) {
    CBQT_RETURN_IF_ERROR(BindExpr(c.get(), qb, allow_order_alias));
  }
  for (auto& c : e->partition_by) {
    CBQT_RETURN_IF_ERROR(BindExpr(c.get(), qb, false));
  }
  for (auto& c : e->win_order_by) {
    CBQT_RETURN_IF_ERROR(BindExpr(c.get(), qb, false));
  }
  if (e->kind == ExprKind::kSubquery) {
    if (!TrySkipSharedSubtree(e->subquery)) {
      CBQT_RETURN_IF_ERROR(BindBlock(e->subquery.get()));
    }
    size_t out_cols = BlockOutputColumns(*e->subquery.peek()).size();
    if ((e->subkind == SubqueryKind::kIn ||
         e->subkind == SubqueryKind::kNotIn) &&
        e->children.size() != out_cols) {
      return Status::BindError("IN operand count does not match subquery");
    }
    if ((e->subkind == SubqueryKind::kAnyCmp ||
         e->subkind == SubqueryKind::kAllCmp ||
         e->subkind == SubqueryKind::kScalar) &&
        out_cols != 1) {
      return Status::BindError("subquery must return exactly one column");
    }
  }
  return DeriveType(e);
}

Status Binder::ResolveColumnRef(Expr* e, QueryBlock* qb,
                                bool allow_order_alias) {
  if (e->column_name == "*") {
    return Status::BindError("'*' in an invalid position");
  }
  auto column_in_ref = [&](const TableRef& tr, const std::string& col,
                           DataType* type) -> bool {
    if (tr.IsBaseTable()) {
      if (tr.table_def == nullptr) return false;
      if (col == "rowid") {
        *type = DataType::kInt64;
        return true;
      }
      int idx = tr.table_def->FindColumn(col);
      if (idx < 0) return false;
      *type = tr.table_def->columns[static_cast<size_t>(idx)].type;
      return true;
    }
    for (const auto& oc : BlockOutputColumns(*tr.derived)) {
      if (oc.name == col) {
        *type = oc.type;
        return true;
      }
    }
    return false;
  };

  if (!e->table_alias.empty()) {
    for (int d = static_cast<int>(scopes_.size()) - 1; d >= 0; --d) {
      QueryBlock* b = scopes_[static_cast<size_t>(d)].block;
      int idx = b->FindFrom(e->table_alias);
      if (idx < 0) continue;
      DataType type = DataType::kUnknown;
      if (!column_in_ref(b->from[static_cast<size_t>(idx)], e->column_name,
                         &type)) {
        return Status::BindError("no column " + e->column_name + " in " +
                                 e->table_alias);
      }
      e->corr_depth = static_cast<int>(scopes_.size()) - 1 - d;
      e->type = type;
      return Status::OK();
    }
    return Status::BindError("unknown table alias: " + e->table_alias);
  }

  // Unqualified: ORDER BY may reference a select-item alias first.
  if (allow_order_alias) {
    int si = qb->FindSelectItem(e->column_name);
    if (si >= 0) {
      ExprPtr copy = qb->select[static_cast<size_t>(si)].expr->Clone();
      *e = std::move(*copy);
      return Status::OK();
    }
  }
  for (int d = static_cast<int>(scopes_.size()) - 1; d >= 0; --d) {
    QueryBlock* b = scopes_[static_cast<size_t>(d)].block;
    int matches = 0;
    const TableRef* found = nullptr;
    DataType found_type = DataType::kUnknown;
    for (const auto& tr : b->from) {
      DataType type = DataType::kUnknown;
      if (column_in_ref(tr, e->column_name, &type)) {
        ++matches;
        found = &tr;
        found_type = type;
      }
    }
    if (matches > 1) {
      return Status::BindError("ambiguous column: " + e->column_name);
    }
    if (matches == 1) {
      e->table_alias = found->alias;
      e->corr_depth = static_cast<int>(scopes_.size()) - 1 - d;
      e->type = found_type;
      return Status::OK();
    }
  }
  // Last resort: a select-item alias used in HAVING/GROUP BY position.
  int si = qb->FindSelectItem(e->column_name);
  if (si >= 0) {
    ExprPtr copy = qb->select[static_cast<size_t>(si)].expr->Clone();
    *e = std::move(*copy);
    return Status::OK();
  }
  return Status::BindError("unknown column: " + e->column_name);
}

Status Binder::DeriveType(Expr* e) {
  switch (e->kind) {
    case ExprKind::kColumnRef:
      break;  // set during resolution
    case ExprKind::kLiteral:
      switch (e->literal.kind()) {
        case ValueKind::kInt64:
          e->type = DataType::kInt64;
          break;
        case ValueKind::kDouble:
          e->type = DataType::kDouble;
          break;
        case ValueKind::kString:
          e->type = DataType::kString;
          break;
        case ValueKind::kBool:
          e->type = DataType::kBool;
          break;
        case ValueKind::kNull:
          e->type = DataType::kUnknown;
          break;
      }
      break;
    case ExprKind::kBinary:
      if (e->bop == BinaryOp::kAnd || e->bop == BinaryOp::kOr) {
        const char* op = e->bop == BinaryOp::kAnd ? "AND operand" : "OR operand";
        CBQT_RETURN_IF_ERROR(RequireBoolean(*e->children[0], op));
        CBQT_RETURN_IF_ERROR(RequireBoolean(*e->children[1], op));
      }
      if (IsComparisonOp(e->bop) || e->bop == BinaryOp::kAnd ||
          e->bop == BinaryOp::kOr || e->bop == BinaryOp::kNullSafeEq) {
        e->type = DataType::kBool;
      } else {
        e->type = ArithmeticResultType(e->children[0]->type,
                                       e->children[1]->type);
        if (e->bop == BinaryOp::kDiv) e->type = DataType::kDouble;
      }
      break;
    case ExprKind::kUnary:
      if (e->uop == UnaryOp::kNot) {
        CBQT_RETURN_IF_ERROR(RequireBoolean(*e->children[0], "NOT operand"));
      }
      if (e->uop == UnaryOp::kNeg) {
        e->type = e->children[0]->type;
      } else {
        e->type = DataType::kBool;
      }
      break;
    case ExprKind::kAggregate:
      switch (e->agg) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          e->type = DataType::kInt64;
          break;
        case AggFunc::kAvg:
          e->type = DataType::kDouble;
          break;
        case AggFunc::kSum:
        case AggFunc::kMin:
        case AggFunc::kMax:
          e->type = e->children[0]->type;
          break;
      }
      break;
    case ExprKind::kFuncCall:
      CBQT_RETURN_IF_ERROR(CheckScalarFnCall(*e));
      e->type = GetScalarFnInfo(e->scalar_fn).result;
      if (e->scalar_fn == ScalarFn::kMod) {
        // Integer remainder on integer arguments, fmod otherwise.
        bool all_int = true;
        for (const auto& arg : e->children) {
          all_int = all_int && arg->type == DataType::kInt64;
        }
        e->type = all_int ? DataType::kInt64 : DataType::kDouble;
      }
      break;
    case ExprKind::kSubquery:
      if (e->subkind == SubqueryKind::kScalar) {
        auto cols = BlockOutputColumns(*e->subquery.peek());
        e->type = cols.empty() ? DataType::kUnknown : cols[0].type;
      } else {
        e->type = DataType::kBool;
      }
      break;
    case ExprKind::kWindow:
      switch (e->win_func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          e->type = DataType::kInt64;
          break;
        case AggFunc::kAvg:
          e->type = DataType::kDouble;
          break;
        default:
          e->type = e->children.empty() ? DataType::kDouble
                                        : e->children[0]->type;
          break;
      }
      break;
    case ExprKind::kRownum:
      e->type = DataType::kInt64;
      break;
    case ExprKind::kCase: {
      // The common type of every THEN and ELSE result: children alternate
      // WHEN/THEN, and an odd count ends with the ELSE. NULL and untyped
      // results take any type; INT with DOUBLE widens to DOUBLE.
      DataType type = DataType::kUnknown;
      auto merge = [&type](const Expr& leg) {
        DataType t = leg.type;
        if (t == DataType::kUnknown || t == type) return Status::OK();
        if (type == DataType::kUnknown) {
          type = t;
        } else if ((type == DataType::kInt64 || type == DataType::kDouble) &&
                   (t == DataType::kInt64 || t == DataType::kDouble)) {
          type = DataType::kDouble;
        } else {
          return Status::BindError("CASE mixes " + DataTypeName(type) +
                                   " and " + DataTypeName(t) + " results");
        }
        return Status::OK();
      };
      const size_t n = e->children.size();
      for (size_t i = 1; i < n; i += 2) {
        CBQT_RETURN_IF_ERROR(merge(*e->children[i]));
      }
      if (n % 2 == 1) CBQT_RETURN_IF_ERROR(merge(*e->children[n - 1]));
      e->type = type;
      break;
    }
  }
  return Status::OK();
}

void Binder::ExtractRownumLimit(QueryBlock* qb) {
  std::vector<ExprPtr> remaining;
  for (auto& w : qb->where) {
    Expr* e = w.get();
    int64_t limit = -1;
    if (e->kind == ExprKind::kBinary && IsComparisonOp(e->bop)) {
      Expr* l = e->children[0].get();
      Expr* r = e->children[1].get();
      BinaryOp op = e->bop;
      if (r->kind == ExprKind::kRownum && l->kind == ExprKind::kLiteral) {
        std::swap(l, r);
        op = SwapComparison(op);
      }
      if (l->kind == ExprKind::kRownum && r->kind == ExprKind::kLiteral &&
          r->literal.kind() == ValueKind::kInt64) {
        int64_t k = r->literal.AsInt();
        if (op == BinaryOp::kLt) limit = k - 1;
        if (op == BinaryOp::kLe) limit = k;
      }
    }
    if (limit >= 0) {
      if (qb->rownum_limit < 0 || limit < qb->rownum_limit) {
        qb->rownum_limit = limit;
      }
    } else {
      remaining.push_back(std::move(w));
    }
  }
  qb->where = std::move(remaining);
}

}  // namespace cbqt
