#include "exec/compiled_expr.h"

namespace cbqt {

CompiledExpr CompiledExpr::Compile(const Expr* e, const Schema* schema) {
  CompiledExpr c;
  c.expr_ = e;
  c.nodes_.reserve(8);
  int root = c.CompileNode(*e, *schema);
  c.fast_ = root >= 0;
  c.root_ = root;
  if (!c.fast_) {
    c.nodes_.clear();
    c.children_.clear();
  }
  return c;
}

CompiledExpr CompiledExpr::Rebased(const std::vector<int>& slot_map) const {
  CompiledExpr c = *this;
  for (Node& n : c.nodes_) {
    if (n.op != Op::kSlot) continue;
    n.slot = slot_map[static_cast<size_t>(n.slot)];
    if (n.slot < 0) {
      c.fast_ = false;
      c.nodes_.clear();
      c.children_.clear();
      break;
    }
  }
  return c;
}

int CompiledExpr::AddNode(Op op, const std::vector<int>& kids) {
  int cb = static_cast<int>(children_.size());
  children_.insert(children_.end(), kids.begin(), kids.end());
  Node& n = nodes_.emplace_back();
  n.op = op;
  n.child_begin = cb;
  n.child_count = static_cast<int>(kids.size());
  return static_cast<int>(nodes_.size()) - 1;
}

int CompiledExpr::CompileNode(const Expr& e, const Schema& schema) {
  switch (e.kind) {
    case ExprKind::kLiteral: {
      int idx = AddNode(Op::kConst, {});
      nodes_[idx].constant = e.literal;
      return idx;
    }
    case ExprKind::kColumnRef: {
      int slot = FindSlot(schema, e.table_alias, e.column_name);
      if (slot < 0) return -1;  // resolves through an outer frame
      int idx = AddNode(Op::kSlot, {});
      nodes_[idx].slot = slot;
      return idx;
    }
    case ExprKind::kRownum:
      return AddNode(Op::kRownum, {});
    case ExprKind::kBinary: {
      Op op;
      if (e.bop == BinaryOp::kAnd) {
        op = Op::kAnd;
      } else if (e.bop == BinaryOp::kOr) {
        op = Op::kOr;
      } else if (e.bop == BinaryOp::kNullSafeEq) {
        op = Op::kNullSafeEq;
      } else if (IsComparisonOp(e.bop)) {
        op = Op::kCmp;
      } else {
        op = Op::kArith;
      }
      int l = CompileNode(*e.children[0], schema);
      if (l < 0) return -1;
      int r = CompileNode(*e.children[1], schema);
      if (r < 0) return -1;
      int idx = AddNode(op, {l, r});
      nodes_[idx].bop = e.bop;
      return idx;
    }
    case ExprKind::kUnary: {
      Op op = Op::kNot;
      switch (e.uop) {
        case UnaryOp::kNot:
          op = Op::kNot;
          break;
        case UnaryOp::kNeg:
          op = Op::kNeg;
          break;
        case UnaryOp::kIsNull:
          op = Op::kIsNull;
          break;
        case UnaryOp::kIsNotNull:
          op = Op::kIsNotNull;
          break;
        case UnaryOp::kLnnvl:
          op = Op::kLnnvl;
          break;
      }
      int c = CompileNode(*e.children[0], schema);
      if (c < 0) return -1;
      return AddNode(op, {c});
    }
    case ExprKind::kCase:
    case ExprKind::kFuncCall: {
      const bool func = e.kind == ExprKind::kFuncCall;
      // An unregistered function stays on the tree evaluator, which
      // reports it as a typed error.
      if (func && e.scalar_fn == ScalarFn::kNone) return -1;
      std::vector<int> kids;
      kids.reserve(e.children.size());
      for (const auto& c : e.children) {
        int k = CompileNode(*c, schema);
        if (k < 0) return -1;
        kids.push_back(k);
      }
      int idx = AddNode(func ? Op::kFunc : Op::kCase, kids);
      nodes_[idx].fn = e.scalar_fn;
      return idx;
    }
    case ExprKind::kSubquery:
    case ExprKind::kAggregate:
    case ExprKind::kWindow:
      return -1;
  }
  return -1;
}

// Mirrors EvalExpr's semantics exactly for the compiled subset; any change
// here must track exec/eval.cc (test_compiled_expr differences the two
// paths node by node, test_batch_executor row for row).
Truth CompiledExpr::TestNode(int idx, const Row& row, int64_t rownum,
                             Status* err) const {
  const Node& n = nodes_[idx];
  switch (n.op) {
    case Op::kSlot:
      return ToTruth(row[static_cast<size_t>(n.slot)]);
    case Op::kConst:
      return ToTruth(n.constant);
    case Op::kCmp: {
      Value lt, rt;
      const Value& l = Operand(Child(n, 0), row, rownum, err, &lt);
      const Value& r = Operand(Child(n, 1), row, rownum, err, &rt);
      return CompareTruth(CompareValues(l, r), n.bop);
    }
    case Op::kNullSafeEq: {
      Value lt, rt;
      const Value& l = Operand(Child(n, 0), row, rownum, err, &lt);
      const Value& r = Operand(Child(n, 1), row, rownum, err, &rt);
      return NullSafeEqual(l, r) ? Truth::kTrue : Truth::kFalse;
    }
    case Op::kAnd:
    case Op::kOr: {
      // Short circuit: FALSE decides AND, TRUE decides OR.
      const Truth decides = n.op == Op::kAnd ? Truth::kFalse : Truth::kTrue;
      Truth l = TestNode(Child(n, 0), row, rownum, err);
      if (l == decides) return decides;
      Truth r = TestNode(Child(n, 1), row, rownum, err);
      if (r == decides) return decides;
      if (l == Truth::kUnknown || r == Truth::kUnknown) return Truth::kUnknown;
      return l;
    }
    case Op::kNot: {
      Truth t = TestNode(Child(n, 0), row, rownum, err);
      if (t == Truth::kUnknown) return t;
      return t == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
    }
    case Op::kIsNull:
    case Op::kIsNotNull: {
      Value tmp;
      bool null = Operand(Child(n, 0), row, rownum, err, &tmp).is_null();
      return null == (n.op == Op::kIsNull) ? Truth::kTrue : Truth::kFalse;
    }
    case Op::kLnnvl:
      // TRUE iff the operand is FALSE or UNKNOWN.
      return TestNode(Child(n, 0), row, rownum, err) == Truth::kTrue
                 ? Truth::kFalse
                 : Truth::kTrue;
    case Op::kArith:
    case Op::kNeg:
    case Op::kRownum:
    case Op::kCase:
    case Op::kFunc:
      return ToTruth(EvalNode(idx, row, rownum, err));
  }
  return Truth::kUnknown;
}

Value CompiledExpr::EvalNode(int idx, const Row& row, int64_t rownum,
                             Status* err) const {
  const Node& n = nodes_[idx];
  switch (n.op) {
    case Op::kConst:
      return n.constant;
    case Op::kSlot:
      return row[static_cast<size_t>(n.slot)];
    case Op::kRownum:
      return Value::Int(rownum);
    case Op::kCmp:
    case Op::kNullSafeEq:
    case Op::kAnd:
    case Op::kOr:
    case Op::kNot:
    case Op::kIsNull:
    case Op::kIsNotNull:
    case Op::kLnnvl:
      return TruthValue(TestNode(idx, row, rownum, err));
    case Op::kArith: {
      Value lt, rt;
      const Value& l = Operand(Child(n, 0), row, rownum, err, &lt);
      const Value& r = Operand(Child(n, 1), row, rownum, err, &rt);
      return EvalArithOp(l, r, n.bop);
    }
    case Op::kNeg: {
      Value tmp;
      const Value& v = Operand(Child(n, 0), row, rownum, err, &tmp);
      if (v.is_null()) return Value::Null();
      if (v.kind() == ValueKind::kInt64) return Value::Int(-v.AsInt());
      return Value::Real(-v.NumericValue());
    }
    case Op::kCase: {
      int i = 0;
      while (i + 1 < n.child_count) {
        if (TestNode(Child(n, i), row, rownum, err) == Truth::kTrue) {
          return EvalNode(Child(n, i + 1), row, rownum, err);
        }
        i += 2;
      }
      if (i < n.child_count) return EvalNode(Child(n, i), row, rownum, err);
      return Value::Null();
    }
    case Op::kFunc: {
      // Registered functions take at most two arguments; the table's arity
      // check inside CallScalarFn rejects anything longer.
      constexpr int kMaxArgs = 2;
      Value tmp[kMaxArgs];
      const Value* args[kMaxArgs] = {};
      if (n.child_count > kMaxArgs) {
        return CallScalarFn(n.fn, nullptr, static_cast<size_t>(n.child_count),
                            err);
      }
      for (int i = 0; i < n.child_count; ++i) {
        args[i] = &Operand(Child(n, i), row, rownum, err, &tmp[i]);
      }
      return CallScalarFn(n.fn, args, static_cast<size_t>(n.child_count), err);
    }
  }
  return Value::Null();
}

std::vector<CompiledExpr> CompileExprList(const std::vector<ExprPtr>& exprs,
                                          const Schema* schema) {
  std::vector<CompiledExpr> out;
  out.reserve(exprs.size());
  for (const auto& e : exprs) out.push_back(CompiledExpr::Compile(e.get(), schema));
  return out;
}

Truth EvalCompiledConjuncts(const std::vector<CompiledExpr>& preds,
                            const Row& row, EvalContext& ctx, Status* err) {
  bool unknown = false;
  for (const auto& p : preds) {
    Truth t;
    if (p.fast()) {
      t = p.Test(row, ctx.rownum, err);
      if (!err->ok()) return Truth::kUnknown;
    } else {
      auto r = p.EvalSlow(ctx);
      if (!r.ok()) {
        *err = r.status();
        return Truth::kUnknown;
      }
      t = ToTruth(r.value());
    }
    if (t == Truth::kFalse) return Truth::kFalse;
    if (t == Truth::kUnknown) unknown = true;
  }
  return unknown ? Truth::kUnknown : Truth::kTrue;
}

Status EvalCompiledList(const std::vector<CompiledExpr>& exprs, const Row& row,
                        EvalContext& ctx, Row* out, bool* has_null) {
  out->clear();
  if (has_null != nullptr) *has_null = false;
  Status err;
  for (const auto& e : exprs) {
    Value v;
    if (e.fast()) {
      v = e.EvalFast(row, ctx.rownum, &err);
      if (!err.ok()) return err;
    } else {
      auto r = e.EvalSlow(ctx);
      if (!r.ok()) return r.status();
      v = std::move(r.value());
    }
    if (has_null != nullptr && v.is_null()) *has_null = true;
    out->push_back(std::move(v));
  }
  return Status::OK();
}

}  // namespace cbqt
