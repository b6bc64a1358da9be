#ifndef CBQT_EXEC_COMPILED_EXPR_H_
#define CBQT_EXEC_COMPILED_EXPR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/eval.h"
#include "optimizer/plan.h"

namespace cbqt {

/// A plan expression compiled against one input schema for the batch
/// executor's inner loops.
///
/// Compilation resolves column refs to slot indices *once* (FindSlot is a
/// per-frame string comparison in the tree evaluator) and scalar function
/// names to their ScalarFn, and flattens the common scalar subset
/// (literals, column refs, comparisons, arithmetic, AND/OR/NOT, IS [NOT]
/// NULL, LNNVL, CASE, ROWNUM, registered scalar functions) into a compact
/// node array evaluated by a switch — no string lookups, no frame-stack
/// walk.
///
/// Predicates evaluate in place: Test() walks comparisons and the logical
/// connectives to a Truth, reading column and constant operands through
/// references into the row and the constant pool, so a filter copies no
/// value and boxes no result. Only a non-leaf operand (arithmetic, a
/// function call, CASE) is computed into a temporary.
///
/// The only runtime failure in the subset is a scalar function given
/// arguments it does not accept (count or kind); it is reported through the `err` out
/// parameter (left untouched on success, so callers hoist one Status per
/// batch and test it per row).
///
/// Anything outside the subset (subqueries, unregistered functions, column
/// refs that resolve through an *outer* frame) makes the whole program fall
/// back to EvalExpr. The fallback requires the caller to keep a frame with
/// the compiled schema and the current row as the innermost frame — exactly
/// the hoisted batch frame every operator maintains — so both paths see
/// identical resolution order and identical semantics.
class CompiledExpr {
 public:
  /// Compiles `e` against `schema` (the innermost frame's schema at eval
  /// time). Never fails; unsupported shapes compile to a fallback program.
  static CompiledExpr Compile(const Expr* e, const Schema* schema);

  /// True when the fast (no-fallback) path is available.
  bool fast() const { return fast_; }

  /// The input slot when the program is a lone column ref, else -1 (such
  /// hash keys are looked up as views over the row; such projections move
  /// the value out of the row).
  int slot() const {
    return fast_ && nodes_[root_].op == Op::kSlot ? nodes_[root_].slot : -1;
  }

  /// The same program reading input slot `slot_map[s]` wherever it read
  /// slot s — the scans' move of a filter compiled against their output
  /// onto the stored row. Falls back (fast() false) when a referenced slot
  /// maps below 0.
  CompiledExpr Rebased(const std::vector<int>& slot_map) const;

  /// Fast-path truth of the program as a predicate; only valid when
  /// fast(). `rownum` feeds kRownum.
  Truth Test(const Row& row, int64_t rownum, Status* err) const {
    return TestNode(root_, row, rownum, err);
  }

  /// Fast-path evaluation to a value; only valid when fast().
  Value EvalFast(const Row& row, int64_t rownum, Status* err) const {
    return EvalNode(root_, row, rownum, err);
  }

  /// Fallback: the tree evaluator under the caller's frame stack (the
  /// innermost frame must hold the compiled schema and current row).
  Result<Value> EvalSlow(EvalContext& ctx) const { return EvalExpr(*expr_, ctx); }

 private:
  enum class Op : uint8_t {
    kConst,
    kSlot,
    kCmp,        // bop is a comparison
    kArith,      // bop is +,-,*,/
    kNullSafeEq,
    kAnd,
    kOr,
    kNot,
    kNeg,
    kIsNull,
    kIsNotNull,
    kLnnvl,
    kRownum,
    kCase,       // children alternate cond,value[,else]
    kFunc,       // fn over the children as arguments
  };

  struct Node {
    Op op = Op::kConst;
    BinaryOp bop = BinaryOp::kEq;
    ScalarFn fn = ScalarFn::kNone;
    int slot = -1;
    int child_begin = 0;
    int child_count = 0;
    Value constant;
  };

  /// Returns the new node's index, or -1 when `e` is outside the subset.
  int CompileNode(const Expr& e, const Schema& schema);
  int AddNode(Op op, const std::vector<int>& kids);

  int Child(const Node& n, int i) const { return children_[n.child_begin + i]; }

  /// The operand's value: a reference into the row or the constant pool for
  /// leaves, else computed into *tmp.
  const Value& Operand(int idx, const Row& row, int64_t rownum, Status* err,
                       Value* tmp) const {
    const Node& n = nodes_[idx];
    if (n.op == Op::kSlot) return row[static_cast<size_t>(n.slot)];
    if (n.op == Op::kConst) return n.constant;
    *tmp = EvalNode(idx, row, rownum, err);
    return *tmp;
  }

  Truth TestNode(int idx, const Row& row, int64_t rownum, Status* err) const;
  Value EvalNode(int idx, const Row& row, int64_t rownum, Status* err) const;

  const Expr* expr_ = nullptr;
  bool fast_ = false;
  int root_ = -1;
  std::vector<Node> nodes_;
  std::vector<int> children_;
};

/// Compiles every expression of `exprs` against `schema`.
std::vector<CompiledExpr> CompileExprList(const std::vector<ExprPtr>& exprs,
                                          const Schema* schema);

/// Conjunct-list truth with three-valued semantics, mirroring the tree
/// evaluator's EvalConjuncts: fast members run Test, fallback members the
/// tree evaluator (the caller's innermost frame must hold (schema, row)).
/// On a runtime error sets *err; the returned truth is then meaningless.
Truth EvalCompiledConjuncts(const std::vector<CompiledExpr>& preds,
                            const Row& row, EvalContext& ctx, Status* err);

/// Evaluates an expression list into `out` (cleared first). Used for hash /
/// sort / group keys and projections. Sets *has_null when any value is
/// NULL (pass null if not needed).
Status EvalCompiledList(const std::vector<CompiledExpr>& exprs, const Row& row,
                        EvalContext& ctx, Row* out, bool* has_null = nullptr);

}  // namespace cbqt

#endif  // CBQT_EXEC_COMPILED_EXPR_H_
