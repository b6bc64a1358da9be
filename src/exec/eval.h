#ifndef CBQT_EXEC_EVAL_H_
#define CBQT_EXEC_EVAL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "optimizer/plan.h"

namespace cbqt {

/// One name-resolution frame: a schema plus the current row of that schema.
struct Frame {
  const Schema* schema;
  const Row* row;
};

/// Materialized subquery result plus a lazily built hash index used by
/// IN / NOT IN predicates (a linear scan per outer row would make TIS
/// quadratic).
struct SubqueryResultView {
  const std::vector<Row>* rows = nullptr;
  /// Hash set over the result rows (structural equality). May be null when
  /// the resolver does not provide one; callers then scan `rows`.
  const void* row_set = nullptr;  // std::unordered_set<Row, RowHasher, RowEq>*
  /// True if any result row contains a NULL (drives three-valued IN).
  bool has_null = false;
};

/// Callback the executor installs so EvalExpr can evaluate kSubquery nodes:
/// returns the materialized result of the subquery for the current outer
/// context (with TIS caching behind it).
class SubqueryResolver {
 public:
  virtual ~SubqueryResolver() = default;
  virtual Result<SubqueryResultView> Resolve(const Expr* subquery_node) = 0;
};

/// Evaluation context: a stack of frames (innermost last). Column refs
/// resolve by (alias, name) searching innermost-first — sound because the
/// binder guarantees globally unique table aliases.
struct EvalContext {
  std::vector<Frame> frames;
  int64_t rownum = 0;  ///< current ROWNUM for kRownum expressions
  SubqueryResolver* subquery_resolver = nullptr;
};

/// Evaluates `e` under `ctx` with SQL three-valued semantics: the "unknown"
/// truth value is represented as a NULL Value.
Result<Value> EvalExpr(const Expr& e, EvalContext& ctx);

/// SQL three-valued truth. Predicates evaluate to a Truth directly (no
/// boxed Value); as a value, kUnknown is a NULL boolean.
enum class Truth : uint8_t { kFalse, kTrue, kUnknown };

/// Truth of an evaluated value: NULL is unknown, a boolean is itself. A
/// value of any other kind is unknown too — the binder rejects a
/// non-boolean predicate, so this only keeps a malformed plan from
/// aborting the process.
inline Truth ToTruth(const Value& v) {
  if (v.kind() != ValueKind::kBool) return Truth::kUnknown;
  return v.AsBool() ? Truth::kTrue : Truth::kFalse;
}

/// The truth as a value: TRUE, FALSE, or NULL for unknown.
inline Value TruthValue(Truth t) {
  if (t == Truth::kUnknown) return Value::Null();
  return Value::Boolean(t == Truth::kTrue);
}

/// SQL predicate truth: TRUE only (NULL/unknown and FALSE both reject).
bool IsTruthy(const Value& v);

/// Truth of comparison `op` given the operands' ordering: unknown when the
/// operands were incomparable (a NULL, or kinds that do not compare).
/// Shared by the tree evaluator and the compiled batch evaluator so the two
/// paths cannot diverge.
Truth CompareTruth(Ordering ord, BinaryOp op);

/// SQL arithmetic on already-evaluated operands: NULL-propagating, int64
/// preserved while both sides are int64 (division always real; division by
/// zero yields NULL).
Value EvalArithOp(const Value& a, const Value& b, BinaryOp op);

/// The one implementation of the registered scalar functions
/// (sql/scalar_fn.h), shared by both evaluators. `args` point at the
/// already-evaluated arguments. A call with the wrong argument count or an
/// argument of the wrong kind sets *err to a typed error (kInvalidArgument;
/// kNotSupported for an unregistered function) and returns NULL; it never
/// throws.
Value CallScalarFn(ScalarFn fn, const Value* const* args, size_t n,
                   Status* err);

/// Amount of spin work per expensive_* function call, to make wall-clock
/// execution time reflect the cost model's expensive_call constant.
/// Default 2000 iterations; tests may lower it.
void SetExpensiveFunctionWork(int iterations);
int GetExpensiveFunctionWork();

}  // namespace cbqt

#endif  // CBQT_EXEC_EVAL_H_
