// Differential tests of the batch executor's compiled expressions against
// the tree evaluator (EvalExpr), which is the semantic reference: for every
// expression, CompiledExpr::Test must give the truth of EvalExpr's value,
// CompiledExpr::EvalFast must give the same value (kind included), and a
// runtime error on one path must be a typed error of the same code on the
// other. Operands cover NULL, int, double, string, bool and mixed kinds;
// predicates nest AND / OR / NOT over all six comparison operators; every
// registered scalar function runs with NULL and wrong-kind arguments.

#include "exec/compiled_expr.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "parser/parser.h"

namespace cbqt {
namespace {

class CompiledExprTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_work_ = GetExpensiveFunctionWork();
    SetExpensiveFunctionWork(10);
    auto add = [&](const char* name, DataType type, Value v) {
      schema_.push_back(ColumnSlot{"t", name, type});
      row_.push_back(std::move(v));
    };
    add("n", DataType::kUnknown, Value::Null());
    add("i", DataType::kInt64, Value::Int(3));
    add("j", DataType::kInt64, Value::Int(2));
    add("z", DataType::kInt64, Value::Int(0));
    add("m", DataType::kInt64, Value::Int(-7));
    add("d", DataType::kDouble, Value::Real(3.0));
    add("e", DataType::kDouble, Value::Real(2.5));
    add("s", DataType::kString, Value::Str("abc"));
    add("u", DataType::kString, Value::Str("ABC"));
    add("b", DataType::kBool, Value::Boolean(true));
    add("f", DataType::kBool, Value::Boolean(false));
  }
  void TearDown() override { SetExpensiveFunctionWork(saved_work_); }

  static ExprPtr Parse(const std::string& text) {
    // A select item, not a WHERE clause: the parser splits top-level AND
    // into separate conjuncts.
    auto qb = ParseSql("SELECT " + text + " FROM t");
    EXPECT_TRUE(qb.ok()) << text << ": " << qb.status().ToString();
    if (!qb.ok()) return nullptr;
    EXPECT_EQ(qb.value()->select.size(), 1u) << text;
    return std::move(qb.value()->select[0].expr);
  }

  /// Compiles `text` against the test schema and checks it against the
  /// tree evaluator on the test row. Returns false when the compiled
  /// program fell back (no fast path to compare).
  bool ExpectSameAsTree(const std::string& text, int64_t rownum = 4) {
    ExprPtr e = Parse(text);
    if (e == nullptr) return false;
    CompiledExpr c = CompiledExpr::Compile(e.get(), &schema_);
    EvalContext ctx;
    ctx.rownum = rownum;
    ctx.frames.push_back(Frame{&schema_, &row_});
    Result<Value> tree = EvalExpr(*e, ctx);
    if (!c.fast()) return false;
    ++checked_;
    Status value_err;
    Value v = c.EvalFast(row_, rownum, &value_err);
    Status test_err;
    Truth t = c.Test(row_, rownum, &test_err);
    if (!tree.ok()) {
      EXPECT_EQ(value_err.code(), tree.status().code()) << text;
      EXPECT_EQ(test_err.code(), tree.status().code()) << text;
      return true;
    }
    EXPECT_TRUE(value_err.ok()) << text << ": " << value_err.ToString();
    EXPECT_TRUE(test_err.ok()) << text << ": " << test_err.ToString();
    EXPECT_TRUE(v == tree.value())
        << text << ": compiled " << v.ToString() << " vs tree "
        << tree.value().ToString();
    EXPECT_EQ(t, ToTruth(tree.value())) << text;
    return true;
  }

  Schema schema_;
  Row row_;
  int checked_ = 0;
  int saved_work_ = 0;
};

const char* kOperands[] = {
    "t.n", "t.i", "t.j", "t.d", "t.e", "t.s", "t.u", "t.b", "t.f",
    "NULL", "3", "2.5", "'abc'", "TRUE", "t.i + t.e", "abs(t.m)",
};
const char* kCmpOps[] = {"=", "<>", "<", "<=", ">", ">="};

TEST_F(CompiledExprTest, ComparisonsMatchTreeOverAllOperandKinds) {
  for (const char* l : kOperands) {
    for (const char* r : kOperands) {
      for (const char* op : kCmpOps) {
        std::string text = std::string(l) + " " + op + " " + r;
        EXPECT_TRUE(ExpectSameAsTree(text)) << "fell back: " << text;
      }
    }
  }
  EXPECT_EQ(checked_, 16 * 16 * 6);
}

TEST_F(CompiledExprTest, MixedKindsCompareAsSpecified) {
  // int vs double compare numerically; string vs int is unknown.
  ExprPtr eq = Parse("t.i = t.d");
  CompiledExpr c = CompiledExpr::Compile(eq.get(), &schema_);
  Status err;
  EXPECT_EQ(c.Test(row_, 0, &err), Truth::kTrue);
  ExprPtr mixed = Parse("t.s = t.i");
  CompiledExpr m = CompiledExpr::Compile(mixed.get(), &schema_);
  EXPECT_EQ(m.Test(row_, 0, &err), Truth::kUnknown);
  EXPECT_TRUE(err.ok());
}

TEST_F(CompiledExprTest, NestedLogicMatchesTree) {
  // One atom per truth value, plus bool slots, NULL and a mixed-kind
  // comparison (unknown).
  const char* atoms[] = {
      "t.i = 3", "t.i < t.e", "t.n = 1", "t.b", "t.f", "NULL",
      "t.s = t.i", "t.s >= t.u", "t.d <> t.i", "t.n IS NULL",
  };
  for (const char* a : atoms) {
    EXPECT_TRUE(ExpectSameAsTree(std::string("NOT (") + a + ")"));
    EXPECT_TRUE(ExpectSameAsTree(std::string("(") + a + ") IS NOT NULL"));
    for (const char* b : atoms) {
      std::string x(a), y(b);
      for (const std::string& text :
           {x + " AND " + y, x + " OR " + y, "NOT (" + x + " AND " + y + ")",
            "NOT (" + x + ") OR " + y, "(" + x + " OR " + y + ") AND NOT (" +
                                           y + ")",
            "(" + x + " AND " + y + ") OR (" + y + " AND NOT (" + x + "))",
            "CASE WHEN " + x + " THEN t.i WHEN " + y + " THEN t.e END = 3"}) {
        EXPECT_TRUE(ExpectSameAsTree(text)) << "fell back: " << text;
      }
    }
  }
  EXPECT_TRUE(ExpectSameAsTree("rownum > 3"));
  EXPECT_TRUE(ExpectSameAsTree("rownum > 3", 2));
  EXPECT_TRUE(ExpectSameAsTree("0 - t.m > t.e * 2"));
}

TEST_F(CompiledExprTest, ScalarFunctionsMatchTree) {
  const char* calls[] = {
      // Every function with a NULL argument.
      "abs(t.n)", "floor(t.n)", "mod(t.n, 2)", "mod(3, t.n)", "upper(t.n)",
      "lower(t.n)", "expensive_f(t.n)", "expensive_f(t.n, 3)",
      "expensive_f(t.i, t.n)",
      // Ordinary arguments, including int/double mixes.
      "abs(t.m)", "abs(t.e)", "floor(t.e)", "floor(t.i)", "mod(t.i, t.j)",
      "mod(t.m, t.j)", "mod(t.e, t.j)", "upper(t.s)", "lower(t.u)",
      "expensive_f()", "expensive_f(t.i)", "expensive_f(t.i, 3)",
      "expensive_f(t.s, 2)", "expensive_f(t.i, 0)",
      // Division-like edge cases.
      "mod(t.i, 0)", "mod(t.i, t.z)", "mod(t.m, 0 - 1)",
      // Wrong kinds and arities: a typed error on both paths, never a
      // throw.
      "upper(t.i)", "lower(t.b)", "abs(t.s)", "floor(t.b)", "mod(t.s, 2)",
      "abs()", "floor()", "abs(t.i, t.j)", "expensive_f(1, 2, 3)",
  };
  for (const char* call : calls) {
    EXPECT_TRUE(ExpectSameAsTree(call)) << "fell back: " << call;
    std::string pred = std::string("(") + call + ") IS NULL";
    EXPECT_TRUE(ExpectSameAsTree(pred)) << "fell back: " << pred;
  }
  // Functions inside predicates stay on the fast path.
  EXPECT_TRUE(ExpectSameAsTree("upper(t.s) = t.u AND mod(t.i, t.j) = 1"));
  EXPECT_TRUE(ExpectSameAsTree("t.f AND upper(t.i) = 'X'"));
  EXPECT_TRUE(ExpectSameAsTree("upper(t.i) = 'X' AND t.f"));
}

TEST_F(CompiledExprTest, RuntimeFunctionErrorsAreTyped) {
  ExprPtr e = Parse("upper(t.i) = 'X'");
  CompiledExpr c = CompiledExpr::Compile(e.get(), &schema_);
  ASSERT_TRUE(c.fast());
  Status err;
  c.Test(row_, 0, &err);
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  // An unregistered function falls back to the tree evaluator, which
  // reports it typed.
  ExprPtr unknown = Parse("foo(t.i) = 1");
  CompiledExpr u = CompiledExpr::Compile(unknown.get(), &schema_);
  EXPECT_FALSE(u.fast());
  EvalContext ctx;
  ctx.frames.push_back(Frame{&schema_, &row_});
  EXPECT_EQ(u.EvalSlow(ctx).status().code(), StatusCode::kNotSupported);
}

TEST_F(CompiledExprTest, SlotIsReportedOnlyForLoneColumnRefs) {
  ExprPtr col = Parse("t.e");
  EXPECT_EQ(CompiledExpr::Compile(col.get(), &schema_).slot(), 6);
  ExprPtr arith = Parse("t.e + 1");
  EXPECT_EQ(CompiledExpr::Compile(arith.get(), &schema_).slot(), -1);
  ExprPtr outer = Parse("o.x");
  EXPECT_EQ(CompiledExpr::Compile(outer.get(), &schema_).slot(), -1);
}

}  // namespace
}  // namespace cbqt
