#include "binder/binder.h"

#include <gtest/gtest.h>

#include <iterator>

#include "parser/parser.h"
#include "tests/test_util.h"

namespace cbqt {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeSmallHrDb();
    ASSERT_NE(db_, nullptr);
  }
  std::unique_ptr<Database> db_;
};

TEST_F(BinderTest, QualifiesUnqualifiedColumns) {
  auto qb = ParseAndBind(*db_, "SELECT salary FROM employees e");
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->select[0].expr->table_alias, "e");
  EXPECT_EQ(qb->select[0].expr->type, DataType::kDouble);
}

TEST_F(BinderTest, AmbiguousColumnRejected) {
  auto parsed = ParseSql(
      "SELECT dept_id FROM employees e, departments d");
  ASSERT_TRUE(parsed.ok());
  Status st = BindQuery(*db_, parsed.value().get());
  EXPECT_EQ(st.code(), StatusCode::kBindError);
}

TEST_F(BinderTest, UnknownTableAndColumnRejected) {
  auto p1 = ParseSql("SELECT x FROM nonexistent");
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(BindQuery(*db_, p1.value().get()).code(), StatusCode::kBindError);
  auto p2 = ParseSql("SELECT nocolumn FROM employees e");
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(BindQuery(*db_, p2.value().get()).code(), StatusCode::kBindError);
}

TEST_F(BinderTest, StarExpansion) {
  auto qb = ParseAndBind(*db_, "SELECT * FROM departments d");
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->select.size(), 4u);  // dept_id, dept_name, loc_id, budget
  EXPECT_EQ(qb->select[0].alias, "dept_id");
}

TEST_F(BinderTest, QualifiedStarExpansion) {
  auto qb = ParseAndBind(
      *db_, "SELECT d.* FROM employees e, departments d");
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->select.size(), 4u);
  EXPECT_EQ(qb->select[0].expr->table_alias, "d");
}

TEST_F(BinderTest, CorrelationDepthMarked) {
  auto qb = ParseAndBind(
      *db_,
      "SELECT e.salary FROM employees e WHERE e.salary > (SELECT "
      "AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)");
  ASSERT_NE(qb, nullptr);
  const Expr& sub = *qb->where[0]->children[1];
  ASSERT_EQ(sub.kind, ExprKind::kSubquery);
  const Expr& corr = *sub.subquery->where[0];
  // e2.dept_id = e.dept_id: e2 local (depth 0), e correlated (depth 1).
  const Expr* e2_ref = corr.children[0].get();
  const Expr* e_ref = corr.children[1].get();
  if (e2_ref->table_alias != "e2") std::swap(e2_ref, e_ref);
  EXPECT_EQ(e2_ref->corr_depth, 0);
  EXPECT_EQ(e_ref->corr_depth, 1);
}

TEST_F(BinderTest, DuplicateAliasesRenamedGlobally) {
  auto qb = ParseAndBind(
      *db_,
      "SELECT e.salary FROM employees e WHERE EXISTS (SELECT 1 FROM "
      "employees e WHERE e.dept_id = 3)");
  ASSERT_NE(qb, nullptr);
  const Expr& sub = *qb->where[0];
  ASSERT_EQ(sub.kind, ExprKind::kSubquery);
  const std::string inner_alias = sub.subquery->from[0].alias;
  EXPECT_NE(inner_alias, "e");
  // The inner reference follows the rename (shadowing semantics).
  EXPECT_EQ(sub.subquery->where[0]->children[0]->table_alias, inner_alias);
}

TEST_F(BinderTest, RownumLimitExtracted) {
  auto qb = ParseAndBind(
      *db_, "SELECT e.salary FROM employees e WHERE rownum < 20");
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->rownum_limit, 19);
  EXPECT_TRUE(qb->where.empty());

  qb = ParseAndBind(
      *db_,
      "SELECT e.salary FROM employees e WHERE rownum <= 20 AND e.salary > 0");
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->rownum_limit, 20);
  EXPECT_EQ(qb->where.size(), 1u);
}

TEST_F(BinderTest, RownumReversedLiteral) {
  auto qb = ParseAndBind(
      *db_, "SELECT e.salary FROM employees e WHERE 10 > rownum");
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->rownum_limit, 9);
}

TEST_F(BinderTest, RowidPseudoColumn) {
  auto qb = ParseAndBind(*db_, "SELECT e.rowid FROM employees e");
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->select[0].expr->type, DataType::kInt64);
}

TEST_F(BinderTest, DerivedTableColumns) {
  auto qb = ParseAndBind(
      *db_,
      "SELECT v.avg_sal FROM (SELECT AVG(e.salary) AS avg_sal, e.dept_id AS "
      "dept_id FROM employees e GROUP BY e.dept_id) v WHERE v.dept_id = 3");
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->select[0].expr->type, DataType::kDouble);
}

TEST_F(BinderTest, SetOpArityChecked) {
  auto parsed = ParseSql(
      "SELECT emp_id FROM employees UNION ALL SELECT dept_id, dept_name "
      "FROM departments");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(BindQuery(*db_, parsed.value().get()).code(),
            StatusCode::kBindError);
}

TEST_F(BinderTest, InArityChecked) {
  auto parsed = ParseSql(
      "SELECT e.emp_id FROM employees e WHERE (e.emp_id, e.dept_id) IN "
      "(SELECT d.dept_id FROM departments d)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(BindQuery(*db_, parsed.value().get()).code(),
            StatusCode::kBindError);
}

TEST_F(BinderTest, OrderByAliasResolvesToSelectItem) {
  auto qb = ParseAndBind(
      *db_,
      "SELECT e.salary * 2 AS dbl FROM employees e ORDER BY dbl");
  ASSERT_NE(qb, nullptr);
  // The alias resolves to a copy of the select expression.
  EXPECT_EQ(qb->order_by[0].expr->kind, ExprKind::kBinary);
}

TEST_F(BinderTest, SelectAliasesAssignedAndUnique) {
  auto qb = ParseAndBind(
      *db_, "SELECT e.salary, e.salary, e.salary + 1 FROM employees e");
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->select[0].alias, "salary");
  EXPECT_EQ(qb->select[1].alias, "salary_2");
  EXPECT_FALSE(qb->select[2].alias.empty());
}

TEST_F(BinderTest, BindingIsIdempotent) {
  auto qb = ParseAndBind(
      *db_,
      "SELECT e.employee_name FROM employees e WHERE e.salary > (SELECT "
      "AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)");
  ASSERT_NE(qb, nullptr);
  std::string first = BlockToSql(*qb);
  ASSERT_TRUE(BindQuery(*db_, qb.get()).ok());
  EXPECT_EQ(BlockToSql(*qb), first);
}

TEST_F(BinderTest, TypeDerivation) {
  auto qb = ParseAndBind(
      *db_,
      "SELECT e.emp_id + 1, e.salary / 2, e.emp_id > 3, COUNT(*), "
      "AVG(e.salary) FROM employees e");
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->select[0].expr->type, DataType::kInt64);
  EXPECT_EQ(qb->select[1].expr->type, DataType::kDouble);
  EXPECT_EQ(qb->select[2].expr->type, DataType::kBool);
  EXPECT_EQ(qb->select[3].expr->type, DataType::kInt64);
  EXPECT_EQ(qb->select[4].expr->type, DataType::kDouble);
}

// Binds `sql` and returns the status (parse must succeed).
Status BindStatus(const Database& db, const std::string& sql) {
  auto parsed = ParseSql(sql);
  EXPECT_TRUE(parsed.ok()) << sql;
  if (!parsed.ok()) return parsed.status();
  return BindQuery(db, parsed.value().get());
}

// Each of these used to pass the binder and then crash the process at
// execution: abs()/floor() read args[0] of an empty argument list
// (segfault); upper() on a DOUBLE and AND/NOT over a DOUBLE called AsBool /
// AsString on the wrong variant alternative (std::bad_variant_access); an
// unknown function failed only after optimization.
TEST_F(BinderTest, ScalarFunctionCallsValidated) {
  const char* bad[] = {
      "SELECT abs() FROM employees e",
      "SELECT floor() FROM employees e",
      "SELECT mod(e.emp_id) FROM employees e",
      "SELECT abs(e.salary, 2) FROM employees e",
      "SELECT upper(e.salary) FROM employees e WHERE e.emp_id = 1",
      "SELECT lower(e.emp_id) FROM employees e",
      "SELECT abs(e.employee_name) FROM employees e",
      "SELECT foo(e.salary) FROM employees e",
      "SELECT e.emp_id FROM employees e WHERE foo(e.salary) = 1",
      "SELECT expensive_filter(e.emp_id, 2, 3) FROM employees e",
      // A CASE is typed by all of its results, so this is VARCHAR mixed
      // with INT (it used to bind as VARCHAR and fail only at execution).
      "SELECT e.emp_id FROM employees e WHERE upper(CASE WHEN e.emp_id < 0 "
      "THEN 'x' ELSE e.emp_id END) = 'X'",
  };
  for (const char* sql : bad) {
    EXPECT_EQ(BindStatus(*db_, sql).code(), StatusCode::kBindError) << sql;
  }
  auto qb = ParseAndBind(
      *db_,
      "SELECT abs(e.salary), mod(e.emp_id, 3), floor(e.salary), "
      "upper(e.employee_name), lower(NULL), expensive_filter(e.emp_id, 4) "
      "FROM employees e");
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->select[0].expr->type, DataType::kDouble);
  EXPECT_EQ(qb->select[3].expr->type, DataType::kString);
  EXPECT_EQ(qb->select[4].expr->type, DataType::kString);
  EXPECT_EQ(qb->select[5].expr->type, DataType::kDouble);
}

TEST_F(BinderTest, CaseAndModResultTypes) {
  auto qb = ParseAndBind(
      *db_,
      "SELECT CASE WHEN e.emp_id < 0 THEN 1 ELSE e.salary END, "
      "CASE WHEN e.emp_id < 0 THEN NULL WHEN e.emp_id < 5 THEN 2 END, "
      "CASE WHEN e.emp_id < 0 THEN NULL ELSE e.employee_name END, "
      "CASE WHEN e.emp_id < 0 THEN e.salary END, "
      "mod(e.emp_id, 3), mod(e.salary, 3), mod(e.emp_id, 2.5), "
      "mod(NULL, 3), abs(e.emp_id) "
      "FROM employees e");
  ASSERT_NE(qb, nullptr);
  const DataType want[] = {
      DataType::kDouble,  DataType::kInt64,  DataType::kString,
      DataType::kDouble,  DataType::kInt64,  DataType::kDouble,
      DataType::kDouble,  DataType::kDouble, DataType::kDouble,
  };
  ASSERT_EQ(qb->select.size(), std::size(want));
  for (size_t i = 0; i < std::size(want); ++i) {
    EXPECT_EQ(qb->select[i].expr->type, want[i]) << i;
  }
  const char* bad[] = {
      "SELECT CASE WHEN e.emp_id < 0 THEN 'x' WHEN e.emp_id < 9 THEN 1.5 "
      "END FROM employees e",
      "SELECT CASE WHEN e.emp_id < 0 THEN NULL WHEN e.emp_id < 9 THEN 1 "
      "ELSE 'y' END FROM employees e",
  };
  for (const char* sql : bad) {
    EXPECT_EQ(BindStatus(*db_, sql).code(), StatusCode::kBindError) << sql;
  }
}

TEST_F(BinderTest, NonBooleanPredicatesRejected) {
  const char* bad[] = {
      "SELECT e.emp_id FROM employees e WHERE e.emp_id = 1 AND e.salary",
      "SELECT e.emp_id FROM employees e WHERE e.emp_id = 1 AND NOT e.salary",
      "SELECT e.emp_id FROM employees e WHERE e.salary",
      "SELECT e.emp_id FROM employees e WHERE e.emp_id = 1 OR "
      "e.employee_name",
      "SELECT e.emp_id FROM employees e WHERE NOT e.emp_id",
      "SELECT e.dept_id FROM employees e GROUP BY e.dept_id HAVING COUNT(*)",
      "SELECT e.emp_id FROM employees e JOIN departments d ON e.dept_id",
      "SELECT e.emp_id FROM employees e WHERE abs(e.salary)",
  };
  for (const char* sql : bad) {
    EXPECT_EQ(BindStatus(*db_, sql).code(), StatusCode::kBindError) << sql;
  }
  // Boolean and NULL-typed predicates stay legal.
  EXPECT_TRUE(BindStatus(*db_,
                         "SELECT e.emp_id FROM employees e WHERE NOT (e.emp_id "
                         "= 1) AND (e.salary > 2 OR NULL)")
                  .ok());
  EXPECT_TRUE(BindStatus(*db_,
                         "SELECT e.emp_id FROM employees e JOIN departments d "
                         "ON e.dept_id = d.dept_id WHERE NULL")
                  .ok());
}

}  // namespace
}  // namespace cbqt
