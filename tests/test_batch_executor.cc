// The vectorized batch executor's contract: for every operator and every
// batch size, Execute() returns exactly the rows of the ReferenceExecutor
// (the naive interpreter of the bound tree), with or without spill-to-disk
// — and a query that exceeds its memory budget on a pipeline breaker
// completes via spill instead of failing kResourceExhausted.

#include "exec/executor.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cbqt/framework.h"
#include "common/fault_injector.h"
#include "common/guardrails.h"
#include "common/memory_tracker.h"
#include "common/result_compare.h"
#include "exec/reference.h"
#include "sql/expr_util.h"
#include "tests/test_util.h"
#include "workload/runner.h"

namespace cbqt {
namespace {

// Canonical multiset compare from common/result_compare.h: approx doubles
// because different plans (and batch/spill splits) sum in different orders.
void ExpectSameRows(std::vector<Row> actual, std::vector<Row> expected,
                    const std::string& label) {
  RowSetDiff diff = CompareRowMultisets(actual, expected);
  ASSERT_TRUE(diff.equal) << label << ": " << diff.message;
}

class BatchExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = MakeSmallHrDb().release();
    ASSERT_NE(db_, nullptr);
  }

  /// Optimizes `sql` into a physical plan (full CBQT pipeline, so unnesting
  /// produces semi/anti joins and the planner picks join methods by cost).
  PlanPtr Plan(const std::string& sql) {
    auto qb = ParseAndBind(*db_, sql);
    if (qb == nullptr) return nullptr;
    CbqtOptimizer optimizer(*db_);
    auto opt = optimizer.Optimize(*qb);
    if (!opt.ok()) {
      ADD_FAILURE() << "optimize: " << opt.status().ToString() << "\n" << sql;
      return nullptr;
    }
    return opt->plan;
  }

  /// The correctness oracle: the naive interpreter of the bound tree.
  std::vector<Row> Oracle(const std::string& sql) {
    auto qb = ParseAndBind(*db_, sql);
    if (qb == nullptr) return {};
    ReferenceExecutor reference(*db_);
    auto rows = reference.Execute(*qb);
    if (!rows.ok()) {
      ADD_FAILURE() << "oracle: " << rows.status().ToString() << "\n" << sql;
      return {};
    }
    return std::move(rows.value());
  }

  Result<ExecResult> Run(const PlanNode& plan, ExecOptions opts) {
    Executor exec(*db_, std::move(opts));
    return exec.Execute(plan);
  }

  static Database* db_;
};

Database* BatchExecutorTest::db_ = nullptr;

// One query per operator family the factory builds; the plans cover table
// scans, index scans, filters, projections, joins (the planner picks
// nested-loop/hash/merge by cost; unnesting yields semi and null-aware anti
// joins), aggregation with and without GROUP BY, sort, distinct, set ops,
// ROWNUM limits, windows, and TIS subquery filters.
const char* kOperatorQueries[] = {
    // Scan + filter + projection arithmetic.
    "SELECT e.emp_id + 1, e.salary * 2 FROM employees e WHERE e.salary > "
    "60000",
    // Join (equi), two tables.
    "SELECT e.employee_name, j.job_title FROM employees e, job_history j "
    "WHERE e.emp_id = j.emp_id",
    // Semi join via EXISTS (unnested).
    "SELECT d.dept_name FROM departments d WHERE EXISTS (SELECT 1 FROM "
    "employees e WHERE e.dept_id = d.dept_id AND e.salary > 70000)",
    // Null-aware anti join via NOT IN.
    "SELECT e.employee_name FROM employees e WHERE e.dept_id NOT IN "
    "(SELECT d.dept_id FROM departments d WHERE d.budget > 300000)",
    // Correlated scalar subquery kept as a TIS subquery filter.
    "SELECT e.employee_name FROM employees e WHERE e.salary > (SELECT "
    "AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)",
    // Grouped aggregation with HAVING.
    "SELECT e.dept_id, COUNT(*), AVG(e.salary) FROM employees e GROUP BY "
    "e.dept_id HAVING COUNT(*) > 3",
    // Scalar aggregate over an empty input.
    "SELECT COUNT(*), SUM(e.salary) FROM employees e WHERE e.salary < 0",
    // Sort with NULL ordering.
    "SELECT e.employee_name, e.salary FROM employees e ORDER BY e.salary "
    "DESC",
    // Distinct.
    "SELECT DISTINCT e.dept_id FROM employees e",
    // Set operation.
    "SELECT e.emp_id FROM employees e UNION SELECT j.emp_id FROM "
    "job_history j",
    // ROWNUM limit (lazy filter semantics).
    "SELECT e.emp_id FROM employees e WHERE rownum <= 7",
    // Window function (running aggregate over partitions).
    "SELECT e.emp_id, SUM(e.salary) OVER (PARTITION BY e.dept_id ORDER BY "
    "e.emp_id) FROM employees e",
};

TEST_F(BatchExecutorTest, MatchesOracleAcrossBatchSizes) {
  for (const char* sql : kOperatorQueries) {
    auto plan = Plan(sql);
    ASSERT_NE(plan, nullptr) << sql;
    std::vector<Row> expected = Oracle(sql);
    for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
      ExecOptions opts;
      opts.batch_size = batch;
      auto result = Run(*plan, std::move(opts));
      ASSERT_TRUE(result.ok())
          << result.status().ToString() << "\nbatch=" << batch << "\n" << sql;
      ExpectSameRows(std::move(result.value().rows), expected,
                     std::string(sql) + " batch=" + std::to_string(batch));
      EXPECT_GT(result.value().stats.rows_processed, 0) << sql;
      EXPECT_GT(result.value().stats.batches, 0) << sql;
    }
  }
}

// Counts plan nodes of kind `op` (with a non-empty filter when
// `with_filter`).
int CountNodes(const PlanNode& node, PlanOp op, bool with_filter = false) {
  int n = node.op == op && (!with_filter || !node.filter.empty()) ? 1 : 0;
  for (const auto& c : node.children) n += CountNodes(*c, op, with_filter);
  return n;
}

// The in-place kernels: index scans whose residual filter runs on the
// stored row (including a scalar function), and hash joins / aggregations
// whose keys are looked up as views over the input row — on string keys,
// on mixed int/double keys (Int(2) and Real(2.0) must hash and compare
// equal), and on computed keys (evaluated into a scratch row).
struct KernelQuery {
  const char* sql;
  PlanOp must_have;
  bool with_filter;
};
const KernelQuery kKernelQueries[] = {
    {"SELECT e.employee_name, e.salary FROM employees e WHERE e.emp_id = 17 "
     "AND e.salary > 1000",
     PlanOp::kIndexScan, true},
    {"SELECT e.employee_name FROM employees e WHERE e.emp_id = 42 AND "
     "upper(e.employee_name) <> 'X' AND mod(e.dept_id, 2) = 0",
     PlanOp::kIndexScan, true},
    {"SELECT j.emp_id, jb.job_id FROM job_history j, jobs jb WHERE "
     "j.job_title = jb.job_title",
     PlanOp::kHashJoin, false},
    {"SELECT e.emp_id, d.dept_name FROM employees e, departments d WHERE "
     "e.dept_id = d.dept_id + 0.0",
     PlanOp::kHashJoin, false},
    {"SELECT e.emp_id, j.job_title FROM employees e, job_history j WHERE "
     "e.emp_id * 1.0 = j.emp_id AND j.job_title > 'A'",
     PlanOp::kHashJoin, false},
    {"SELECT j.job_title, COUNT(*), MIN(j.emp_id) FROM job_history j GROUP "
     "BY j.job_title",
     PlanOp::kAggregate, false},
    {"SELECT e.dept_id + 0.5, COUNT(*) FROM employees e GROUP BY e.dept_id "
     "+ 0.5",
     PlanOp::kAggregate, false},
};

TEST_F(BatchExecutorTest, InPlaceKernelsMatchOracleAcrossBatchSizes) {
  for (const KernelQuery& q : kKernelQueries) {
    auto plan = Plan(q.sql);
    ASSERT_NE(plan, nullptr) << q.sql;
    EXPECT_GT(CountNodes(*plan, q.must_have, q.with_filter), 0)
        << q.sql << "\n" << PlanToString(*plan);
    std::vector<Row> expected = Oracle(q.sql);
    EXPECT_FALSE(expected.empty()) << q.sql;
    for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
      ExecOptions opts;
      opts.batch_size = batch;
      auto result = Run(*plan, std::move(opts));
      ASSERT_TRUE(result.ok())
          << result.status().ToString() << "\nbatch=" << batch << "\n"
          << q.sql;
      ExpectSameRows(std::move(result.value().rows), expected,
                     std::string(q.sql) + " batch=" + std::to_string(batch));
    }
  }
}

// A scalar function that meets a value of the wrong kind at runtime fails
// the query with a typed error instead of throwing. The binder now rejects
// every SQL spelling of that (test_binder), so the plan is edited by hand:
// upper()'s VARCHAR argument is swapped for an INT column.
TEST_F(BatchExecutorTest, ScalarFunctionKindErrorIsTyped) {
  auto shared = Plan(
      "SELECT e.emp_id FROM employees e WHERE upper(e.employee_name) = 'X'");
  ASSERT_NE(shared, nullptr);
  PlanPtr plan = ClonePlan(*shared);
  int swapped = 0;
  std::function<void(const PlanPtr&)> edit = [&](const PlanPtr& node) {
    for (auto& f : MutablePlan(node)->filter) {
      VisitExpr(f.get(), [&](Expr* x) {
        if (x->kind == ExprKind::kFuncCall &&
            x->scalar_fn == ScalarFn::kUpper) {
          x->children[0]->column_name = "emp_id";
          x->children[0]->type = DataType::kInt64;
          ++swapped;
        }
      });
    }
    for (const auto& c : node->children) edit(c);
  };
  edit(plan);
  ASSERT_EQ(swapped, 1) << PlanToString(*plan);
  auto result = Run(*plan, ExecOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
}

// ---------------------------------------------------------------------------
// Spill-to-disk pipeline breakers
// ---------------------------------------------------------------------------

// Pipeline breakers that must degrade to disk under a tiny memory budget:
// sort buffer, hash-join build side, aggregation table, distinct set.
const char* kSpillQueries[] = {
    "SELECT j.emp_id, j.job_title FROM job_history j ORDER BY j.job_title",
    "SELECT e.employee_name, j.job_title FROM employees e, job_history j "
    "WHERE e.emp_id = j.emp_id",
    "SELECT j.emp_id, COUNT(*) FROM job_history j GROUP BY j.emp_id",
    "SELECT DISTINCT j.emp_id, j.dept_id FROM job_history j",
};

constexpr int64_t kTinyBudgetBytes = 8192;

TEST_F(BatchExecutorTest, SpillCompletesWherePreviouslyResourceExhausted) {
  for (const char* sql : kSpillQueries) {
    auto plan = Plan(sql);
    ASSERT_NE(plan, nullptr) << sql;
    std::vector<Row> expected = Oracle(sql);

    // Leg 1: spill disabled — the budgeted query must fail with the typed
    // kResourceExhausted (the pre-spill behaviour).
    {
      MemoryTracker tracker("query", kTinyBudgetBytes);
      ExecOptions opts;
      opts.guards.memory = &tracker;
      opts.enable_spill = false;
      auto result = Run(*plan, std::move(opts));
      ASSERT_FALSE(result.ok()) << sql;
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << sql;
    }

    // Leg 2: spill enabled — the same query under the same budget completes
    // with identical rows, reporting spill activity.
    {
      MemoryTracker tracker("query", kTinyBudgetBytes);
      ExecOptions opts;
      opts.guards.memory = &tracker;
      opts.enable_spill = true;
      auto result = Run(*plan, std::move(opts));
      ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
      EXPECT_GE(result.value().stats.spilled_operators, 1) << sql;
      EXPECT_GT(result.value().stats.spill.bytes_written, 0) << sql;
      EXPECT_GT(result.value().stats.spill.bytes_read, 0) << sql;
      ExpectSameRows(std::move(result.value().rows), expected, sql);
    }
  }
}

TEST_F(BatchExecutorTest, SpillMatchesOracleAcrossBatchSizes) {
  for (const char* sql : kSpillQueries) {
    auto plan = Plan(sql);
    ASSERT_NE(plan, nullptr) << sql;
    std::vector<Row> expected = Oracle(sql);
    for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
      MemoryTracker tracker("query", kTinyBudgetBytes);
      ExecOptions opts;
      opts.guards.memory = &tracker;
      opts.batch_size = batch;
      auto result = Run(*plan, std::move(opts));
      ASSERT_TRUE(result.ok())
          << result.status().ToString() << "\nbatch=" << batch << "\n" << sql;
      ExpectSameRows(std::move(result.value().rows), expected,
                     std::string(sql) + " batch=" + std::to_string(batch));
    }
  }
}

// Hash joins whose build side repeats every key many times (dept_id joins:
// ~40 build rows per key), on a plain and on a computed key. Build keys are
// looked up in the hash table as views over one scratch row; the bytes
// charged to the memory tracker and the spill traffic must stay exactly
// what materializing a key row per build row charged. The pinned figures
// were taken from that earlier build (tracker peak with no budget; spill
// bytes written/read under the tiny budget), per batch size {1, 3, 1024}.
struct DuplicateKeyJoin {
  const char* sql;
  int64_t peak_bytes[3];
  int64_t spill_written[3];
  int64_t spill_read[3];
};
const DuplicateKeyJoin kDuplicateKeyJoins[] = {
    {"SELECT e.emp_id, j.job_title FROM employees e, job_history j WHERE "
     "e.dept_id = j.dept_id AND e.salary > 90000",
     {57456, 57456, 57456},
     {28618, 28618, 28618},
     {79743, 79743, 79743}},
    {"SELECT e.emp_id, j.emp_id FROM employees e, job_history j WHERE "
     "e.dept_id + 1 = j.dept_id + 1 AND e.salary > 90000",
     {57456, 57456, 57456},
     {26218, 26218, 26218},
     {58928, 58928, 58928}},
};

TEST_F(BatchExecutorTest, DuplicateBuildKeysChargeAndSpillAsBefore) {
  const size_t kBatches[] = {1, 3, 1024};
  for (const DuplicateKeyJoin& q : kDuplicateKeyJoins) {
    auto plan = Plan(q.sql);
    ASSERT_NE(plan, nullptr) << q.sql;
    ASSERT_GT(CountNodes(*plan, PlanOp::kHashJoin), 0)
        << q.sql << "\n" << PlanToString(*plan);
    std::vector<Row> expected = Oracle(q.sql);
    EXPECT_FALSE(expected.empty()) << q.sql;
    for (int b = 0; b < 3; ++b) {
      const std::string label =
          std::string(q.sql) + " batch=" + std::to_string(kBatches[b]);
      {
        MemoryTracker tracker("query", int64_t{1} << 40);
        ExecOptions opts;
        opts.guards.memory = &tracker;
        opts.batch_size = kBatches[b];
        auto result = Run(*plan, std::move(opts));
        ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n"
                                 << label;
        EXPECT_EQ(result.value().stats.spilled_operators, 0) << label;
        EXPECT_EQ(tracker.peak_bytes(), q.peak_bytes[b]) << label;
        ExpectSameRows(std::move(result.value().rows), expected, label);
      }
      {
        MemoryTracker tracker("query", kTinyBudgetBytes);
        ExecOptions opts;
        opts.guards.memory = &tracker;
        opts.batch_size = kBatches[b];
        auto result = Run(*plan, std::move(opts));
        ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n"
                                 << label;
        EXPECT_GE(result.value().stats.spilled_operators, 1) << label;
        EXPECT_EQ(result.value().stats.spill.bytes_written,
                  q.spill_written[b])
            << label;
        EXPECT_EQ(result.value().stats.spill.bytes_read, q.spill_read[b])
            << label;
        ExpectSameRows(std::move(result.value().rows), expected, label);
      }
    }
  }
}

TEST_F(BatchExecutorTest, SpillFilesAreRemovedAfterExecution) {
  auto plan = Plan(kSpillQueries[0]);
  ASSERT_NE(plan, nullptr);
  std::string dir = ::testing::TempDir() + "cbqt-spill-test";
  {
    MemoryTracker tracker("query", kTinyBudgetBytes);
    ExecOptions opts;
    opts.guards.memory = &tracker;
    opts.spill_dir = dir;
    auto result = Run(*plan, std::move(opts));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GE(result.value().stats.spill.files, 1);
  }
  // The per-query spill subdirectory (and every temp file in it) is gone.
  namespace fs = std::filesystem;
  if (fs::exists(dir)) {
    EXPECT_TRUE(fs::is_empty(dir));
  }
}

// ---------------------------------------------------------------------------
// Guardrails at batch granularity
// ---------------------------------------------------------------------------

TEST_F(BatchExecutorTest, CancellationLandsMidBatchStream) {
  auto plan = Plan(kOperatorQueries[1]);  // join: plenty of batches
  ASSERT_NE(plan, nullptr);
  CancellationToken token;
  FaultInjector faults(1);
  FaultSpec spec;
  spec.indices = {5};  // trips at the sixth guardrail poll — mid-execution
  faults.Arm(FaultSite::kCancelAt, spec);
  ExecOptions opts;
  opts.guards.cancel = &token;
  opts.guards.faults = &faults;
  opts.batch_size = 3;
  auto result = Run(*plan, std::move(opts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(token.cancelled());
}

TEST_F(BatchExecutorTest, SpillWriteFaultFailsExecutionTyped) {
  auto plan = Plan(kSpillQueries[0]);
  ASSERT_NE(plan, nullptr);
  MemoryTracker tracker("query", kTinyBudgetBytes);
  FaultInjector faults(1);
  FaultSpec spec;
  spec.indices = {0};  // the very first spilled row's write
  faults.Arm(FaultSite::kExecSpillWrite, spec);
  ExecOptions opts;
  opts.guards.memory = &tracker;
  opts.guards.faults = &faults;
  auto result = Run(*plan, std::move(opts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(faults.hits(FaultSite::kExecSpillWrite), 1);
}

TEST_F(BatchExecutorTest, SpillReadFaultFailsExecutionTyped) {
  auto plan = Plan(kSpillQueries[0]);
  ASSERT_NE(plan, nullptr);
  MemoryTracker tracker("query", kTinyBudgetBytes);
  FaultInjector faults(1);
  FaultSpec spec;
  spec.indices = {0};  // the first row read back from a spill partition
  faults.Arm(FaultSite::kExecSpillRead, spec);
  ExecOptions opts;
  opts.guards.memory = &tracker;
  opts.guards.faults = &faults;
  auto result = Run(*plan, std::move(opts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_GE(faults.hits(FaultSite::kExecSpillRead), 1);
}

// ---------------------------------------------------------------------------
// Stats and counting equivalence
// ---------------------------------------------------------------------------

TEST_F(BatchExecutorTest, RowsProcessedIsBatchSizeInvariant) {
  // CountBatch(n) must total exactly what per-row counting produced: the
  // work measure is a property of the plan and data, not of the batching.
  auto plan = Plan(kOperatorQueries[1]);
  ASSERT_NE(plan, nullptr);
  int64_t baseline = -1;
  for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
    ExecOptions opts;
    opts.batch_size = batch;
    auto result = Run(*plan, std::move(opts));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (baseline < 0) {
      baseline = result.value().stats.rows_processed;
    } else {
      EXPECT_EQ(result.value().stats.rows_processed, baseline)
          << "batch=" << batch;
    }
  }
  EXPECT_GT(baseline, 0);
}

TEST_F(BatchExecutorTest, CollectStatsOffReturnsDefaultStats) {
  auto plan = Plan(kOperatorQueries[0]);
  ASSERT_NE(plan, nullptr);
  ExecOptions opts;
  opts.collect_stats = false;
  auto result = Run(*plan, std::move(opts));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.rows_processed, 0);
  EXPECT_EQ(result.value().stats.batches, 0);
  EXPECT_FALSE(result.value().rows.empty());
}

TEST_F(BatchExecutorTest, SubqueryCachingSurvivesBatching) {
  // The TIS resolver caches per correlation key; with few distinct keys the
  // cache hit counter must dominate regardless of batch size.
  const char* sql = kOperatorQueries[4];
  auto plan = Plan(sql);
  ASSERT_NE(plan, nullptr);
  for (size_t batch : {size_t{1}, size_t{1024}}) {
    ExecOptions opts;
    opts.batch_size = batch;
    auto result = Run(*plan, std::move(opts));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result.value().stats.subquery_executions > 0) {
      EXPECT_GT(result.value().stats.subquery_cache_hits,
                result.value().stats.subquery_executions);
    }
  }
}

}  // namespace
}  // namespace cbqt
