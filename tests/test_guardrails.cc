// Runtime-guardrail tests: hierarchical memory accounting (per-query and
// engine byte budgets, pressure shedding, victim selection), admission
// control (bounded queue, timeouts, fast typed rejections), the engine
// shutdown ordering, and the stats-refresh-vs-execution race — the layer
// that keeps one pathological query from taking down the engine.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cbqt/engine.h"
#include "cbqt/framework.h"
#include "common/fault_injector.h"
#include "common/memory_tracker.h"
#include "tests/test_util.h"
#include "workload/runner.h"

namespace cbqt {
namespace {

// Two subqueries (hash joins + materialized aggregate): buffers enough rows
// that byte budgets have something to meter, and runs a 4-state unnest
// search whose COW clones are charged too.
const char* kTwoSubquerySql =
    "SELECT e1.employee_name, j.job_title FROM employees e1, job_history "
    "j WHERE e1.emp_id = j.emp_id AND j.start_date > '19980101' AND "
    "e1.salary > (SELECT AVG(e2.salary) FROM employees e2 WHERE "
    "e2.dept_id = e1.dept_id) AND e1.dept_id IN (SELECT d.dept_id FROM "
    "departments d, locations l WHERE d.loc_id = l.loc_id AND "
    "l.country_id = 'US')";

// A streaming scan-join with no pipeline breaker worth mentioning: runs to
// completion even under a budget the query above cannot fit in.
const char* kJoinSql =
    "SELECT e.employee_name, d.dept_name FROM employees e, departments d "
    "WHERE e.dept_id = d.dept_id AND e.salary > 50000";

CbqtConfig UnnestOnlyConfig() {
  CbqtConfig cfg;
  cfg.transforms = TransformMask::Only({Transform::kUnnest});
  cfg.interleave_view_merge = false;
  return cfg;
}

// ---------------------------------------------------------------------------
// MemoryTracker unit behavior
// ---------------------------------------------------------------------------

TEST(MemoryTracker, ChildChargesWalkUpToRoot) {
  MemoryTracker root("engine", 0);
  MemoryTracker child("query-1", 0, &root);

  ASSERT_TRUE(child.TryReserve(100).ok());
  EXPECT_EQ(child.used_bytes(), 100);
  EXPECT_EQ(root.used_bytes(), 100);

  ASSERT_TRUE(child.TryReserve(50).ok());
  EXPECT_EQ(root.used_bytes(), 150);
  EXPECT_EQ(root.peak_bytes(), 150);

  child.Release(150);
  EXPECT_EQ(child.used_bytes(), 0);
  EXPECT_EQ(root.used_bytes(), 0);
  EXPECT_EQ(root.peak_bytes(), 150);  // high-water mark survives
}

TEST(MemoryTracker, LimitViolationRollsBackCompletely) {
  MemoryTracker root("engine", 1000);
  MemoryTracker a("query-a", 0, &root);
  MemoryTracker b("query-b", 0, &root);

  ASSERT_TRUE(a.TryReserve(800).ok());
  Status s = b.TryReserve(300);  // child ok, root would hit 1100
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.ToString().find("engine"), std::string::npos);

  // The partial charge on b was rolled back — nothing leaks.
  EXPECT_EQ(b.used_bytes(), 0);
  EXPECT_EQ(root.used_bytes(), 800);
  EXPECT_EQ(root.failed_reservations(), 1);

  // The per-query ceiling is enforced by the same walk.
  MemoryTracker tight("query-c", 100, &root);
  EXPECT_EQ(tight.TryReserve(101).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tight.used_bytes(), 0);
  EXPECT_EQ(root.used_bytes(), 800);
}

TEST(MemoryTracker, PressureCallbackShedsBeforeFailing) {
  MemoryTracker root("engine", 1000);
  ASSERT_TRUE(root.TryReserve(900).ok());

  int shed_calls = 0;
  root.set_pressure_callback([&](int64_t missing) -> int64_t {
    ++shed_calls;
    EXPECT_GE(missing, 200);
    root.Release(500);  // what cache eviction does: return cached bytes
    return 500;
  });

  // 900 + 300 > 1000: the pressure callback frees 500 and the retry fits.
  ASSERT_TRUE(root.TryReserve(300).ok());
  EXPECT_EQ(shed_calls, 1);
  EXPECT_EQ(root.used_bytes(), 700);
}

TEST(MemoryTracker, VictimCallbackIsLastResort) {
  MemoryTracker root("engine", 1000);
  MemoryTracker victim("query-v", 0, &root);
  ASSERT_TRUE(victim.TryReserve(900).ok());

  int pressure_calls = 0;
  root.set_pressure_callback([&](int64_t) -> int64_t {
    ++pressure_calls;
    return 0;  // nothing cached to shed
  });
  std::atomic<int> victim_calls{0};
  root.set_victim_callback([&](const MemoryTracker* requester,
                               int64_t missing) {
    victim_calls.fetch_add(1);
    EXPECT_NE(requester, &victim);
    EXPECT_GE(missing, 200);
    victim.Release(900);  // the victim query unwinding its reservations
    return true;
  });

  MemoryTracker requester("query-r", 0, &root);
  ASSERT_TRUE(requester.TryReserve(300).ok());
  EXPECT_EQ(pressure_calls, 1);  // pressure ladder ran first
  EXPECT_GE(victim_calls.load(), 1);
  EXPECT_EQ(root.used_bytes(), 300);
}

TEST(MemoryTracker, ScopedReservationUnwindsOnDestruction) {
  MemoryTracker root("engine", 0);
  {
    ScopedReservation res(&root);
    ASSERT_TRUE(res.Grow(250).ok());
    ASSERT_TRUE(res.Grow(250).ok());
    EXPECT_EQ(res.held_bytes(), 500);
    EXPECT_EQ(root.used_bytes(), 500);
  }
  EXPECT_EQ(root.used_bytes(), 0);

  // A failed Grow charges nothing and the scope releases only what it holds.
  MemoryTracker tight("tight", 100);
  ScopedReservation res(&tight);
  ASSERT_TRUE(res.Grow(80).ok());
  EXPECT_FALSE(res.Grow(80).ok());
  EXPECT_EQ(res.held_bytes(), 80);
  res.Release();
  EXPECT_EQ(tight.used_bytes(), 0);
}

// ---------------------------------------------------------------------------
// Engine guardrails
// ---------------------------------------------------------------------------

class GuardrailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeSmallHrDb();
    ASSERT_NE(db_, nullptr);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(GuardrailTest, PerQueryBudgetFailsOnlyTheHungryQuery) {
  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.guardrails.query_memory_bytes = 16 * 1024;
  QueryEngine engine(*db_, cfg);

  // The buffering-heavy query cannot fit its hash builds / clones in 16KB
  // (the employees build side alone is ~500 rows).
  auto hungry = engine.Run(kTwoSubquerySql);
  ASSERT_FALSE(hungry.ok());
  EXPECT_EQ(hungry.status().code(), StatusCode::kResourceExhausted);

  // A streaming query under the same engine still runs fine.
  auto lean = engine.Run(kJoinSql);
  ASSERT_TRUE(lean.ok()) << lean.status().ToString();
  EXPECT_FALSE(lean->rows.empty());

  GuardrailStats gs = engine.guardrail_stats();
  EXPECT_EQ(gs.resource_exhausted, 1);
  EXPECT_EQ(gs.admitted, 2);
}

TEST_F(GuardrailTest, MemoryTelemetryReportsPeaks) {
  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.guardrails.engine_memory_bytes = int64_t{1} << 40;  // tracking only
  QueryEngine engine(*db_, cfg);

  auto result = engine.Run(kTwoSubquerySql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->peak_memory_bytes, 0);
  EXPECT_GT(result->prepared.stats.peak_memory_bytes, 0);

  GuardrailStats gs = engine.guardrail_stats();
  EXPECT_GE(gs.engine_peak_bytes, result->peak_memory_bytes);
  EXPECT_EQ(gs.engine_used_bytes, 0);  // everything released at end of query
}

// The robustness acceptance bar: under an engine budget of half the
// unconstrained peak, a whole workload still completes with zero
// process-level failures — every failure is one of the typed guardrail
// categories, and the per-category counts reconcile with the total.
TEST_F(GuardrailTest, HalfPeakEngineBudgetCompletesWorkloadTyped) {
  std::vector<WorkloadQuery> queries;
  for (int i = 0; i < 8; ++i) {
    WorkloadQuery q;
    q.id = i;
    q.sql = (i % 2 == 0) ? kTwoSubquerySql : kJoinSql;
    queries.push_back(q);
  }

  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.plan_cache.capacity = 64;
  cfg.guardrails.engine_memory_bytes = int64_t{1} << 40;  // measure peak
  WorkloadRunner runner(*db_);
  auto unconstrained = runner.RunAll(queries, cfg);
  ASSERT_EQ(unconstrained.failed, 0) << unconstrained.ErrorSummary();
  ASSERT_GT(unconstrained.guardrails.engine_peak_bytes, 0);

  cfg.guardrails.engine_memory_bytes =
      unconstrained.guardrails.engine_peak_bytes / 2;
  auto constrained = runner.RunAll(queries, cfg);
  EXPECT_EQ(constrained.attempted, static_cast<int>(queries.size()));
  EXPECT_EQ(constrained.succeeded + constrained.failed, constrained.attempted);
  // The hard acceptance condition: no untyped (process-level) failures.
  EXPECT_EQ(constrained.untyped_failures(), 0) << constrained.ErrorSummary();
}

TEST_F(GuardrailTest, AdmissionRejectsImmediatelyWhenSaturated) {
  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.guardrails.scheduler.enabled = true;
  cfg.guardrails.scheduler.max_concurrent = 1;
  cfg.guardrails.scheduler.queue_timeout_ms = 0;
  cfg.guardrails.scheduler.default_tenant.max_queued = 0;
  cfg.guardrails.scheduler.default_tenant.priority = 0;
  cfg.fault_injector = std::make_shared<FaultInjector>(1);
  FaultSpec spec;
  spec.every_n = 1;
  spec.delay_ms = 25;
  cfg.fault_injector->Arm(FaultSite::kSlowState, spec);
  QueryEngine engine(*db_, cfg);

  Status slow_status;
  std::thread slow([&] {
    auto result = engine.Run(kTwoSubquerySql);
    slow_status = result.ok() ? Status::OK() : result.status();
  });
  while (engine.ActiveQueryIds().empty()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  auto rejected = engine.Run(kJoinSql);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kTenantThrottled);
  slow.join();
  EXPECT_TRUE(slow_status.ok()) << slow_status.ToString();

  SchedulerStats ss = engine.scheduler_stats();
  EXPECT_EQ(ss.throttled, 1);
  EXPECT_EQ(engine.guardrail_stats().admitted, 1);
}

TEST_F(GuardrailTest, AdmissionQueueTimesOutWithTypedRejection) {
  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.guardrails.scheduler.enabled = true;
  cfg.guardrails.scheduler.max_concurrent = 1;
  cfg.guardrails.scheduler.queue_timeout_ms = 20;
  cfg.guardrails.scheduler.default_tenant.max_queued = 1;
  cfg.guardrails.scheduler.default_tenant.priority = 0;
  cfg.fault_injector = std::make_shared<FaultInjector>(1);
  FaultSpec spec;
  spec.every_n = 1;
  spec.delay_ms = 60;  // holds the slot for several polling quanta > 20ms
  cfg.fault_injector->Arm(FaultSite::kSlowState, spec);
  QueryEngine engine(*db_, cfg);

  Status slow_status;
  std::thread slow([&] {
    auto result = engine.Run(kTwoSubquerySql);
    slow_status = result.ok() ? Status::OK() : result.status();
  });
  while (engine.ActiveQueryIds().empty()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  auto timed_out = engine.Run(kJoinSql);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kTenantThrottled);
  slow.join();
  EXPECT_TRUE(slow_status.ok()) << slow_status.ToString();

  SchedulerStats ss = engine.scheduler_stats();
  EXPECT_EQ(ss.queued, 1);
  EXPECT_EQ(ss.throttled, 1);
}

TEST_F(GuardrailTest, AdmissionQueueGrantsFreedSlot) {
  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.guardrails.scheduler.enabled = true;
  cfg.guardrails.scheduler.max_concurrent = 1;
  cfg.guardrails.scheduler.queue_timeout_ms = 10000;
  cfg.guardrails.scheduler.default_tenant.max_queued = 2;
  cfg.guardrails.scheduler.default_tenant.priority = 0;
  cfg.fault_injector = std::make_shared<FaultInjector>(1);
  FaultSpec spec;
  spec.every_n = 1;
  spec.delay_ms = 25;
  cfg.fault_injector->Arm(FaultSite::kSlowState, spec);
  QueryEngine engine(*db_, cfg);

  Status slow_status;
  std::thread slow([&] {
    auto result = engine.Run(kTwoSubquerySql);
    slow_status = result.ok() ? Status::OK() : result.status();
  });
  while (engine.ActiveQueryIds().empty()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  auto waited = engine.Run(kJoinSql);  // queues, then gets the freed slot
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  slow.join();
  EXPECT_TRUE(slow_status.ok()) << slow_status.ToString();

  SchedulerStats ss = engine.scheduler_stats();
  EXPECT_EQ(ss.queued, 1);
  EXPECT_EQ(ss.throttled, 0);
  EXPECT_EQ(engine.guardrail_stats().admitted, 2);
}

// Engine-shutdown ordering: destroying the engine while a background
// budget-upgrade is in flight must cancel/drain the upgrade before the plan
// cache and optimizer go away. Run under TSan in CI; a use-after-free or
// race here crashes/flags the loop.
TEST_F(GuardrailTest, DestructorDrainsInFlightUpgrades) {
  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.plan_cache.capacity = 64;
  cfg.plan_cache.upgrade_after_hits = 1;
  cfg.plan_cache.upgrade_budget_multiplier = 1e6;
  cfg.budget.max_states = 2;  // forces a degraded first plan

  for (int round = 0; round < 5; ++round) {
    QueryEngine engine(*db_, cfg);
    auto miss = engine.Prepare(kTwoSubquerySql);
    ASSERT_TRUE(miss.ok()) << miss.status().ToString();
    ASSERT_TRUE(miss->degraded);
    // The hit schedules the upgrade on the background pool...
    auto hit = engine.Prepare(kTwoSubquerySql);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    // ... and the engine is destroyed immediately, racing the upgrade.
  }
}

// Database::Analyze (stats refresh + index rebuild) racing concurrent
// engine executions: the shared_mutex serializes the refresh against
// in-flight operations and the plan cache invalidates lazily by stats
// epoch. Run under TSan in CI.
TEST_F(GuardrailTest, AnalyzeRacingExecutionStaysConsistent) {
  CbqtConfig cfg = UnnestOnlyConfig();
  cfg.plan_cache.capacity = 64;
  QueryEngine engine(*db_, cfg);

  constexpr int kRunsPerThread = 12;
  std::atomic<int> failures{0};
  std::vector<std::string> messages(2);
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kRunsPerThread; ++i) {
        auto result = engine.Run(kJoinSql);
        if (!result.ok()) {
          failures.fetch_add(1);
          messages[t] = result.status().ToString();
        } else if (result->rows.empty()) {
          failures.fetch_add(1);
          messages[t] = "empty result";
        }
      }
    });
  }
  std::thread analyzer([&] {
    for (int i = 0; i < 8; ++i) {
      Status s = db_->Analyze();
      if (!s.ok()) failures.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& w : workers) w.join();
  analyzer.join();
  EXPECT_EQ(failures.load(), 0) << messages[0] << " / " << messages[1];

  // Deterministic epoch-invalidation leg: the entry cached above is stale
  // after one more Analyze, so the next Run must drop and re-plan it.
  ASSERT_TRUE(db_->Analyze().ok());
  auto fresh = engine.Run(kJoinSql);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->prepared.from_plan_cache);
  PlanCacheStats pcs = engine.plan_cache_stats();
  EXPECT_GE(pcs.invalidations, 1);
  EXPECT_EQ(pcs.hits + pcs.misses,
            static_cast<int64_t>(2 * kRunsPerThread + 1));
}

}  // namespace
}  // namespace cbqt
