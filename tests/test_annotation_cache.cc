#include "cbqt/annotation_cache.h"

#include <gtest/gtest.h>

#include "optimizer/planner.h"
#include "sql/signature.h"
#include "tests/test_util.h"

namespace cbqt {
namespace {

/// A test key: the name's hash in the low word.
Hash128 Key(std::string_view name) { return {Fnv1a(name), 0}; }

TEST(AnnotationCache, PutFindHitMissCounters) {
  AnnotationCache cache;
  EXPECT_EQ(cache.Find(Key("sig-a")), nullptr);
  EXPECT_EQ(cache.misses(), 1);
  CostAnnotation ann;
  ann.cost = 12;
  ann.rows = 3;
  ann.plan = std::make_unique<PlanNode>(PlanOp::kTableScan);
  cache.Put(Key("sig-a"), std::move(ann));
  std::shared_ptr<const CostAnnotation> hit = cache.Find(Key("sig-a"));
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->cost, 12);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0);
}

TEST(AnnotationCache, LruEvictionBeyondCapacity) {
  // One shard so LRU order is global and deterministic.
  AnnotationCache cache(/*num_shards=*/1, /*capacity=*/2);
  EXPECT_EQ(cache.capacity(), 2u);
  auto put = [&cache](const char* sig, double cost) {
    CostAnnotation ann;
    ann.cost = cost;
    ann.plan = std::make_unique<PlanNode>(PlanOp::kTableScan);
    cache.Put(Key(sig), std::move(ann));
  };
  put("sig-a", 1);
  put("sig-b", 2);
  // Touch A: B becomes the eviction victim when C arrives.
  ASSERT_NE(cache.Find(Key("sig-a")), nullptr);
  put("sig-c", 3);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Find(Key("sig-a")), nullptr);
  EXPECT_EQ(cache.Find(Key("sig-b")), nullptr);
  EXPECT_NE(cache.Find(Key("sig-c")), nullptr);
  // An entry handed out before eviction stays valid afterwards.
  auto held = cache.Find(Key("sig-c"));
  put("sig-d", 4);
  put("sig-e", 5);
  ASSERT_NE(held, nullptr);
  EXPECT_DOUBLE_EQ(held->cost, 3);
}

TEST(AnnotationCache, ZeroCapacityIsUnbounded) {
  AnnotationCache cache(/*num_shards=*/1, /*capacity=*/0);
  for (int i = 0; i < 100; ++i) {
    CostAnnotation ann;
    ann.plan = std::make_unique<PlanNode>(PlanOp::kTableScan);
    cache.Put(Key("sig-" + std::to_string(i)), std::move(ann));
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.evictions(), 0);
}

TEST(AnnotationCache, KeysCompareAllBits) {
  AnnotationCache cache;
  auto put = [&cache](Hash128 key, double cost) {
    CostAnnotation ann;
    ann.cost = cost;
    ann.plan = std::make_unique<PlanNode>(PlanOp::kTableScan);
    cache.Put(key, std::move(ann));
  };
  // Keys sharing one word are still distinct entries.
  put({7, 1}, 1);
  put({7, 2}, 2);
  put({8, 1}, 3);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_DOUBLE_EQ(cache.Find({7, 1})->cost, 1);
  EXPECT_DOUBLE_EQ(cache.Find({7, 2})->cost, 2);
  EXPECT_DOUBLE_EQ(cache.Find({8, 1})->cost, 3);
  EXPECT_EQ(cache.Find({8, 2}), nullptr);
}

class AnnotationReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeSmallHrDb();
    ASSERT_NE(db_, nullptr);
  }
  std::unique_ptr<Database> db_;
};

TEST_F(AnnotationReuseTest, PlannerReusesSubBlockAnnotations) {
  // Planning the same query twice with a shared cache: the second pass
  // reuses every block (paper §3.4.2).
  auto qb = ParseAndBind(
      *db_,
      "SELECT e.employee_name FROM employees e WHERE e.salary > (SELECT "
      "AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id) AND "
      "e.dept_id IN (SELECT d.dept_id FROM departments d, locations l WHERE "
      "d.loc_id = l.loc_id)");
  ASSERT_NE(qb, nullptr);

  AnnotationCache cache;
  Planner p1(*db_, CostParams{}, &cache);
  auto r1 = p1.PlanBlock(*qb);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(p1.blocks_planned(), 3);  // outer + two subqueries
  EXPECT_EQ(cache.hits(), 0);

  Planner p2(*db_, CostParams{}, &cache);
  auto r2 = p2.PlanBlock(*qb);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(p2.blocks_planned(), 0);  // everything reused
  EXPECT_GE(cache.hits(), 1);
  EXPECT_DOUBLE_EQ(r1->plan->est_cost, r2->plan->est_cost);
}

TEST_F(AnnotationReuseTest, DifferentBlocksDifferentSignatures) {
  auto a = ParseAndBind(*db_, "SELECT e.salary FROM employees e");
  auto b = ParseAndBind(*db_,
                        "SELECT e.salary FROM employees e WHERE e.salary > 1");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(BlockSignature(*a), BlockSignature(*b));
}

TEST_F(AnnotationReuseTest, CachedPlanIsSharedNotCopied) {
  auto qb = ParseAndBind(*db_, "SELECT e.salary FROM employees e");
  ASSERT_NE(qb, nullptr);
  AnnotationCache cache;
  Planner p(*db_, CostParams{}, &cache);
  auto r1 = p.PlanBlock(*qb);
  ASSERT_TRUE(r1.ok());
  std::shared_ptr<const CostAnnotation> stored =
      cache.Find(BlockKey(BlockFingerprint(*qb)));
  ASSERT_NE(stored, nullptr);
  // The miss publishes the plan it returns, and a hit hands back that very
  // tree: sharing, not a copy per hit.
  EXPECT_EQ(stored->plan.get(), r1->plan.get());
  auto r2 = p.PlanBlock(*qb);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(p.blocks_planned(), 1);
  EXPECT_EQ(r2->plan.get(), stored->plan.get());
}

}  // namespace
}  // namespace cbqt
