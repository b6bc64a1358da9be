#include "optimizer/join_order.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

namespace cbqt {
namespace {

// A synthetic coster over relations with fixed base costs; joining rel i
// multiplies cost by a per-relation factor, so the optimal order is to add
// cheap relations first. The "plan" records the join order in
// PlanNode::table_alias ("r0,r2,...").
class FakeCoster : public JoinCoster {
 public:
  explicit FakeCoster(std::vector<double> sizes) : sizes_(std::move(sizes)) {}

  Result<JoinStepPlan> BaseRel(int rel) override {
    auto node = std::make_shared<PlanNode>(PlanOp::kTableScan);
    node->table_alias = "r" + std::to_string(rel);
    JoinStepPlan step;
    step.plan = std::move(node);
    step.rows = sizes_[static_cast<size_t>(rel)];
    step.cost = sizes_[static_cast<size_t>(rel)];
    ++base_calls_;
    return step;
  }

  Result<JoinStepPlan> Join(const JoinStepPlan& left, uint64_t left_mask,
                            int rel) override {
    (void)left_mask;
    auto node = std::make_shared<PlanNode>(PlanOp::kHashJoin);
    node->table_alias =
        left.plan->table_alias + "," + "r" + std::to_string(rel);
    node->children.push_back(left.plan);
    JoinStepPlan step;
    step.plan = std::move(node);
    step.rows = left.rows;  // selective joins keep left size
    step.cost = left.cost + sizes_[static_cast<size_t>(rel)] +
                left.rows * 0.01;
    ++join_calls_;
    return step;
  }

  int base_calls_ = 0;
  int join_calls_ = 0;

 private:
  std::vector<double> sizes_;
};

TEST(JoinOrder, SingleRelation) {
  FakeCoster coster({42});
  JoinOrderEnumerator e({0}, &coster, 1e18);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->cost, 42);
}

TEST(JoinOrder, DpPrefersSmallDrivingRelation) {
  // Driving with the small relation keeps left.rows low throughout.
  FakeCoster coster({10000, 10, 500});
  JoinOrderEnumerator e({0, 0, 0}, &coster, 1e18);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan->table_alias.substr(0, 2), "r1");
}

TEST(JoinOrder, DependenciesRespected) {
  // r2 must come after r0 and r1 (e.g. a lateral view).
  FakeCoster coster({5, 10, 1});
  std::vector<uint64_t> deps = {0, 0, 0b011};
  JoinOrderEnumerator e(deps, &coster, 1e18);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  // r2 is last despite being the smallest.
  EXPECT_EQ(r->plan->table_alias, "r0,r1,r2");
}

TEST(JoinOrder, DependentRelationCannotLead) {
  FakeCoster coster({5, 10});
  std::vector<uint64_t> deps = {0b10, 0};  // r0 needs r1 first
  JoinOrderEnumerator e(deps, &coster, 1e18);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan->table_alias, "r1,r0");
}

TEST(JoinOrder, CutoffPrunesEverything) {
  FakeCoster coster({100, 100});
  JoinOrderEnumerator e({0, 0}, &coster, 50.0);
  auto r = e.Enumerate();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCostCutoff);
}

TEST(JoinOrder, GreedyHandlesManyRelations) {
  std::vector<double> sizes;
  std::vector<uint64_t> deps;
  for (int i = 0; i < 14; ++i) {
    sizes.push_back(100 + i);
    deps.push_back(0);
  }
  FakeCoster coster(sizes);
  JoinOrderEnumerator e(deps, &coster, 1e18, /*dp_threshold=*/10);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  // Greedy evaluates far fewer joins than DP would (14 * 2^14).
  EXPECT_LT(coster.join_calls_, 14 * 14 + 1);
}

TEST(JoinOrder, DpFindsOptimalDrivingRelation) {
  // With this cost shape every order driven by the smallest relation costs
  // the same and beats all others; DP must pick one of them.
  std::vector<double> sizes = {40, 10, 30, 20};
  FakeCoster coster(sizes);
  JoinOrderEnumerator e({0, 0, 0, 0}, &coster, 1e18);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->plan->table_alias.substr(0, 2), "r1");
  double expected = 40 + 10 + 30 + 20 + 3 * 10 * 0.01;
  EXPECT_NEAR(r->cost, expected, 1e-9);
}

TEST(JoinOrder, EmptyRelationsRejected) {
  FakeCoster coster({});
  JoinOrderEnumerator e({}, &coster, 1e18);
  EXPECT_FALSE(e.Enumerate().ok());
}

// Records every stored subset plan; once `serve` is set, hands the stored
// plans back as hits.
class RecordingMemo : public JoinOrderMemo {
 public:
  Probe Lookup(uint64_t mask, double cutoff, JoinStepPlan* out) override {
    (void)cutoff;
    auto it = stored.find(mask);
    if (!serve || it == stored.end()) return Probe::kMiss;
    *out = it->second;
    return Probe::kHit;
  }
  void Store(uint64_t mask, const JoinStepPlan& step) override {
    stored[mask] = step;
  }

  bool serve = false;
  std::map<uint64_t, JoinStepPlan> stored;
};

TEST(JoinOrder, DpSharesMemoizedSubsetPlans) {
  FakeCoster coster({40, 10, 30});
  RecordingMemo memo;
  JoinOrderEnumerator e({0, 0, 0}, &coster, 1e18, /*dp_threshold=*/10, &memo);
  auto r = e.Enumerate();
  ASSERT_TRUE(r.ok());
  // The result is the stored full-set plan, and its left input is the very
  // plan stored for the subset it extends: subsets are shared, not copied.
  EXPECT_EQ(memo.stored[0b111].plan.get(), r->plan.get());
  ASSERT_EQ(r->plan->children.size(), 1u);
  const PlanNode* left = r->plan->children[0].get();
  int sharing_subsets = 0;
  for (uint64_t sub : {0b011u, 0b101u, 0b110u}) {
    if (memo.stored[sub].plan.get() == left) ++sharing_subsets;
  }
  EXPECT_EQ(sharing_subsets, 1);

  // A later enumeration served from the memo returns the stored tree itself.
  memo.serve = true;
  FakeCoster again({40, 10, 30});
  JoinOrderEnumerator e2({0, 0, 0}, &again, 1e18, /*dp_threshold=*/10, &memo);
  auto r2 = e2.Enumerate();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->plan.get(), r->plan.get());
  EXPECT_EQ(again.join_calls_, 0);
}

}  // namespace
}  // namespace cbqt
