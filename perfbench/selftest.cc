// Tests of the benchmark's own helpers: percentile choice, span self-time
// arithmetic, order-independent row digests, and seed determinism of the
// generated statements.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using cbqt::Row;
using cbqt::Value;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Quantile, NearestRank) {
  EXPECT_EQ(Quantile(OneTo(100), 0.5), 50);
  EXPECT_EQ(Quantile(OneTo(101), 0.5), 51);
  EXPECT_EQ(Quantile(OneTo(1000), 0.99), 990);  // 0.99 * 1000 is inexact
  EXPECT_EQ(Quantile(OneTo(5), 0), 1);
  EXPECT_EQ(Quantile(OneTo(5), 1), 5);
  EXPECT_EQ(Quantile({}, 0.5), 0);
}

TEST(Tail, P99WhenTenSamplesLieBeyond) {
  TailPercentile t = Tail(OneTo(1000), 0.99);
  ASSERT_TRUE(t.ok);
  EXPECT_DOUBLE_EQ(t.quantile, 0.99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);
}

TEST(Tail, FallsBackToHighestPercentileWithTenBeyond) {
  TailPercentile t = Tail(OneTo(200), 0.99);
  ASSERT_TRUE(t.ok);
  EXPECT_DOUBLE_EQ(t.quantile, 0.95);
  EXPECT_EQ(t.value, 190);
  EXPECT_EQ(t.beyond, 10u);

  t = Tail(OneTo(11), 0.99);
  ASSERT_TRUE(t.ok);
  EXPECT_EQ(t.value, 1);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(Tail, TooFewSamples) {
  TailPercentile t = Tail(OneTo(10), 0.99);
  EXPECT_FALSE(t.ok);
  EXPECT_EQ(t.samples, 10u);
  EXPECT_EQ(t.value, 0);
}

TEST(SelfTimes, ChildrenSubtractedFromParent) {
  // request [0,100): parse [10,20), exec [30,80) with a nested child
  // [40,50), and a second request whose child sticks out of its parent.
  std::vector<Span> spans = {
      {"request", 0, 100, 1, -1}, {"parser", 10, 20, 1, 0},
      {"exec", 30, 80, 1, 0},     {"inner", 40, 50, 1, 2},
      {"request", 200, 260, 2, -1}, {"cbqt", 250, 300, 2, 4},
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 10 - 50);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 50 - 10);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 60 - 10);  // only the covered part is subtracted
  int64_t req1 = self[0] + self[1] + self[2] + self[3];
  EXPECT_EQ(req1, 100);  // self times tile the request
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  std::vector<Span> spans = {{"request", 0, 100, 1, -1},
                             {"a", 10, 60, 1, 0},
                             {"b", 40, 70, 1, 0},
                             {"c", 70, 75, 1, 0}};
  EXPECT_EQ(SelfTimesNs(spans)[0], 100 - 65);
}

TEST(RowDigest, IndependentOfRowOrder) {
  std::vector<Row> rows = {{Value::Int(1), Value::Str("a")},
                           {Value::Int(2), Value::Null()},
                           {Value::Real(2.5), Value::Boolean(true)},
                           {Value::Int(1), Value::Str("a")}};
  std::vector<Row> shuffled = {rows[2], rows[0], rows[3], rows[1]};
  EXPECT_EQ(DigestRows(rows), DigestRows(shuffled));
}

TEST(RowDigest, SeesMultiplicityValuesAndColumnOrder) {
  std::vector<Row> base = {{Value::Int(1), Value::Str("a")},
                           {Value::Int(2), Value::Str("b")}};
  std::vector<Row> dup = {base[0], base[0], base[1]};
  std::vector<Row> changed = {{Value::Int(1), Value::Str("a")},
                              {Value::Int(3), Value::Str("b")}};
  std::vector<Row> swapped = {{Value::Str("a"), Value::Int(1)},
                              {Value::Int(2), Value::Str("b")}};
  std::vector<Row> moved = {{Value::Int(1), Value::Str("b")},
                            {Value::Int(2), Value::Str("a")}};
  EXPECT_NE(DigestRows(base), DigestRows(dup));
  EXPECT_NE(DigestRows(base), DigestRows(changed));
  EXPECT_NE(DigestRows(base), DigestRows(swapped));
  EXPECT_NE(DigestRows(base), DigestRows(moved));
}

TEST(RowDigest, NumericKindsAndSummationOrderAgree) {
  std::vector<Row> ints = {{Value::Int(2)}};
  std::vector<Row> reals = {{Value::Real(2.0)}};
  EXPECT_EQ(DigestRows(ints), DigestRows(reals));
  double a = (0.1 + 0.2) + 0.3, b = 0.1 + (0.2 + 0.3);
  ASSERT_NE(a, b);
  EXPECT_EQ(DigestRows({{Value::Real(a)}}), DigestRows({{Value::Real(b)}}));
  EXPECT_NE(DigestRows({{Value::Real(0.6)}}),
            DigestRows({{Value::Real(0.6001)}}));
}

TEST(Workloads, SameSeedSameStatements) {
  for (Workload w :
       {Workload::kAnalytic, Workload::kCompile, Workload::kServing}) {
    WorkloadSpec a = MakeWorkload(w, 11);
    WorkloadSpec b = MakeWorkload(w, 11);
    WorkloadSpec c = MakeWorkload(w, 12);
    ASSERT_EQ(a.queries.size(), b.queries.size());
    bool differs = false;
    for (size_t i = 0; i < a.queries.size(); ++i) {
      EXPECT_EQ(a.queries[i].sql, b.queries[i].sql);
      EXPECT_EQ(a.queries[i].tenant, b.queries[i].tenant);
      differs = differs || a.queries[i].sql != c.queries[i].sql;
    }
    EXPECT_EQ(a.sessions, b.sessions);
    EXPECT_TRUE(differs) << "another seed must give other statements";
  }
}

TEST(Workloads, ServingDealsBothTenantsToEverySession) {
  WorkloadSpec spec = MakeWorkload(Workload::kServing, 3);
  ASSERT_EQ(spec.sessions.size(), 3u);
  for (const auto& script : spec.sessions) {
    size_t reports = std::count_if(script.begin(), script.end(), [&](size_t q) {
      return spec.queries[q].tenant == kReport;
    });
    EXPECT_EQ(reports * 10, script.size());
  }
}

}  // namespace
}  // namespace perfbench
