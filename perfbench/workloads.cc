#include "perfbench/workloads.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "workload/query_gen.h"

namespace perfbench {
namespace {

using cbqt::QueryFamily;

// A p99 needs at least 1000 samples (ten beyond it), so every script holds
// >= 1000 calls. `analytic` holds six times that: its p99 is set by the
// heaviest transformable statements, whose costs spread widely with their
// literals, and with fewer of them the seed moved the p99 by ~15%.
// `analytic` and `serving` run on a scaled-down copy of the benches'
// database: the tables then stay close to the core's own caches, so other
// tenants of a shared machine contending for memory bandwidth move the
// figures less, and a window repeats every statement often enough for its
// fastest or median latency to settle. A round (every script once) takes
// ~2.5 s on `analytic`, ~1 s on `serving` and ~0.4 s on `compile`; the
// reference pass that checks every distinct statement stays under ~3 s.
constexpr int kAnalyticQueries = 6600;
constexpr int kAnalyticPerTransformable = 48;  // 528 of 6600: the paper's 8%
constexpr double kAnalyticScale = 0.05;       // of the benches' database
constexpr double kServingScale = 0.25;
constexpr int kCompilePerFamily = 100;
constexpr int kServingOltpQueries = 2000;
constexpr int kServingSessions = 3;  // fewer than the 4 cores
constexpr int kServingScriptLength = 500;
constexpr int kReportEvery = 10;  // one report query in each run of ten

const QueryFamily kTransformable[] = {
    QueryFamily::kAggSubquery,   QueryFamily::kSemiSubquery,
    QueryFamily::kGbView,        QueryFamily::kDistinctView,
    QueryFamily::kUnionView,     QueryFamily::kGbp,
    QueryFamily::kFactorization, QueryFamily::kPullup,
    QueryFamily::kSetOp,         QueryFamily::kOrExpansion,
    QueryFamily::kWindowView};
constexpr size_t kNumTransformable =
    sizeof(kTransformable) / sizeof(kTransformable[0]);

// The scan-dominated dashboard aggregates of bench_mqo, each with a few
// literal choices; a seed picks two per template, and sessions repeat them.
struct ReportTemplate {
  const char* prefix;
  const char* suffix;
  std::vector<const char*> literals;
};

const ReportTemplate kReportTemplates[] = {
    {"SELECT e.dept_id, COUNT(*), AVG(e.salary) FROM employees e "
     "WHERE e.salary > ",
     " GROUP BY e.dept_id",
     {"30000", "40000", "50000", "60000"}},
    {"SELECT j.dept_id, COUNT(*) FROM job_history j WHERE j.start_date > ",
     " GROUP BY j.dept_id",
     {"'19950101'", "'19960101'", "'19970101'", "'19980101'"}},
    {"SELECT DISTINCT e.dept_id FROM employees e WHERE e.salary > ",
     "",
     {"50000", "60000", "70000", "80000"}},
    {"SELECT o.cust_id, SUM(o.total) FROM orders o WHERE o.total > ",
     " GROUP BY o.cust_id",
     {"0", "100", "200", "300"}},
};

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

// The paper's §4 mix with its composition fixed (SPJ filler plus equal
// shares of the transformable families) and a seeded order, so a seed
// changes literals and order but not how many of each family a run holds.
WorkloadSpec Analytic(uint64_t seed) {
  cbqt::SchemaConfig schema = SchemaFor(Workload::kAnalytic);
  WorkloadSpec spec;
  auto add = [&](QueryFamily f, int count) {
    for (auto& q : cbqt::GenerateFamily(f, count, schema, seed)) {
      spec.queries.push_back({std::move(q.sql), QueryFamilyName(q.family),
                              kNoTenant});
    }
  };
  add(QueryFamily::kSpj, kAnalyticQueries - kAnalyticPerTransformable *
                                                static_cast<int>(kNumTransformable));
  for (QueryFamily f : kTransformable) add(f, kAnalyticPerTransformable);
  cbqt::Rng rng(seed ^ 0xa4a1171ca4a1171cULL);
  for (size_t i = spec.queries.size() - 1; i > 0; --i) {
    std::swap(spec.queries[i], spec.queries[rng.NextUint(i + 1)]);
  }
  spec.sessions.push_back(Iota(spec.queries.size()));
  return spec;
}

WorkloadSpec Compile(uint64_t seed) {
  std::vector<std::vector<cbqt::WorkloadQuery>> per_family;
  for (QueryFamily f : kTransformable) {
    per_family.push_back(cbqt::GenerateFamily(
        f, kCompilePerFamily, SchemaFor(Workload::kCompile), seed));
  }
  // Interleave the families so every stretch of the script has them in
  // equal shares.
  WorkloadSpec spec;
  for (int i = 0; i < kCompilePerFamily; ++i) {
    for (size_t f = 0; f < kNumTransformable; ++f) {
      auto& q = per_family[f][static_cast<size_t>(i)];
      spec.queries.push_back({std::move(q.sql), QueryFamilyName(q.family),
                              kNoTenant});
    }
  }
  spec.sessions.push_back(Iota(spec.queries.size()));
  return spec;
}

WorkloadSpec Serving(uint64_t seed) {
  WorkloadSpec spec;
  for (auto& q : cbqt::GenerateOltpWorkload(
           kServingOltpQueries, SchemaFor(Workload::kServing), seed)) {
    spec.queries.push_back({std::move(q.sql), QueryFamilyName(q.family),
                            kOltp});
  }
  cbqt::Rng rng(seed ^ 0x5e5510115e551011ULL);
  std::vector<size_t> reports;
  for (const ReportTemplate& t : kReportTemplates) {
    size_t a = rng.NextUint(t.literals.size());
    size_t b = (a + 1 + rng.NextUint(t.literals.size() - 1)) % t.literals.size();
    for (size_t lit : {a, b}) {
      reports.push_back(spec.queries.size());
      spec.queries.push_back(
          {std::string(t.prefix) + t.literals[lit] + t.suffix, "report",
           kReport});
    }
  }
  // Deal: each session walks its own stride of the OLTP statements, with
  // one report query at a seeded position in every run of kReportEvery.
  for (int s = 0; s < kServingSessions; ++s) {
    std::vector<size_t> script;
    size_t next_oltp = static_cast<size_t>(s);
    for (int block = 0; block < kServingScriptLength / kReportEvery; ++block) {
      uint64_t report_pos = rng.NextUint(kReportEvery);
      for (int j = 0; j < kReportEvery; ++j) {
        if (static_cast<uint64_t>(j) == report_pos) {
          script.push_back(reports[rng.NextUint(reports.size())]);
        } else {
          script.push_back(next_oltp % kServingOltpQueries);
          next_oltp += kServingSessions;
        }
      }
    }
    spec.sessions.push_back(std::move(script));
  }
  return spec;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "analytic") {
    *out = Workload::kAnalytic;
  } else if (name == "compile") {
    *out = Workload::kCompile;
  } else if (name == "serving") {
    *out = Workload::kServing;
  } else {
    return false;
  }
  return true;
}

const char* TenantName(int tenant) {
  switch (tenant) {
    case kOltp:
      return "oltp";
    case kReport:
      return "report";
    default:
      return "";
  }
}

WorkloadSpec MakeWorkload(Workload w, uint64_t seed) {
  switch (w) {
    case Workload::kAnalytic:
      return Analytic(seed);
    case Workload::kCompile:
      return Compile(seed);
    case Workload::kServing:
      return Serving(seed);
  }
  return {};
}

cbqt::SchemaConfig SchemaFor(Workload w) {
  cbqt::SchemaConfig schema;  // the benches' scale-1 database
  schema.oltp_indexes = (w == Workload::kServing);
  double scale = w == Workload::kAnalytic  ? kAnalyticScale
                 : w == Workload::kServing ? kServingScale
                                           : 1.0;
  schema.employees = static_cast<int>(schema.employees * scale);
  schema.job_history = static_cast<int>(schema.job_history * scale);
  schema.customers = static_cast<int>(schema.customers * scale);
  schema.orders = static_cast<int>(schema.orders * scale);
  schema.order_items = static_cast<int>(schema.order_items * scale);
  return schema;
}

cbqt::CbqtConfig EngineConfigFor(Workload w) {
  cbqt::CbqtConfig cfg;
  cfg.num_threads = 1;
  if (w != Workload::kServing) return cfg;
  cfg.plan_cache.capacity = 4096;
  cfg.mqo.enabled = true;
  cbqt::SchedulerConfig& s = cfg.guardrails.scheduler;
  s.enabled = true;
  s.max_concurrent = kServingSessions - 1;  // fewer slots than sessions
  s.queue_timeout_ms = 60000;               // queue, never throttle
  cbqt::TenantSpec oltp;
  oltp.name = TenantName(kOltp);
  oltp.weight = 4;
  oltp.priority = 0;
  oltp.max_queued = 4 * kServingSessions;  // never half full: no budget shrink
  cbqt::TenantSpec report;
  report.name = TenantName(kReport);
  report.weight = 1;
  report.priority = 2;
  report.max_queued = 4 * kServingSessions;
  // One report at a time, so an oltp call always finds a slot free of
  // reports. With two side by side (more shared scans) the run-to-run
  // spread of latency_p50_ms was about twice as wide.
  report.max_concurrent = 1;
  s.tenants = {oltp, report};
  return cfg;
}

cbqt::CbqtConfig ReferenceConfig() {
  cbqt::CbqtConfig cfg;
  cfg.cost_based = false;
  return cfg;
}

}  // namespace perfbench
