// The repository benchmark: runs one named workload against the engine's
// public API for a fixed window and prints every metric by name and unit,
// last line a JSON object {correct, attempted, failed, metrics}.
//
//   perfbench --workload analytic|compile|serving --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics through QueryEngine. --trace 1
// alternates untraced and traced calls over the same statements; a traced
// call times each layer's public function from here (parse, bind, CBQT
// search, physical planning, execution), records one span per call, and
// reports per-layer self time, shares and counters. Spans stay in memory
// and are written to --trace-out when the run ends.
//
// Correctness: every executed statement's result digest must match the one
// a heuristic-only reference engine (no plan cache, MQO or scheduler,
// one session) produced before the window opened; on `compile` every
// chosen cost must be <= the heuristic-only cost, two Prepares of one
// statement must serialize to identical plan bytes, and every timed
// Prepare must reproduce that cost. Any mismatch or failed call is counted
// in `failed` and makes the command exit non-zero.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "binder/binder.h"
#include "cbqt/engine.h"
#include "common/result_compare.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_serde.h"
#include "parser/parser.h"
#include "perfbench/stats.h"
#include "perfbench/workloads.h"
#include "workload/schema_gen.h"

namespace perfbench {
namespace {

using cbqt::QueryEngine;

// Set-ups per run, half before the window and half after it, so that the
// median samples the machine at two moments half a minute apart.
constexpr int kSetupReps = 16;
constexpr int kWarmupQueries = 20;
constexpr int kMaxReportedFailures = 5;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Options {
  Workload workload = Workload::kAnalytic;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload_name = val;
      have_workload = ParseWorkload(val, &opt->workload);
    } else if (key == "--seed") {
      opt->seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && opt->seconds > 0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      opt->trace = val == "1";
    } else if (key == "--trace-out") {
      opt->trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

// ---------------------------------------------------------------------------
// Per-session accumulators (one per closed-loop session thread, merged at
// the end of the window).

struct CbqtCounters {
  int64_t optimizations = 0;
  int64_t states = 0;
  int64_t annotation_hits = 0;
  int64_t blocks_planned = 0;
  int64_t join_memo_hits = 0;
  int64_t join_memo_misses = 0;
  int64_t blocks_cloned = 0;
  int64_t applied = 0;

  void Add(const cbqt::CbqtStats& s) {
    ++optimizations;
    states += s.states_evaluated;
    annotation_hits += s.annotation_hits;
    blocks_planned += s.blocks_planned;
    join_memo_hits += s.join_memo_hits;
    join_memo_misses += s.join_memo_misses;
    blocks_cloned += s.blocks_cloned;
    applied += static_cast<int64_t>(s.applied.size());
  }
  void Merge(const CbqtCounters& o) {
    optimizations += o.optimizations;
    states += o.states;
    annotation_hits += o.annotation_hits;
    blocks_planned += o.blocks_planned;
    join_memo_hits += o.join_memo_hits;
    join_memo_misses += o.join_memo_misses;
    blocks_cloned += o.blocks_cloned;
    applied += o.applied;
  }
};

struct ExecCounters {
  int64_t executions = 0;
  int64_t rows_processed = 0;
  int64_t batches = 0;
  int64_t subquery_executions = 0;
  int64_t subquery_cache_hits = 0;
  int64_t spilled_queries = 0;
  double execute_ms = 0;

  void Add(const cbqt::ExecStats& s, double ms) {
    ++executions;
    rows_processed += s.rows_processed;
    batches += s.batches;
    subquery_executions += s.subquery_executions;
    subquery_cache_hits += s.subquery_cache_hits;
    spilled_queries += s.spilled_operators > 0 ? 1 : 0;
    execute_ms += ms;
  }
  void Merge(const ExecCounters& o) {
    executions += o.executions;
    rows_processed += o.rows_processed;
    batches += o.batches;
    subquery_executions += o.subquery_executions;
    subquery_cache_hits += o.subquery_cache_hits;
    spilled_queries += o.spilled_queries;
    execute_ms += o.execute_ms;
  }
};

struct SessionLog {
  /// Per round: calls of either kind.
  std::vector<int64_t> round_calls;
  std::vector<double> traced_latency_ms;
  /// Per statement: summed latency and count of untraced / traced calls
  /// (the tracing overhead compares the two on the same statements).
  std::vector<double> sum_ms[2];
  std::vector<int64_t> calls[2];
  /// Per statement: the latencies of its untraced calls.
  std::vector<std::vector<double>> stmt_ms;

  // Serving: engine-reported phases of every QueryEngine::Run.
  std::vector<double> tenant_latency_ms[2];
  std::vector<double> admit_wait_ms[2];
  std::vector<double> hit_prepare_us;
  std::vector<double> miss_prepare_ms;
  int64_t cache_hits = 0;
  int64_t report_executions = 0;

  // Traced calls.
  std::vector<Span> spans;
  std::vector<std::pair<int64_t, size_t>> request_query;
  CbqtCounters cbqt;
  ExecCounters exec;

  int64_t completed = 0;
  int64_t failed = 0;
  int64_t rechecked = 0;  ///< digest mismatches settled by a full compare
  std::vector<std::string> failures;

  explicit SessionLog(size_t num_queries) {
    for (int m = 0; m < 2; ++m) {
      sum_ms[m].assign(num_queries, 0);
      calls[m].assign(num_queries, 0);
    }
    stmt_ms.resize(num_queries);
  }

  int Begin(const char* name, int64_t request, int parent) {
    spans.push_back({name, NowNs(), 0, request, parent});
    return static_cast<int>(spans.size()) - 1;
  }
  void End(int span) { spans[static_cast<size_t>(span)].end_ns = NowNs(); }
  /// A span whose bounds come from engine-reported durations.
  void Derived(const char* name, int64_t request, int parent, int64_t start,
               int64_t end) {
    spans.push_back({name, start, end, request, parent});
  }

  void Fail(std::string what) {
    ++failed;
    if (failures.size() < kMaxReportedFailures) {
      failures.push_back(std::move(what));
    }
  }
};

// ---------------------------------------------------------------------------
// Set-up and the reference pass.

struct Fixture {
  std::unique_ptr<cbqt::Database> db;
  std::unique_ptr<QueryEngine> engine;
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> warmup_miss_prepare_ms;  ///< last repetition
  double setup_peak_rss_mb = 0;
};

bool Setup(Workload w, const WorkloadSpec& spec, int reps, Fixture* fx) {
  for (int rep = 0; rep < reps; ++rep) {
    fx->engine.reset();
    fx->db.reset();
    fx->warmup_miss_prepare_ms.clear();
    int64_t t0 = NowNs();
    fx->db = std::make_unique<cbqt::Database>();
    cbqt::Status st = cbqt::BuildHrDatabase(SchemaFor(w), fx->db.get());
    int64_t t1 = NowNs();
    if (!st.ok()) {
      std::fprintf(stderr, "database build failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
    fx->engine = std::make_unique<QueryEngine>(*fx->db, EngineConfigFor(w));
    // Warm-up: Prepare the first statements of the script (analytic,
    // compile), or every distinct statement once so the plan cache is
    // filled (serving). Nothing executes, so set-up memory does not depend
    // on which result sets a seed draws.
    const std::vector<size_t>& script = spec.sessions.front();
    size_t warm = w == Workload::kServing
                      ? spec.queries.size()
                      : std::min<size_t>(kWarmupQueries, script.size());
    for (size_t i = 0; i < warm; ++i) {
      const BenchQuery& q =
          spec.queries[w == Workload::kServing ? i : script[i]];
      cbqt::QueryOptions opts;
      opts.tenant = TenantName(q.tenant);
      auto p = fx->engine->Prepare(q.sql, opts);
      if (!p.ok()) {
        std::fprintf(stderr, "warm-up failed: %s\n",
                     p.status().ToString().c_str());
        return false;
      }
      if (!p->from_plan_cache) {
        fx->warmup_miss_prepare_ms.push_back(p->optimize_ms);
      }
    }
    int64_t t2 = NowNs();
    fx->build_s.push_back(NsToMs(t1 - t0) / 1000);
    fx->setup_s.push_back(NsToMs(t2 - t0) / 1000);
  }
  return true;
}

/// What the timed window checks each call against.
struct Expected {
  std::vector<RowDigest> digest;  ///< analytic, serving
  std::vector<double> cost;       ///< compile
};

/// Reference pass, outside the timed window; compile's cost and plan-byte
/// checks fail into `log` here.
void BuildExpected(Workload w, const WorkloadSpec& spec,
                   const QueryEngine& engine, const QueryEngine& reference,
                   Expected* out, SessionLog* log) {
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    const std::string& sql = spec.queries[i].sql;
    if (w != Workload::kCompile) {
      auto r = reference.Run(sql);
      if (!r.ok()) {
        log->Fail("reference run failed: " + r.status().ToString() + " | " +
                  sql);
        out->digest.push_back({});
        continue;
      }
      out->digest.push_back(DigestRows(r->rows));
      continue;
    }
    auto heuristic = reference.Prepare(sql);
    auto first = engine.Prepare(sql);
    auto second = engine.Prepare(sql);
    if (!heuristic.ok() || !first.ok() || !second.ok()) {
      log->Fail("prepare failed | " + sql);
      out->cost.push_back(-1);
      continue;
    }
    out->cost.push_back(first->cost);
    if (first->cost > heuristic->cost * (1 + 1e-9)) {
      log->Fail("cost-based cost " + std::to_string(first->cost) +
                " > heuristic cost " + std::to_string(heuristic->cost) +
                " | " + sql);
    }
    if (cbqt::SerializePlan(*first->plan) !=
        cbqt::SerializePlan(*second->plan)) {
      log->Fail("plan bytes differ across two Prepares | " + sql);
    }
  }
}

// ---------------------------------------------------------------------------
// The timed window.

struct Context {
  Workload workload;
  const WorkloadSpec& spec;
  const cbqt::Database& db;
  const QueryEngine& engine;
  const QueryEngine& reference;
  const Expected& expected;
  cbqt::CbqtOptimizer cbqt_optimizer;
  cbqt::PhysicalOptimizer physical;
  cbqt::ExecOptions exec_options;
  std::atomic<int64_t> next_request{0};
};

void CheckRows(const Context& ctx, size_t q, const std::vector<cbqt::Row>& rows,
               SessionLog* log) {
  if (DigestRows(rows) == ctx.expected.digest[q]) return;
  // Digests round doubles to 32 mantissa bits; a value that straddles a
  // rounding boundary is settled by the full tolerant compare.
  ++log->rechecked;
  const std::string& sql = ctx.spec.queries[q].sql;
  auto ref = ctx.reference.Run(sql);
  if (!ref.ok()) {
    log->Fail("reference re-run failed | " + sql);
    return;
  }
  auto diff = cbqt::CompareRowMultisets(rows, ref->rows);
  if (!diff.equal) log->Fail("row mismatch: " + diff.message + " | " + sql);
}

void CheckCost(const Context& ctx, size_t q, double cost, SessionLog* log) {
  if (cost != ctx.expected.cost[q]) {
    log->Fail("chosen cost " + std::to_string(cost) + " differs from " +
              std::to_string(ctx.expected.cost[q]) + " | " +
              ctx.spec.queries[q].sql);
  }
}

/// Books a serving call's engine-reported phases; returns its admission
/// wait: the part of the Run call that is neither Prepare nor execution.
double RecordServing(const BenchQuery& query, double run_ms,
                     const cbqt::QueryResult& r, SessionLog* log) {
  const cbqt::PreparedQuery& p = r.prepared;
  double wait_ms = std::max(0.0, run_ms - p.optimize_ms - r.execute_ms);
  log->tenant_latency_ms[query.tenant].push_back(run_ms);
  log->admit_wait_ms[query.tenant].push_back(wait_ms);
  if (p.from_plan_cache) {
    ++log->cache_hits;
    log->hit_prepare_us.push_back(p.optimize_ms * 1000);
  } else {
    log->miss_prepare_ms.push_back(p.optimize_ms);
  }
  if (query.tenant == kReport) ++log->report_executions;
  return wait_ms;
}

/// Untraced call through the engine facade. Returns its latency.
double UntracedCall(Context& ctx, size_t q, SessionLog* log) {
  const BenchQuery& query = ctx.spec.queries[q];
  if (ctx.workload == Workload::kCompile) {
    int64_t t0 = NowNs();
    auto p = ctx.engine.Prepare(query.sql);
    double ms = NsToMs(NowNs() - t0);
    if (!p.ok()) {
      log->Fail("prepare failed: " + p.status().ToString());
    } else {
      CheckCost(ctx, q, p->cost, log);
    }
    return ms;
  }
  cbqt::QueryOptions opts;
  opts.tenant = TenantName(query.tenant);
  int64_t t0 = NowNs();
  auto r = ctx.engine.Run(query.sql, opts);
  double ms = NsToMs(NowNs() - t0);
  if (!r.ok()) {
    log->Fail("run failed: " + r.status().ToString());
    return ms;
  }
  if (ctx.workload == Workload::kServing) RecordServing(query, ms, *r, log);
  CheckRows(ctx, q, r->rows, log);
  return ms;
}

/// Traced analytic / compile call: the engine's pipeline driven layer by
/// layer from here, one span per public call. Returns the request latency.
double TracedPipelineCall(Context& ctx, size_t q, SessionLog* log) {
  const std::string& sql = ctx.spec.queries[q].sql;
  int64_t req = ctx.next_request.fetch_add(1);
  log->request_query.emplace_back(req, q);
  int root = log->Begin("request", req, -1);
  auto finish = [&] {
    log->End(root);
    const Span& s = log->spans[static_cast<size_t>(root)];
    return NsToMs(s.end_ns - s.start_ns);
  };

  int span = log->Begin("parser", req, root);
  auto parsed = cbqt::ParseSql(sql);
  log->End(span);
  if (!parsed.ok()) {
    log->Fail("parse failed: " + parsed.status().ToString());
    return finish();
  }
  auto copy = parsed.value()->Clone();
  span = log->Begin("binder", req, root);
  cbqt::Status bound = cbqt::BindQuery(ctx.db, copy.get());
  log->End(span);
  span = log->Begin("cbqt", req, root);
  auto optimized = ctx.cbqt_optimizer.Optimize(*parsed.value());
  log->End(span);
  if (!bound.ok() || !optimized.ok()) {
    log->Fail("bind/optimize failed | " + sql);
    return finish();
  }
  log->cbqt.Add(optimized->stats);
  span = log->Begin("optimizer", req, root);
  auto planned = ctx.physical.Optimize(*optimized->tree);
  log->End(span);
  if (!planned.ok()) {
    log->Fail("physical planning failed: " + planned.status().ToString());
    return finish();
  }
  if (ctx.workload == Workload::kCompile) {
    double ms = finish();
    CheckCost(ctx, q, optimized->cost, log);
    return ms;
  }
  span = log->Begin("exec", req, root);
  cbqt::Executor executor(ctx.db, ctx.exec_options);
  auto result = executor.Execute(*optimized->plan);
  log->End(span);
  double ms = finish();
  if (!result.ok()) {
    log->Fail("execute failed: " + result.status().ToString());
    return ms;
  }
  const Span& exec_span = log->spans[static_cast<size_t>(span)];
  log->exec.Add(result->stats, NsToMs(exec_span.end_ns - exec_span.start_ns));
  CheckRows(ctx, q, result->rows, log);
  return ms;
}

/// Traced serving call: the statement is parsed here (hits parse too) and
/// then run through QueryEngine::Run; the engine-reported phases become
/// child spans of the Run span (admission wait first, then Prepare, then
/// execution), so the scheduler, plan-cache and executor layers are timed
/// without entering the engine.
double TracedServingCall(Context& ctx, size_t q, SessionLog* log) {
  const BenchQuery& query = ctx.spec.queries[q];
  int64_t req = ctx.next_request.fetch_add(1);
  log->request_query.emplace_back(req, q);
  int root = log->Begin("request", req, -1);
  int span = log->Begin("parser", req, root);
  auto parsed = cbqt::ParseSql(query.sql);
  log->End(span);
  cbqt::QueryOptions opts;
  opts.tenant = TenantName(query.tenant);
  int run = log->Begin("engine", req, root);
  auto r = ctx.engine.Run(query.sql, opts);
  log->End(run);
  log->End(root);
  Span run_span = log->spans[static_cast<size_t>(run)];
  const Span& root_span = log->spans[static_cast<size_t>(root)];
  double request_ms = NsToMs(root_span.end_ns - root_span.start_ns);
  if (!parsed.ok() || !r.ok()) {
    log->Fail("serving call failed | " + query.sql);
    return request_ms;
  }
  double run_ms = NsToMs(run_span.end_ns - run_span.start_ns);
  double wait_ms = RecordServing(query, run_ms, *r, log);
  int64_t t = run_span.start_ns;
  auto derived = [&](const char* name, double ms) {
    int64_t end = std::min(run_span.end_ns, t + static_cast<int64_t>(ms * 1e6));
    log->Derived(name, req, run, t, end);
    t = end;
  };
  derived("scheduler", wait_ms);
  derived("plan_cache", r->prepared.optimize_ms);
  derived("exec", r->execute_ms);
  log->exec.Add(r->exec, r->execute_ms);
  CheckRows(ctx, q, r->rows, log);
  return request_ms;
}

/// The measurement window in rounds: every session issues its whole script
/// once per round, and sessions meet at a barrier between rounds. Sessions
/// stop at the deadline, mid-round if need be (the first round always
/// completes); a round cut short is left out of the round figures.
class Rounds {
 public:
  Rounds(size_t sessions, int64_t start_ns, int64_t deadline_ns)
      : start_ns_(start_ns),
        deadline_ns_(deadline_ns),
        barrier_(static_cast<std::ptrdiff_t>(sessions), Completion{this}) {}

  bool Expired(size_t round) const {
    return round > 0 && NowNs() >= deadline_ns_;
  }
  void Cut() { cut_.store(true); }
  /// Ends the calling session's round; false once the window is over.
  bool Finish() {
    barrier_.arrive_and_wait();
    return !over_;
  }

  /// [start, end) of round r, and whether it ran its whole script.
  int64_t start_ns(size_t r) const { return r == 0 ? start_ns_ : end_[r - 1]; }
  int64_t end_ns(size_t r) const { return end_[r]; }
  bool complete(size_t r) const { return complete_[r]; }
  size_t size() const { return end_.size(); }

 private:
  struct Completion {
    Rounds* self;
    void operator()() noexcept {
      int64_t now = NowNs();
      self->end_.push_back(now);
      self->complete_.push_back(!self->cut_.exchange(false));
      self->over_ = now >= self->deadline_ns_;
    }
  };

  int64_t start_ns_;
  int64_t deadline_ns_;
  std::vector<int64_t> end_;
  std::vector<bool> complete_;
  std::atomic<bool> cut_{false};
  bool over_ = false;
  std::barrier<Completion> barrier_;
};

/// One closed-loop session: issues its script's statements back to back,
/// each waiting for the previous reply. In a trace run calls alternate
/// between untraced and traced, and the alternation flips every round, so
/// both modes see the same statements equally often.
void RunSession(Context& ctx, const std::vector<size_t>& script, bool trace,
                Rounds* rounds, SessionLog* log) {
  for (size_t round = 0;; ++round) {
    log->round_calls.push_back(0);
    for (size_t i = 0; i < script.size(); ++i) {
      if (rounds->Expired(round)) {
        rounds->Cut();
        break;
      }
      size_t q = script[i];
      bool traced = trace && (i + round) % 2 == 1;
      double ms;
      if (!traced) {
        ms = UntracedCall(ctx, q, log);
        log->stmt_ms[q].push_back(ms);
      } else if (ctx.workload == Workload::kServing) {
        ms = TracedServingCall(ctx, q, log);
        log->traced_latency_ms.push_back(ms);
      } else {
        ms = TracedPipelineCall(ctx, q, log);
        log->traced_latency_ms.push_back(ms);
      }
      log->sum_ms[traced ? 1 : 0][q] += ms;
      ++log->calls[traced ? 1 : 0][q];
      ++log->round_calls[round];
      ++log->completed;
    }
    if (!rounds->Finish()) return;
  }
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

void MergeInto(SessionLog* all, SessionLog& s) {
  all->round_calls.resize(
      std::max(all->round_calls.size(), s.round_calls.size()));
  for (size_t r = 0; r < s.round_calls.size(); ++r) {
    all->round_calls[r] += s.round_calls[r];
  }
  Append(&all->traced_latency_ms, s.traced_latency_ms);
  for (int m = 0; m < 2; ++m) {
    for (size_t q = 0; q < s.sum_ms[m].size(); ++q) {
      all->sum_ms[m][q] += s.sum_ms[m][q];
      all->calls[m][q] += s.calls[m][q];
    }
    Append(&all->tenant_latency_ms[m], s.tenant_latency_ms[m]);
    Append(&all->admit_wait_ms[m], s.admit_wait_ms[m]);
  }
  for (size_t q = 0; q < s.stmt_ms.size(); ++q) {
    Append(&all->stmt_ms[q], s.stmt_ms[q]);
  }
  Append(&all->hit_prepare_us, s.hit_prepare_us);
  Append(&all->miss_prepare_ms, s.miss_prepare_ms);
  all->cache_hits += s.cache_hits;
  all->report_executions += s.report_executions;
  int offset = static_cast<int>(all->spans.size());
  for (Span sp : s.spans) {
    if (sp.parent >= 0) sp.parent += offset;
    all->spans.push_back(sp);
  }
  all->request_query.insert(all->request_query.end(), s.request_query.begin(),
                            s.request_query.end());
  all->cbqt.Merge(s.cbqt);
  all->exec.Merge(s.exec);
  all->completed += s.completed;
  all->failed += s.failed;
  all->rechecked += s.rechecked;
  for (auto& f : s.failures) {
    if (all->failures.size() < kMaxReportedFailures) all->failures.push_back(f);
  }
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double P99(const std::vector<double>& v, const char* what) {
  TailPercentile t = Tail(v, 0.99);
  std::printf("  %-34s p%.2f of %zu samples (%zu beyond)%s\n", what,
              t.quantile * 100, t.samples, t.beyond,
              t.ok ? "" : "  << too few samples, reported 0");
  return t.value;
}

const char* const kAnalyticFamilies[] = {
    "spj",           "agg-subquery", "semi-subquery", "gb-view",
    "distinct-view", "union-view",   "gbp",           "factorization",
    "pullup",        "setop",        "or-expansion",  "window-view"};

struct Window {
  double wall_s = 0;
  cbqt::PlanCacheStats cache_before, cache_after;
  cbqt::SchedulerStats sched_before, sched_after;
  cbqt::MqoStats mqo_before, mqo_after;
};

/// On a shared machine other tenants' work slows this one by up to 1.5x
/// for stretches of seconds, and a whole run can fall in such a stretch,
/// so a single call's latency says more about the machine than about the
/// engine. Each untraced call is therefore read as a statistic of all the
/// untraced calls of its statement in the window, and the percentiles are
/// taken over the calls read that way:
///  - with one session a statement's latency depends on that statement
///    alone, so the statistic is its fastest call (slowdowns only ever add
///    time), and throughput is the rate of the session issuing its calls
///    at those latencies;
///  - with several sessions a call's latency also depends on what the
///    others run at the time, which the fastest call would leave out, so
///    the statistic is the median call, and throughput is the median rate
///    over the complete rounds (every session's whole script once).
std::vector<Metric> EndToEndMetrics(const WorkloadSpec& spec, const Fixture& fx,
                                    const SessionLog& log,
                                    const Rounds& rounds, size_t sessions) {
  std::vector<double> call_ms;
  double total_ms = 0;
  std::map<std::string, double> family_ms;
  for (size_t q = 0; q < log.stmt_ms.size(); ++q) {
    const std::vector<double>& calls = log.stmt_ms[q];
    if (calls.empty()) continue;
    double ms = sessions == 1 ? *std::min_element(calls.begin(), calls.end())
                              : Median(calls);
    double n = static_cast<double>(calls.size());
    call_ms.insert(call_ms.end(), calls.size(), ms);
    total_ms += ms * n;
    family_ms[spec.queries[q].family] += ms * n;
  }
  for (const auto& [family, ms] : family_ms) {
    std::printf("  %-16s %9.1f ms summed latency\n", family.c_str(), ms);
  }
  std::printf("  %.1f calls per statement on average\n",
              Ratio(static_cast<double>(call_ms.size()),
                    static_cast<double>(spec.queries.size())));
  double qps = 0;
  if (sessions == 1) {
    qps = Ratio(1000.0 * static_cast<double>(call_ms.size()), total_ms);
  } else {
    std::vector<double> round_qps;
    for (size_t r = 0; r < rounds.size(); ++r) {
      if (!rounds.complete(r)) continue;
      double secs = NsToMs(rounds.end_ns(r) - rounds.start_ns(r)) / 1000;
      round_qps.push_back(Ratio(static_cast<double>(log.round_calls[r]), secs));
    }
    std::printf("  %zu complete rounds\n", round_qps.size());
    qps = Median(round_qps);
  }
  double p50 = Median(call_ms);
  TailPercentile p99 = Tail(call_ms, 0.99);
  std::printf("  latency_p99_ms is p%.2f of %zu samples (%zu beyond)%s\n",
              p99.quantile * 100, p99.samples, p99.beyond,
              p99.ok ? "" : "  << too few samples, reported 0");
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(fx.setup_s), "s"});
  m.push_back({"throughput_qps", qps, "1/s"});
  m.push_back({"latency_p50_ms", p50, "ms"});
  m.push_back({"latency_p99_ms", p99.value, "ms"});
  m.push_back({"setup_peak_rss_mb", fx.setup_peak_rss_mb, "MB"});
  return m;
}

std::vector<Metric> PerLayerMetrics(const Context& ctx, const Fixture& fx,
                                    const SessionLog& log, const Window& win,
                                    int64_t* unbalanced) {
  // Self time of every span, then per layer and per request.
  std::vector<int64_t> self = SelfTimesNs(log.spans);
  std::map<std::string, int64_t> layer_self_ns;
  std::map<std::string, std::vector<double>> durations_ms;
  std::map<int64_t, int64_t> request_sum_ns, request_ns;
  for (size_t i = 0; i < log.spans.size(); ++i) {
    const Span& s = log.spans[i];
    layer_self_ns[s.name] += self[i];
    durations_ms[s.name].push_back(NsToMs(s.end_ns - s.start_ns));
    request_sum_ns[s.request] += self[i];
    if (s.parent < 0) request_ns[s.request] = s.end_ns - s.start_ns;
  }
  *unbalanced = 0;
  int64_t total_ns = 0;
  for (const auto& [req, ns] : request_ns) {
    total_ns += ns;
    if (request_sum_ns[req] != ns) ++*unbalanced;
  }
  auto share = [&](const char* layer) {
    auto it = layer_self_ns.find(layer);
    return it == layer_self_ns.end()
               ? 0.0
               : Ratio(100.0 * static_cast<double>(it->second),
                       static_cast<double>(total_ns));
  };
  auto dur = [&](const char* layer) -> const std::vector<double>& {
    return durations_ms[layer];
  };
  auto scaled = [](std::vector<double> v, double k) {
    for (double& x : v) x *= k;
    return v;
  };

  std::vector<Metric> m;
  m.push_back({"parser.parse_us_p50", Median(scaled(dur("parser"), 1000)),
               "us"});
  m.push_back({"parser.share_pct", share("parser"), "%"});
  m.push_back({"binder.bind_us_p50", Median(scaled(dur("binder"), 1000)),
               "us"});
  m.push_back({"binder.share_pct", share("binder"), "%"});

  const CbqtCounters& c = log.cbqt;
  double opts = static_cast<double>(c.optimizations);
  m.push_back({"cbqt.optimize_ms_p50", Median(dur("cbqt")), "ms"});
  m.push_back({"cbqt.optimize_ms_p99", P99(dur("cbqt"), "cbqt.optimize_ms_p99"),
               "ms"});
  m.push_back({"cbqt.share_pct", share("cbqt"), "%"});
  m.push_back({"cbqt.states_per_query",
               Ratio(static_cast<double>(c.states), opts), "count/query"});
  m.push_back({"cbqt.annotation_hit_ratio",
               Ratio(static_cast<double>(c.annotation_hits),
                     static_cast<double>(c.annotation_hits + c.blocks_planned)),
               "ratio"});
  m.push_back({"cbqt.join_memo_hit_ratio",
               Ratio(static_cast<double>(c.join_memo_hits),
                     static_cast<double>(c.join_memo_hits + c.join_memo_misses)),
               "ratio"});
  m.push_back({"cbqt.blocks_cloned_per_query",
               Ratio(static_cast<double>(c.blocks_cloned), opts),
               "count/query"});
  m.push_back({"cbqt.applied_per_query",
               Ratio(static_cast<double>(c.applied), opts), "count/query"});

  m.push_back({"optimizer.plan_ms_p50", Median(dur("optimizer")), "ms"});
  m.push_back({"optimizer.share_pct", share("optimizer"), "%"});
  m.push_back({"optimizer.blocks_planned_per_query",
               Ratio(static_cast<double>(c.blocks_planned), opts),
               "count/query"});

  const ExecCounters& e = log.exec;
  double execs = static_cast<double>(e.executions);
  m.push_back({"exec.execute_ms_p50", Median(dur("exec")), "ms"});
  m.push_back({"exec.execute_ms_p99", P99(dur("exec"), "exec.execute_ms_p99"),
               "ms"});
  m.push_back({"exec.share_pct", share("exec"), "%"});
  m.push_back({"exec.rows_per_ms",
               Ratio(static_cast<double>(e.rows_processed), e.execute_ms),
               "rows/ms"});
  m.push_back({"exec.batches_per_query",
               Ratio(static_cast<double>(e.batches), execs), "count/query"});
  m.push_back({"exec.subquery_cache_hit_ratio",
               Ratio(static_cast<double>(e.subquery_cache_hits),
                     static_cast<double>(e.subquery_cache_hits +
                                         e.subquery_executions)),
               "ratio"});
  m.push_back({"exec.spilled_queries_count",
               static_cast<double>(e.spilled_queries), "count"});
  // Execution self time by query family: the pullup family's expensive_*
  // predicate is a deliberate spin, synthetic work kept apart from the
  // engine's own execution time.
  std::map<int64_t, size_t> query_of;
  for (const auto& [req, q] : log.request_query) query_of[req] = q;
  std::map<std::string, int64_t> family_exec_ns;
  int64_t exec_self_ns = 0;
  for (size_t i = 0; i < log.spans.size(); ++i) {
    const Span& s = log.spans[i];
    if (std::string(s.name) != "exec") continue;
    family_exec_ns[ctx.spec.queries[query_of[s.request]].family] += self[i];
    exec_self_ns += self[i];
  }
  for (const char* fam : kAnalyticFamilies) {
    m.push_back({std::string("exec.family.") + fam + ".self_pct",
                 Ratio(100.0 * static_cast<double>(family_exec_ns[fam]),
                       static_cast<double>(exec_self_ns)),
                 "%"});
  }

  double prepares = static_cast<double>(log.hit_prepare_us.size() +
                                        log.miss_prepare_ms.size());
  std::vector<double> misses = log.miss_prepare_ms;
  Append(&misses, fx.warmup_miss_prepare_ms);
  m.push_back({"plan_cache.hit_ratio",
               Ratio(static_cast<double>(log.cache_hits), prepares), "ratio"});
  m.push_back({"plan_cache.hit_prepare_us_p50", Median(log.hit_prepare_us),
               "us"});
  m.push_back({"plan_cache.miss_prepare_ms_p50", Median(misses), "ms"});
  m.push_back({"plan_cache.rebind_recosts_count",
               static_cast<double>(win.cache_after.rebind_recosts -
                                   win.cache_before.rebind_recosts),
               "count"});
  m.push_back({"plan_cache.share_pct", share("plan_cache"), "%"});

  for (int t : {kOltp, kReport}) {
    std::string tenant = TenantName(t);
    m.push_back({"scheduler." + tenant + "_admit_wait_ms_p50",
                 Median(log.admit_wait_ms[t]), "ms"});
    std::string p99 = "scheduler." + tenant + "_admit_wait_ms_p99";
    m.push_back({p99, P99(log.admit_wait_ms[t], p99.c_str()), "ms"});
  }
  m.push_back({"scheduler.oltp_latency_p50_ms",
               Median(log.tenant_latency_ms[kOltp]), "ms"});
  m.push_back({"scheduler.oltp_latency_p99_ms",
               P99(log.tenant_latency_ms[kOltp], "scheduler.oltp_latency_p99_ms"),
               "ms"});
  m.push_back({"scheduler.report_latency_p50_ms",
               Median(log.tenant_latency_ms[kReport]), "ms"});
  m.push_back({"scheduler.queued_ratio",
               Ratio(static_cast<double>(win.sched_after.queued -
                                         win.sched_before.queued),
                     static_cast<double>(win.sched_after.admitted -
                                         win.sched_before.admitted)),
               "ratio"});
  m.push_back({"scheduler.throttled_count",
               static_cast<double>(win.sched_after.throttled -
                                   win.sched_before.throttled),
               "count"});
  m.push_back({"scheduler.share_pct", share("scheduler"), "%"});

  m.push_back({"mqo.consumer_ratio",
               Ratio(static_cast<double>(win.mqo_after.scan_consumers -
                                         win.mqo_before.scan_consumers),
                     static_cast<double>(log.report_executions)),
               "ratio"});
  m.push_back({"mqo.rows_shared_count",
               static_cast<double>(win.mqo_after.rows_shared -
                                   win.mqo_before.rows_shared),
               "count"});
  m.push_back({"mqo.pressure_fallbacks_count",
               static_cast<double>(win.mqo_after.pressure_fallbacks -
                                   win.mqo_before.pressure_fallbacks),
               "count"});

  m.push_back({"storage.build_s", Median(fx.build_s), "s"});

  // Tracing overhead: traced vs untraced latency summed over the statements
  // measured both ways.
  double untraced = 0, traced = 0;
  for (size_t q = 0; q < log.sum_ms[0].size(); ++q) {
    if (log.calls[0][q] == 0 || log.calls[1][q] == 0) continue;
    untraced += log.sum_ms[0][q] / static_cast<double>(log.calls[0][q]);
    traced += log.sum_ms[1][q] / static_cast<double>(log.calls[1][q]);
  }
  m.push_back({"trace.overhead_pct", Ratio(100.0 * (traced - untraced), untraced),
               "%"});
  m.push_back({"trace.remainder_pct",
               Ratio(100.0 * static_cast<double>(layer_self_ns["request"] +
                                                 layer_self_ns["engine"]),
                     static_cast<double>(total_ns)),
               "%"});
  m.push_back({"trace.requests_count", static_cast<double>(request_ns.size()),
               "count"});
  m.push_back({"trace.latency_p50_ms", Median(log.traced_latency_ms), "ms"});
  return m;
}

void WriteSpans(const std::string& path, const SessionLog& log,
                int64_t origin_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  for (size_t i = 0; i < log.spans.size(); ++i) {
    const Span& s = log.spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%d,\"request\":%lld,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.parent, static_cast<long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns - origin_ns),
                 static_cast<long long>(s.end_ns - origin_ns));
  }
  std::fclose(f);
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload analytic|compile|serving "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  WorkloadSpec spec = MakeWorkload(opt.workload, opt.seed);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d: %zu statements, "
              "%zu session(s)\n",
              opt.workload_name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, spec.queries.size(), spec.sessions.size());

  Fixture fx;
  if (!Setup(opt.workload, spec, kSetupReps / 2, &fx)) return 1;
  fx.setup_peak_rss_mb = PeakRssMb();
  QueryEngine reference(*fx.db, ReferenceConfig());
  Expected expected;
  SessionLog all(spec.queries.size());
  int64_t t_ref = NowNs();
  BuildExpected(opt.workload, spec, *fx.engine, reference, &expected, &all);
  std::printf("  reference pass: %.2f s\n", NsToMs(NowNs() - t_ref) / 1000);

  Context ctx{opt.workload,
              spec,
              *fx.db,
              *fx.engine,
              reference,
              expected,
              cbqt::CbqtOptimizer(*fx.db, EngineConfigFor(opt.workload)),
              cbqt::PhysicalOptimizer(*fx.db),
              EngineConfigFor(opt.workload).exec};

  Window win;
  win.cache_before = fx.engine->plan_cache_stats();
  win.sched_before = fx.engine->scheduler_stats();
  win.mqo_before = fx.engine->mqo_stats();
  std::vector<SessionLog> logs(spec.sessions.size(),
                               SessionLog(spec.queries.size()));
  int64_t start = NowNs();
  Rounds rounds(logs.size(), start,
                start + static_cast<int64_t>(opt.seconds * 1e9));
  std::vector<std::thread> threads;
  for (size_t s = 0; s < logs.size(); ++s) {
    threads.emplace_back([&, s] {
      RunSession(ctx, spec.sessions[s], opt.trace, &rounds, &logs[s]);
    });
  }
  for (auto& t : threads) t.join();
  win.wall_s = NsToMs(NowNs() - start) / 1000;
  win.cache_after = fx.engine->plan_cache_stats();
  win.sched_after = fx.engine->scheduler_stats();
  win.mqo_after = fx.engine->mqo_stats();
  for (auto& l : logs) MergeInto(&all, l);
  {
    Fixture later;
    if (!Setup(opt.workload, spec, kSetupReps - kSetupReps / 2, &later)) {
      return 1;
    }
    Append(&fx.setup_s, later.setup_s);
    Append(&fx.build_s, later.build_s);
  }

  std::printf("  window: %.2f s, %lld calls, %lld digest re-checks\n",
              win.wall_s, static_cast<long long>(all.completed),
              static_cast<long long>(all.rechecked));
  std::vector<Metric> metrics;
  if (opt.trace) {
    int64_t unbalanced = 0;
    metrics = PerLayerMetrics(ctx, fx, all, win, &unbalanced);
    if (unbalanced > 0) {
      all.Fail(std::to_string(unbalanced) +
               " requests whose span self times do not sum to their duration");
    }
    if (!opt.trace_out.empty()) WriteSpans(opt.trace_out, all, start);
  } else {
    metrics = EndToEndMetrics(spec, fx, all, rounds, spec.sessions.size());
  }
  for (const std::string& f : all.failures) {
    std::fprintf(stderr, "  FAILED: %s\n", f.c_str());
  }

  for (const Metric& x : metrics) {
    std::printf("  %-34s %14.6f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
  bool correct = all.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, all.completed)),
              static_cast<long long>(all.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
