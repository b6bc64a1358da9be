#ifndef CBQT_PERFBENCH_WORKLOADS_H_
#define CBQT_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cbqt/framework.h"
#include "workload/schema_gen.h"

namespace perfbench {

enum class Workload { kAnalytic, kCompile, kServing };

/// Parses "analytic" / "compile" / "serving"; false for anything else.
bool ParseWorkload(const std::string& name, Workload* out);

/// Tenants of the serving workload (the other workloads use kNoTenant).
inline constexpr int kNoTenant = -1;
inline constexpr int kOltp = 0;
inline constexpr int kReport = 1;
const char* TenantName(int tenant);  // "" for kNoTenant

struct BenchQuery {
  std::string sql;
  std::string family;  ///< query_gen family name, or "report"
  int tenant = kNoTenant;
};

/// Everything the engine sees in one run: the distinct statements and, per
/// closed-loop session, the order in which it issues them (cycled until the
/// measurement window closes). A pure function of (workload, seed).
struct WorkloadSpec {
  std::vector<BenchQuery> queries;
  std::vector<std::vector<size_t>> sessions;  ///< indices into `queries`
};

WorkloadSpec MakeWorkload(Workload w, uint64_t seed);

/// The database each workload runs against (fixed, not seeded: the seed
/// varies the statements, not the data).
cbqt::SchemaConfig SchemaFor(Workload w);

/// The measured engine's configuration. Every workload keeps
/// num_threads = 1 so the engine adds no search threads of its own.
cbqt::CbqtConfig EngineConfigFor(Workload w);

/// The correctness reference: heuristic-only optimizer, no plan cache,
/// MQO or scheduler.
cbqt::CbqtConfig ReferenceConfig();

}  // namespace perfbench

#endif  // CBQT_PERFBENCH_WORKLOADS_H_
