#ifndef CBQT_CBQT_SCHEDULER_H_
#define CBQT_CBQT_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_injector.h"
#include "common/guardrails.h"
#include "common/memory_tracker.h"
#include "common/status.h"

namespace cbqt {

/// One granted admission: the scheduler's receipt that the caller holds a
/// slot. Returned by TenantScheduler::Admit and surrendered to Release —
/// every grant must be paired with exactly one Release.
struct Admission {
  int tenant_index = 0;     ///< index into the scheduler's tenant table
  /// Overload-ladder step 2: scale the query's optimizer budget by this
  /// factor (1 = full budget; < 1 when the tenant's queue was backed up at
  /// arrival).
  double budget_factor = 1.0;
};

/// Per-tenant scheduling telemetry (snapshot).
struct TenantStats {
  std::string name;
  int64_t admitted = 0;    ///< grants (immediate + after queueing)
  int64_t queued = 0;      ///< grants-or-failures that waited in the queue
  int64_t throttled = 0;   ///< typed kTenantThrottled turn-aways (arrivals)
  int64_t shed = 0;        ///< queued waiters evicted by a higher-priority arrival
  int64_t budget_shrunk = 0;  ///< admissions with a shrunk optimizer budget
  int64_t aging_promotions = 0;  ///< waiters promoted to the top class
  int running = 0;         ///< slots held right now
  int queue_depth = 0;     ///< waiters in the queue right now
  int peak_running = 0;    ///< high-water mark of `running`
  int64_t memory_used_bytes = 0;  ///< tenant tracker charge (0 = no quota)
  int64_t memory_peak_bytes = 0;
};

/// Whole-scheduler telemetry (snapshot; sums of the per-tenant rows plus
/// dispatch-level counters).
struct SchedulerStats {
  int64_t admitted = 0;
  int64_t queued = 0;
  int64_t throttled = 0;
  int64_t shed = 0;
  int64_t budget_shrunk = 0;
  int64_t aging_promotions = 0;
  int64_t dispatches = 0;  ///< slot-grant decisions taken
  std::vector<TenantStats> per_tenant;
};

/// Extracts the `retry-after-ms=N` hint carried by kTenantThrottled status
/// messages; 0 when absent. Clients use it to pace their retry backoff.
double RetryAfterMs(const Status& s);

/// Tenant-aware admission scheduler: weighted deficit-round-robin slot
/// dispatch over per-tenant bounded FIFO queues.
///
/// Dispatch order when a slot frees: the highest (lowest-numbered) priority
/// class with an eligible waiter wins; within a class, tenants share slots
/// in proportion to their weights (unit-cost deficit round-robin). A front
/// waiter passed over `aging_dispatches` times is promoted to the top class
/// — low-priority work is delayed under load but admitted within a bounded
/// number of dispatches, never starved. Per-tenant concurrency quotas make
/// a tenant ineligible while it holds its quota, so a flooding tenant
/// cannot monopolize the global slots.
///
/// Overload ladder: (1) arrivals queue in the tenant's bounded queue;
/// (2) arrivals that find the queue backed up past
/// `budget_shrink_occupancy` are admitted with a shrunk optimizer budget
/// (Admission::budget_factor); (3) arrivals that find the queue full either
/// shed the tenant's lowest-priority waiter (when the arrival outranks it)
/// or are turned away themselves — both with a typed kTenantThrottled
/// carrying a `retry-after-ms=N` hint.
///
/// Thread-safe; all waiting is cooperative (sliced waits, so a tripped
/// CancellationToken is noticed within ~10 ms even though the token has no
/// condition-variable hookup).
class TenantScheduler {
 public:
  /// `engine_root`: parent for the per-tenant quota MemoryTrackers (only
  /// consulted for tenants with `memory_bytes > 0`; may be null when no
  /// tenant carries a quota).
  TenantScheduler(const SchedulerConfig& config, MemoryTracker* engine_root);
  ~TenantScheduler();

  TenantScheduler(const TenantScheduler&) = delete;
  TenantScheduler& operator=(const TenantScheduler&) = delete;

  /// Blocks until a slot is granted (within the queue/timeout bounds) and
  /// returns the admission receipt; the caller must pair it with Release.
  /// Failure statuses: kTenantThrottled (queue full, shed, or wait timed
  /// out; carries a retry-after hint), the token's status when `cancel`
  /// trips while queued,
  /// and kInternal when the armed `faults` injector fires at the kAdmit
  /// site after the grant — the slot is released before returning, so an
  /// injected fault can never leak a slot or a queue entry. (The engine
  /// fires a second, pre-admission kAdmit hit before calling in here.)
  Result<Admission> Admit(const std::string& tenant,
                          CancellationToken* cancel, FaultInjector* faults);

  /// Frees the slot held by `admission` and dispatches queued waiters.
  void Release(const Admission& admission);

  /// Resolves a tenant name to its table index (unknown/empty names map to
  /// the default tenant's index).
  int tenant_index(const std::string& name) const;

  /// The tenant's byte-quota tracker (null when the tenant has no quota).
  MemoryTracker* tenant_memory(int index) const;

  const std::string& tenant_name(int index) const;
  int num_tenants() const { return static_cast<int>(tenants_.size()); }

  SchedulerStats stats() const;

 private:
  /// One queued admission request. Owned jointly by the tenant queue and
  /// the waiting thread's stack frame (shared_ptr), so a shed or a grant
  /// can outlive either side's view. All fields guarded by mu_.
  struct Waiter {
    int tenant = 0;
    int64_t passed_over = 0;  ///< eligible-but-not-chosen dispatch count
    bool promoted = false;    ///< aged into the top priority class
    bool granted = false;
    bool shed = false;        ///< evicted by a higher-priority arrival
    Status shed_status;
  };

  struct TenantState {
    TenantSpec spec;  ///< clamped copy (weight >= 1, priority in range)
    std::deque<std::shared_ptr<Waiter>> queue;
    int running = 0;
    int64_t deficit = 0;  ///< weighted-DRR credit within its class
    std::unique_ptr<MemoryTracker> memory;  ///< null = no byte quota
    // Telemetry.
    int64_t admitted = 0;
    int64_t queued = 0;
    int64_t throttled = 0;
    int64_t shed = 0;
    int64_t budget_shrunk = 0;
    int64_t aging_promotions = 0;
    int peak_running = 0;
  };

  /// Grants slots to queued waiters while any are eligible; called on
  /// arrival and on Release with mu_ held. Wakes all waiters afterwards.
  void DispatchLocked();

  /// The next waiter to grant (null when no queued waiter is eligible):
  /// highest priority class first, weighted deficit-round-robin within the
  /// class, per-tenant quota respected, promoted (aged) waiters counted in
  /// the top class. Charges passed_over on the losers and ages them.
  std::shared_ptr<Waiter> PickNextLocked();

  /// Effective priority class of tenant t's front waiter (0 when promoted).
  int EffectiveClassLocked(const TenantState& t) const;

  /// True when tenant t has a queued waiter and is under its own
  /// concurrency quota (the global slot check is the caller's).
  bool EligibleLocked(const TenantState& t) const;

  /// Removes `w` from its tenant's queue (no-op when already popped).
  void RemoveFromQueueLocked(const std::shared_ptr<Waiter>& w);

  /// The typed kTenantThrottled turn-away for tenant `t`; `why` is the
  /// human-readable cause, followed by the retry-after hint.
  Status ThrottleStatusLocked(TenantState& t, const std::string& why);

  const double queue_timeout_ms_;
  const int max_concurrent_;
  const int aging_dispatches_;
  const double budget_shrink_occupancy_;
  const double budget_shrink_factor_;
  const double retry_after_ms_;
  const int max_queued_total_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<TenantState> tenants_;
  std::unordered_map<std::string, int> by_name_;
  int default_index_ = 0;
  int running_ = 0;     ///< slots held across all tenants
  int queued_now_ = 0;  ///< waiters queued across all tenants right now
  int64_t dispatches_ = 0;
  /// Round-robin cursor per priority class (index of the tenant after the
  /// last winner in that class).
  std::vector<size_t> cursor_;
};

}  // namespace cbqt

#endif  // CBQT_CBQT_SCHEDULER_H_
