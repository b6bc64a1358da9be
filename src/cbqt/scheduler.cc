#include "cbqt/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

namespace cbqt {

namespace {

/// Queued waiters poll their CancellationToken in slices of this length:
/// the token has no condition-variable hookup, so a cancel arriving from
/// another thread is noticed within one slice even when no slot frees.
constexpr auto kWaitSlice = std::chrono::milliseconds(10);

TenantSpec ClampSpec(TenantSpec spec) {
  if (spec.weight < 1) spec.weight = 1;
  if (spec.priority < 0) spec.priority = 0;
  if (spec.priority >= kNumPriorityClasses) {
    spec.priority = kNumPriorityClasses - 1;
  }
  if (spec.max_queued < 0) spec.max_queued = 0;
  if (spec.max_concurrent < 0) spec.max_concurrent = 0;
  return spec;
}

}  // namespace

double RetryAfterMs(const Status& s) {
  static constexpr char kTag[] = "retry-after-ms=";
  size_t pos = s.message().find(kTag);
  if (pos == std::string::npos) return 0;
  const char* start = s.message().c_str() + pos + sizeof(kTag) - 1;
  char* end = nullptr;
  double ms = std::strtod(start, &end);
  if (end == start || ms < 0) return 0;
  return ms;
}

TenantScheduler::TenantScheduler(const SchedulerConfig& config,
                                 MemoryTracker* engine_root)
    : queue_timeout_ms_(config.queue_timeout_ms),
      max_concurrent_(std::max(1, config.max_concurrent)),
      aging_dispatches_(std::max(1, config.aging_dispatches)),
      budget_shrink_occupancy_(config.budget_shrink_occupancy),
      budget_shrink_factor_(config.budget_shrink_factor),
      retry_after_ms_(config.retry_after_ms),
      max_queued_total_(config.max_queued_total),
      cursor_(kNumPriorityClasses, 0) {
  tenants_.reserve(config.tenants.size() + 1);
  for (const TenantSpec& spec : config.tenants) {
    TenantState t;
    t.spec = ClampSpec(spec);
    by_name_.emplace(t.spec.name, static_cast<int>(tenants_.size()));
    tenants_.push_back(std::move(t));
  }
  TenantState def;
  def.spec = ClampSpec(config.default_tenant);
  def.spec.name = "default";
  default_index_ = static_cast<int>(tenants_.size());
  tenants_.push_back(std::move(def));
  for (TenantState& t : tenants_) {
    if (t.spec.memory_bytes > 0 && engine_root != nullptr) {
      t.memory = std::make_unique<MemoryTracker>(
          "tenant-" + t.spec.name, t.spec.memory_bytes, engine_root);
    }
  }
}

TenantScheduler::~TenantScheduler() = default;

int TenantScheduler::tenant_index(const std::string& name) const {
  auto it = by_name_.find(name);
  return it != by_name_.end() ? it->second : default_index_;
}

MemoryTracker* TenantScheduler::tenant_memory(int index) const {
  return tenants_[static_cast<size_t>(index)].memory.get();
}

const std::string& TenantScheduler::tenant_name(int index) const {
  return tenants_[static_cast<size_t>(index)].spec.name;
}

int TenantScheduler::EffectiveClassLocked(const TenantState& t) const {
  if (!t.queue.empty() && t.queue.front()->promoted) return 0;
  return t.spec.priority;
}

bool TenantScheduler::EligibleLocked(const TenantState& t) const {
  return !t.queue.empty() &&
         (t.spec.max_concurrent <= 0 || t.running < t.spec.max_concurrent);
}

void TenantScheduler::RemoveFromQueueLocked(
    const std::shared_ptr<Waiter>& w) {
  TenantState& t = tenants_[static_cast<size_t>(w->tenant)];
  for (auto it = t.queue.begin(); it != t.queue.end(); ++it) {
    if (*it == w) {
      t.queue.erase(it);
      --queued_now_;
      break;
    }
  }
  // Classic DRR anti-hoarding: an emptied queue forfeits its credit.
  if (t.queue.empty()) t.deficit = 0;
}

Status TenantScheduler::ThrottleStatusLocked(TenantState& t,
                                             const std::string& why) {
  double occupancy =
      t.spec.max_queued > 0
          ? static_cast<double>(t.queue.size()) / t.spec.max_queued
          : 1.0;
  double retry = retry_after_ms_ * (1.0 + occupancy);
  return Status::TenantThrottled(
      "tenant '" + t.spec.name + "' throttled: " + why + "; retry-after-ms=" +
      std::to_string(static_cast<long long>(std::llround(retry))));
}

std::shared_ptr<TenantScheduler::Waiter> TenantScheduler::PickNextLocked() {
  int best = kNumPriorityClasses;
  for (const TenantState& t : tenants_) {
    if (!EligibleLocked(t)) continue;
    best = std::min(best, EffectiveClassLocked(t));
  }
  if (best == kNumPriorityClasses) return nullptr;

  // Weighted deficit round robin within the winning class, unit cost per
  // grant. The cursor stays on a tenant while its deficit lasts (so a
  // weight-3 tenant takes 3 consecutive grants per lap); advancing onto a
  // tenant replenishes its deficit by its weight. One lap replenishes every
  // candidate by >= 1, so a winner exists within two laps.
  const size_t n = tenants_.size();
  auto servable = [&](const TenantState& t) {
    return EligibleLocked(t) && EffectiveClassLocked(t) == best;
  };
  std::shared_ptr<Waiter> winner;
  size_t& cur = cursor_[static_cast<size_t>(best)];
  cur %= n;
  for (size_t step = 0; step <= 2 * n; ++step) {
    TenantState& t = tenants_[cur];
    if (servable(t) && t.deficit >= 1) {
      t.deficit -= 1;
      winner = t.queue.front();
      break;
    }
    cur = (cur + 1) % n;
    TenantState& next = tenants_[cur];
    if (servable(next)) next.deficit += next.spec.weight;
  }
  if (winner == nullptr) return nullptr;

  // Aging: every eligible front waiter that lost this dispatch moves one
  // step toward promotion into the top class — the starvation bound.
  for (TenantState& t : tenants_) {
    if (!EligibleLocked(t)) continue;
    const std::shared_ptr<Waiter>& front = t.queue.front();
    if (front == winner || front->promoted) continue;
    if (++front->passed_over >= aging_dispatches_) {
      front->promoted = true;
      ++t.aging_promotions;
    }
  }
  return winner;
}

void TenantScheduler::DispatchLocked() {
  bool eager_wake = false;
  while (running_ < max_concurrent_) {
    std::shared_ptr<Waiter> w = PickNextLocked();
    if (w == nullptr) break;
    TenantState& t = tenants_[static_cast<size_t>(w->tenant)];
    t.queue.pop_front();
    --queued_now_;
    if (t.queue.empty()) t.deficit = 0;
    w->granted = true;
    ++running_;
    ++t.running;
    t.peak_running = std::max(t.peak_running, t.running);
    ++dispatches_;
    // Lazy wakeup for batch classes: waking a sleeping waiter here lets the
    // OS boost it over the *releasing* thread — an interactive query's tail
    // then pays for the batch query it handed its slot to. Interactive
    // grants (top class or promoted) are notified eagerly; lower classes
    // discover the grant at their next wait slice (<= kWaitSlice), which is
    // within their latency class.
    if (t.spec.priority == 0 || w->promoted) eager_wake = true;
  }
  if (eager_wake) cv_.notify_all();
}

Result<Admission> TenantScheduler::Admit(const std::string& tenant,
                                         CancellationToken* cancel,
                                         FaultInjector* faults) {
  std::unique_lock<std::mutex> lock(mu_);
  const int idx = tenant_index(tenant);
  TenantState& t = tenants_[static_cast<size_t>(idx)];

  // Overload ladder step 2 (decided at arrival): a backed-up queue buys
  // admission with a shrunk optimizer budget.
  const bool shrink =
      budget_shrink_occupancy_ < 1 && t.spec.max_queued > 0 &&
      static_cast<double>(t.queue.size()) >=
          budget_shrink_occupancy_ * t.spec.max_queued &&
      !t.queue.empty();

  if (t.queue.empty() && running_ < max_concurrent_ &&
      (t.spec.max_concurrent <= 0 || t.running < t.spec.max_concurrent)) {
    // Slot free, nobody ahead of us in this tenant: grant immediately.
    // (Waiters of *other* tenants can only be queued here when they are
    // quota-blocked — dispatch is otherwise work-conserving — so taking
    // the slot jumps nobody who could use it.)
    ++running_;
    ++t.running;
    t.peak_running = std::max(t.peak_running, t.running);
    ++dispatches_;
  } else {
    if (queue_timeout_ms_ <= 0) {
      // Explicit no-wait semantics: with a zero timeout nothing ever
      // queues, even when max_queued > 0.
      std::string why = "all " + std::to_string(max_concurrent_) +
                        " execution slots busy (no queueing configured)";
      ++t.throttled;
      return ThrottleStatusLocked(t, why);
    }
    if (static_cast<int>(t.queue.size()) >= t.spec.max_queued) {
      std::string why = "admission queue full (" +
                        std::to_string(t.queue.size()) + " waiting for " +
                        std::to_string(max_concurrent_) + " slots)";
      ++t.throttled;
      return ThrottleStatusLocked(t, why);
    }
    if (max_queued_total_ > 0 && queued_now_ >= max_queued_total_) {
      // Overload ladder step 3: the global backlog is at its bound. Shed
      // the lowest-priority queued waiter if this arrival outranks it;
      // otherwise the arrival itself is turned away.
      TenantState* victim_tenant = nullptr;
      int victim_class = t.spec.priority;
      for (TenantState& vt : tenants_) {
        if (vt.queue.empty()) continue;
        // Promoted fronts are top-class; shed from the back (the least
        // invested waiter), which is never promoted while a front exists.
        int c = vt.queue.size() == 1 && vt.queue.front()->promoted
                    ? 0
                    : vt.spec.priority;
        if (c > victim_class) {
          victim_class = c;
          victim_tenant = &vt;
        }
      }
      if (victim_tenant == nullptr) {
        ++t.throttled;
        return ThrottleStatusLocked(
            t, "global admission backlog full (" +
                   std::to_string(queued_now_) + " queued)");
      }
      std::shared_ptr<Waiter> victim = victim_tenant->queue.back();
      victim->shed = true;
      victim->shed_status = ThrottleStatusLocked(
          *victim_tenant, "shed by a higher-priority arrival");
      RemoveFromQueueLocked(victim);
      ++victim_tenant->shed;
      cv_.notify_all();
    }

    auto w = std::make_shared<Waiter>();
    w->tenant = idx;
    t.queue.push_back(w);
    ++queued_now_;
    ++t.queued;
    // A freed-but-quota-blocked slot may be grantable now that a new
    // tenant is represented in the queue.
    DispatchLocked();

    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(queue_timeout_ms_));
    while (!w->granted && !w->shed) {
      if (cancel != nullptr && cancel->cancelled()) {
        RemoveFromQueueLocked(w);
        return cancel->status();
      }
      auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      auto slice = std::min<std::chrono::steady_clock::duration>(
          kWaitSlice, deadline - now);
      cv_.wait_for(lock, slice);
    }
    if (w->shed) return w->shed_status;
    if (!w->granted) {
      RemoveFromQueueLocked(w);
      std::string why = "queued for " + std::to_string(queue_timeout_ms_) +
                        " ms without getting one of " +
                        std::to_string(max_concurrent_) + " execution slots";
      ++t.throttled;
      return ThrottleStatusLocked(t, why);
    }
  }

  // Slot held from here on: every early return must give it back.
  if (faults != nullptr) {
    Status injected = faults->MaybeFail(FaultSite::kAdmit);
    if (!injected.ok()) {
      --running_;
      --t.running;
      DispatchLocked();
      return injected;
    }
  }

  Admission adm;
  adm.tenant_index = idx;
  adm.budget_factor = shrink ? budget_shrink_factor_ : 1.0;
  if (shrink) ++t.budget_shrunk;
  ++t.admitted;
  return adm;
}

void TenantScheduler::Release(const Admission& admission) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& t = tenants_[static_cast<size_t>(admission.tenant_index)];
  --running_;
  --t.running;
  DispatchLocked();
}

SchedulerStats TenantScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats out;
  out.dispatches = dispatches_;
  out.per_tenant.reserve(tenants_.size());
  for (const TenantState& t : tenants_) {
    TenantStats ts;
    ts.name = t.spec.name;
    ts.admitted = t.admitted;
    ts.queued = t.queued;
    ts.throttled = t.throttled;
    ts.shed = t.shed;
    ts.budget_shrunk = t.budget_shrunk;
    ts.aging_promotions = t.aging_promotions;
    ts.running = t.running;
    ts.queue_depth = static_cast<int>(t.queue.size());
    ts.peak_running = t.peak_running;
    if (t.memory != nullptr) {
      ts.memory_used_bytes = t.memory->used_bytes();
      ts.memory_peak_bytes = t.memory->peak_bytes();
    }
    out.admitted += ts.admitted;
    out.queued += ts.queued;
    out.throttled += ts.throttled;
    out.shed += ts.shed;
    out.budget_shrunk += ts.budget_shrunk;
    out.aging_promotions += ts.aging_promotions;
    out.per_tenant.push_back(std::move(ts));
  }
  return out;
}

}  // namespace cbqt
