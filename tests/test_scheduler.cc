#include "cbqt/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

namespace cbqt {
namespace {

using std::chrono::milliseconds;

/// Polls the scheduler until `tenant`'s queue depth reaches `depth` (the
/// waits inside Admit are asynchronous to the spawning thread, so tests
/// that need a known queue shape wait for it to materialize).
void WaitForQueueDepth(const TenantScheduler& s, const std::string& tenant,
                       int depth) {
  for (int i = 0; i < 2000; ++i) {
    SchedulerStats stats = s.stats();
    for (const auto& t : stats.per_tenant) {
      if (t.name == tenant && t.queue_depth >= depth) return;
    }
    std::this_thread::sleep_for(milliseconds(1));
  }
  FAIL() << "queue of " << tenant << " never reached depth " << depth;
}

int TotalQueueDepth(const TenantScheduler& s) {
  int total = 0;
  for (const auto& t : s.stats().per_tenant) total += t.queue_depth;
  return total;
}

TenantSpec Spec(const std::string& name, int weight, int priority,
                int max_queued = 64) {
  TenantSpec t;
  t.name = name;
  t.weight = weight;
  t.priority = priority;
  t.max_queued = max_queued;
  return t;
}

TEST(RetryAfterMsTest, ParsesHintAndToleratesAbsence) {
  EXPECT_DOUBLE_EQ(
      RetryAfterMs(Status::TenantThrottled("queue full; retry-after-ms=37")),
      37.0);
  EXPECT_DOUBLE_EQ(RetryAfterMs(Status::TenantThrottled("queue full")), 0.0);
  EXPECT_DOUBLE_EQ(RetryAfterMs(Status::OK()), 0.0);
}

TEST(TenantSchedulerTest, FifoWithinTenant) {
  SchedulerConfig cfg;
  cfg.enabled = true;
  cfg.max_concurrent = 1;
  cfg.queue_timeout_ms = 10000;
  cfg.tenants = {Spec("a", 1, 1)};
  TenantScheduler sched(cfg, nullptr);

  auto holder = sched.Admit("a", nullptr, nullptr);
  ASSERT_TRUE(holder.ok()) << holder.status().ToString();

  // Enqueue four waiters one at a time so the FIFO order is known.
  std::mutex order_mu;
  std::vector<int> grant_order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&, i] {
      auto adm = sched.Admit("a", nullptr, nullptr);
      ASSERT_TRUE(adm.ok()) << adm.status().ToString();
      {
        std::lock_guard<std::mutex> lock(order_mu);
        grant_order.push_back(i);
      }
      sched.Release(*adm);
    });
    WaitForQueueDepth(sched, "a", i + 1);
  }

  sched.Release(*holder);  // grants cascade: each waiter releases in turn
  for (auto& w : waiters) w.join();

  ASSERT_EQ(grant_order.size(), 4u);
  EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2, 3}));
  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.admitted, 5);
  EXPECT_EQ(stats.queued, 4);
  EXPECT_EQ(TotalQueueDepth(sched), 0);
}

TEST(TenantSchedulerTest, WeightedSharesConverge) {
  SchedulerConfig cfg;
  cfg.enabled = true;
  cfg.max_concurrent = 1;
  cfg.queue_timeout_ms = 20000;
  cfg.tenants = {Spec("heavy", 3, 1), Spec("light", 1, 1)};
  TenantScheduler sched(cfg, nullptr);

  auto holder = sched.Admit("heavy", nullptr, nullptr);
  ASSERT_TRUE(holder.ok());

  // Saturate both queues while the slot is held, then let the grants
  // cascade and record the order tenants won slots in.
  std::mutex order_mu;
  std::vector<char> grant_order;
  std::vector<std::thread> waiters;
  auto spawn = [&](const std::string& tenant, char tag, int count) {
    for (int i = 0; i < count; ++i) {
      waiters.emplace_back([&, tenant, tag] {
        auto adm = sched.Admit(tenant, nullptr, nullptr);
        ASSERT_TRUE(adm.ok()) << adm.status().ToString();
        {
          std::lock_guard<std::mutex> lock(order_mu);
          grant_order.push_back(tag);
        }
        sched.Release(*adm);
      });
    }
  };
  spawn("heavy", 'H', 24);
  spawn("light", 'L', 24);
  WaitForQueueDepth(sched, "heavy", 24);
  WaitForQueueDepth(sched, "light", 24);

  sched.Release(*holder);
  for (auto& w : waiters) w.join();
  ASSERT_EQ(grant_order.size(), 48u);

  // While both queues are backlogged (the first 32 grants at most — after
  // that one queue may run dry), weighted DRR gives heavy ~3 of every 4
  // slots. Window assertions tolerate scheduling jitter around the exact
  // 3:1 cadence.
  int heavy_in_16 = 0;
  for (int i = 0; i < 16; ++i) heavy_in_16 += grant_order[i] == 'H' ? 1 : 0;
  EXPECT_GE(heavy_in_16, 10) << "expected ~12 heavy grants of the first 16";
  EXPECT_LE(heavy_in_16, 14) << "light must not be locked out";
  // Every waiter of both tenants eventually ran.
  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.admitted, 49);
  EXPECT_EQ(TotalQueueDepth(sched), 0);
}

TEST(TenantSchedulerTest, AgingPromotesStarvedLowPriorityWaiter) {
  SchedulerConfig cfg;
  cfg.enabled = true;
  cfg.max_concurrent = 1;
  cfg.queue_timeout_ms = 20000;
  cfg.aging_dispatches = 4;
  cfg.tenants = {Spec("vip", 4, 0), Spec("batch", 1, 2)};
  TenantScheduler sched(cfg, nullptr);

  auto holder = sched.Admit("vip", nullptr, nullptr);
  ASSERT_TRUE(holder.ok());

  // One low-priority waiter first, then a deep high-priority backlog that
  // would starve it forever under strict priority.
  std::mutex order_mu;
  std::vector<char> grant_order;
  std::vector<std::thread> waiters;
  waiters.emplace_back([&] {
    auto adm = sched.Admit("batch", nullptr, nullptr);
    ASSERT_TRUE(adm.ok()) << adm.status().ToString();
    {
      std::lock_guard<std::mutex> lock(order_mu);
      grant_order.push_back('B');
    }
    sched.Release(*adm);
  });
  WaitForQueueDepth(sched, "batch", 1);
  for (int i = 0; i < 20; ++i) {
    waiters.emplace_back([&] {
      auto adm = sched.Admit("vip", nullptr, nullptr);
      ASSERT_TRUE(adm.ok()) << adm.status().ToString();
      {
        std::lock_guard<std::mutex> lock(order_mu);
        grant_order.push_back('V');
      }
      sched.Release(*adm);
    });
  }
  WaitForQueueDepth(sched, "vip", 20);

  sched.Release(*holder);
  for (auto& w : waiters) w.join();
  ASSERT_EQ(grant_order.size(), 21u);

  // The batch waiter is passed over at most aging_dispatches times before
  // promotion, then competes in the top class — it must land within a
  // small bounded prefix, not at the tail.
  size_t batch_pos = 0;
  for (; batch_pos < grant_order.size(); ++batch_pos) {
    if (grant_order[batch_pos] == 'B') break;
  }
  ASSERT_LT(batch_pos, grant_order.size());
  EXPECT_LE(static_cast<int>(batch_pos), 2 * cfg.aging_dispatches + 2)
      << "low-priority waiter starved past the aging bound";
  EXPECT_GE(sched.stats().aging_promotions, 1);
}

TEST(TenantSchedulerTest, CancelWhileQueuedReleasesQueueSlot) {
  SchedulerConfig cfg;
  cfg.enabled = true;
  cfg.max_concurrent = 1;
  cfg.queue_timeout_ms = 20000;
  cfg.tenants = {Spec("a", 1, 1, /*max_queued=*/1)};
  TenantScheduler sched(cfg, nullptr);

  auto holder = sched.Admit("a", nullptr, nullptr);
  ASSERT_TRUE(holder.ok());

  // Fill the single queue slot, then cancel the waiter.
  CancellationToken cancel;
  Status waiter_status;
  std::thread waiter([&] {
    auto adm = sched.Admit("a", &cancel, nullptr);
    waiter_status = adm.status();
  });
  WaitForQueueDepth(sched, "a", 1);
  cancel.Cancel();
  waiter.join();
  EXPECT_EQ(waiter_status.code(), StatusCode::kCancelled);

  // The cancelled waiter must have left the queue: a new arrival queues
  // (instead of bouncing off a full queue) and is granted on release.
  Status second_status;
  std::thread second([&] {
    auto adm = sched.Admit("a", nullptr, nullptr);
    second_status = adm.status();
    if (adm.ok()) sched.Release(*adm);
  });
  WaitForQueueDepth(sched, "a", 1);
  sched.Release(*holder);
  second.join();
  EXPECT_TRUE(second_status.ok()) << second_status.ToString();
  EXPECT_EQ(TotalQueueDepth(sched), 0);
}

TEST(TenantSchedulerTest, FullQueueThrottlesWithRetryHint) {
  SchedulerConfig cfg;
  cfg.enabled = true;
  cfg.max_concurrent = 1;
  cfg.queue_timeout_ms = 20000;
  cfg.retry_after_ms = 40;
  cfg.tenants = {Spec("a", 1, 1, /*max_queued=*/1)};
  TenantScheduler sched(cfg, nullptr);

  auto holder = sched.Admit("a", nullptr, nullptr);
  ASSERT_TRUE(holder.ok());
  std::thread waiter([&] {
    auto adm = sched.Admit("a", nullptr, nullptr);
    if (adm.ok()) sched.Release(*adm);
  });
  WaitForQueueDepth(sched, "a", 1);

  auto bounced = sched.Admit("a", nullptr, nullptr);
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kTenantThrottled);
  EXPECT_GE(RetryAfterMs(bounced.status()), cfg.retry_after_ms);

  sched.Release(*holder);
  waiter.join();
  EXPECT_EQ(sched.stats().throttled, 1);
}

TEST(TenantSchedulerTest, ConcurrentMultiTenantRoundTrip) {
  SchedulerConfig cfg;
  cfg.enabled = true;
  cfg.max_concurrent = 4;
  cfg.queue_timeout_ms = 20000;
  cfg.tenants = {Spec("a", 3, 0), Spec("b", 2, 1), Spec("c", 1, 2)};
  cfg.aging_dispatches = 8;
  TenantScheduler sched(cfg, nullptr);

  constexpr int kThreadsPerTenant = 4;
  constexpr int kAdmitsPerThread = 50;
  const std::vector<std::string> names = {"a", "b", "c"};
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (const auto& name : names) {
    for (int t = 0; t < kThreadsPerTenant; ++t) {
      threads.emplace_back([&, name] {
        for (int i = 0; i < kAdmitsPerThread; ++i) {
          auto adm = sched.Admit(name, nullptr, nullptr);
          ASSERT_TRUE(adm.ok()) << adm.status().ToString();
          completed.fetch_add(1, std::memory_order_relaxed);
          sched.Release(*adm);
        }
      });
    }
  }
  for (auto& t : threads) t.join();

  constexpr int kTotal = 3 * kThreadsPerTenant * kAdmitsPerThread;
  EXPECT_EQ(completed.load(), kTotal);
  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.admitted, kTotal);
  EXPECT_EQ(TotalQueueDepth(sched), 0);
  int running = 0;
  for (const auto& t : stats.per_tenant) {
    running += t.running;
    EXPECT_LE(t.peak_running, cfg.max_concurrent);
  }
  EXPECT_EQ(running, 0);
}

}  // namespace
}  // namespace cbqt
