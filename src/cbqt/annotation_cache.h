#ifndef CBQT_CBQT_ANNOTATION_CACHE_H_
#define CBQT_CBQT_ANNOTATION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/memory_tracker.h"
#include "optimizer/card_est.h"
#include "optimizer/plan.h"
#include "sql/fingerprint.h"

namespace cbqt {

/// The optimization result of one query block, memoized by the block's
/// canonical fingerprint (sql/fingerprint.h), or of one join-order DP
/// subproblem (the join memo's 128-bit subset key).
struct CostAnnotation {
  double cost = 0;
  double rows = 0;
  RelStats out_stats;
  /// Shared, immutable: a hit hands this very tree to the planner, which
  /// links it into the new plan instead of copying it.
  PlanPtr plan;
  /// Exact fingerprint of the annotated block (Fingerprint::exact: equal
  /// exactly when the unparsed text is equal). The cache key is the
  /// canonical fingerprint, which covers a whole equivalence class of
  /// blocks (orderings SQL leaves free); consumers that require
  /// bit-identical plans (the per-optimization cache, whose reuse must not
  /// depend on which class member was cached first) compare this field and
  /// treat a mismatch as a miss. MQO cross-query sharing reuses the whole
  /// class (row-identical, not plan-text-identical). Unused (0) by the join
  /// memo, whose key already pins the exact inputs.
  uint64_t exact_fingerprint = 0;
};

/// The annotation-cache key of a query block: its canonical fingerprint.
inline Hash128 BlockKey(const Fingerprint& fp) { return {fp.canonical, 0}; }

/// Re-use of query sub-tree cost annotations (paper §3.4.2): when the CBQT
/// framework costs many transformation states of the same query, unchanged
/// sub-blocks re-appear verbatim across states; their optimization results
/// are reused instead of re-planned. The paper's Table 1 counts exactly
/// these reuses (12 blocks optimized, 4 reused, for Q1 under exhaustive
/// search).
///
/// Keys are fixed-size 128-bit hashes (common/hash.h): a block's canonical
/// fingerprint, or a join-order memo subset key. Equal keys are taken as
/// equal entries — no text is kept to re-verify them.
///
/// Thread-safe: the map is split into mutex-guarded shards chosen by the
/// key's top hash bits, so concurrent state evaluations (parallel search)
/// contend only when they touch the same shard. Entries are immutable once
/// published; Find hands out a shared_ptr so a hit stays valid even if the
/// entry is concurrently replaced, evicted, or the cache cleared.
///
/// Bounded: `capacity` (total entries, split evenly across shards) caps the
/// cache with per-shard LRU eviction, so a pathological state space cannot
/// grow it without limit; evictions are counted. The default capacity is far
/// above any per-optimization block population the paper's workloads
/// produce (Table 1 needs a few dozen), so reuse numbers are unaffected.
/// 0 = unbounded.
class AnnotationCache {
 public:
  static constexpr int kDefaultShards = 16;
  static constexpr size_t kDefaultCapacity = 4096;

  /// `tracker` (optional) charges every cached entry's estimated bytes for
  /// its lifetime in the cache — the CBQT framework passes the query's
  /// memory tracker so annotation / join-memo growth shows up in the
  /// query's accounting. Charges use ForceReserve (an insert never fails
  /// mid-structure); the enforcement point is the next TryReserve of
  /// whoever shares the tracker. All bytes are released on eviction,
  /// Clear(), and destruction.
  explicit AnnotationCache(int num_shards = kDefaultShards,
                           size_t capacity = kDefaultCapacity,
                           MemoryTracker* tracker = nullptr);

  ~AnnotationCache();

  /// nullptr if not cached. A hit refreshes the entry's LRU position.
  std::shared_ptr<const CostAnnotation> Find(const Hash128& key) const;

  void Put(const Hash128& key, CostAnnotation annotation);

  void Clear();

  /// Telemetry for Table 1 and the micro benches.
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Estimated bytes currently held by cached entries.
  int64_t memory_bytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::shared_ptr<const CostAnnotation> annotation;
    /// Position in the shard's LRU list (front = most recently used).
    std::list<const Hash128*>::iterator lru_it;
    int64_t bytes = 0;  ///< estimate charged to tracker_ while cached
  };

  struct Shard {
    mutable std::mutex mu;
    /// Keys live in the map nodes (stable addresses); the LRU list points
    /// back at them.
    std::unordered_map<Hash128, Slot, Hash128Hasher> map;
    std::list<const Hash128*> lru;
  };

  Shard& ShardFor(const Hash128& key) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t capacity_ = kDefaultCapacity;  ///< total; 0 = unbounded
  size_t shard_capacity_ = 0;           ///< per shard; 0 = unbounded
  MemoryTracker* tracker_ = nullptr;    ///< optional byte accounting
  std::atomic<int64_t> memory_bytes_{0};
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace cbqt

#endif  // CBQT_CBQT_ANNOTATION_CACHE_H_
