#ifndef CBQT_COMMON_HASH_H_
#define CBQT_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace cbqt {

/// 64-bit FNV-1a (Fowler–Noll–Vo), shared by the plan-serde checksum, the
/// catalog fingerprint, HashRow and the join-order memo's key combine.
inline constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// The seed of the plan-serde checksum and the catalog fingerprint: the
/// standard offset basis with its last digit dropped. Snapshot files and
/// shared plan-store records carry values computed from it, so it stays.
inline constexpr uint64_t kFnvPersistedOffset = 1469598103934665603ULL;

/// One FNV-1a step: folds `v` (a byte, or a whole word for word-wise
/// hashing) into `h`.
inline constexpr uint64_t FnvMix(uint64_t h, uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// FNV-1a over `bytes`, continuing from `h`.
inline constexpr uint64_t Fnv1a(std::string_view bytes,
                                uint64_t h = kFnvOffset) {
  for (char c : bytes) h = FnvMix(h, static_cast<uint8_t>(c));
  return h;
}

/// Order-dependent fold of the word `v` into the running hash `h`, the step
/// of the in-memory structural hashes (query-block fingerprints,
/// sql/fingerprint.h). A bijection in `v` for a fixed `h` (and in `h` for a
/// fixed `v`), so sequences differing in one word never collide; one
/// multiply keeps the dependent chain short. Not persisted anywhere.
inline constexpr uint64_t HashCombine(uint64_t h, uint64_t v) {
  h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 29);
}

/// Word-at-a-time hash of `bytes` (length included), continuing from `h`.
inline uint64_t HashBytes(std::string_view bytes, uint64_t h) {
  h = HashCombine(h, bytes.size());
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = HashCombine(h, w);
  }
  if (i < bytes.size()) {
    uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, bytes.size() - i);
    h = HashCombine(h, w);
  }
  return h;
}

/// A 128-bit hash key: the key type of the annotation cache and the
/// join-order memo (cbqt/annotation_cache.h).
struct Hash128 {
  uint64_t lo = 0;
  uint64_t hi = 0;
  friend bool operator==(const Hash128&, const Hash128&) = default;
};

struct Hash128Hasher {
  size_t operator()(const Hash128& k) const {
    return static_cast<size_t>(HashCombine(k.lo, k.hi));
  }
};

}  // namespace cbqt

#endif  // CBQT_COMMON_HASH_H_
