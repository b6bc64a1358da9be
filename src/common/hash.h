#ifndef CBQT_COMMON_HASH_H_
#define CBQT_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace cbqt {

/// 64-bit FNV-1a (Fowler–Noll–Vo), shared by the plan-serde checksum, the
/// catalog fingerprint, HashRow and the join-order memo keys.
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

}  // namespace cbqt

#endif  // CBQT_COMMON_HASH_H_
