#ifndef CBQT_SQL_FINGERPRINT_H_
#define CBQT_SQL_FINGERPRINT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sql/query_block.h"

namespace cbqt {

/// 128-bit structural fingerprint of a query block or expression: two
/// 64-bit hashes computed together in one bottom-up pass over integer and
/// enum fields and hashed names, building no strings.
///
///   - `canonical` partitions exactly like the canonical signature
///     (BlockSignature / ExprSignature, sql/signature.h): the orderings SQL
///     leaves free — conjunct lists, commutative operands, mirrored
///     comparisons, flattened AND/OR chains, PARTITION BY keys and inner-FROM
///     runs between outer/lateral boundaries — are sorted by hash instead of
///     by rendered text.
///   - `exact` partitions exactly like the unparsing (BlockToSql /
///     ExprToSql, sql/unparser.h): it covers the fields the unparser
///     renders, in rendering order, and nothing it leaves out (qb_name,
///     literal parameter slots, a base table's lateral flag, ...).
///
/// Equal text implies equal hashes; equal hashes imply equal text up to a
/// 64-bit hash collision per part. The cost-annotation cache keys blocks by
/// `canonical` and, for exact reuse, verifies `exact` — a 128-bit compare in
/// place of comparing the two strings (DESIGN.md "Cost-annotation reuse").
struct Fingerprint {
  uint64_t canonical = 0;
  uint64_t exact = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Computes fingerprints, memoizing every block it visits by address, so a
/// block nested under many ancestors is hashed once per Fingerprinter. The
/// blocks must not change while the Fingerprinter is in use (the planner
/// holds one for the duration of one physical optimization, over a
/// read-only tree). Not thread-safe.
class Fingerprinter {
 public:
  Fingerprint OfBlock(const QueryBlock& qb);
  Fingerprint OfExpr(const Expr& e);

 private:
  Fingerprint ComputeBlock(const QueryBlock& qb);
  Fingerprint ComputeSelect(const QueryBlock& qb);
  /// Folds an AND/OR chain: pushes the canonical hashes of the chain's
  /// leaves onto scratch_ and returns the exact hash of `e`.
  uint64_t Chain(const Expr& e, BinaryOp op);
  /// Both hashes of an expression list; `sorted` sorts the canonical
  /// hashes first (conjunct lists, PARTITION BY keys).
  Fingerprint List(uint64_t tag, const std::vector<ExprPtr>& list,
                   bool sorted);
  /// Sorts scratch_[base, end), folds it into `h` and pops it.
  uint64_t FoldScratch(uint64_t h, size_t base, bool sorted);

  std::unordered_map<const QueryBlock*, Fingerprint> blocks_;
  /// Stack of pending canonical hashes awaiting a sort (lists, chains and
  /// FROM runs); every call leaves it as it found it.
  std::vector<uint64_t> scratch_;
};

/// One-shot block fingerprint (a fresh Fingerprinter).
Fingerprint BlockFingerprint(const QueryBlock& qb);

}  // namespace cbqt

#endif  // CBQT_SQL_FINGERPRINT_H_
