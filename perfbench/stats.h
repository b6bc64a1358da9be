#ifndef CBQT_PERFBENCH_STATS_H_
#define CBQT_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/value.h"

namespace perfbench {

/// Nearest-rank quantile `q` in [0, 1] of `samples` (need not be sorted);
/// 0 for an empty vector.
double Quantile(std::vector<double> samples, double q);

/// A tail percentile chosen by the "at least `min_beyond` samples beyond
/// it" rule: the highest quantile <= `wanted` that still leaves
/// `min_beyond` samples strictly above its rank.
struct TailPercentile {
  double value = 0;
  double quantile = 0;  ///< the quantile actually reported
  size_t samples = 0;
  size_t beyond = 0;    ///< samples ranked above the reported one
  bool ok = false;      ///< false when fewer than min_beyond + 1 samples
};

TailPercentile Tail(std::vector<double> samples, double wanted,
                    size_t min_beyond = 10);

/// One traced call. `parent` indexes the enclosing span in the same
/// vector, -1 for a request's root.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t request = 0;
  int parent = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the span).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Order-independent digest of a result multiset. Numeric values hash by
/// their value (Int(2) and Real(2.0) agree) with doubles rounded to 32
/// mantissa bits, so plans that sum in a different order still agree.
struct RowDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const RowDigest& o) const {
    return rows == o.rows && sum == o.sum;
  }
  bool operator!=(const RowDigest& o) const { return !(*this == o); }
};

RowDigest DigestRows(const std::vector<cbqt::Row>& rows);

}  // namespace perfbench

#endif  // CBQT_PERFBENCH_STATS_H_
