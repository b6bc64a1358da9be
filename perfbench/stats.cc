#include "perfbench/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace perfbench {
namespace {

// 1-based nearest rank of quantile q over n samples (n > 0). The epsilon
// keeps q * n that lands on an integer (0.99 * 1000) from rounding up.
size_t NearestRank(double q, size_t n) {
  double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(r < 1 ? 1 : static_cast<size_t>(r), 1, n);
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t HashDouble(double d) {
  if (d == 0) return Mix64(0x5a5a);  // +0 and -0 agree
  if (!std::isfinite(d)) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return Mix64(bits ^ 0x1f1f);
  }
  int exp = 0;
  double frac = std::frexp(d, &exp);  // |frac| in [0.5, 1)
  auto mantissa = static_cast<int64_t>(std::llround(std::ldexp(frac, 32)));
  if (mantissa == (int64_t{1} << 32) || mantissa == -(int64_t{1} << 32)) {
    mantissa /= 2;  // rounded up into the next binade
    ++exp;
  }
  return Mix64(static_cast<uint64_t>(mantissa) * 31 +
               static_cast<uint64_t>(exp));
}

uint64_t HashValue(const cbqt::Value& v) {
  switch (v.kind()) {
    case cbqt::ValueKind::kNull:
      return Mix64(0x11);
    case cbqt::ValueKind::kBool:
      return Mix64(v.AsBool() ? 0x21 : 0x22);
    case cbqt::ValueKind::kInt64:
      return HashDouble(static_cast<double>(v.AsInt()));
    case cbqt::ValueKind::kDouble:
      return HashDouble(v.AsDouble());
    case cbqt::ValueKind::kString: {
      uint64_t h = 0xcbf29ce484222325ULL;
      for (unsigned char c : v.AsString()) h = (h ^ c) * 0x100000001b3ULL;
      return Mix64(h ^ 0x33);
    }
  }
  return 0;
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  size_t idx = NearestRank(q, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

TailPercentile Tail(std::vector<double> samples, double wanted,
                    size_t min_beyond) {
  TailPercentile out;
  size_t n = samples.size();
  out.samples = n;
  if (n <= min_beyond) return out;
  double q = std::min(wanted, static_cast<double>(n - min_beyond) /
                                  static_cast<double>(n));
  size_t rank = NearestRank(q, n);
  out.quantile = q;
  out.beyond = n - rank;
  out.value = Quantile(std::move(samples), q);
  out.ok = true;
  return out;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) covered[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t union_ns = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = spans[i].end_ns - spans[i].start_ns - union_ns;
  }
  return self;
}

RowDigest DigestRows(const std::vector<cbqt::Row>& rows) {
  RowDigest d;
  d.rows = rows.size();
  for (const cbqt::Row& row : rows) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const cbqt::Value& v : row) h = Mix64(h ^ HashValue(v)) + 1;
    d.sum += Mix64(h);
  }
  return d;
}

}  // namespace perfbench
