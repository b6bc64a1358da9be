#include "sql/fingerprint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/hash.h"

namespace cbqt {

namespace {

// Every hashed construct starts from its own tag, so differently shaped
// nodes never share a word sequence. The mirror of each rendering rule in
// sql/signature.cc (canonical) and sql/unparser.cc (exact) is noted where
// the two renderings differ.
enum Tag : uint64_t {
  kTagExpr = 0x100,  // + ExprKind
  kTagChain = 0x200,
  kTagSelect = 0x300,
  kTagSetOp,
  kTagBaseTable,
  kTagDerived,
  kTagOn,
  kTagFrom,
  kTagWhere,
  kTagNoGroup,
  kTagGroupBy,
  kTagGroupingSets,
  kTagHaving,
  kTagOrderBy,
  kTagList,
  kTagPartition,
  kTagWindowOrder,
  kTagName,
};

constexpr uint64_t kSeed = 0x2545f4914f6cdd1dULL;

uint64_t H(uint64_t h, uint64_t v) { return HashCombine(h, v); }

uint64_t Name(const std::string& s) { return HashBytes(s, kTagName); }

/// The value SqlLiteral renders: kind plus value. Doubles render
/// round-trip exactly, so distinct bit patterns render distinctly — except
/// NaNs, which all print as "nan" or "-nan".
uint64_t LiteralHash(const Value& v) {
  uint64_t h = H(kSeed, static_cast<uint64_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kNull:
      return h;
    case ValueKind::kInt64:
      return H(h, static_cast<uint64_t>(v.AsInt()));
    case ValueKind::kDouble: {
      double d = v.AsDouble();
      if (std::isnan(d)) return H(h, std::signbit(d) ? 2 : 1);
      return H(H(h, 0), std::bit_cast<uint64_t>(d));
    }
    case ValueKind::kString:
      return HashBytes(v.AsString(), h);
    case ValueKind::kBool:
      return H(h, v.AsBool() ? 1 : 0);
  }
  return h;
}

/// Function names render upper-cased (ToUpper).
uint64_t UpperName(const std::string& s) {
  char buf[64];
  if (s.size() > sizeof(buf)) {
    std::string up = s;
    for (char& ch : up) {
      if (ch >= 'a' && ch <= 'z') ch = static_cast<char>(ch - 'a' + 'A');
    }
    return Name(up);
  }
  for (size_t i = 0; i < s.size(); ++i) {
    char ch = s[i];
    buf[i] = (ch >= 'a' && ch <= 'z') ? static_cast<char>(ch - 'a' + 'A') : ch;
  }
  return HashBytes(std::string_view(buf, s.size()), kTagName);
}

/// COUNT(*) and COUNT render under one name ("COUNT").
uint64_t AggNameClass(AggFunc f) {
  return static_cast<uint64_t>(f == AggFunc::kCountStar ? AggFunc::kCount : f);
}

bool IsCommutative(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kAdd:
    case BinaryOp::kMul:
    case BinaryOp::kNullSafeEq:
      return true;
    default:
      return false;
  }
}

/// A ROWNUM limit renders only when >= 0.
uint64_t Limit(int64_t limit) {
  return static_cast<uint64_t>(std::max<int64_t>(limit, -1));
}

}  // namespace

uint64_t Fingerprinter::FoldScratch(uint64_t h, size_t base, bool sorted) {
  auto first = scratch_.begin() + static_cast<long>(base);
  if (sorted) std::sort(first, scratch_.end());
  h = H(h, scratch_.size() - base);
  for (auto it = first; it != scratch_.end(); ++it) h = H(h, *it);
  scratch_.resize(base);
  return h;
}

Fingerprint Fingerprinter::List(uint64_t tag, const std::vector<ExprPtr>& list,
                                bool sorted) {
  uint64_t x = H(H(kSeed, tag), list.size());
  const size_t base = scratch_.size();
  for (const auto& e : list) {
    Fingerprint f = OfExpr(*e);
    x = H(x, f.exact);
    scratch_.push_back(f.canonical);
  }
  return {FoldScratch(H(kSeed, tag), base, sorted), x};
}

uint64_t Fingerprinter::Chain(const Expr& e, BinaryOp op) {
  if (e.kind == ExprKind::kBinary && e.bop == op) {
    uint64_t l = Chain(*e.children[0], op);
    uint64_t r = Chain(*e.children[1], op);
    // Same exact hash as the generic binary case of OfExpr.
    uint64_t seed = H(kSeed, kTagExpr + static_cast<uint64_t>(e.kind));
    return H(H(H(seed, static_cast<uint64_t>(op)), l), r);
  }
  Fingerprint leaf = OfExpr(e);
  scratch_.push_back(leaf.canonical);
  return leaf.exact;
}

Fingerprint Fingerprinter::OfExpr(const Expr& e) {
  const uint64_t seed = H(kSeed, kTagExpr + static_cast<uint64_t>(e.kind));
  uint64_t c = seed;
  uint64_t x = seed;
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      x = H(H(seed, Name(e.table_alias)), Name(e.column_name));
      // The canonical form also tells a local a.x from an outer one.
      c = H(x, static_cast<uint64_t>(std::max(e.corr_depth, 0)));
      break;
    }
    case ExprKind::kLiteral:
      // The plan-cache parameter slot is not rendered.
      c = x = H(seed, LiteralHash(e.literal));
      break;
    case ExprKind::kBinary: {
      if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
        // Canonical: the flattened chain's leaves, sorted.
        const size_t base = scratch_.size();
        x = Chain(e, e.bop);
        c = FoldScratch(H(kSeed, kTagChain + static_cast<uint64_t>(e.bop)),
                        base, /*sorted=*/true);
        break;
      }
      Fingerprint l = OfExpr(*e.children[0]);
      Fingerprint r = OfExpr(*e.children[1]);
      x = H(H(H(seed, static_cast<uint64_t>(e.bop)), l.exact), r.exact);
      BinaryOp op = e.bop;
      uint64_t lc = l.canonical;
      uint64_t rc = r.canonical;
      if (IsCommutative(op)) {
        if (rc < lc) std::swap(lc, rc);
      } else if (IsComparisonOp(op) && rc < lc) {
        std::swap(lc, rc);
        op = SwapComparison(op);
      }
      c = H(H(H(seed, static_cast<uint64_t>(op)), lc), rc);
      break;
    }
    case ExprKind::kUnary: {
      Fingerprint x0 = OfExpr(*e.children[0]);
      uint64_t h = H(seed, static_cast<uint64_t>(e.uop));
      c = H(h, x0.canonical);
      x = H(h, x0.exact);
      break;
    }
    case ExprKind::kAggregate: {
      // COUNT(*) renders without its argument or DISTINCT.
      uint64_t h = H(seed, static_cast<uint64_t>(e.agg));
      if (e.agg == AggFunc::kCountStar) {
        c = x = h;
        break;
      }
      h = H(h, e.agg_distinct ? 1 : 0);
      Fingerprint arg = OfExpr(*e.children[0]);
      c = H(h, arg.canonical);
      x = H(h, arg.exact);
      break;
    }
    case ExprKind::kFuncCall: {
      Fingerprint args = List(H(seed, UpperName(e.func_name)), e.children,
                              /*sorted=*/false);
      c = args.canonical;
      x = args.exact;
      break;
    }
    case ExprKind::kSubquery: {
      Fingerprint sub = OfBlock(*e.subquery);
      uint64_t h = H(seed, static_cast<uint64_t>(e.subkind));
      c = H(h, sub.canonical);
      x = H(h, sub.exact);
      switch (e.subkind) {
        case SubqueryKind::kIn:
        case SubqueryKind::kNotIn: {
          Fingerprint left = List(kTagList, e.children, /*sorted=*/false);
          c = H(c, left.canonical);
          x = H(x, left.exact);
          break;
        }
        case SubqueryKind::kAnyCmp:
        case SubqueryKind::kAllCmp: {
          Fingerprint left = OfExpr(*e.children[0]);
          c = H(H(c, static_cast<uint64_t>(e.sub_cmp)), left.canonical);
          x = H(H(x, static_cast<uint64_t>(e.sub_cmp)), left.exact);
          break;
        }
        default:  // EXISTS / NOT EXISTS / scalar render no operands
          break;
      }
      break;
    }
    case ExprKind::kWindow: {
      uint64_t h = H(seed, AggNameClass(e.win_func));
      if (e.children.empty()) {
        c = x = H(h, 0);  // "*"
      } else {
        Fingerprint arg = OfExpr(*e.children[0]);
        h = H(h, 1);
        c = H(h, arg.canonical);
        x = H(h, arg.exact);
      }
      // PARTITION BY keys are a set in the canonical form.
      Fingerprint part = List(kTagPartition, e.partition_by, /*sorted=*/true);
      Fingerprint order =
          List(kTagWindowOrder, e.win_order_by, /*sorted=*/false);
      c = H(H(c, part.canonical), order.canonical);
      x = H(H(x, part.exact), order.exact);
      break;
    }
    case ExprKind::kRownum:
      break;
    case ExprKind::kCase: {
      Fingerprint legs = List(seed, e.children, /*sorted=*/false);
      c = legs.canonical;
      x = legs.exact;
      break;
    }
  }
  return {c, x};
}

Fingerprint Fingerprinter::OfBlock(const QueryBlock& qb) {
  auto it = blocks_.find(&qb);
  if (it != blocks_.end()) return it->second;
  Fingerprint fp = ComputeBlock(qb);
  blocks_.emplace(&qb, fp);
  return fp;
}

Fingerprint Fingerprinter::ComputeBlock(const QueryBlock& qb) {
  if (!qb.IsSetOp()) return ComputeSelect(qb);
  // A compound renders only its operator, branches and FETCH limit.
  uint64_t h = H(H(H(kSeed, kTagSetOp), static_cast<uint64_t>(qb.set_op)),
                 qb.branches.size());
  uint64_t c = h;
  uint64_t x = h;
  for (const auto& b : qb.branches) {
    Fingerprint f = OfBlock(*b);
    c = H(c, f.canonical);
    x = H(x, f.exact);
  }
  return {H(c, Limit(qb.rownum_limit)), H(x, Limit(qb.rownum_limit))};
}

Fingerprint Fingerprinter::ComputeSelect(const QueryBlock& qb) {
  uint64_t h = H(H(H(kSeed, kTagSelect), qb.distinct ? 1 : 0),
                 qb.select.size());
  uint64_t c = h;
  uint64_t x = h;
  for (const auto& item : qb.select) {
    Fingerprint f = OfExpr(*item.expr);
    uint64_t alias = Name(item.alias);
    c = H(H(c, f.canonical), alias);
    x = H(H(x, f.exact), alias);
  }

  // FROM. Exact: every entry in order; the first entry's join kind and ON
  // conditions only when rendered (non-inner or non-empty). Canonical: each
  // entry's rendering, with every maximal run of non-lateral inner entries
  // sorted.
  x = H(H(x, kTagFrom), qb.from.size());
  const size_t base = scratch_.size();
  for (size_t i = 0; i < qb.from.size(); ++i) {
    const TableRef& tr = qb.from[i];
    uint64_t body_c;
    uint64_t body_x;
    if (tr.IsBaseTable()) {
      // A base table's lateral flag is not rendered.
      body_c = body_x = H(H(kSeed, kTagBaseTable), Name(tr.table_name));
    } else {
      Fingerprint sub = OfBlock(*tr.derived);
      uint64_t d = H(H(kSeed, kTagDerived), tr.lateral ? 1 : 0);
      body_c = H(d, sub.canonical);
      body_x = H(d, sub.exact);
    }
    const uint64_t tail = H(Name(tr.alias), tr.no_merge ? 1 : 0);
    Fingerprint on = List(kTagOn, tr.join_conds, /*sorted=*/true);
    x = H(H(x, body_x), tail);
    const bool joined = tr.join != JoinKind::kInner || !tr.join_conds.empty();
    if (i > 0 || joined) x = H(H(x, static_cast<uint64_t>(tr.join)), on.exact);
    uint64_t ref = H(body_c, tail);
    if (joined) ref = H(H(ref, static_cast<uint64_t>(tr.join)), on.canonical);
    scratch_.push_back(ref);
  }
  for (size_t i = 0; i < qb.from.size();) {
    auto free_order = [&qb](size_t k) {
      return qb.from[k].join == JoinKind::kInner && !qb.from[k].lateral;
    };
    if (!free_order(i)) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < qb.from.size() && free_order(j)) ++j;
    std::sort(scratch_.begin() + static_cast<long>(base + i),
              scratch_.begin() + static_cast<long>(base + j));
    i = j;
  }
  c = FoldScratch(H(c, kTagFrom), base, /*sorted=*/false);

  Fingerprint where = List(kTagWhere, qb.where, /*sorted=*/true);
  c = H(H(c, where.canonical), Limit(qb.rownum_limit));
  x = H(H(x, where.exact), Limit(qb.rownum_limit));

  if (qb.group_by.empty()) {
    // Grouping sets without keys are not rendered.
    c = H(c, kTagNoGroup);
    x = H(x, kTagNoGroup);
  } else if (qb.grouping_sets.empty()) {
    Fingerprint keys = List(kTagGroupBy, qb.group_by, /*sorted=*/false);
    c = H(c, keys.canonical);
    x = H(x, keys.exact);
  } else {
    // Each set renders the keys it picks, so hash those, not the indices.
    std::vector<Fingerprint> keys;
    keys.reserve(qb.group_by.size());
    for (const auto& g : qb.group_by) keys.push_back(OfExpr(*g));
    c = H(H(c, kTagGroupingSets), qb.grouping_sets.size());
    x = H(H(x, kTagGroupingSets), qb.grouping_sets.size());
    for (const auto& gs : qb.grouping_sets) {
      c = H(c, gs.size());
      x = H(x, gs.size());
      for (int gi : gs) {
        c = H(c, keys[static_cast<size_t>(gi)].canonical);
        x = H(x, keys[static_cast<size_t>(gi)].exact);
      }
    }
  }

  Fingerprint having = List(kTagHaving, qb.having, /*sorted=*/true);
  c = H(c, having.canonical);
  x = H(x, having.exact);

  c = H(H(c, kTagOrderBy), qb.order_by.size());
  x = H(H(x, kTagOrderBy), qb.order_by.size());
  for (const auto& o : qb.order_by) {
    Fingerprint f = OfExpr(*o.expr);
    c = H(H(c, f.canonical), o.ascending ? 1 : 0);
    x = H(H(x, f.exact), o.ascending ? 1 : 0);
  }
  return {c, x};
}

Fingerprint BlockFingerprint(const QueryBlock& qb) {
  return Fingerprinter().OfBlock(qb);
}

}  // namespace cbqt
