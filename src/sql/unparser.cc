#include "sql/unparser.h"

#include <cstdio>
#include <cstdlib>

#include "common/str_util.h"

namespace cbqt {

/// Renders a literal so that re-lexing yields the same value: embedded
/// quotes are doubled, and doubles print with enough digits to round-trip
/// bit-exactly (and always with a '.' or exponent so they re-lex as kReal,
/// not kInt64). Value::ToString stays a debug rendering.
std::string SqlLiteral(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kString: {
      std::string out = "'";
      for (char c : v.AsString()) {
        if (c == '\'') out += '\'';
        out += c;
      }
      out += '\'';
      return out;
    }
    case ValueKind::kDouble: {
      double d = v.AsDouble();
      char buf[64];
      for (int prec : {15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d) break;
      }
      std::string s = buf;
      if (s.find_first_of(".eE") == std::string::npos) s += ".0";
      return s;
    }
    default:
      return v.ToString();
  }
}

namespace {

const char* BopSymbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kNullSafeEq:
      return "IS NOT DISTINCT FROM";
  }
  return "?";
}

const char* AggName(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

std::string ExprListToSql(const std::vector<ExprPtr>& list) {
  std::vector<std::string> parts;
  parts.reserve(list.size());
  for (const auto& e : list) parts.push_back(ExprToSql(*e));
  return JoinStrings(parts, ", ");
}

}  // namespace

std::string ExprToSql(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      std::string out;
      if (!e.table_alias.empty()) out = e.table_alias + ".";
      out += e.column_name;
      return out;
    }
    case ExprKind::kLiteral:
      return SqlLiteral(e.literal);
    case ExprKind::kBinary: {
      std::string l = ExprToSql(*e.children[0]);
      std::string r = ExprToSql(*e.children[1]);
      return "(" + l + " " + BopSymbol(e.bop) + " " + r + ")";
    }
    case ExprKind::kUnary: {
      std::string x = ExprToSql(*e.children[0]);
      switch (e.uop) {
        case UnaryOp::kNot:
          return "(NOT " + x + ")";
        case UnaryOp::kNeg:
          return "(-" + x + ")";
        case UnaryOp::kIsNull:
          return "(" + x + " IS NULL)";
        case UnaryOp::kIsNotNull:
          return "(" + x + " IS NOT NULL)";
        case UnaryOp::kLnnvl:
          return "LNNVL(" + x + ")";
      }
      return "?";
    }
    case ExprKind::kAggregate: {
      if (e.agg == AggFunc::kCountStar) return "COUNT(*)";
      std::string arg = ExprToSql(*e.children[0]);
      std::string d = e.agg_distinct ? "DISTINCT " : "";
      return std::string(AggName(e.agg)) + "(" + d + arg + ")";
    }
    case ExprKind::kFuncCall:
      return ToUpper(e.func_name) + "(" + ExprListToSql(e.children) + ")";
    case ExprKind::kSubquery: {
      std::string sub = "(" + BlockToSql(*e.subquery) + ")";
      switch (e.subkind) {
        case SubqueryKind::kExists:
          return "EXISTS " + sub;
        case SubqueryKind::kNotExists:
          return "NOT EXISTS " + sub;
        case SubqueryKind::kIn:
          return "(" + ExprListToSql(e.children) + ") IN " + sub;
        case SubqueryKind::kNotIn:
          return "(" + ExprListToSql(e.children) + ") NOT IN " + sub;
        case SubqueryKind::kAnyCmp:
          return "(" + ExprToSql(*e.children[0]) + " " + BopSymbol(e.sub_cmp) +
                 " ANY " + sub + ")";
        case SubqueryKind::kAllCmp:
          return "(" + ExprToSql(*e.children[0]) + " " + BopSymbol(e.sub_cmp) +
                 " ALL " + sub + ")";
        case SubqueryKind::kScalar:
          return sub;
      }
      return "?";
    }
    case ExprKind::kWindow: {
      std::string arg =
          e.children.empty() ? "*" : ExprToSql(*e.children[0]);
      std::string out = std::string(AggName(e.win_func)) + "(" + arg +
                        ") OVER (";
      if (!e.partition_by.empty()) {
        out += "PARTITION BY " + ExprListToSql(e.partition_by);
      }
      if (!e.win_order_by.empty()) {
        if (!e.partition_by.empty()) out += " ";
        out += "ORDER BY " + ExprListToSql(e.win_order_by);
      }
      out += ")";
      return out;
    }
    case ExprKind::kRownum:
      return "ROWNUM";
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t i = 0;
      while (i + 1 < e.children.size()) {
        out += " WHEN " + ExprToSql(*e.children[i]) + " THEN " +
               ExprToSql(*e.children[i + 1]);
        i += 2;
      }
      if (i < e.children.size()) out += " ELSE " + ExprToSql(*e.children[i]);
      out += " END";
      return out;
    }
  }
  return "?";
}

namespace {

const char* SetOpName(SetOpKind k) {
  switch (k) {
    case SetOpKind::kUnionAll:
      return "UNION ALL";
    case SetOpKind::kUnion:
      return "UNION";
    case SetOpKind::kIntersect:
      return "INTERSECT";
    case SetOpKind::kMinus:
      return "MINUS";
    case SetOpKind::kNone:
      return "";
  }
  return "";
}

const char* JoinKindName(JoinKind k) {
  switch (k) {
    case JoinKind::kInner:
      return "";
    case JoinKind::kLeftOuter:
      return "LEFT OUTER JOIN";
    case JoinKind::kSemi:
      return "SEMI JOIN";
    case JoinKind::kAnti:
      return "ANTI JOIN";
    case JoinKind::kAntiNA:
      return "NA-ANTI JOIN";
  }
  return "";
}

std::string TableRefToSql(const TableRef& tr) {
  std::string body;
  if (tr.IsBaseTable()) {
    body = tr.table_name;
  } else {
    body = (tr.lateral ? "LATERAL (" : "(") + BlockToSql(*tr.derived) + ")";
  }
  // no_merge renders as a statement-level hint after SELECT (the only place
  // the parser accepts hints), not here.
  return body + " " + tr.alias;
}

}  // namespace

std::string BlockToSql(const QueryBlock& qb) {
  if (qb.IsSetOp()) {
    std::vector<std::string> parts;
    parts.reserve(qb.branches.size());
    for (const auto& b : qb.branches) {
      // Nested compounds must keep their own grouping: without parens,
      // "A UNION (B INTERSECT C)" would reparse left-associatively as
      // "(A UNION B) INTERSECT C".
      std::string s = BlockToSql(*b);
      parts.push_back(b->IsSetOp() ? "(" + s + ")" : std::move(s));
    }
    std::string body =
        JoinStrings(parts, std::string(" ") + SetOpName(qb.set_op) + " ");
    if (qb.rownum_limit >= 0) {
      // No WHERE clause to hang a ROWNUM conjunct on; this form only arises
      // from transformation output, never from parsed SQL.
      body += " FETCH " + std::to_string(qb.rownum_limit);
    }
    return body;
  }
  std::string out = "SELECT ";
  {
    // Hints go right after SELECT — the only position the parser accepts.
    std::vector<std::string> hints;
    for (const auto& tr : qb.from) {
      if (tr.no_merge) hints.push_back("no_merge(" + tr.alias + ")");
    }
    if (!hints.empty()) out += "/*+ " + JoinStrings(hints, " ") + " */ ";
  }
  if (qb.distinct) out += "DISTINCT ";
  {
    std::vector<std::string> items;
    items.reserve(qb.select.size());
    for (const auto& item : qb.select) {
      std::string s = ExprToSql(*item.expr);
      if (!item.alias.empty()) s += " AS " + item.alias;
      items.push_back(std::move(s));
    }
    out += JoinStrings(items, ", ");
  }
  if (!qb.from.empty()) {
    out += " FROM ";
    for (size_t i = 0; i < qb.from.size(); ++i) {
      const TableRef& tr = qb.from[i];
      if (tr.join == JoinKind::kInner && tr.join_conds.empty()) {
        out += (i == 0 ? "" : ", ") + TableRefToSql(tr);
      } else {
        // Parsed SQL never puts a join kind or ON on the first entry, but a
        // transformation that erases FROM entries can; render it anyway so
        // equal text still means equal blocks.
        out += std::string(i == 0 ? "" : " ") +
               (tr.join == JoinKind::kInner ? "JOIN" : JoinKindName(tr.join)) +
               " " + TableRefToSql(tr);
        if (!tr.join_conds.empty()) {
          std::vector<std::string> conds;
          conds.reserve(tr.join_conds.size());
          for (const auto& c : tr.join_conds) conds.push_back(ExprToSql(*c));
          out += " ON (" + JoinStrings(conds, " AND ") + ")";
        }
      }
    }
  }
  if (!qb.where.empty() || qb.rownum_limit >= 0) {
    std::vector<std::string> conds;
    conds.reserve(qb.where.size() + 1);
    for (const auto& c : qb.where) conds.push_back(ExprToSql(*c));
    // Render the extracted ROWNUM limit back as the WHERE conjunct the
    // binder's ExtractRownumLimit pulled it from, so the text reparses.
    if (qb.rownum_limit >= 0) {
      conds.push_back("(ROWNUM <= " + std::to_string(qb.rownum_limit) + ")");
    }
    out += " WHERE " + JoinStrings(conds, " AND ");
  }
  if (!qb.group_by.empty()) {
    if (qb.grouping_sets.empty()) {
      std::vector<std::string> keys;
      keys.reserve(qb.group_by.size());
      for (const auto& g : qb.group_by) keys.push_back(ExprToSql(*g));
      out += " GROUP BY " + JoinStrings(keys, ", ");
    } else {
      out += " GROUP BY GROUPING SETS (";
      std::vector<std::string> sets;
      for (const auto& gs : qb.grouping_sets) {
        std::vector<std::string> keys;
        keys.reserve(gs.size());
        for (int gi : gs) {
          keys.push_back(ExprToSql(*qb.group_by[static_cast<size_t>(gi)]));
        }
        sets.push_back("(" + JoinStrings(keys, ", ") + ")");
      }
      out += JoinStrings(sets, ", ") + ")";
    }
  }
  if (!qb.having.empty()) {
    std::vector<std::string> conds;
    conds.reserve(qb.having.size());
    for (const auto& c : qb.having) conds.push_back(ExprToSql(*c));
    out += " HAVING " + JoinStrings(conds, " AND ");
  }
  if (!qb.order_by.empty()) {
    std::vector<std::string> keys;
    keys.reserve(qb.order_by.size());
    for (const auto& o : qb.order_by) {
      keys.push_back(ExprToSql(*o.expr) + (o.ascending ? "" : " DESC"));
    }
    out += " ORDER BY " + JoinStrings(keys, ", ");
  }
  return out;
}

std::string BlockToSqlPretty(const QueryBlock& qb) {
  // Simple re-indenting of the compact rendering: break before major
  // keywords at paren depth 0 relative to the start.
  std::string flat = BlockToSql(qb);
  std::string out;
  int depth = 0;
  size_t i = 0;
  auto match_kw = [&](const char* kw) {
    size_t n = std::char_traits<char>::length(kw);
    return flat.compare(i, n, kw) == 0;
  };
  while (i < flat.size()) {
    char c = flat[i];
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (depth == 0 && c == ' ' &&
        (match_kw(" FROM ") || match_kw(" WHERE ") || match_kw(" GROUP BY ") ||
         match_kw(" HAVING ") || match_kw(" ORDER BY ") ||
         match_kw(" UNION ") || match_kw(" INTERSECT ") ||
         match_kw(" MINUS "))) {
      out += "\n";
      ++i;
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

}  // namespace cbqt
