// Differential test of the structural block fingerprints (sql/fingerprint.h)
// against the two text renderings they replace as cache keys: over every
// block of a large statement population, its seeded permutations and its
// single-field mutants, canonical-fingerprint equality must coincide with
// BlockSignature equality and exact-fingerprint equality with BlockToSql
// equality — for every pair of blocks, in both directions.

#include "sql/fingerprint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "binder/binder.h"
#include "cbqt/engine.h"
#include "common/rng.h"
#include "fuzz/generator.h"
#include "fuzz/harness.h"
#include "parser/parser.h"
#include "sql/signature.h"
#include "sql/unparser.h"
#include "workload/query_gen.h"

namespace cbqt {
namespace {

// ---------------------------------------------------------------------------
// Statement population
// ---------------------------------------------------------------------------

std::vector<std::string> CorpusStatements() {
  std::filesystem::path dir =
      std::filesystem::path(CBQT_SOURCE_DIR) / "tests" / "fuzz_corpus";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".sql") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> out;
  for (const auto& f : files) {
    std::ifstream in(f);
    std::string line, sql;
    while (std::getline(in, line)) {
      if (line.rfind("--", 0) == 0) continue;
      if (!sql.empty()) sql += " ";
      sql += line;
    }
    out.push_back(sql);
  }
  return out;
}

std::vector<std::string> Statements() {
  std::vector<std::string> out;
  const SchemaConfig schema = FuzzSchemaConfig();
  for (int f = static_cast<int>(QueryFamily::kSpj);
       f <= static_cast<int>(QueryFamily::kWindowView); ++f) {
    for (const auto& q :
         GenerateFamily(static_cast<QueryFamily>(f), 4, schema, 7)) {
      out.push_back(q.sql);
    }
  }
  for (const auto& sql : CorpusStatements()) out.push_back(sql);
  for (uint64_t seed = 0; seed < 400; ++seed) {
    out.push_back(GenerateFuzzQuery(seed, schema));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tree walking
// ---------------------------------------------------------------------------

/// Every expression root of one block (not descending into nested blocks).
std::vector<Expr*> ExprRoots(QueryBlock* qb) {
  std::vector<Expr*> out;
  for (auto& s : qb->select) out.push_back(s.expr.get());
  for (auto& tr : qb->from) {
    for (auto& c : tr.join_conds) out.push_back(c.get());
  }
  for (auto& w : qb->where) out.push_back(w.get());
  for (auto& g : qb->group_by) out.push_back(g.get());
  for (auto& h : qb->having) out.push_back(h.get());
  for (auto& o : qb->order_by) out.push_back(o.expr.get());
  return out;
}

void CollectSubBlocks(Expr* e, std::vector<QueryBlock*>* out);

/// Pre-order list of `qb` and every block nested in it.
void CollectBlocks(QueryBlock* qb, std::vector<QueryBlock*>* out) {
  out->push_back(qb);
  for (auto& b : qb->branches) CollectBlocks(b.get(), out);
  for (auto& tr : qb->from) {
    if (!tr.IsBaseTable()) CollectBlocks(tr.derived.get(), out);
  }
  for (Expr* e : ExprRoots(qb)) CollectSubBlocks(e, out);
}

void CollectSubBlocks(Expr* e, std::vector<QueryBlock*>* out) {
  if (e->kind == ExprKind::kSubquery) CollectBlocks(e->subquery.get(), out);
  for (auto& c : e->children) CollectSubBlocks(c.get(), out);
  for (auto& c : e->partition_by) CollectSubBlocks(c.get(), out);
  for (auto& c : e->win_order_by) CollectSubBlocks(c.get(), out);
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextUint(i)]);
  }
}

bool IsCommutativeOp(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kAdd ||
         op == BinaryOp::kMul || op == BinaryOp::kNullSafeEq;
}

// ---------------------------------------------------------------------------
// Seeded permutations: only the orderings the canonical form leaves free
// ---------------------------------------------------------------------------

void PermuteBlock(QueryBlock* qb, Rng* rng);

void PermuteExpr(Expr* e, Rng* rng) {
  if (e->kind == ExprKind::kSubquery) PermuteBlock(e->subquery.get(), rng);
  for (auto& c : e->children) PermuteExpr(c.get(), rng);
  for (auto& c : e->partition_by) PermuteExpr(c.get(), rng);
  for (auto& c : e->win_order_by) PermuteExpr(c.get(), rng);
  Shuffle(&e->partition_by, rng);
  if (e->kind != ExprKind::kBinary || !rng->NextBool(0.5)) return;
  if (e->bop == BinaryOp::kAnd || e->bop == BinaryOp::kOr) {
    // Re-associate (a op b) op c into a op (b op c), or swap the operands.
    Expr* left = e->children[0].get();
    if (left->kind == ExprKind::kBinary && left->bop == e->bop &&
        rng->NextBool(0.5)) {
      ExprPtr l = std::move(e->children[0]);
      ExprPtr c = std::move(e->children[1]);
      ExprPtr a = std::move(l->children[0]);
      ExprPtr b = std::move(l->children[1]);
      l->children[0] = std::move(b);
      l->children[1] = std::move(c);
      e->children[0] = std::move(a);
      e->children[1] = std::move(l);
    } else {
      std::swap(e->children[0], e->children[1]);
    }
  } else if (IsCommutativeOp(e->bop)) {
    std::swap(e->children[0], e->children[1]);
  } else if (IsComparisonOp(e->bop)) {
    std::swap(e->children[0], e->children[1]);
    e->bop = SwapComparison(e->bop);
  }
}

void PermuteBlock(QueryBlock* qb, Rng* rng) {
  for (auto& b : qb->branches) PermuteBlock(b.get(), rng);
  for (auto& tr : qb->from) {
    if (!tr.IsBaseTable()) PermuteBlock(tr.derived.get(), rng);
    Shuffle(&tr.join_conds, rng);
  }
  for (Expr* e : ExprRoots(qb)) PermuteExpr(e, rng);
  Shuffle(&qb->where, rng);
  Shuffle(&qb->having, rng);
  // Reorder each maximal run of non-lateral inner FROM entries; outer /
  // semi / anti joins and lateral views stay where they are.
  auto free_order = [qb](size_t k) {
    return qb->from[k].join == JoinKind::kInner && !qb->from[k].lateral;
  };
  for (size_t i = 0; i < qb->from.size();) {
    if (!free_order(i)) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < qb->from.size() && free_order(j)) ++j;
    for (size_t k = j; k > i + 1; --k) {
      std::swap(qb->from[k - 1], qb->from[i + rng->NextUint(k - i)]);
    }
    i = j;
  }
}

// ---------------------------------------------------------------------------
// Single-field mutants
// ---------------------------------------------------------------------------

enum class Mutation {
  kLiteral,
  kAlias,
  kJoinKind,
  kRownumLimit,
  kGroupByOrder,
  kNoMerge,
};
constexpr Mutation kMutations[] = {
    Mutation::kLiteral,     Mutation::kAlias,        Mutation::kJoinKind,
    Mutation::kRownumLimit, Mutation::kGroupByOrder, Mutation::kNoMerge,
};

Expr* FindLiteral(Expr* e) {
  if (e->kind == ExprKind::kLiteral) return e;
  for (auto& c : e->children) {
    if (Expr* l = FindLiteral(c.get())) return l;
  }
  return nullptr;
}

/// Applies `m` to one block of the tree (chosen by `rng`); false when no
/// block has the field.
bool Mutate(QueryBlock* root, Mutation m, Rng* rng) {
  std::vector<QueryBlock*> blocks;
  CollectBlocks(root, &blocks);
  const size_t start = rng->NextUint(blocks.size());
  for (size_t n = 0; n < blocks.size(); ++n) {
    QueryBlock* qb = blocks[(start + n) % blocks.size()];
    switch (m) {
      case Mutation::kLiteral:
        for (Expr* e : ExprRoots(qb)) {
          Expr* lit = FindLiteral(e);
          if (lit == nullptr) continue;
          const Value& v = lit->literal;
          switch (v.kind()) {
            case ValueKind::kInt64:
              lit->literal = Value::Int(v.AsInt() + 1);
              break;
            case ValueKind::kDouble:
              lit->literal = Value::Real(v.AsDouble() * 2 + 1);
              break;
            case ValueKind::kString:
              lit->literal = Value::Str(v.AsString() + "x");
              break;
            default:
              lit->literal = Value::Int(7);
              break;
          }
          return true;
        }
        break;
      case Mutation::kAlias:
        if (!qb->from.empty()) {
          qb->from[rng->NextUint(qb->from.size())].alias += "_m";
          return true;
        }
        if (!qb->select.empty()) {
          qb->select[0].alias += "_m";
          return true;
        }
        break;
      case Mutation::kJoinKind:
        if (!qb->from.empty()) {
          TableRef& tr = qb->from[rng->NextUint(qb->from.size())];
          tr.join = tr.join == JoinKind::kInner ? JoinKind::kLeftOuter
                                                : JoinKind::kInner;
          return true;
        }
        break;
      case Mutation::kRownumLimit:
        qb->rownum_limit = qb->rownum_limit < 0 ? 5 : qb->rownum_limit + 1;
        return true;
      case Mutation::kGroupByOrder:
        if (qb->group_by.size() >= 2) {
          std::swap(qb->group_by[0], qb->group_by[1]);
          return true;
        }
        break;
      case Mutation::kNoMerge:
        if (!qb->from.empty()) {
          TableRef& tr = qb->from[rng->NextUint(qb->from.size())];
          tr.no_merge = !tr.no_merge;
          return true;
        }
        break;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// The partition check
// ---------------------------------------------------------------------------

/// Checks that `hash` and `text` induce the same partition on everything
/// added: equal hashes <=> equal text, across all pairs.
class PartitionCheck {
 public:
  explicit PartitionCheck(const char* what) : what_(what) {}

  void Add(uint64_t hash, const std::string& text) {
    auto [by_text, new_text] = hash_by_text_.emplace(text, hash);
    auto [by_hash, new_hash] = text_by_hash_.emplace(hash, text);
    if (!new_text && by_text->second != hash) {
      ADD_FAILURE() << what_ << ": equal text, different hashes: " << text;
    }
    if (!new_hash && by_hash->second != text) {
      ADD_FAILURE() << what_ << ": equal hashes, different text:\n  "
                    << by_hash->second << "\n  " << text;
    }
    ++added_;
  }

  size_t classes() const { return hash_by_text_.size(); }
  size_t added() const { return added_; }

 private:
  const char* what_;
  std::map<std::string, uint64_t> hash_by_text_;
  std::map<uint64_t, std::string> text_by_hash_;
  size_t added_ = 0;
};

struct Checks {
  PartitionCheck canonical{"canonical"};
  PartitionCheck exact{"exact"};
  PartitionCheck expr_canonical{"expr canonical"};
  PartitionCheck expr_exact{"expr exact"};
  int64_t canonical_only_pairs = 0;  ///< same signature, different text
  int64_t mutants_changed = 0;       ///< mutant signature != original

  /// Adds every block of `qb` and every expression root, and checks that
  /// a memoizing Fingerprinter (one per tree, as the planner uses it)
  /// agrees with one-shot fingerprints.
  void AddTree(QueryBlock* qb) {
    std::vector<QueryBlock*> blocks;
    CollectBlocks(qb, &blocks);
    Fingerprinter memo;
    memo.OfBlock(*qb);
    for (QueryBlock* b : blocks) {
      Fingerprint fp = BlockFingerprint(*b);
      ASSERT_EQ(memo.OfBlock(*b), fp) << BlockToSql(*b);
      canonical.Add(fp.canonical, BlockSignature(*b));
      exact.Add(fp.exact, BlockToSql(*b));
      for (Expr* e : ExprRoots(b)) {
        Fingerprint efp = memo.OfExpr(*e);
        expr_canonical.Add(efp.canonical, ExprSignature(*e));
        expr_exact.Add(efp.exact, ExprToSql(*e));
      }
    }
  }
};

std::unique_ptr<QueryBlock> Bind(const Database& db, const std::string& sql) {
  auto parsed = ParseSql(sql);
  if (!parsed.ok()) return nullptr;
  std::unique_ptr<QueryBlock> qb = std::move(parsed.value());
  if (!BindQuery(db, qb.get()).ok()) return nullptr;
  return qb;
}

TEST(Fingerprint, PartitionsLikeSignatureAndUnparsing) {
  Database db;
  ASSERT_TRUE(BuildFuzzDatabase(&db).ok());
  QueryEngine engine(db, CbqtConfig{});
  Checks checks;
  Rng rng(20061);
  int64_t trees = 0;
  for (const std::string& sql : Statements()) {
    // The bound statement and the tree CBQT chose for it (semi/anti joins,
    // lateral views, merged and unnested blocks).
    std::vector<std::unique_ptr<QueryBlock>> roots;
    auto bound = Bind(db, sql);
    ASSERT_NE(bound, nullptr) << sql;
    roots.push_back(std::move(bound));
    auto prepared = engine.Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString() << "\n" << sql;
    roots.push_back(prepared->tree->Clone());

    for (const auto& root : roots) {
      checks.AddTree(root.get());
      const std::string sig = BlockSignature(*root);
      const std::string text = BlockToSql(*root);
      for (int p = 0; p < 3; ++p) {
        auto variant = root->Clone();
        PermuteBlock(variant.get(), &rng);
        EXPECT_EQ(BlockSignature(*variant), sig) << text;
        if (BlockToSql(*variant) != text) ++checks.canonical_only_pairs;
        checks.AddTree(variant.get());
        ++trees;
      }
      for (Mutation m : kMutations) {
        auto mutant = root->Clone();
        if (!Mutate(mutant.get(), m, &rng)) continue;
        if (BlockSignature(*mutant) != sig) ++checks.mutants_changed;
        checks.AddTree(mutant.get());
        ++trees;
      }
    }
  }
  // The population is large and the permutations really exercise the
  // canonical-only equalities.
  EXPECT_GT(trees, 7000);
  EXPECT_GT(checks.canonical.classes(), 5000u);
  EXPECT_GT(checks.exact.classes(), checks.canonical.classes());
  EXPECT_GT(checks.expr_exact.classes(), checks.expr_canonical.classes());
  EXPECT_GT(checks.canonical_only_pairs, 1500);
  EXPECT_GT(checks.mutants_changed, 3000);
}

TEST(Fingerprint, ExactCoversWhatTheUnparserRenders) {
  Database db;
  ASSERT_TRUE(BuildFuzzDatabase(&db).ok());
  auto a = Bind(db,
                "SELECT e.emp_id FROM employees e, departments d "
                "WHERE e.dept_id = d.dept_id AND e.salary > 10");
  ASSERT_NE(a, nullptr);
  auto b = a->Clone();
  // Neither the block name nor a literal's parameter slot is rendered.
  b->qb_name = "OTHER";
  Expr* lit = FindLiteral(b->where[1].get());
  ASSERT_NE(lit, nullptr);
  lit->param_index = 3;
  EXPECT_EQ(BlockToSql(*a), BlockToSql(*b));
  EXPECT_EQ(BlockFingerprint(*a), BlockFingerprint(*b));
  // A mirrored comparison: same canonical class, different text.
  auto c = a->Clone();
  std::swap(c->where[1]->children[0], c->where[1]->children[1]);
  c->where[1]->bop = SwapComparison(c->where[1]->bop);
  EXPECT_EQ(BlockFingerprint(*a).canonical, BlockFingerprint(*c).canonical);
  EXPECT_NE(BlockFingerprint(*a).exact, BlockFingerprint(*c).exact);
  // A correlation depth is canonical-only: the text relies on context.
  auto d = a->Clone();
  d->where[1]->children[0]->corr_depth = 1;
  EXPECT_EQ(BlockToSql(*a), BlockToSql(*d));
  EXPECT_EQ(BlockFingerprint(*a).exact, BlockFingerprint(*d).exact);
  EXPECT_NE(BlockSignature(*a), BlockSignature(*d));
  EXPECT_NE(BlockFingerprint(*a).canonical, BlockFingerprint(*d).canonical);
  // The first FROM entry's join kind and ON conditions (only transformation
  // output carries them) change both the text and the exact hash.
  auto semi = a->Clone();
  semi->from[0].join = JoinKind::kSemi;
  EXPECT_NE(BlockToSql(*a), BlockToSql(*semi));
  EXPECT_NE(BlockFingerprint(*a).exact, BlockFingerprint(*semi).exact);
  auto on = a->Clone();
  on->from[0].join_conds.push_back(a->where[0]->Clone());
  EXPECT_NE(BlockToSql(*a), BlockToSql(*on));
  EXPECT_NE(BlockFingerprint(*a).exact, BlockFingerprint(*on).exact);
}

}  // namespace
}  // namespace cbqt
