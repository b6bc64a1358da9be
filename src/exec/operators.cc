#include "exec/operators.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/fault_injector.h"
#include "exec/compiled_expr.h"
#include "exec/shared_scan.h"

namespace cbqt {

// ---------------------------------------------------------------------------
// ExecContext
// ---------------------------------------------------------------------------

Status ExecContext::CountBatch(int64_t n) {
  if (n <= 0) return Status::OK();
  ++stats.batches;
  stats.rows_processed += n;
  if (stats.rows_processed > row_cap) {
    budget->MarkExhausted(BudgetDimension::kExecRows);
    return Status::BudgetExhausted(
        "executor row budget exceeded (max_exec_rows=" +
        std::to_string(budget->budget().max_exec_rows) + ")");
  }
  if (has_guards) {
    if (guards.faults != nullptr) {
      CBQT_RETURN_IF_ERROR(guards.faults->MaybeFail(FaultSite::kExecBatch));
    }
    return guards.Poll();
  }
  return Status::OK();
}

Status ExecContext::ChargeBuffered(ScopedReservation& res, int64_t bytes) {
  if (guards.faults != nullptr) {
    CBQT_RETURN_IF_ERROR(guards.faults->MaybeFail(FaultSite::kExecSpillCheck));
    if (guards.faults->MaybeFire(FaultSite::kMemoryPressure)) {
      return Status::ResourceExhausted(
          "injected memory pressure (executor pipeline breaker)");
    }
  }
  return res.Grow(bytes);
}

Result<SpillManager*> ExecContext::GetSpill() {
  if (spill_mgr_ == nullptr) {
    auto m = SpillManager::Create(spill_dir, guards.faults, &stats.spill);
    if (!m.ok()) return m.status();
    spill_mgr_ = std::move(m.value());
  }
  return spill_mgr_.get();
}

namespace {

using RowMap = std::unordered_map<Row, std::vector<size_t>, RowHasher, RowEq>;
using SeenMap = std::unordered_map<Row, bool, RowHasher, RowEq>;

/// Fan-out of a spilling pipeline breaker, and the recursion bound when a
/// partition itself does not fit (each level re-salts the hash, so only an
/// adversarial key set can keep colliding).
constexpr size_t kSpillPartitions = 8;
constexpr int kMaxSpillDepth = 6;

/// Poll cadence (rows) while re-reading spilled partitions: the rows were
/// already counted when first consumed, so cancellation is checked without
/// recounting (and without consuming kExecBatch fault hits).
constexpr int64_t kSpillPollMask = 0xFF;

/// Spill partition of a key given its HashRow / HashKey hash.
size_t PartitionOfHash(size_t key_hash, int salt) {
  uint64_t h = static_cast<uint64_t>(key_hash);
  h ^= 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(salt + 1);
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<size_t>(h % kSpillPartitions);
}

size_t PartitionOfKey(const Row& key, int salt) {
  return PartitionOfHash(HashRow(key), salt);
}

// Mirrors the planner's subquery traversal order (pre-order, not descending
// into nested subquery blocks).
void CollectSubqueryNodesExec(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kSubquery) {
    out->push_back(e);
    return;
  }
  for (const auto& c : e->children) CollectSubqueryNodesExec(c.get(), out);
  for (const auto& c : e->partition_by) CollectSubqueryNodesExec(c.get(), out);
  for (const auto& c : e->win_order_by) CollectSubqueryNodesExec(c.get(), out);
}

struct AggAccum {
  double sum = 0;
  int64_t count = 0;
  bool sum_is_int = true;
  int64_t isum = 0;
  Value min;
  Value max;
  std::unordered_map<Row, bool, RowHasher, RowEq> distinct;

  void Add(const Value& v, const Expr& agg) {
    if (agg.agg == AggFunc::kCountStar) {
      ++count;
      return;
    }
    if (v.is_null()) return;
    if (agg.agg_distinct) {
      Row key{v};
      if (!distinct.emplace(std::move(key), true).second) return;
    }
    ++count;
    switch (agg.agg) {
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.kind() == ValueKind::kInt64 && sum_is_int) {
          isum += v.AsInt();
        } else {
          if (sum_is_int) {
            sum = static_cast<double>(isum);
            sum_is_int = false;
          }
          sum += v.NumericValue();
        }
        break;
      case AggFunc::kMin:
        if (min.is_null() || TotalLess(v, min)) min = v;
        break;
      case AggFunc::kMax:
        if (max.is_null() || TotalLess(max, v)) max = v;
        break;
      default:
        break;
    }
  }

  Value Finish(const Expr& agg) const {
    switch (agg.agg) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        return sum_is_int ? Value::Int(isum) : Value::Real(sum);
      case AggFunc::kAvg: {
        if (count == 0) return Value::Null();
        double total = sum_is_int ? static_cast<double>(isum) : sum;
        return Value::Real(total / static_cast<double>(count));
      }
      case AggFunc::kMin:
        return min;
      case AggFunc::kMax:
        return max;
    }
    return Value::Null();
  }
};

bool SortRowLess(const Row& a, const Row& b, const std::vector<bool>& asc,
                 size_t num_keys) {
  for (size_t i = 0; i < num_keys; ++i) {
    bool ascending = i < asc.size() ? asc[i] : true;
    const Value& x = a[i];
    const Value& y = b[i];
    // Oracle default: NULLS LAST ascending, NULLS FIRST descending.
    if (x.is_null() && y.is_null()) continue;
    if (x.is_null()) return !ascending;
    if (y.is_null()) return ascending;
    Ordering ord = CompareValues(x, y);
    if (ord == Ordering::kEqual || ord == Ordering::kUnknown) continue;
    bool less = ord == Ordering::kLess;
    return ascending ? less : !less;
  }
  return false;
}

bool SortRowLess(const Row& a, const Row& b, const std::vector<bool>& asc) {
  return SortRowLess(a, b, asc, a.size());
}

/// RAII frame push. Operators push once per batch (or per row on fallback
/// paths) and mutate the row pointer in place.
class FrameGuard {
 public:
  FrameGuard(EvalContext& ctx, const Schema* schema) : ctx_(ctx) {
    ctx_.frames.push_back(Frame{schema, nullptr});
  }
  ~FrameGuard() { ctx_.frames.pop_back(); }
  FrameGuard(const FrameGuard&) = delete;
  FrameGuard& operator=(const FrameGuard&) = delete;

  void SetRow(const Row* row) { ctx_.frames.back().row = row; }

 private:
  EvalContext& ctx_;
};

bool AnySlow(const std::vector<CompiledExpr>& exprs) {
  for (const auto& e : exprs) {
    if (!e.fast()) return true;
  }
  return false;
}

/// Conjunct truth for one row. The all-fast path touches neither the frame
/// stack nor Status plumbing — this is the batch executor's hot
/// filter/join loop. The fallback pushes one frame for the row, matching
/// the tree evaluator's resolution order exactly. On a runtime error sets
/// *err (callers hoist one Status per batch and test it per row).
Truth EvalPredsOnRow(EvalContext& ev, const std::vector<CompiledExpr>& preds,
                     const Row& row, const Schema* schema, bool needs_frame,
                     Status* err) {
  if (!needs_frame) return EvalCompiledConjuncts(preds, row, ev, err);
  FrameGuard g(ev, schema);
  g.SetRow(&row);
  return EvalCompiledConjuncts(preds, row, ev, err);
}

/// Expression-list evaluation for one row (hash/sort/group keys,
/// projections) with the same fast/fallback split as EvalPredsOnRow.
Status EvalListOnRow(EvalContext& ev, const std::vector<CompiledExpr>& exprs,
                     const Row& row, const Schema* schema, bool needs_frame,
                     Row* out, bool* has_null = nullptr) {
  if (!needs_frame) return EvalCompiledList(exprs, row, ev, out, has_null);
  FrameGuard g(ev, schema);
  g.SetRow(&row);
  return EvalCompiledList(exprs, row, ev, out, has_null);
}

/// The input slots of `keys` when every key is a plain column ref (the key
/// can then be looked up as a view over the input row); false otherwise.
bool KeySlots(const std::vector<CompiledExpr>& keys, std::vector<int>* slots) {
  slots->clear();
  for (const auto& k : keys) {
    if (k.slot() < 0) {
      slots->clear();
      return false;
    }
    slots->push_back(k.slot());
  }
  return true;
}

/// Slots 0..n-1: the view of an already evaluated key row.
std::vector<int> IdentitySlots(size_t n) {
  std::vector<int> slots(n);
  for (size_t i = 0; i < n; ++i) slots[i] = static_cast<int>(i);
  return slots;
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

/// Sentinel source index for the rowid pseudo-column.
constexpr int kRowIdSrc = -1;

/// Maps each output slot of a scan to its column index in the stored table
/// (or kRowIdSrc for the rowid pseudo-column). Column pruning may have
/// narrowed the scan's output to a subset of the table's columns, so the
/// mapping is by name, mirroring how the planner built the schema.
Status MapScanSlots(const Schema& output, const TableDef& def,
                    std::vector<int>* src_slots) {
  src_slots->clear();
  src_slots->reserve(output.size());
  for (const auto& slot : output) {
    int idx = def.FindColumn(slot.name);
    if (idx < 0 && slot.name == "rowid") idx = kRowIdSrc;
    if (idx < 0 && slot.name != "rowid") {
      return Status::Internal("scan output column missing from table " +
                              def.name + ": " + slot.name);
    }
    src_slots->push_back(idx);
  }
  return Status::OK();
}

/// Copies only the mapped slots out of a stored row — the batch executor's
/// late materialization: unreferenced (typically wide string) columns never
/// leave the table.
Row MaterializeScanRow(const Row& src, const std::vector<int>& src_slots,
                       int64_t rowid) {
  Row r;
  r.reserve(src_slots.size());
  for (int s : src_slots) {
    if (s == kRowIdSrc) {
      r.push_back(Value::Int(rowid));
    } else {
      r.push_back(src[static_cast<size_t>(s)]);
    }
  }
  return r;
}

/// A scan's pushed filter. When every predicate compiles fast against the
/// scan's output and reads only stored columns (no rowid, no outer
/// frames), the programs are rebased onto the stored row layout, and rows
/// that fail the filter are never materialized; otherwise the filter runs
/// on the materialized output row.
class ScanFilter {
 public:
  explicit ScanFilter(const PlanNode* node)
      : node_(node),
        filter_(CompileExprList(node->filter, &node->output)),
        needs_frame_(AnySlow(filter_)) {}

  /// Rebases the filter through the scan's output-to-stored slot map (once:
  /// a rescanned scan is re-Opened per outer row).
  void BindSource(const std::vector<int>& src_slots) {
    if (bound_ || filter_.empty() || needs_frame_) return;
    bound_ = true;
    src_filter_.reserve(filter_.size());
    for (const auto& f : filter_) src_filter_.push_back(f.Rebased(src_slots));
    on_source_ = !AnySlow(src_filter_);
  }

  /// False when stored row `src` fails a source-bound filter (or *err is
  /// set); true when it passes or the filter runs on output rows instead.
  bool PassSource(EvalContext& ev, const Row& src, Status* err) const {
    if (!on_source_) return true;
    return EvalCompiledConjuncts(src_filter_, src, ev, err) == Truth::kTrue;
  }

  /// The output-row half: false when materialized row `r` fails a filter
  /// that could not be bound to the source (or *err is set).
  bool PassOutput(EvalContext& ev, const Row& r, Status* err) const {
    if (on_source_ || filter_.empty()) return true;
    return EvalPredsOnRow(ev, filter_, r, &node_->output, needs_frame_, err) ==
           Truth::kTrue;
  }

 private:
  const PlanNode* node_;
  std::vector<CompiledExpr> filter_;
  bool needs_frame_;
  bool bound_ = false;
  std::vector<CompiledExpr> src_filter_;
  bool on_source_ = false;
};

class TableScanOperator final : public Operator {
 public:
  TableScanOperator(ExecContext* ctx, const PlanNode* node)
      : Operator(ctx, node), filter_(node) {}

  Status Open() override {
    table_ = ctx_->db->FindTable(node_->table_name);
    if (table_ == nullptr) {
      return Status::Internal("missing table at execution: " +
                              node_->table_name);
    }
    CBQT_RETURN_IF_ERROR(
        MapScanSlots(node_->output, table_->def(), &src_slots_));
    filter_.BindSource(src_slots_);
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    const auto& rows = table_->rows();
    if (pos_ >= rows.size()) return false;
    size_t end = std::min(rows.size(), pos_ + ctx_->batch_size);
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(end - pos_)));
    Status err;
    for (; pos_ < end; ++pos_) {
      if (!filter_.PassSource(ctx_->eval, rows[pos_], &err)) {
        CBQT_RETURN_IF_ERROR(err);
        continue;
      }
      Row r = MaterializeScanRow(rows[pos_], src_slots_,
                                 static_cast<int64_t>(pos_));
      if (!filter_.PassOutput(ctx_->eval, r, &err)) {
        CBQT_RETURN_IF_ERROR(err);
        continue;
      }
      out->Add(std::move(r));
    }
    return true;
  }

 private:
  ScanFilter filter_;
  const Table* table_ = nullptr;
  std::vector<int> src_slots_;
  size_t pos_ = 0;
};

class IndexScanOperator final : public Operator {
 public:
  IndexScanOperator(ExecContext* ctx, const PlanNode* node)
      : Operator(ctx, node), filter_(node) {}

  Status Open() override {
    table_ = ctx_->db->FindTable(node_->table_name);
    const Index* index = ctx_->db->FindIndex(node_->table_name,
                                             node_->index_name);
    if (table_ == nullptr || index == nullptr) {
      return Status::Internal("missing table/index at execution: " +
                              node_->table_name + "/" + node_->index_name);
    }
    CBQT_RETURN_IF_ERROR(
        MapScanSlots(node_->output, table_->def(), &src_slots_));
    filter_.BindSource(src_slots_);
    // Probe values resolve through the *enclosing* frames (a rescanning
    // nested-loop join re-Opens this operator once per outer row with the
    // outer frame pushed), so they go through the tree evaluator.
    Row key;
    key.reserve(node_->probes.size());
    for (const auto& p : node_->probes) {
      auto v = EvalExpr(*p, ctx_->eval);
      if (!v.ok()) return v.status();
      key.push_back(std::move(v.value()));
    }
    rowids_ = index->LookupEqual(key);
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    if (pos_ >= rowids_.size()) return false;
    size_t end = std::min(rowids_.size(), pos_ + ctx_->batch_size);
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(end - pos_)));
    Status err;
    for (; pos_ < end; ++pos_) {
      int64_t rowid = rowids_[pos_];
      const Row& src = table_->rows()[static_cast<size_t>(rowid)];
      if (!filter_.PassSource(ctx_->eval, src, &err)) {
        CBQT_RETURN_IF_ERROR(err);
        continue;
      }
      Row r = MaterializeScanRow(src, src_slots_, rowid);
      if (!filter_.PassOutput(ctx_->eval, r, &err)) {
        CBQT_RETURN_IF_ERROR(err);
        continue;
      }
      out->Add(std::move(r));
    }
    return true;
  }

 private:
  ScanFilter filter_;
  const Table* table_ = nullptr;
  std::vector<int64_t> rowids_;
  std::vector<int> src_slots_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Filter / Project
// ---------------------------------------------------------------------------

class FilterOperator final : public Operator {
 public:
  FilterOperator(ExecContext* ctx, const PlanNode* node,
                 std::unique_ptr<Operator> child)
      : Operator(ctx, node),
        child_(std::move(child)),
        filter_(CompileExprList(node->filter, &node->output)),
        filter_needs_frame_(AnySlow(filter_)) {}

  Status Open() override { return child_->Open(); }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    auto more = child_->NextBatch(&in_);
    if (!more.ok()) return more.status();
    if (!more.value()) return false;
    if (in_.empty()) return true;
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(in_.size())));
    Status err;
    for (auto& r : in_.rows()) {
      if (EvalPredsOnRow(ctx_->eval, filter_, r, &node_->output,
                         filter_needs_frame_, &err) == Truth::kTrue) {
        out->Add(std::move(r));
      }
      CBQT_RETURN_IF_ERROR(err);
    }
    return true;
  }

  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<CompiledExpr> filter_;
  bool filter_needs_frame_;
  RowBatch in_;
};

class ProjectOperator final : public Operator {
 public:
  ProjectOperator(ExecContext* ctx, const PlanNode* node,
                  std::unique_ptr<Operator> child)
      : Operator(ctx, node),
        child_(std::move(child)),
        in_schema_(node->children.empty() ? &node->output
                                          : &node->children[0]->output),
        projs_(CompileExprList(node->projections, in_schema_)),
        projs_need_frame_(AnySlow(projs_)) {
    // Distinct plain columns are moved out of the (dead) input row instead
    // of copied.
    std::vector<int> slots;
    if (KeySlots(projs_, &slots)) {
      std::vector<int> sorted = slots;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end()) {
        move_slots_ = std::move(slots);
        moves_ = child_ != nullptr && !projs_.empty();
      }
    }
  }

  Status Open() override {
    row_index_ = 0;
    synthetic_done_ = false;
    if (child_ != nullptr) return child_->Open();
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    if (child_ == nullptr) {
      // No-FROM block: one synthetic empty input row.
      if (synthetic_done_) return false;
      synthetic_done_ = true;
      CBQT_RETURN_IF_ERROR(ctx_->CountBatch(1));
      Row empty;
      CBQT_RETURN_IF_ERROR(ProjectRow(empty, 1, out));
      return true;
    }
    auto more = child_->NextBatch(&in_);
    if (!more.ok()) return more.status();
    if (!more.value()) return false;
    if (in_.empty()) return true;
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(in_.size())));
    for (auto& r : in_.rows()) {
      ++row_index_;
      CBQT_RETURN_IF_ERROR(ProjectRow(r, row_index_, out));
    }
    return true;
  }

  void Close() override {
    if (child_ != nullptr) child_->Close();
  }

 private:
  Status ProjectRow(Row& in, int64_t rownum, RowBatch* out) {
    scratch_.clear();
    if (moves_) {
      for (int s : move_slots_) {
        scratch_.push_back(std::move(in[static_cast<size_t>(s)]));
      }
    } else {
      // ROWNUM scopes to this projection: set for the row, restored after
      // (the enclosing operator may maintain its own, e.g. a lazy Limit).
      int64_t saved = ctx_->eval.rownum;
      ctx_->eval.rownum = rownum;
      Status st = EvalListOnRow(ctx_->eval, projs_, in, in_schema_,
                                projs_need_frame_, &scratch_);
      ctx_->eval.rownum = saved;
      CBQT_RETURN_IF_ERROR(st);
    }
    // The input row is dead once evaluated; reuse its heap buffer for the
    // output row so steady-state projection allocates nothing per row.
    in.clear();
    in.reserve(scratch_.size());
    for (auto& v : scratch_) in.push_back(std::move(v));
    out->Add(std::move(in));
    return Status::OK();
  }

  std::unique_ptr<Operator> child_;
  const Schema* in_schema_;
  std::vector<CompiledExpr> projs_;
  bool projs_need_frame_;
  bool moves_ = false;
  std::vector<int> move_slots_;
  Row scratch_;
  RowBatch in_;
  int64_t row_index_ = 0;
  bool synthetic_done_ = false;
};

// ---------------------------------------------------------------------------
// Nested-loop join
// ---------------------------------------------------------------------------

class NestedLoopJoinOperator final : public Operator {
 public:
  NestedLoopJoinOperator(ExecContext* ctx, const PlanNode* node,
                         std::unique_ptr<Operator> left,
                         std::unique_ptr<Operator> right)
      : Operator(ctx, node),
        left_(std::move(left)),
        right_(std::move(right)),
        left_schema_(&node->children[0]->output),
        right_schema_(&node->children[1]->output) {
    combined_ = *left_schema_;
    combined_.insert(combined_.end(), right_schema_->begin(),
                     right_schema_->end());
    conds_ = CompileExprList(node->join_conds, &combined_);
    conds_need_frame_ = AnySlow(conds_);
  }

  Status Open() override {
    CBQT_RETURN_IF_ERROR(left_->Open());
    left_batch_.Clear();
    left_pos_ = 0;
    left_done_ = false;
    right_cache_.clear();
    if (!node_->rescan_right) {
      auto rows = DrainOperator(right_.get());
      if (!rows.ok()) return rows.status();
      right_cache_ = std::move(rows.value());
    }
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    while (!left_done_ && out->size() < ctx_->batch_size) {
      if (left_pos_ >= left_batch_.size()) {
        auto more = left_->NextBatch(&left_batch_);
        if (!more.ok()) return more.status();
        if (!more.value()) {
          left_done_ = true;
          break;
        }
        left_pos_ = 0;
        continue;
      }
      Row& lrow = left_batch_[left_pos_++];
      CBQT_RETURN_IF_ERROR(ProcessLeftRow(lrow, out));
    }
    if (left_done_ && out->empty()) return false;
    return true;
  }

  void Close() override {
    left_->Close();
    right_->Close();
    right_cache_.clear();
  }

 private:
  Status ProcessLeftRow(Row& lrow, RowBatch* out) {
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(1));
    const std::vector<Row>* right_rows = &right_cache_;
    std::vector<Row> per_row;
    if (node_->rescan_right) {
      // Re-run the right subtree with the outer row in scope: index probes
      // and correlated filters below re-resolve against this frame.
      FrameGuard g(ctx_->eval, left_schema_);
      g.SetRow(&lrow);
      auto rows = DrainOperator(right_.get());
      if (!rows.ok()) return rows.status();
      per_row = std::move(rows.value());
      right_rows = &per_row;
    }
    bool matched = false;
    bool unknown = false;
    int64_t examined = 0;
    for (const auto& rrow : *right_rows) {
      ++examined;
      Row comb = lrow;
      comb.insert(comb.end(), rrow.begin(), rrow.end());
      Truth pass = Truth::kTrue;
      if (!conds_.empty()) {
        Status err;
        pass = EvalPredsOnRow(ctx_->eval, conds_, comb, &combined_,
                              conds_need_frame_, &err);
        CBQT_RETURN_IF_ERROR(err);
      }
      if (pass == Truth::kUnknown) {
        unknown = true;
        continue;
      }
      if (pass == Truth::kFalse) continue;
      matched = true;
      if (node_->join_kind == JoinKind::kInner ||
          node_->join_kind == JoinKind::kLeftOuter) {
        out->Add(std::move(comb));
      }
      if (node_->join_kind == JoinKind::kSemi ||
          node_->join_kind == JoinKind::kAnti ||
          node_->join_kind == JoinKind::kAntiNA) {
        break;  // stop-at-first-match property
      }
    }
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(examined));
    switch (node_->join_kind) {
      case JoinKind::kSemi:
        if (matched) out->Add(std::move(lrow));
        break;
      case JoinKind::kAnti:
        if (!matched) out->Add(std::move(lrow));
        break;
      case JoinKind::kAntiNA:
        if (!matched && !unknown) out->Add(std::move(lrow));
        break;
      case JoinKind::kLeftOuter:
        if (!matched) {
          Row comb = std::move(lrow);
          for (size_t i = 0; i < right_schema_->size(); ++i) {
            comb.push_back(Value::Null());
          }
          out->Add(std::move(comb));
        }
        break;
      case JoinKind::kInner:
        break;
    }
    return Status::OK();
  }

  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  const Schema* left_schema_;
  const Schema* right_schema_;
  Schema combined_;
  std::vector<CompiledExpr> conds_;
  bool conds_need_frame_ = false;
  RowBatch left_batch_;
  size_t left_pos_ = 0;
  bool left_done_ = false;
  std::vector<Row> right_cache_;
};

// ---------------------------------------------------------------------------
// Hash join (Grace-partitioned spill on build-side memory pressure)
// ---------------------------------------------------------------------------

class HashJoinOperator final : public Operator {
 public:
  HashJoinOperator(ExecContext* ctx, const PlanNode* node,
                   std::unique_ptr<Operator> left,
                   std::unique_ptr<Operator> right)
      : Operator(ctx, node),
        left_(std::move(left)),
        right_(std::move(right)),
        left_schema_(&node->children[0]->output),
        right_schema_(&node->children[1]->output) {
    combined_ = *left_schema_;
    combined_.insert(combined_.end(), right_schema_->begin(),
                     right_schema_->end());
    lkeys_ = CompileExprList(node->hash_left_keys, left_schema_);
    rkeys_ = CompileExprList(node->hash_right_keys, right_schema_);
    conds_ = CompileExprList(node->join_conds, &combined_);
    lkeys_need_frame_ = AnySlow(lkeys_);
    rkeys_need_frame_ = AnySlow(rkeys_);
    conds_need_frame_ = AnySlow(conds_);
    if (!KeySlots(lkeys_, &lkey_slots_)) {
      lkey_slots_ = IdentitySlots(lkeys_.size());
      lkeys_computed_ = true;
    }
    build_key_slots_ = IdentitySlots(rkeys_.size());
  }

  Status Open() override {
    table_.clear();
    build_rows_.clear();
    build_has_null_key_ = false;
    build_input_rows_ = 0;
    spilled_ = false;
    parts_.clear();
    pending_.clear();
    pending_pos_ = 0;
    next_part_ = 0;
    skip_parts_ = false;
    probe_batch_.Clear();
    probe_pos_ = 0;
    probe_done_ = false;
    build_mem_.emplace(ctx_->BufferReservation());

    // Build on the right. The build side is a pipeline breaker: its hash
    // table bytes are charged against the per-query memory tracker, and on
    // the first failed charge the build degrades to Grace partitioning.
    CBQT_RETURN_IF_ERROR(right_->Open());
    RowBatch b;
    for (;;) {
      auto more = right_->NextBatch(&b);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      if (b.empty()) continue;
      CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(b.size())));
      Row& key = build_key_;
      for (auto& row : b.rows()) {
        ++build_input_rows_;
        bool has_null = false;
        CBQT_RETURN_IF_ERROR(EvalListOnRow(ctx_->eval, rkeys_, row,
                                           right_schema_, rkeys_need_frame_,
                                           &key, &has_null));
        if (has_null) {
          // NULL keys never equal anything; they only matter for the
          // null-aware antijoin's three-valued verdict.
          build_has_null_key_ = true;
          continue;
        }
        if (!spilled_ && ctx_->charge_memory()) {
          Status st = ctx_->ChargeBuffered(
              *build_mem_, EstimateRowBytes(key) + EstimateRowBytes(row) +
                               static_cast<int64_t>(sizeof(size_t)));
          if (!st.ok()) {
            if (!ctx_->ShouldSpill(st)) return st;
            CBQT_RETURN_IF_ERROR(BeginBuildSpill());
          }
        }
        if (spilled_) {
          CBQT_RETURN_IF_ERROR(
              parts_[PartitionOfKey(key, 0)].build->Append(row));
        } else {
          AddBuildRow(&table_, &build_rows_, std::move(row));
        }
      }
    }
    right_->Close();

    CBQT_RETURN_IF_ERROR(left_->Open());
    if (spilled_) return RouteProbeSide();
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    if (spilled_) return NextSpilled(out);
    while (!probe_done_ && out->size() < ctx_->batch_size) {
      if (probe_pos_ >= probe_batch_.size()) {
        auto more = left_->NextBatch(&probe_batch_);
        if (!more.ok()) return more.status();
        if (!more.value()) {
          probe_done_ = true;
          break;
        }
        probe_pos_ = 0;
        if (!probe_batch_.empty()) {
          CBQT_RETURN_IF_ERROR(
              ctx_->CountBatch(static_cast<int64_t>(probe_batch_.size())));
        }
        continue;
      }
      Row& lrow = probe_batch_[probe_pos_++];
      CBQT_RETURN_IF_ERROR(
          ProbeOne(table_, build_rows_, std::move(lrow), &out->rows()));
    }
    if (probe_done_ && out->empty()) return false;
    return true;
  }

  void Close() override {
    left_->Close();
    table_.clear();
    build_rows_.clear();
    pending_.clear();
    if (build_mem_) build_mem_->Release();
  }

 private:
  struct Part {
    SpillFile* build = nullptr;
    SpillFile* probe = nullptr;
    int64_t probe_rows = 0;
  };

  /// Appends build row `row`, whose key was just evaluated into build_key_,
  /// to a (table, rows) build image. The key is looked up as a view over
  /// the scratch row; a key Row is materialized only for a new key.
  void AddBuildRow(RowMap* table, std::vector<Row>* brows, Row&& row) {
    KeyView view{&build_key_, build_key_slots_.data(), build_key_slots_.size()};
    auto it = table->find(view);
    if (it == table->end()) {
      it = table->emplace(build_key_, std::vector<size_t>{}).first;
    }
    it->second.push_back(brows->size());
    brows->push_back(std::move(row));
  }

  /// The probe key of `lrow`: a view over lrow's own slots when every
  /// probe key is a plain column ref, else over probe_key_ (a reused
  /// scratch row) after evaluating the keys into it. Valid until the next
  /// call.
  Status ProbeKeyOf(const Row& lrow, KeyView* key) {
    const Row* base = &lrow;
    if (lkeys_computed_) {
      CBQT_RETURN_IF_ERROR(EvalListOnRow(ctx_->eval, lkeys_, lrow,
                                         left_schema_, lkeys_need_frame_,
                                         &probe_key_));
      base = &probe_key_;
    }
    *key = KeyView{base, lkey_slots_.data(), lkey_slots_.size()};
    return Status::OK();
  }

  /// Probes one outer row against a (table, rows) build image and applies
  /// the join kind's emission rule. Shared by the in-memory path and the
  /// per-partition spill path; candidate rows examined are counted exactly
  /// as the row-at-a-time executor counted them.
  Status ProbeOne(const RowMap& table, const std::vector<Row>& brows,
                  Row&& lrow, std::vector<Row>* sink) {
    KeyView key;
    CBQT_RETURN_IF_ERROR(ProbeKeyOf(lrow, &key));
    const bool has_null = key.HasNull();
    bool matched = false;
    int64_t examined = 0;
    if (!has_null) {
      auto it = table.find(key);
      if (it != table.end()) {
        const JoinKind kind = node_->join_kind;
        const std::vector<size_t>& cands = it->second;
        for (size_t c = 0; c < cands.size(); ++c) {
          ++examined;
          if (conds_.empty() && kind != JoinKind::kInner &&
              kind != JoinKind::kLeftOuter) {
            matched = true;  // semi/anti: the key match alone decides
            break;
          }
          const Row& rrow = brows[cands[c]];
          Row comb;
          if (kind == JoinKind::kInner && c + 1 == cands.size()) {
            // Nothing reads an inner join's probe row after its last
            // candidate: the joined row takes its values.
            comb = std::move(lrow);
            comb.reserve(comb.size() + rrow.size());
          } else {
            comb.reserve(lrow.size() + rrow.size());
            comb.insert(comb.end(), lrow.begin(), lrow.end());
          }
          comb.insert(comb.end(), rrow.begin(), rrow.end());
          if (!conds_.empty()) {
            Status err;
            if (EvalPredsOnRow(ctx_->eval, conds_, comb, &combined_,
                               conds_need_frame_, &err) != Truth::kTrue) {
              CBQT_RETURN_IF_ERROR(err);
              continue;
            }
          }
          matched = true;
          if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter) {
            sink->push_back(std::move(comb));
          } else {
            break;  // semi/anti: first match decides
          }
        }
      }
    }
    if (examined > 0) CBQT_RETURN_IF_ERROR(ctx_->CountBatch(examined));
    switch (node_->join_kind) {
      case JoinKind::kSemi:
        if (matched) sink->push_back(std::move(lrow));
        break;
      case JoinKind::kAnti:
        if (!matched) sink->push_back(std::move(lrow));
        break;
      case JoinKind::kAntiNA:
        // NOT IN semantics: a NULL on either side makes the comparison
        // unknown, which rejects the row (unless the right side is empty).
        if (build_input_rows_ == 0) {
          sink->push_back(std::move(lrow));
        } else if (!matched && !has_null && !build_has_null_key_) {
          sink->push_back(std::move(lrow));
        }
        break;
      case JoinKind::kLeftOuter:
        if (!matched) {
          Row comb = std::move(lrow);
          for (size_t i = 0; i < right_schema_->size(); ++i) {
            comb.push_back(Value::Null());
          }
          sink->push_back(std::move(comb));
        }
        break;
      case JoinKind::kInner:
        break;
    }
    return Status::OK();
  }

  Status BeginBuildSpill() {
    auto mgr = ctx_->GetSpill();
    if (!mgr.ok()) return mgr.status();
    parts_.resize(kSpillPartitions);
    for (auto& p : parts_) {
      auto bf = mgr.value()->NewFile("hj-build");
      if (!bf.ok()) return bf.status();
      p.build = bf.value();
      auto pf = mgr.value()->NewFile("hj-probe");
      if (!pf.ok()) return pf.status();
      p.probe = pf.value();
    }
    // Flush what was already built in memory into its partitions.
    for (const auto& [key, idxs] : table_) {
      size_t p = PartitionOfKey(key, 0);
      for (size_t i : idxs) {
        CBQT_RETURN_IF_ERROR(parts_[p].build->Append(build_rows_[i]));
      }
    }
    table_.clear();
    build_rows_.clear();
    build_mem_->Release();
    spilled_ = true;
    ++ctx_->stats.spilled_operators;
    return Status::OK();
  }

  /// Spilled build: the probe side is routed into matching partitions in
  /// one pass. Probe rows with NULL keys can never hash-match and are
  /// resolved immediately by the join kind's rule.
  Status RouteProbeSide() {
    RowBatch b;
    for (;;) {
      auto more = left_->NextBatch(&b);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      if (b.empty()) continue;
      CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(b.size())));
      for (auto& lrow : b.rows()) {
        KeyView key;
        CBQT_RETURN_IF_ERROR(ProbeKeyOf(lrow, &key));
        if (key.HasNull()) {
          switch (node_->join_kind) {
            case JoinKind::kAnti:
              pending_.push_back(std::move(lrow));
              break;
            case JoinKind::kLeftOuter: {
              Row comb = std::move(lrow);
              for (size_t i = 0; i < right_schema_->size(); ++i) {
                comb.push_back(Value::Null());
              }
              pending_.push_back(std::move(comb));
              break;
            }
            case JoinKind::kInner:
            case JoinKind::kSemi:
            case JoinKind::kAntiNA:  // unknown verdict rejects
              break;
          }
          continue;
        }
        Part& p = parts_[PartitionOfHash(HashKey(key), 0)];
        CBQT_RETURN_IF_ERROR(p.probe->Append(lrow));
        ++p.probe_rows;
      }
    }
    left_->Close();
    for (auto& p : parts_) {
      CBQT_RETURN_IF_ERROR(p.build->FinishWrite());
      CBQT_RETURN_IF_ERROR(p.probe->FinishWrite());
    }
    // Null-aware antijoin with a NULL build key: every probe row gets the
    // unknown verdict, so no partition can emit anything.
    if (node_->join_kind == JoinKind::kAntiNA && build_has_null_key_) {
      skip_parts_ = true;
    }
    return Status::OK();
  }

  Result<bool> NextSpilled(RowBatch* out) {
    for (;;) {
      while (pending_pos_ < pending_.size() &&
             out->size() < ctx_->batch_size) {
        out->Add(std::move(pending_[pending_pos_++]));
      }
      if (out->size() >= ctx_->batch_size) return true;
      if (skip_parts_ || next_part_ >= parts_.size()) break;
      pending_.clear();
      pending_pos_ = 0;
      CBQT_RETURN_IF_ERROR(ProcessPartition(parts_[next_part_++]));
    }
    return !out->empty();
  }

  /// Joins one partition: reload its build rows into a hash table (charged
  /// against the budget again — one partition is ~1/8 of the input) and
  /// stream its probe rows through ProbeOne. Falls back to chunked
  /// multi-pass probing when even a single partition does not fit.
  Status ProcessPartition(Part& p) {
    if (p.probe_rows == 0) return Status::OK();  // nothing can be emitted
    RowMap table;
    std::vector<Row> brows;
    {
      ScopedReservation res = ctx_->BufferReservation();
      CBQT_RETURN_IF_ERROR(p.build->Rewind());
      Row r;
      bool fits = true;
      int64_t seen = 0;
      for (;;) {
        auto more = p.build->Next(&r);
        if (!more.ok()) return more.status();
        if (!more.value()) break;
        if (((++seen) & kSpillPollMask) == 0) {
          CBQT_RETURN_IF_ERROR(ctx_->PollOnly());
        }
        Row& key = build_key_;
        CBQT_RETURN_IF_ERROR(EvalListOnRow(ctx_->eval, rkeys_, r,
                                           right_schema_, rkeys_need_frame_,
                                           &key, nullptr));
        if (ctx_->charge_memory()) {
          Status st = ctx_->ChargeBuffered(
              res, EstimateRowBytes(key) + EstimateRowBytes(r) +
                       static_cast<int64_t>(sizeof(size_t)));
          if (!st.ok()) {
            if (!ctx_->ShouldSpill(st)) return st;
            fits = false;
            break;
          }
        }
        AddBuildRow(&table, &brows, std::move(r));
      }
      if (!fits) return ProcessPartitionChunked(p);
      // Probe this partition.
      CBQT_RETURN_IF_ERROR(p.probe->Rewind());
      Row lrow;
      int64_t probed = 0;
      for (;;) {
        auto more = p.probe->Next(&lrow);
        if (!more.ok()) return more.status();
        if (!more.value()) break;
        if (((++probed) & kSpillPollMask) == 0) {
          CBQT_RETURN_IF_ERROR(ctx_->PollOnly());
        }
        CBQT_RETURN_IF_ERROR(
            ProbeOne(table, brows, std::move(lrow), &pending_));
      }
    }
    return Status::OK();
  }

  /// Last-resort path: the partition's build side is processed in chunks
  /// that do fit, with a per-probe-row matched bitset carried across
  /// chunks so each join kind's emission rule stays exact.
  Status ProcessPartitionChunked(Part& p) {
    const JoinKind kind = node_->join_kind;
    std::vector<char> matched(static_cast<size_t>(p.probe_rows), 0);
    const int64_t build_total = p.build->row_count();
    int64_t start = 0;
    while (start < build_total) {
      RowMap table;
      std::vector<Row> brows;
      ScopedReservation res = ctx_->BufferReservation();
      CBQT_RETURN_IF_ERROR(p.build->Rewind());
      Row r;
      int64_t idx = 0;
      for (; idx < build_total; ++idx) {
        auto more = p.build->Next(&r);
        if (!more.ok()) return more.status();
        if (!more.value()) break;
        if ((idx & kSpillPollMask) == 0) {
          CBQT_RETURN_IF_ERROR(ctx_->PollOnly());
        }
        if (idx < start) continue;  // before this chunk
        Row& key = build_key_;
        CBQT_RETURN_IF_ERROR(EvalListOnRow(ctx_->eval, rkeys_, r,
                                           right_schema_, rkeys_need_frame_,
                                           &key, nullptr));
        if (ctx_->charge_memory() && !brows.empty()) {
          // The first row of a chunk is always admitted (progress
          // guarantee); later rows stop the chunk when the budget is hit.
          Status st = ctx_->ChargeBuffered(
              res, EstimateRowBytes(key) + EstimateRowBytes(r) +
                       static_cast<int64_t>(sizeof(size_t)));
          if (!st.ok()) {
            if (!ctx_->ShouldSpill(st)) return st;
            break;
          }
        }
        AddBuildRow(&table, &brows, std::move(r));
      }
      int64_t chunk_end = start + static_cast<int64_t>(brows.size());
      // Probe every partition row against this chunk.
      CBQT_RETURN_IF_ERROR(p.probe->Rewind());
      Row lrow;
      for (int64_t pi = 0;; ++pi) {
        auto more = p.probe->Next(&lrow);
        if (!more.ok()) return more.status();
        if (!more.value()) break;
        if ((pi & kSpillPollMask) == 0) {
          CBQT_RETURN_IF_ERROR(ctx_->PollOnly());
        }
        bool already = matched[static_cast<size_t>(pi)] != 0;
        if (already && (kind == JoinKind::kSemi || kind == JoinKind::kAnti ||
                        kind == JoinKind::kAntiNA)) {
          continue;  // verdict decided by an earlier chunk
        }
        KeyView key;
        CBQT_RETURN_IF_ERROR(ProbeKeyOf(lrow, &key));
        auto it = table.find(key);
        if (it == table.end()) continue;
        int64_t examined = 0;
        for (size_t ri : it->second) {
          ++examined;
          Row comb = lrow;
          const Row& rrow = brows[ri];
          comb.insert(comb.end(), rrow.begin(), rrow.end());
          if (!conds_.empty()) {
            Status err;
            if (EvalPredsOnRow(ctx_->eval, conds_, comb, &combined_,
                               conds_need_frame_, &err) != Truth::kTrue) {
              CBQT_RETURN_IF_ERROR(err);
              continue;
            }
          }
          matched[static_cast<size_t>(pi)] = 1;
          if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter) {
            pending_.push_back(std::move(comb));
          } else if (kind == JoinKind::kSemi) {
            if (!already) pending_.push_back(lrow);
            break;
          } else {
            break;  // anti/antiNA: match only flips the bit
          }
        }
        if (examined > 0) CBQT_RETURN_IF_ERROR(ctx_->CountBatch(examined));
      }
      start = chunk_end;
    }
    // Final pass for kinds that emit unmatched probe rows.
    if (kind == JoinKind::kAnti || kind == JoinKind::kAntiNA ||
        kind == JoinKind::kLeftOuter) {
      CBQT_RETURN_IF_ERROR(p.probe->Rewind());
      Row lrow;
      for (int64_t pi = 0;; ++pi) {
        auto more = p.probe->Next(&lrow);
        if (!more.ok()) return more.status();
        if (!more.value()) break;
        if ((pi & kSpillPollMask) == 0) {
          CBQT_RETURN_IF_ERROR(ctx_->PollOnly());
        }
        if (matched[static_cast<size_t>(pi)] != 0) continue;
        if (kind == JoinKind::kLeftOuter) {
          Row comb = std::move(lrow);
          for (size_t i = 0; i < right_schema_->size(); ++i) {
            comb.push_back(Value::Null());
          }
          pending_.push_back(std::move(comb));
          lrow = Row{};
        } else {
          // kAnti always emits; kAntiNA reaches here only when no build row
          // had a NULL key (skip_parts_ covers the other case) and this
          // probe row's key is non-NULL (NULL keys never enter partitions).
          pending_.push_back(std::move(lrow));
          lrow = Row{};
        }
      }
    }
    return Status::OK();
  }

  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  const Schema* left_schema_;
  const Schema* right_schema_;
  Schema combined_;
  std::vector<CompiledExpr> lkeys_;
  std::vector<CompiledExpr> rkeys_;
  std::vector<CompiledExpr> conds_;
  bool lkeys_need_frame_ = false;
  bool rkeys_need_frame_ = false;
  bool conds_need_frame_ = false;
  // Probe keys are looked up as KeyViews: over the probe row itself
  // (lkey_slots_ = the key columns' slots) unless some key is computed,
  // then over probe_key_ (lkey_slots_ = 0..n-1).
  std::vector<int> lkey_slots_;
  bool lkeys_computed_ = false;
  Row probe_key_;
  // Build keys are evaluated into build_key_ (a reused scratch row) and
  // looked up as a view over it (build_key_slots_ = 0..n-1).
  Row build_key_;
  std::vector<int> build_key_slots_;

  RowMap table_;
  std::vector<Row> build_rows_;
  std::optional<ScopedReservation> build_mem_;
  bool build_has_null_key_ = false;
  int64_t build_input_rows_ = 0;

  bool spilled_ = false;
  std::vector<Part> parts_;
  std::vector<Row> pending_;
  size_t pending_pos_ = 0;
  size_t next_part_ = 0;
  bool skip_parts_ = false;

  RowBatch probe_batch_;
  size_t probe_pos_ = 0;
  bool probe_done_ = false;
};

// ---------------------------------------------------------------------------
// Buffered operators (materialize-in-Open, serve batches)
// ---------------------------------------------------------------------------

/// Base for operators whose semantics require the full input before the
/// first output row and whose result is served from a buffer: merge join,
/// set operations, windows, aggregation.
class BufferedOperator : public Operator {
 public:
  using Operator::Operator;

  Status Open() override {
    pending_.clear();
    pos_ = 0;
    return Compute();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    while (pos_ < pending_.size() && out->size() < ctx_->batch_size) {
      out->Add(std::move(pending_[pos_++]));
    }
    if (out->empty()) {
      pending_.clear();
      pos_ = 0;
      return false;
    }
    return true;
  }

 protected:
  virtual Status Compute() = 0;

  std::vector<Row> pending_;
  size_t pos_ = 0;
};

class MergeJoinOperator final : public BufferedOperator {
 public:
  MergeJoinOperator(ExecContext* ctx, const PlanNode* node,
                    std::unique_ptr<Operator> left,
                    std::unique_ptr<Operator> right)
      : BufferedOperator(ctx, node),
        left_(std::move(left)),
        right_(std::move(right)),
        left_schema_(&node->children[0]->output),
        right_schema_(&node->children[1]->output) {
    combined_ = *left_schema_;
    combined_.insert(combined_.end(), right_schema_->begin(),
                     right_schema_->end());
    lkeys_ = CompileExprList(node->hash_left_keys, left_schema_);
    rkeys_ = CompileExprList(node->hash_right_keys, right_schema_);
    conds_ = CompileExprList(node->join_conds, &combined_);
    lkeys_need_frame_ = AnySlow(lkeys_);
    rkeys_need_frame_ = AnySlow(rkeys_);
    conds_need_frame_ = AnySlow(conds_);
  }

  void Close() override {
    left_->Close();
    right_->Close();
  }

 protected:
  Status Compute() override {
    auto lrows = DrainOperator(left_.get());
    if (!lrows.ok()) return lrows.status();
    auto rrows = DrainOperator(right_.get());
    if (!rrows.ok()) return rrows.status();

    struct Keyed {
      Row keys;
      const Row* row;
    };
    // Both sorted key buffers break the pipeline; charge their bytes.
    // (Merge join does not spill — the planner only picks it for inputs it
    // believes sortable in memory; the sort operator is the spilling path.)
    ScopedReservation merge_mem = ctx_->BufferReservation();
    std::vector<Keyed> lk, rk;
    auto materialize = [&](const std::vector<Row>& rows, const Schema* schema,
                           const std::vector<CompiledExpr>& keys,
                           bool needs_frame,
                           std::vector<Keyed>* out) -> Status {
      CBQT_RETURN_IF_ERROR(
          ctx_->CountBatch(static_cast<int64_t>(rows.size())));
      for (const auto& r : rows) {
        Keyed k{{}, &r};
        bool has_null = false;
        CBQT_RETURN_IF_ERROR(EvalListOnRow(ctx_->eval, keys, r, schema,
                                           needs_frame, &k.keys, &has_null));
        if (has_null) continue;
        CBQT_RETURN_IF_ERROR(ctx_->ChargeBufferedRow(
            merge_mem, k.keys, static_cast<int64_t>(sizeof(Keyed))));
        out->push_back(std::move(k));
      }
      return Status::OK();
    };
    CBQT_RETURN_IF_ERROR(materialize(lrows.value(), left_schema_, lkeys_,
                                     lkeys_need_frame_, &lk));
    CBQT_RETURN_IF_ERROR(materialize(rrows.value(), right_schema_, rkeys_,
                                     rkeys_need_frame_, &rk));

    auto key_less = [](const Keyed& a, const Keyed& b) {
      for (size_t i = 0; i < a.keys.size(); ++i) {
        if (TotalLess(a.keys[i], b.keys[i])) return true;
        if (TotalLess(b.keys[i], a.keys[i])) return false;
      }
      return false;
    };
    std::sort(lk.begin(), lk.end(), key_less);
    std::sort(rk.begin(), rk.end(), key_less);

    size_t i = 0, j = 0;
    while (i < lk.size() && j < rk.size()) {
      if (key_less(lk[i], rk[j])) {
        ++i;
        continue;
      }
      if (key_less(rk[j], lk[i])) {
        ++j;
        continue;
      }
      // Equal key group: cross product, residual conditions applied.
      size_t i_end = i;
      while (i_end < lk.size() && !key_less(lk[i], lk[i_end]) &&
             !key_less(lk[i_end], lk[i])) {
        ++i_end;
      }
      size_t j_end = j;
      while (j_end < rk.size() && !key_less(rk[j], rk[j_end]) &&
             !key_less(rk[j_end], rk[j])) {
        ++j_end;
      }
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          CBQT_RETURN_IF_ERROR(ctx_->CountBatch(1));
          Row comb = *lk[a].row;
          comb.insert(comb.end(), rk[b].row->begin(), rk[b].row->end());
          if (!conds_.empty()) {
            Status err;
            if (EvalPredsOnRow(ctx_->eval, conds_, comb, &combined_,
                               conds_need_frame_, &err) != Truth::kTrue) {
              CBQT_RETURN_IF_ERROR(err);
              continue;
            }
          }
          pending_.push_back(std::move(comb));
        }
      }
      i = i_end;
      j = j_end;
    }
    return Status::OK();
  }

 private:
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  const Schema* left_schema_;
  const Schema* right_schema_;
  Schema combined_;
  std::vector<CompiledExpr> lkeys_;
  std::vector<CompiledExpr> rkeys_;
  std::vector<CompiledExpr> conds_;
  bool lkeys_need_frame_ = false;
  bool rkeys_need_frame_ = false;
  bool conds_need_frame_ = false;
};

// ---------------------------------------------------------------------------
// Aggregate (hybrid hash aggregation: resident groups keep aggregating,
// overflow keys spill to salted partitions and re-aggregate recursively)
// ---------------------------------------------------------------------------

class AggregateOperator final : public BufferedOperator {
 public:
  AggregateOperator(ExecContext* ctx, const PlanNode* node,
                    std::unique_ptr<Operator> child)
      : BufferedOperator(ctx, node),
        child_(std::move(child)),
        in_schema_(&node->children[0]->output),
        keys_(CompileExprList(node->group_keys, in_schema_)) {
    for (const auto& agg : node->agg_exprs) {
      if (agg->agg == AggFunc::kCountStar) {
        args_.push_back(CompiledExpr::Compile(agg.get(), in_schema_));
        arg_used_.push_back(false);
      } else {
        args_.push_back(
            CompiledExpr::Compile(agg->children[0].get(), in_schema_));
        arg_used_.push_back(true);
      }
    }
    keys_need_frame_ = AnySlow(keys_);
    for (size_t a = 0; a < args_.size(); ++a) {
      if (arg_used_[a] && !args_[a].fast()) args_need_frame_ = true;
    }
    keys_are_slots_ = KeySlots(keys_, &key_slots_);
    scratch_slots_ = IdentitySlots(keys_.size());
  }

  void Close() override { child_->Close(); }

 protected:
  Status Compute() override {
    const size_t num_keys = node_->group_keys.size();
    std::vector<std::vector<int>> sets = node_->grouping_sets;
    if (sets.empty()) {
      std::vector<int> all;
      for (size_t g = 0; g < num_keys; ++g) all.push_back(static_cast<int>(g));
      sets.push_back(std::move(all));
    }
    const bool multi_set = sets.size() > 1;
    std::vector<Row> input;
    if (multi_set) {
      auto rows = DrainOperator(child_.get());
      if (!rows.ok()) return rows.status();
      input = std::move(rows.value());
    }
    for (const auto& set : sets) {
      std::vector<bool> in_set(num_keys, false);
      for (int g : set) in_set[static_cast<size_t>(g)] = true;

      AggState st;
      st.view_key = keys_are_slots_ && std::find(in_set.begin(), in_set.end(),
                                                 false) == in_set.end();
      st.mem.emplace(ctx_->BufferReservation());
      if (multi_set) {
        CBQT_RETURN_IF_ERROR(
            ctx_->CountBatch(static_cast<int64_t>(input.size())));
        for (const auto& r : input) {
          CBQT_RETURN_IF_ERROR(ConsumeRow(st, in_set, r));
        }
      } else {
        CBQT_RETURN_IF_ERROR(child_->Open());
        RowBatch b;
        for (;;) {
          auto more = child_->NextBatch(&b);
          if (!more.ok()) return more.status();
          if (!more.value()) break;
          if (b.empty()) continue;
          CBQT_RETURN_IF_ERROR(
              ctx_->CountBatch(static_cast<int64_t>(b.size())));
          for (const auto& r : b.rows()) {
            CBQT_RETURN_IF_ERROR(ConsumeRow(st, in_set, r));
          }
        }
        child_->Close();
      }
      int64_t emitted = 0;
      CBQT_RETURN_IF_ERROR(FinishState(st, in_set, 0, &emitted));
      // Scalar aggregation produces one row even on empty input.
      if (emitted == 0 && num_keys == 0) {
        std::vector<AggAccum> accums(node_->agg_exprs.size());
        Row r;
        for (size_t a = 0; a < accums.size(); ++a) {
          r.push_back(accums[a].Finish(*node_->agg_exprs[a]));
        }
        pending_.push_back(std::move(r));
      }
    }
    return Status::OK();
  }

 private:
  struct AggState {
    std::unordered_map<Row, std::vector<AggAccum>, RowHasher, RowEq> groups;
    std::optional<ScopedReservation> mem;
    bool spilled = false;
    int salt = 0;
    std::vector<SpillFile*> parts;
    // Every key is a plain column and the grouping set holds them all:
    // look groups up through a view over the input row.
    bool view_key = false;
  };

  Status ConsumeRow(AggState& st, const std::vector<bool>& in_set,
                    const Row& r) {
    const size_t num_keys = keys_.size();
    const size_t num_aggs = args_.size();
    std::optional<FrameGuard> fg;
    if (keys_need_frame_ || args_need_frame_) {
      fg.emplace(ctx_->eval, in_schema_);
      fg->SetRow(&r);
    }
    // The group key is looked up as a view: over the input row itself
    // (st.view_key), else over key_scratch_ (reused across rows). A key Row
    // is materialized only when a new group is inserted.
    Status err;
    KeyView key{&r, key_slots_.data(), num_keys};
    if (!st.view_key) {
      Row& scratch = key_scratch_;
      scratch.clear();
      scratch.reserve(num_keys);
      for (size_t g = 0; g < num_keys; ++g) {
        if (!in_set[g]) {
          scratch.push_back(Value::Null());
          continue;
        }
        if (keys_[g].fast()) {
          scratch.push_back(keys_[g].EvalFast(r, ctx_->eval.rownum, &err));
          CBQT_RETURN_IF_ERROR(err);
        } else {
          auto v = keys_[g].EvalSlow(ctx_->eval);
          if (!v.ok()) return v.status();
          scratch.push_back(std::move(v.value()));
        }
      }
      key = KeyView{&scratch, scratch_slots_.data(), num_keys};
    }
    auto it = st.groups.find(key);
    if (it == st.groups.end()) {
      // Not resident: once spilled, route the row to its key's partition
      // for a later pass.
      if (st.spilled) {
        return st.parts[PartitionOfHash(HashKey(key), st.salt)]->Append(r);
      }
      Row owned = key.row == &key_scratch_ ? std::move(key_scratch_)
                                           : key.Materialize();
      it = st.groups.try_emplace(std::move(owned)).first;
      it->second.resize(num_aggs);
      Status charged = ctx_->ChargeBufferedRow(
          *st.mem, it->first,
          static_cast<int64_t>(num_aggs * sizeof(AggAccum)));
      if (!charged.ok()) {
        if (!ctx_->ShouldSpill(charged)) return charged;
        // Switch to hybrid mode: evict the uncharged group, keep every
        // already-charged group aggregating in memory, and route the
        // overflow keys (starting with this one) to partitions.
        size_t part = PartitionOfKey(it->first, st.salt);
        st.groups.erase(it);
        CBQT_RETURN_IF_ERROR(BeginAggSpill(st));
        return st.parts[part]->Append(r);
      }
    }
    std::vector<AggAccum>* accums = &it->second;
    for (size_t a = 0; a < num_aggs; ++a) {
      const Expr& agg = *node_->agg_exprs[a];
      Value v = Value::Null();
      if (arg_used_[a]) {
        if (args_[a].fast()) {
          v = args_[a].EvalFast(r, ctx_->eval.rownum, &err);
          CBQT_RETURN_IF_ERROR(err);
        } else {
          auto res = args_[a].EvalSlow(ctx_->eval);
          if (!res.ok()) return res.status();
          v = std::move(res.value());
        }
      }
      (*accums)[a].Add(v, agg);
    }
    return Status::OK();
  }

  Status BeginAggSpill(AggState& st) {
    if (st.salt > kMaxSpillDepth) {
      return Status::ResourceExhausted(
          "aggregate spill recursion depth exceeded (adversarial key "
          "distribution)");
    }
    auto mgr = ctx_->GetSpill();
    if (!mgr.ok()) return mgr.status();
    st.parts.reserve(kSpillPartitions);
    for (size_t i = 0; i < kSpillPartitions; ++i) {
      auto f = mgr.value()->NewFile("agg");
      if (!f.ok()) return f.status();
      st.parts.push_back(f.value());
    }
    st.spilled = true;
    ++ctx_->stats.spilled_operators;
    return Status::OK();
  }

  /// Emits the state's resident groups and recursively re-aggregates its
  /// partitions (each level uses a fresh hash salt).
  Status FinishState(AggState& st, const std::vector<bool>& in_set, int depth,
                     int64_t* emitted) {
    for (auto& [key, accums] : st.groups) {
      Row r = key;
      for (size_t a = 0; a < accums.size(); ++a) {
        r.push_back(accums[a].Finish(*node_->agg_exprs[a]));
      }
      pending_.push_back(std::move(r));
      ++*emitted;
    }
    st.groups.clear();
    if (st.mem) st.mem->Release();
    if (!st.spilled) return Status::OK();
    for (SpillFile* f : st.parts) {
      CBQT_RETURN_IF_ERROR(f->FinishWrite());
    }
    std::vector<SpillFile*> parts = std::move(st.parts);
    for (SpillFile* f : parts) {
      if (f->row_count() == 0) continue;
      AggState sub;
      sub.salt = depth + 1;
      sub.view_key = st.view_key;
      sub.mem.emplace(ctx_->BufferReservation());
      CBQT_RETURN_IF_ERROR(f->Rewind());
      Row r;
      int64_t seen = 0;
      for (;;) {
        auto more = f->Next(&r);
        if (!more.ok()) return more.status();
        if (!more.value()) break;
        if (((++seen) & kSpillPollMask) == 0) {
          CBQT_RETURN_IF_ERROR(ctx_->PollOnly());
        }
        CBQT_RETURN_IF_ERROR(ConsumeRow(sub, in_set, r));
      }
      CBQT_RETURN_IF_ERROR(FinishState(sub, in_set, depth + 1, emitted));
    }
    return Status::OK();
  }

  std::unique_ptr<Operator> child_;
  const Schema* in_schema_;
  std::vector<CompiledExpr> keys_;
  std::vector<CompiledExpr> args_;
  std::vector<bool> arg_used_;
  bool keys_need_frame_ = false;
  bool args_need_frame_ = false;
  bool keys_are_slots_ = false;
  std::vector<int> key_slots_;      // the keys' input slots, if all columns
  std::vector<int> scratch_slots_;  // 0..n-1, viewing key_scratch_
  Row key_scratch_;
};

// ---------------------------------------------------------------------------
// Sort (external merge sort: sorted runs spill to disk, k-way merge serves)
// ---------------------------------------------------------------------------

class SortOperator final : public Operator {
 public:
  SortOperator(ExecContext* ctx, const PlanNode* node,
               std::unique_ptr<Operator> child)
      : Operator(ctx, node),
        child_(std::move(child)),
        in_schema_(&node->children[0]->output),
        keys_(CompileExprList(node->sort_keys, in_schema_)),
        keys_need_frame_(AnySlow(keys_)) {}

  Status Open() override {
    buffer_.clear();
    runs_.clear();
    cursors_.clear();
    serve_pos_ = 0;
    res_.emplace(ctx_->BufferReservation());
    CBQT_RETURN_IF_ERROR(child_->Open());
    RowBatch b;
    for (;;) {
      auto more = child_->NextBatch(&b);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      if (b.empty()) continue;
      CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(b.size())));
      for (auto& r : b.rows()) {
        SKeyed k;
        CBQT_RETURN_IF_ERROR(EvalListOnRow(ctx_->eval, keys_, r, in_schema_,
                                           keys_need_frame_, &k.keys,
                                           nullptr));
        if (ctx_->charge_memory()) {
          int64_t bytes = EstimateRowBytes(k.keys) + EstimateRowBytes(r) +
                          static_cast<int64_t>(sizeof(SKeyed));
          Status st = ctx_->ChargeBuffered(*res_, bytes);
          if (!st.ok()) {
            if (!ctx_->ShouldSpill(st)) return st;
            CBQT_RETURN_IF_ERROR(FlushRun());
            // First row of the new run: admit it even if the budget is
            // still tight (progress guarantee), but surface non-memory
            // failures (injected faults) from the retried charge.
            Status again = ctx_->ChargeBuffered(*res_, bytes);
            if (!again.ok() && !ctx_->ShouldSpill(again)) return again;
          }
        }
        k.row = std::move(r);
        buffer_.push_back(std::move(k));
      }
    }
    child_->Close();
    if (runs_.empty()) {
      // Fully in memory: one stable sort, serve from the buffer.
      std::stable_sort(buffer_.begin(), buffer_.end(),
                       [this](const SKeyed& a, const SKeyed& b) {
                         return SortRowLess(a.keys, b.keys,
                                            node_->sort_ascending);
                       });
      return Status::OK();
    }
    CBQT_RETURN_IF_ERROR(FlushRun());
    // Initialize one merge cursor per run. Ties are broken by run index:
    // runs are flushed in input order and each run is stable-sorted, so
    // the merge reproduces std::stable_sort's output exactly.
    cursors_.reserve(runs_.size());
    for (SpillFile* f : runs_) {
      RunCursor c;
      c.f = f;
      CBQT_RETURN_IF_ERROR(f->Rewind());
      auto more = f->Next(&c.next);
      if (!more.ok()) return more.status();
      c.eof = !more.value();
      cursors_.push_back(std::move(c));
    }
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    const size_t nk = keys_.size();
    if (runs_.empty()) {
      while (serve_pos_ < buffer_.size() && out->size() < ctx_->batch_size) {
        out->Add(std::move(buffer_[serve_pos_++].row));
      }
      if (out->empty()) {
        buffer_.clear();
        return false;
      }
      return true;
    }
    while (out->size() < ctx_->batch_size) {
      int best = -1;
      for (size_t c = 0; c < cursors_.size(); ++c) {
        if (cursors_[c].eof) continue;
        if (best < 0 ||
            SortRowLess(cursors_[c].next, cursors_[static_cast<size_t>(best)].next,
                        node_->sort_ascending, nk)) {
          best = static_cast<int>(c);
        }
      }
      if (best < 0) break;
      RunCursor& c = cursors_[static_cast<size_t>(best)];
      // The spilled record is keys followed by the row; strip the keys.
      Row row(std::make_move_iterator(c.next.begin() +
                                      static_cast<std::ptrdiff_t>(nk)),
              std::make_move_iterator(c.next.end()));
      out->Add(std::move(row));
      auto more = c.f->Next(&c.next);
      if (!more.ok()) return more.status();
      c.eof = !more.value();
      if ((out->size() & static_cast<size_t>(kSpillPollMask)) == 0) {
        CBQT_RETURN_IF_ERROR(ctx_->PollOnly());
      }
    }
    return !out->empty();
  }

  void Close() override {
    child_->Close();
    buffer_.clear();
    cursors_.clear();
    if (res_) res_->Release();
  }

 private:
  struct SKeyed {
    Row keys;
    Row row;
  };
  struct RunCursor {
    SpillFile* f = nullptr;
    Row next;
    bool eof = true;
  };

  Status FlushRun() {
    if (runs_.empty()) ++ctx_->stats.spilled_operators;
    auto mgr = ctx_->GetSpill();
    if (!mgr.ok()) return mgr.status();
    auto f = mgr.value()->NewFile("sort-run");
    if (!f.ok()) return f.status();
    std::stable_sort(buffer_.begin(), buffer_.end(),
                     [this](const SKeyed& a, const SKeyed& b) {
                       return SortRowLess(a.keys, b.keys,
                                          node_->sort_ascending);
                     });
    for (auto& k : buffer_) {
      Row rec = std::move(k.keys);
      rec.insert(rec.end(), std::make_move_iterator(k.row.begin()),
                 std::make_move_iterator(k.row.end()));
      CBQT_RETURN_IF_ERROR(f.value()->Append(rec));
    }
    CBQT_RETURN_IF_ERROR(f.value()->FinishWrite());
    runs_.push_back(f.value());
    buffer_.clear();
    res_->Release();
    return Status::OK();
  }

  std::unique_ptr<Operator> child_;
  const Schema* in_schema_;
  std::vector<CompiledExpr> keys_;
  bool keys_need_frame_;
  std::vector<SKeyed> buffer_;
  std::optional<ScopedReservation> res_;
  std::vector<SpillFile*> runs_;
  std::vector<RunCursor> cursors_;
  size_t serve_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Distinct (streaming dedup; overflow keys spill to salted partitions)
// ---------------------------------------------------------------------------

class DistinctOperator final : public Operator {
 public:
  DistinctOperator(ExecContext* ctx, const PlanNode* node,
                   std::unique_ptr<Operator> child)
      : Operator(ctx, node), child_(std::move(child)) {}

  Status Open() override {
    seen_.clear();
    spilled_ = false;
    parts_.clear();
    pending_.clear();
    pending_pos_ = 0;
    child_done_ = false;
    parts_processed_ = false;
    res_.emplace(ctx_->BufferReservation());
    return child_->Open();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    while (!child_done_ && out->size() < ctx_->batch_size) {
      auto more = child_->NextBatch(&in_);
      if (!more.ok()) return more.status();
      if (!more.value()) {
        child_done_ = true;
        break;
      }
      if (in_.empty()) continue;
      CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(in_.size())));
      for (auto& r : in_.rows()) {
        if (spilled_) {
          if (seen_.count(r) > 0) continue;  // already emitted in memory
          CBQT_RETURN_IF_ERROR(
              parts_[PartitionOfKey(r, 0)]->Append(r));
          continue;
        }
        auto [it, inserted] = seen_.emplace(r, true);
        if (!inserted) continue;
        Status st = ctx_->ChargeBufferedRow(*res_, r);
        if (!st.ok()) {
          if (!ctx_->ShouldSpill(st)) return st;
          // The uncharged key is evicted and routed to disk; the resident
          // set stays live both as emitted output and as the dedup filter
          // for the remaining stream.
          seen_.erase(it);
          CBQT_RETURN_IF_ERROR(BeginSpill());
          CBQT_RETURN_IF_ERROR(
              parts_[PartitionOfKey(r, 0)]->Append(r));
          continue;
        }
        out->Add(std::move(r));
      }
    }
    if (!child_done_) return true;  // batch filled mid-stream
    if (spilled_ && !parts_processed_) {
      parts_processed_ = true;
      child_->Close();
      for (SpillFile* f : parts_) {
        CBQT_RETURN_IF_ERROR(f->FinishWrite());
      }
      for (SpillFile* f : parts_) {
        CBQT_RETURN_IF_ERROR(ProcessPartition(f, 0));
      }
    }
    while (pending_pos_ < pending_.size() && out->size() < ctx_->batch_size) {
      out->Add(std::move(pending_[pending_pos_++]));
    }
    return !out->empty();
  }

  void Close() override {
    child_->Close();
    seen_.clear();
    pending_.clear();
    if (res_) res_->Release();
  }

 private:
  Status BeginSpill() {
    auto mgr = ctx_->GetSpill();
    if (!mgr.ok()) return mgr.status();
    parts_.reserve(kSpillPartitions);
    for (size_t i = 0; i < kSpillPartitions; ++i) {
      auto f = mgr.value()->NewFile("distinct");
      if (!f.ok()) return f.status();
      parts_.push_back(f.value());
    }
    spilled_ = true;
    ++ctx_->stats.spilled_operators;
    return Status::OK();
  }

  /// Dedups one partition into pending_, recursing with a fresh salt when
  /// even the partition's distinct set does not fit.
  Status ProcessPartition(SpillFile* f, int depth) {
    if (f->row_count() == 0) return Status::OK();
    if (depth > kMaxSpillDepth) {
      return Status::ResourceExhausted(
          "distinct spill recursion depth exceeded (adversarial key "
          "distribution)");
    }
    SeenMap local;
    ScopedReservation res = ctx_->BufferReservation();
    std::vector<SpillFile*> subparts;
    bool sub_spilled = false;
    CBQT_RETURN_IF_ERROR(f->Rewind());
    Row r;
    int64_t seen_rows = 0;
    for (;;) {
      auto more = f->Next(&r);
      if (!more.ok()) return more.status();
      if (!more.value()) break;
      if (((++seen_rows) & kSpillPollMask) == 0) {
        CBQT_RETURN_IF_ERROR(ctx_->PollOnly());
      }
      if (sub_spilled) {
        if (local.count(r) > 0) continue;
        CBQT_RETURN_IF_ERROR(
            subparts[PartitionOfKey(r, depth + 1)]->Append(r));
        continue;
      }
      auto [it, inserted] = local.emplace(r, true);
      if (!inserted) continue;
      Status st = ctx_->ChargeBufferedRow(res, r);
      if (!st.ok()) {
        if (!ctx_->ShouldSpill(st)) return st;
        local.erase(it);
        auto mgr = ctx_->GetSpill();
        if (!mgr.ok()) return mgr.status();
        subparts.reserve(kSpillPartitions);
        for (size_t i = 0; i < kSpillPartitions; ++i) {
          auto sf = mgr.value()->NewFile("distinct");
          if (!sf.ok()) return sf.status();
          subparts.push_back(sf.value());
        }
        sub_spilled = true;
        ++ctx_->stats.spilled_operators;
        CBQT_RETURN_IF_ERROR(
            subparts[PartitionOfKey(r, depth + 1)]->Append(r));
        continue;
      }
      pending_.push_back(std::move(r));
      r = Row{};
    }
    for (SpillFile* sf : subparts) {
      CBQT_RETURN_IF_ERROR(sf->FinishWrite());
    }
    for (SpillFile* sf : subparts) {
      CBQT_RETURN_IF_ERROR(ProcessPartition(sf, depth + 1));
    }
    return Status::OK();
  }

  std::unique_ptr<Operator> child_;
  RowBatch in_;
  SeenMap seen_;
  std::optional<ScopedReservation> res_;
  bool spilled_ = false;
  std::vector<SpillFile*> parts_;
  std::vector<Row> pending_;
  size_t pending_pos_ = 0;
  bool child_done_ = false;
  bool parts_processed_ = false;
};

// ---------------------------------------------------------------------------
// Set operations
// ---------------------------------------------------------------------------

class SetOpOperator final : public BufferedOperator {
 public:
  SetOpOperator(ExecContext* ctx, const PlanNode* node,
                std::vector<std::unique_ptr<Operator>> children)
      : BufferedOperator(ctx, node), children_(std::move(children)) {}

  void Close() override {
    for (auto& c : children_) c->Close();
  }

 protected:
  Status Compute() override {
    std::vector<std::vector<Row>> inputs;
    inputs.reserve(children_.size());
    for (auto& c : children_) {
      auto rows = DrainOperator(c.get());
      if (!rows.ok()) return rows.status();
      inputs.push_back(std::move(rows.value()));
    }
    switch (node_->set_op) {
      case SetOpKind::kUnionAll: {
        for (auto& in : inputs) {
          CBQT_RETURN_IF_ERROR(
              ctx_->CountBatch(static_cast<int64_t>(in.size())));
          for (auto& r : in) pending_.push_back(std::move(r));
        }
        break;
      }
      case SetOpKind::kUnion: {
        SeenMap seen;
        for (auto& in : inputs) {
          CBQT_RETURN_IF_ERROR(
              ctx_->CountBatch(static_cast<int64_t>(in.size())));
          for (auto& r : in) {
            if (seen.emplace(r, true).second) pending_.push_back(std::move(r));
          }
        }
        break;
      }
      case SetOpKind::kIntersect: {
        // Set semantics; NULLs match (paper §2.2.7).
        SeenMap right;
        for (size_t b = 1; b < inputs.size(); ++b) {
          CBQT_RETURN_IF_ERROR(
              ctx_->CountBatch(static_cast<int64_t>(inputs[b].size())));
          for (auto& r : inputs[b]) right.emplace(std::move(r), true);
        }
        SeenMap emitted;
        CBQT_RETURN_IF_ERROR(
            ctx_->CountBatch(static_cast<int64_t>(inputs[0].size())));
        for (auto& r : inputs[0]) {
          if (right.count(r) > 0 && emitted.emplace(r, true).second) {
            pending_.push_back(std::move(r));
          }
        }
        break;
      }
      case SetOpKind::kMinus: {
        SeenMap right;
        for (size_t b = 1; b < inputs.size(); ++b) {
          CBQT_RETURN_IF_ERROR(
              ctx_->CountBatch(static_cast<int64_t>(inputs[b].size())));
          for (auto& r : inputs[b]) right.emplace(std::move(r), true);
        }
        SeenMap emitted;
        CBQT_RETURN_IF_ERROR(
            ctx_->CountBatch(static_cast<int64_t>(inputs[0].size())));
        for (auto& r : inputs[0]) {
          if (right.count(r) == 0 && emitted.emplace(r, true).second) {
            pending_.push_back(std::move(r));
          }
        }
        break;
      }
      case SetOpKind::kNone:
        return Status::Internal("SetOp node without a set operator");
    }
    return Status::OK();
  }

 private:
  std::vector<std::unique_ptr<Operator>> children_;
};

// ---------------------------------------------------------------------------
// Limit (streaming with early termination — the child is not drained past
// the cutoff, unlike the row-at-a-time executor which materialized it)
// ---------------------------------------------------------------------------

class LimitOperator final : public Operator {
 public:
  LimitOperator(ExecContext* ctx, const PlanNode* node,
                std::unique_ptr<Operator> child)
      : Operator(ctx, node),
        child_(std::move(child)),
        in_schema_(&node->children[0]->output),
        filter_(CompileExprList(node->filter, in_schema_)),
        filter_needs_frame_(AnySlow(filter_)) {}

  Status Open() override {
    emitted_ = 0;
    done_ = false;
    return child_->Open();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    if (done_) return false;
    auto more = child_->NextBatch(&in_);
    if (!more.ok()) return more.status();
    if (!more.value()) {
      done_ = true;
      return false;
    }
    int64_t considered = 0;
    int64_t saved_rownum = ctx_->eval.rownum;
    for (auto& r : in_.rows()) {
      if (emitted_ >= node_->limit) {
        done_ = true;
        break;
      }
      ++considered;
      if (!filter_.empty()) {
        // Lazy ROWNUM: the filter sees the next *output* position.
        ctx_->eval.rownum = emitted_ + 1;
        Status err;
        Truth pass = EvalPredsOnRow(ctx_->eval, filter_, r, in_schema_,
                                    filter_needs_frame_, &err);
        if (!err.ok()) {
          ctx_->eval.rownum = saved_rownum;
          return err;
        }
        if (pass != Truth::kTrue) continue;
      }
      ++emitted_;
      out->Add(std::move(r));
    }
    ctx_->eval.rownum = saved_rownum;
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(considered));
    if (done_ && out->empty()) return false;
    return true;
  }

  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  const Schema* in_schema_;
  std::vector<CompiledExpr> filter_;
  bool filter_needs_frame_;
  RowBatch in_;
  int64_t emitted_ = 0;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Window
// ---------------------------------------------------------------------------

class WindowOperator final : public BufferedOperator {
 public:
  WindowOperator(ExecContext* ctx, const PlanNode* node,
                 std::unique_ptr<Operator> child)
      : BufferedOperator(ctx, node),
        child_(std::move(child)),
        in_schema_(&node->children[0]->output) {}

  void Close() override { child_->Close(); }

 protected:
  Status Compute() override {
    auto drained = DrainOperator(child_.get());
    if (!drained.ok()) return drained.status();
    std::vector<Row> input = std::move(drained.value());
    EvalContext& ev = ctx_->eval;
    size_t n = input.size();
    std::vector<std::vector<Value>> win_cols(
        node_->window_exprs.size(), std::vector<Value>(n, Value::Null()));

    for (size_t w = 0; w < node_->window_exprs.size(); ++w) {
      const Expr& win = *node_->window_exprs[w];
      CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(n)));
      // Partition rows.
      std::unordered_map<Row, std::vector<size_t>, RowHasher, RowEq> parts;
      {
        FrameGuard g(ev, in_schema_);
        for (size_t i = 0; i < n; ++i) {
          g.SetRow(&input[i]);
          Row key;
          for (const auto& p : win.partition_by) {
            auto v = EvalExpr(*p, ev);
            if (!v.ok()) return v.status();
            key.push_back(std::move(v.value()));
          }
          parts[std::move(key)].push_back(i);
        }
      }
      for (auto& [key, indices] : parts) {
        // Sort the partition by the window ORDER BY keys.
        std::vector<Row> order_keys(indices.size());
        {
          FrameGuard g(ev, in_schema_);
          for (size_t k = 0; k < indices.size(); ++k) {
            g.SetRow(&input[indices[k]]);
            for (const auto& o : win.win_order_by) {
              auto v = EvalExpr(*o, ev);
              if (!v.ok()) return v.status();
              order_keys[k].push_back(std::move(v.value()));
            }
          }
        }
        std::vector<size_t> perm(indices.size());
        for (size_t k = 0; k < perm.size(); ++k) perm[k] = k;
        std::vector<bool> asc(win.win_order_by.size(), true);
        std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
          return SortRowLess(order_keys[a], order_keys[b], asc);
        });
        // Running aggregate, RANGE UNBOUNDED PRECEDING .. CURRENT ROW:
        // peers (equal order keys) share the cumulative value at the end
        // of their peer group.
        AggAccum accum;
        Expr agg_proxy;
        agg_proxy.kind = ExprKind::kAggregate;
        agg_proxy.agg = win.win_func;
        size_t g = 0;
        while (g < perm.size()) {
          size_t g_end = g;
          while (g_end < perm.size() &&
                 RowsEqualStructural(order_keys[perm[g]],
                                     order_keys[perm[g_end]])) {
            ++g_end;
          }
          for (size_t k = g; k < g_end; ++k) {
            size_t row_idx = indices[perm[k]];
            Value v = Value::Null();
            if (win.win_func != AggFunc::kCountStar) {
              FrameGuard fg(ev, in_schema_);
              fg.SetRow(&input[row_idx]);
              auto r = EvalExpr(*win.children[0], ev);
              if (!r.ok()) return r.status();
              v = std::move(r.value());
            }
            accum.Add(v, agg_proxy);
          }
          Value result = accum.Finish(agg_proxy);
          for (size_t k = g; k < g_end; ++k) {
            win_cols[w][indices[perm[k]]] = result;
          }
          g = g_end;
        }
      }
    }
    pending_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Row r = std::move(input[i]);
      for (size_t w = 0; w < node_->window_exprs.size(); ++w) {
        r.push_back(win_cols[w][i]);
      }
      pending_.push_back(std::move(r));
    }
    return Status::OK();
  }

 private:
  std::unique_ptr<Operator> child_;
  const Schema* in_schema_;
};

// ---------------------------------------------------------------------------
// Subquery filter (TIS) — per-correlation-key result caching
// ---------------------------------------------------------------------------

/// TIS subquery resolver with per-correlation-key result caching.
class CachingSubqueryResolver : public SubqueryResolver {
 public:
  CachingSubqueryResolver(const PlanNode& node, EvalContext& ctx,
                          ExecStats* stats)
      : node_(node), ctx_(ctx), stats_(stats) {
    std::vector<const Expr*> subs;
    for (const auto& f : node.filter) CollectSubqueryNodesExec(f.get(), &subs);
    for (size_t i = 0; i < subs.size() && i < node.subplans.size(); ++i) {
      index_[subs[i]] = i;
    }
    caches_.resize(node.subplans.size());
  }

  Result<SubqueryResultView> Resolve(const Expr* subquery_node) override {
    auto it = index_.find(subquery_node);
    if (it == index_.end()) {
      return Status::Internal("subquery node has no planned subplan");
    }
    size_t i = it->second;
    Row key;
    for (const auto& k : node_.subplan_corr_keys[i]) {
      auto v = EvalExpr(*k, ctx_);
      if (!v.ok()) return v.status();
      key.push_back(std::move(v.value()));
    }
    auto& cache = caches_[i];
    auto hit = cache.find(key);
    if (hit != cache.end()) {
      ++stats_->subquery_cache_hits;
      return MakeView(hit->second);
    }
    ++stats_->subquery_executions;
    // Execute the subplan under the *current* context so correlated refs
    // resolve against the outer row.
    auto rows = run_fn(*node_.subplans[i]);
    if (!rows.ok()) return rows.status();
    if (charge_fn) {
      // Materialized subquery results persist for the whole operator (TIS
      // caching); charge them against the per-query memory tracker.
      for (const Row& r : rows.value()) {
        Status charged = charge_fn(r);
        if (!charged.ok()) return charged;
      }
    }
    auto [pos, inserted] = cache.emplace(std::move(key), CachedResult{});
    (void)inserted;
    pos->second.rows = std::move(rows.value());
    return MakeView(pos->second);
  }

  /// Set by SubqueryFilterOperator: builds and drains an operator tree for
  /// the subplan under the current evaluation context.
  std::function<Result<std::vector<Row>>(const PlanNode&)> run_fn;
  /// Optional memory-accounting hook for cached subquery result rows.
  std::function<Status(const Row&)> charge_fn;

 private:
  struct CachedResult {
    std::vector<Row> rows;
    std::unique_ptr<std::unordered_set<Row, RowHasher, RowEq>> row_set;
    bool has_null = false;
  };

  // Builds (and lazily indexes) the view handed to the evaluator. The hash
  // index makes IN / NOT IN probes O(1) instead of a scan of the cached
  // result per outer row.
  static SubqueryResultView MakeView(CachedResult& cached) {
    if (cached.row_set == nullptr) {
      cached.row_set =
          std::make_unique<std::unordered_set<Row, RowHasher, RowEq>>();
      for (const Row& r : cached.rows) {
        bool null_in_row = false;
        for (const Value& v : r) {
          if (v.is_null()) null_in_row = true;
        }
        if (null_in_row) cached.has_null = true;
        cached.row_set->insert(r);
      }
    }
    SubqueryResultView view;
    view.rows = &cached.rows;
    view.row_set = cached.row_set.get();
    view.has_null = cached.has_null;
    return view;
  }

  const PlanNode& node_;
  EvalContext& ctx_;
  ExecStats* stats_;
  std::map<const Expr*, size_t> index_;
  std::vector<std::unordered_map<Row, CachedResult, RowHasher, RowEq>>
      caches_;
};

class SubqueryFilterOperator final : public Operator {
 public:
  SubqueryFilterOperator(ExecContext* ctx, const PlanNode* node,
                         std::unique_ptr<Operator> child)
      : Operator(ctx, node),
        child_(std::move(child)),
        in_schema_(&node->children[0]->output),
        conds_(CompileExprList(node->filter, in_schema_)) {}

  Status Open() override {
    resolver_ = std::make_unique<CachingSubqueryResolver>(*node_, ctx_->eval,
                                                          &ctx_->stats);
    resolver_->run_fn = [this](const PlanNode& plan) {
      auto op = OperatorFactory::Build(plan, ctx_);
      if (!op.ok()) return Result<std::vector<Row>>(op.status());
      return DrainOperator(op.value().get());
    };
    subq_mem_.emplace(ctx_->BufferReservation());
    if (ctx_->charge_memory()) {
      resolver_->charge_fn = [this](const Row& r) {
        return ctx_->ChargeBufferedRow(*subq_mem_, r);
      };
    }
    return child_->Open();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Clear();
    auto more = child_->NextBatch(&in_);
    if (!more.ok()) return more.status();
    if (!more.value()) return false;
    CBQT_RETURN_IF_ERROR(ctx_->CountBatch(static_cast<int64_t>(in_.size())));
    // Subquery predicates always evaluate through the tree walker (the
    // compiled programs fall back), under a frame for the current row.
    EvalContext& ev = ctx_->eval;
    FrameGuard g(ev, in_schema_);
    SubqueryResolver* saved = ev.subquery_resolver;
    for (auto& r : in_.rows()) {
      g.SetRow(&r);
      ev.subquery_resolver = resolver_.get();
      Status err;
      Truth pass = EvalCompiledConjuncts(conds_, r, ev, &err);
      ev.subquery_resolver = saved;
      CBQT_RETURN_IF_ERROR(err);
      if (pass == Truth::kTrue) out->Add(std::move(r));
    }
    return true;
  }

  void Close() override {
    child_->Close();
    resolver_.reset();
    if (subq_mem_) subq_mem_->Release();
  }

 private:
  std::unique_ptr<Operator> child_;
  const Schema* in_schema_;
  std::vector<CompiledExpr> conds_;
  RowBatch in_;
  std::unique_ptr<CachingSubqueryResolver> resolver_;
  std::optional<ScopedReservation> subq_mem_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Factory + drain
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Operator>> OperatorFactory::Build(const PlanNode& node,
                                                         ExecContext* ctx) {
  // MQO interception: inside a batch, wrap the topmost shareable subtree in
  // a SharedScanOperator routing its stream through the hub. The latch
  // suppresses wrapping inside the shared subtree itself — sharing happens
  // once, at the widest eligible point.
  if (ctx->shared_scans != nullptr && !ctx->building_shared) {
    bool materialize = node.op != PlanOp::kTableScan;
    std::string key =
        materialize ? ShareableMaterializeKey(node) : ShareableScanKey(node);
    if (!key.empty()) {
      ctx->building_shared = true;
      auto inner = Build(node, ctx);
      ctx->building_shared = false;
      if (!inner.ok()) return inner.status();
      return std::unique_ptr<Operator>(std::make_unique<SharedScanOperator>(
          ctx, &node, ctx->shared_scans, std::move(key),
          std::move(inner.value()), materialize));
    }
  }
  std::vector<std::unique_ptr<Operator>> kids;
  kids.reserve(node.children.size());
  for (const auto& c : node.children) {
    auto k = Build(*c, ctx);
    if (!k.ok()) return k.status();
    kids.push_back(std::move(k.value()));
  }
  std::unique_ptr<Operator> op;
  switch (node.op) {
    case PlanOp::kTableScan:
      op = std::make_unique<TableScanOperator>(ctx, &node);
      break;
    case PlanOp::kIndexScan:
      op = std::make_unique<IndexScanOperator>(ctx, &node);
      break;
    case PlanOp::kFilter:
      op = std::make_unique<FilterOperator>(ctx, &node, std::move(kids[0]));
      break;
    case PlanOp::kProject:
      op = std::make_unique<ProjectOperator>(
          ctx, &node, kids.empty() ? nullptr : std::move(kids[0]));
      break;
    case PlanOp::kNestedLoopJoin:
      op = std::make_unique<NestedLoopJoinOperator>(
          ctx, &node, std::move(kids[0]), std::move(kids[1]));
      break;
    case PlanOp::kHashJoin:
      op = std::make_unique<HashJoinOperator>(ctx, &node, std::move(kids[0]),
                                              std::move(kids[1]));
      break;
    case PlanOp::kMergeJoin:
      op = std::make_unique<MergeJoinOperator>(ctx, &node, std::move(kids[0]),
                                               std::move(kids[1]));
      break;
    case PlanOp::kAggregate:
      op = std::make_unique<AggregateOperator>(ctx, &node, std::move(kids[0]));
      break;
    case PlanOp::kSort:
      op = std::make_unique<SortOperator>(ctx, &node, std::move(kids[0]));
      break;
    case PlanOp::kDistinct:
      op = std::make_unique<DistinctOperator>(ctx, &node, std::move(kids[0]));
      break;
    case PlanOp::kSetOp:
      op = std::make_unique<SetOpOperator>(ctx, &node, std::move(kids));
      break;
    case PlanOp::kLimit:
      op = std::make_unique<LimitOperator>(ctx, &node, std::move(kids[0]));
      break;
    case PlanOp::kWindow:
      op = std::make_unique<WindowOperator>(ctx, &node, std::move(kids[0]));
      break;
    case PlanOp::kSubqueryFilter:
      op = std::make_unique<SubqueryFilterOperator>(ctx, &node,
                                                    std::move(kids[0]));
      break;
  }
  if (op == nullptr) {
    return Status::Internal("no operator for plan node kind");
  }
  return op;
}

Result<std::vector<Row>> DrainOperator(Operator* op) {
  CBQT_RETURN_IF_ERROR(op->Open());
  std::vector<Row> out;
  RowBatch b;
  for (;;) {
    auto more = op->NextBatch(&b);
    if (!more.ok()) {
      op->Close();
      return more.status();
    }
    if (!more.value()) break;
    for (auto& r : b.rows()) out.push_back(std::move(r));
  }
  op->Close();
  return out;
}

}  // namespace cbqt
