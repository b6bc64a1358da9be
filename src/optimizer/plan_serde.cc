#include "optimizer/plan_serde.h"

#include <cstring>

#include "common/hash.h"

namespace cbqt {

namespace {

// Inclusive upper bounds of the serialized enums, asserted on read. Keep in
// sync with the enum definitions; adding a member without bumping the bound
// makes new plans unreadable (typed error), never misread.
constexpr uint8_t kMaxValueKind = static_cast<uint8_t>(ValueKind::kBool);
constexpr uint8_t kMaxDataType = static_cast<uint8_t>(DataType::kBool);
constexpr uint8_t kMaxExprKind = static_cast<uint8_t>(ExprKind::kCase);
constexpr uint8_t kMaxBinaryOp = static_cast<uint8_t>(BinaryOp::kNullSafeEq);
constexpr uint8_t kMaxUnaryOp = static_cast<uint8_t>(UnaryOp::kLnnvl);
constexpr uint8_t kMaxAggFunc = static_cast<uint8_t>(AggFunc::kMax);
constexpr uint8_t kMaxSubqueryKind = static_cast<uint8_t>(SubqueryKind::kScalar);
constexpr uint8_t kMaxJoinKind = static_cast<uint8_t>(JoinKind::kAntiNA);
constexpr uint8_t kMaxSetOpKind = static_cast<uint8_t>(SetOpKind::kMinus);
constexpr uint8_t kMaxPlanOp = static_cast<uint8_t>(PlanOp::kSubqueryFilter);

Status DepthCheck(ByteReader* r, int depth) {
  if (depth > kSerdeMaxDepth) {
    return r->Fail("nesting depth exceeds " +
                   std::to_string(kSerdeMaxDepth));
  }
  return Status::OK();
}

}  // namespace

// ---- ByteWriter ----------------------------------------------------------

void ByteWriter::U32(uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buf_.append(b, 4);
}

void ByteWriter::U64(uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buf_.append(b, 8);
}

void ByteWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void ByteWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

// ---- ByteReader ----------------------------------------------------------

Status ByteReader::Fail(const std::string& what) {
  if (error_.ok()) {
    error_ = Status::DataCorruption("plan serde: " + what + " (offset " +
                                    std::to_string(pos_) + " of " +
                                    std::to_string(data_.size()) + ")");
  }
  return error_;
}

Status ByteReader::Raw(void* out, size_t n) {
  if (!error_.ok()) return error_;
  if (data_.size() - pos_ < n) {
    return Fail("truncated: need " + std::to_string(n) + " bytes, have " +
                std::to_string(data_.size() - pos_));
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::U8(uint8_t* out) { return Raw(out, 1); }

Status ByteReader::Bool(bool* out) {
  uint8_t v = 0;
  CBQT_RETURN_IF_ERROR(U8(&v));
  if (v > 1) return Fail("bool byte " + std::to_string(v));
  *out = v != 0;
  return Status::OK();
}

Status ByteReader::U32(uint32_t* out) {
  uint8_t b[4];
  CBQT_RETURN_IF_ERROR(Raw(b, 4));
  *out = 0;
  for (int i = 0; i < 4; ++i) *out |= static_cast<uint32_t>(b[i]) << (8 * i);
  return Status::OK();
}

Status ByteReader::U64(uint64_t* out) {
  uint8_t b[8];
  CBQT_RETURN_IF_ERROR(Raw(b, 8));
  *out = 0;
  for (int i = 0; i < 8; ++i) *out |= static_cast<uint64_t>(b[i]) << (8 * i);
  return Status::OK();
}

Status ByteReader::I32(int32_t* out) {
  uint32_t v = 0;
  CBQT_RETURN_IF_ERROR(U32(&v));
  *out = static_cast<int32_t>(v);
  return Status::OK();
}

Status ByteReader::I64(int64_t* out) {
  uint64_t v = 0;
  CBQT_RETURN_IF_ERROR(U64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status ByteReader::F64(double* out) {
  uint64_t bits = 0;
  CBQT_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status ByteReader::Str(std::string* out) {
  uint32_t len = 0;
  CBQT_RETURN_IF_ERROR(U32(&len));
  if (len > remaining()) {
    return Fail("string length " + std::to_string(len) + " exceeds " +
                std::to_string(remaining()) + " remaining bytes");
  }
  out->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status ByteReader::Count(uint32_t* out) {
  CBQT_RETURN_IF_ERROR(U32(out));
  if (*out > remaining()) {
    return Fail("element count " + std::to_string(*out) + " exceeds " +
                std::to_string(remaining()) + " remaining bytes");
  }
  return Status::OK();
}

// ---- Value ---------------------------------------------------------------

void WriteValue(const Value& v, ByteWriter* w) {
  w->Enum(v.kind());
  switch (v.kind()) {
    case ValueKind::kNull:
      break;
    case ValueKind::kInt64:
      w->I64(v.AsInt());
      break;
    case ValueKind::kDouble:
      w->F64(v.AsDouble());
      break;
    case ValueKind::kString:
      w->Str(v.AsString());
      break;
    case ValueKind::kBool:
      w->Bool(v.AsBool());
      break;
  }
}

Status ReadValue(ByteReader* r, Value* out) {
  ValueKind kind = ValueKind::kNull;
  CBQT_RETURN_IF_ERROR(r->Enum(&kind, kMaxValueKind));
  switch (kind) {
    case ValueKind::kNull:
      *out = Value::Null();
      return Status::OK();
    case ValueKind::kInt64: {
      int64_t v = 0;
      CBQT_RETURN_IF_ERROR(r->I64(&v));
      *out = Value::Int(v);
      return Status::OK();
    }
    case ValueKind::kDouble: {
      double v = 0;
      CBQT_RETURN_IF_ERROR(r->F64(&v));
      *out = Value::Real(v);
      return Status::OK();
    }
    case ValueKind::kString: {
      std::string v;
      CBQT_RETURN_IF_ERROR(r->Str(&v));
      *out = Value::Str(std::move(v));
      return Status::OK();
    }
    case ValueKind::kBool: {
      bool v = false;
      CBQT_RETURN_IF_ERROR(r->Bool(&v));
      *out = Value::Boolean(v);
      return Status::OK();
    }
  }
  return r->Fail("unreachable value kind");
}

// ---- Expr ----------------------------------------------------------------

namespace {

void WriteExprVec(const std::vector<ExprPtr>& exprs, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(exprs.size()));
  for (const auto& e : exprs) {
    w->Bool(e != nullptr);
    if (e != nullptr) WriteExpr(*e, w);
  }
}

Status ReadExprVec(ByteReader* r, std::vector<ExprPtr>* out, int depth) {
  uint32_t n = 0;
  CBQT_RETURN_IF_ERROR(r->Count(&n));
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    bool present = false;
    CBQT_RETURN_IF_ERROR(r->Bool(&present));
    ExprPtr e;
    if (present) CBQT_RETURN_IF_ERROR(ReadExpr(r, &e, depth));
    out->push_back(std::move(e));
  }
  return Status::OK();
}

void WriteIntSets(const std::vector<std::vector<int>>& sets, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(sets.size()));
  for (const auto& set : sets) {
    w->U32(static_cast<uint32_t>(set.size()));
    for (int v : set) w->I32(v);
  }
}

Status ReadIntSets(ByteReader* r, std::vector<std::vector<int>>* out) {
  uint32_t n = 0;
  CBQT_RETURN_IF_ERROR(r->Count(&n));
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t m = 0;
    CBQT_RETURN_IF_ERROR(r->Count(&m));
    std::vector<int> set;
    set.reserve(m);
    for (uint32_t j = 0; j < m; ++j) {
      int32_t v = 0;
      CBQT_RETURN_IF_ERROR(r->I32(&v));
      set.push_back(v);
    }
    out->push_back(std::move(set));
  }
  return Status::OK();
}

}  // namespace

void WriteExpr(const Expr& e, ByteWriter* w) {
  w->Enum(e.kind);
  w->Str(e.table_alias);
  w->Str(e.column_name);
  w->I32(e.corr_depth);
  WriteValue(e.literal, w);
  w->I32(e.param_index);
  w->Enum(e.bop);
  w->Enum(e.uop);
  w->Enum(e.agg);
  w->Bool(e.agg_distinct);
  w->Str(e.func_name);
  w->Enum(e.subkind);
  w->Enum(e.sub_cmp);
  w->Bool(e.subquery != nullptr);
  if (e.subquery != nullptr) WriteQueryBlock(*e.subquery, w);
  w->Enum(e.win_func);
  WriteExprVec(e.partition_by, w);
  WriteExprVec(e.win_order_by, w);
  WriteExprVec(e.children, w);
  w->Enum(e.type);
}

Status ReadExpr(ByteReader* r, ExprPtr* out, int depth) {
  CBQT_RETURN_IF_ERROR(DepthCheck(r, depth));
  auto e = std::make_unique<Expr>();
  CBQT_RETURN_IF_ERROR(r->Enum(&e->kind, kMaxExprKind));
  CBQT_RETURN_IF_ERROR(r->Str(&e->table_alias));
  CBQT_RETURN_IF_ERROR(r->Str(&e->column_name));
  CBQT_RETURN_IF_ERROR(r->I32(&e->corr_depth));
  CBQT_RETURN_IF_ERROR(ReadValue(r, &e->literal));
  CBQT_RETURN_IF_ERROR(r->I32(&e->param_index));
  CBQT_RETURN_IF_ERROR(r->Enum(&e->bop, kMaxBinaryOp));
  CBQT_RETURN_IF_ERROR(r->Enum(&e->uop, kMaxUnaryOp));
  CBQT_RETURN_IF_ERROR(r->Enum(&e->agg, kMaxAggFunc));
  CBQT_RETURN_IF_ERROR(r->Bool(&e->agg_distinct));
  CBQT_RETURN_IF_ERROR(r->Str(&e->func_name));
  e->scalar_fn = LookupScalarFn(e->func_name);
  CBQT_RETURN_IF_ERROR(r->Enum(&e->subkind, kMaxSubqueryKind));
  CBQT_RETURN_IF_ERROR(r->Enum(&e->sub_cmp, kMaxBinaryOp));
  bool has_subquery = false;
  CBQT_RETURN_IF_ERROR(r->Bool(&has_subquery));
  if (has_subquery) {
    std::unique_ptr<QueryBlock> sub;
    CBQT_RETURN_IF_ERROR(ReadQueryBlock(r, &sub, depth + 1));
    e->subquery = std::move(sub);
  }
  CBQT_RETURN_IF_ERROR(r->Enum(&e->win_func, kMaxAggFunc));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &e->partition_by, depth + 1));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &e->win_order_by, depth + 1));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &e->children, depth + 1));
  CBQT_RETURN_IF_ERROR(r->Enum(&e->type, kMaxDataType));
  *out = std::move(e);
  return Status::OK();
}

// ---- QueryBlock ----------------------------------------------------------

void WriteQueryBlock(const QueryBlock& qb, ByteWriter* w) {
  w->Str(qb.qb_name);
  w->Enum(qb.set_op);
  w->U32(static_cast<uint32_t>(qb.branches.size()));
  for (const auto& b : qb.branches) {
    w->Bool(b != nullptr);
    if (b != nullptr) WriteQueryBlock(*b, w);
  }
  w->Bool(qb.distinct);
  w->U32(static_cast<uint32_t>(qb.select.size()));
  for (const auto& item : qb.select) {
    w->Bool(item.expr != nullptr);
    if (item.expr != nullptr) WriteExpr(*item.expr, w);
    w->Str(item.alias);
  }
  w->U32(static_cast<uint32_t>(qb.from.size()));
  for (const auto& ref : qb.from) {
    w->Str(ref.alias);
    w->Str(ref.table_name);
    w->Bool(ref.derived != nullptr);
    if (ref.derived != nullptr) WriteQueryBlock(*ref.derived, w);
    w->Enum(ref.join);
    WriteExprVec(ref.join_conds, w);
    w->Bool(ref.lateral);
    w->Bool(ref.no_merge);
    // table_def is a catalog pointer: not serialized; re-binding restores it.
  }
  WriteExprVec(qb.where, w);
  WriteExprVec(qb.group_by, w);
  WriteIntSets(qb.grouping_sets, w);
  WriteExprVec(qb.having, w);
  w->U32(static_cast<uint32_t>(qb.order_by.size()));
  for (const auto& item : qb.order_by) {
    w->Bool(item.expr != nullptr);
    if (item.expr != nullptr) WriteExpr(*item.expr, w);
    w->Bool(item.ascending);
  }
  w->I64(qb.rownum_limit);
}

Status ReadQueryBlock(ByteReader* r, std::unique_ptr<QueryBlock>* out,
                      int depth) {
  CBQT_RETURN_IF_ERROR(DepthCheck(r, depth));
  auto qb = std::make_unique<QueryBlock>();
  CBQT_RETURN_IF_ERROR(r->Str(&qb->qb_name));
  CBQT_RETURN_IF_ERROR(r->Enum(&qb->set_op, kMaxSetOpKind));
  uint32_t n = 0;
  CBQT_RETURN_IF_ERROR(r->Count(&n));
  for (uint32_t i = 0; i < n; ++i) {
    bool present = false;
    CBQT_RETURN_IF_ERROR(r->Bool(&present));
    std::unique_ptr<QueryBlock> branch;
    if (present) CBQT_RETURN_IF_ERROR(ReadQueryBlock(r, &branch, depth + 1));
    qb->branches.emplace_back(std::move(branch));
  }
  CBQT_RETURN_IF_ERROR(r->Bool(&qb->distinct));
  CBQT_RETURN_IF_ERROR(r->Count(&n));
  for (uint32_t i = 0; i < n; ++i) {
    SelectItem item;
    bool present = false;
    CBQT_RETURN_IF_ERROR(r->Bool(&present));
    if (present) CBQT_RETURN_IF_ERROR(ReadExpr(r, &item.expr, depth + 1));
    CBQT_RETURN_IF_ERROR(r->Str(&item.alias));
    qb->select.push_back(std::move(item));
  }
  CBQT_RETURN_IF_ERROR(r->Count(&n));
  for (uint32_t i = 0; i < n; ++i) {
    TableRef ref;
    CBQT_RETURN_IF_ERROR(r->Str(&ref.alias));
    CBQT_RETURN_IF_ERROR(r->Str(&ref.table_name));
    bool present = false;
    CBQT_RETURN_IF_ERROR(r->Bool(&present));
    if (present) {
      std::unique_ptr<QueryBlock> derived;
      CBQT_RETURN_IF_ERROR(ReadQueryBlock(r, &derived, depth + 1));
      ref.derived = std::move(derived);
    }
    CBQT_RETURN_IF_ERROR(r->Enum(&ref.join, kMaxJoinKind));
    CBQT_RETURN_IF_ERROR(ReadExprVec(r, &ref.join_conds, depth + 1));
    CBQT_RETURN_IF_ERROR(r->Bool(&ref.lateral));
    CBQT_RETURN_IF_ERROR(r->Bool(&ref.no_merge));
    qb->from.push_back(std::move(ref));
  }
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &qb->where, depth + 1));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &qb->group_by, depth + 1));
  CBQT_RETURN_IF_ERROR(ReadIntSets(r, &qb->grouping_sets));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &qb->having, depth + 1));
  CBQT_RETURN_IF_ERROR(r->Count(&n));
  for (uint32_t i = 0; i < n; ++i) {
    OrderItem item;
    bool present = false;
    CBQT_RETURN_IF_ERROR(r->Bool(&present));
    if (present) CBQT_RETURN_IF_ERROR(ReadExpr(r, &item.expr, depth + 1));
    CBQT_RETURN_IF_ERROR(r->Bool(&item.ascending));
    qb->order_by.push_back(std::move(item));
  }
  CBQT_RETURN_IF_ERROR(r->I64(&qb->rownum_limit));
  *out = std::move(qb);
  return Status::OK();
}

// ---- PlanNode ------------------------------------------------------------

void WritePlanNode(const PlanNode& node, ByteWriter* w) {
  w->Enum(node.op);
  w->U32(static_cast<uint32_t>(node.children.size()));
  for (const auto& c : node.children) WritePlanNode(*c, w);
  w->U32(static_cast<uint32_t>(node.output.size()));
  for (const auto& slot : node.output) {
    w->Str(slot.alias);
    w->Str(slot.name);
    w->Enum(slot.type);
  }
  w->Str(node.table_name);
  w->Str(node.table_alias);
  w->Str(node.index_name);
  WriteExprVec(node.probes, w);
  WriteExprVec(node.filter, w);
  w->Enum(node.join_kind);
  WriteExprVec(node.join_conds, w);
  WriteExprVec(node.hash_left_keys, w);
  WriteExprVec(node.hash_right_keys, w);
  w->Bool(node.null_aware);
  w->Bool(node.rescan_right);
  WriteExprVec(node.group_keys, w);
  WriteExprVec(node.agg_exprs, w);
  WriteIntSets(node.grouping_sets, w);
  WriteExprVec(node.projections, w);
  WriteExprVec(node.sort_keys, w);
  w->U32(static_cast<uint32_t>(node.sort_ascending.size()));
  for (bool asc : node.sort_ascending) w->Bool(asc);
  w->Enum(node.set_op);
  w->I64(node.limit);
  WriteExprVec(node.window_exprs, w);
  w->U32(static_cast<uint32_t>(node.subplans.size()));
  for (const auto& s : node.subplans) WritePlanNode(*s, w);
  w->U32(static_cast<uint32_t>(node.subplan_corr_keys.size()));
  for (const auto& keys : node.subplan_corr_keys) WriteExprVec(keys, w);
  w->F64(node.est_rows);
  w->F64(node.est_cost);
}

Status ReadPlanNode(ByteReader* r, PlanPtr* out, int depth) {
  CBQT_RETURN_IF_ERROR(DepthCheck(r, depth));
  auto node = std::make_shared<PlanNode>();
  CBQT_RETURN_IF_ERROR(r->Enum(&node->op, kMaxPlanOp));
  uint32_t n = 0;
  CBQT_RETURN_IF_ERROR(r->Count(&n));
  for (uint32_t i = 0; i < n; ++i) {
    PlanPtr child;
    CBQT_RETURN_IF_ERROR(ReadPlanNode(r, &child, depth + 1));
    node->children.push_back(std::move(child));
  }
  CBQT_RETURN_IF_ERROR(r->Count(&n));
  for (uint32_t i = 0; i < n; ++i) {
    ColumnSlot slot;
    CBQT_RETURN_IF_ERROR(r->Str(&slot.alias));
    CBQT_RETURN_IF_ERROR(r->Str(&slot.name));
    CBQT_RETURN_IF_ERROR(r->Enum(&slot.type, kMaxDataType));
    node->output.push_back(std::move(slot));
  }
  CBQT_RETURN_IF_ERROR(r->Str(&node->table_name));
  CBQT_RETURN_IF_ERROR(r->Str(&node->table_alias));
  CBQT_RETURN_IF_ERROR(r->Str(&node->index_name));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &node->probes, depth + 1));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &node->filter, depth + 1));
  CBQT_RETURN_IF_ERROR(r->Enum(&node->join_kind, kMaxJoinKind));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &node->join_conds, depth + 1));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &node->hash_left_keys, depth + 1));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &node->hash_right_keys, depth + 1));
  CBQT_RETURN_IF_ERROR(r->Bool(&node->null_aware));
  CBQT_RETURN_IF_ERROR(r->Bool(&node->rescan_right));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &node->group_keys, depth + 1));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &node->agg_exprs, depth + 1));
  CBQT_RETURN_IF_ERROR(ReadIntSets(r, &node->grouping_sets));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &node->projections, depth + 1));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &node->sort_keys, depth + 1));
  CBQT_RETURN_IF_ERROR(r->Count(&n));
  for (uint32_t i = 0; i < n; ++i) {
    bool asc = true;
    CBQT_RETURN_IF_ERROR(r->Bool(&asc));
    node->sort_ascending.push_back(asc);
  }
  CBQT_RETURN_IF_ERROR(r->Enum(&node->set_op, kMaxSetOpKind));
  CBQT_RETURN_IF_ERROR(r->I64(&node->limit));
  CBQT_RETURN_IF_ERROR(ReadExprVec(r, &node->window_exprs, depth + 1));
  CBQT_RETURN_IF_ERROR(r->Count(&n));
  for (uint32_t i = 0; i < n; ++i) {
    PlanPtr sub;
    CBQT_RETURN_IF_ERROR(ReadPlanNode(r, &sub, depth + 1));
    node->subplans.push_back(std::move(sub));
  }
  CBQT_RETURN_IF_ERROR(r->Count(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<ExprPtr> keys;
    CBQT_RETURN_IF_ERROR(ReadExprVec(r, &keys, depth + 1));
    node->subplan_corr_keys.push_back(std::move(keys));
  }
  CBQT_RETURN_IF_ERROR(r->F64(&node->est_rows));
  CBQT_RETURN_IF_ERROR(r->F64(&node->est_cost));
  *out = std::move(node);
  return Status::OK();
}

// ---- framing -------------------------------------------------------------

std::string FramePayload(uint32_t magic, std::string payload) {
  ByteWriter w;
  w.U32(magic);
  w.U32(kPlanSerdeVersion);
  w.U64(payload.size());
  w.U64(Fnv1a(payload, kFnvPersistedOffset));
  std::string out = w.Take();
  out += payload;
  return out;
}

Result<std::string_view> UnframePayload(uint32_t magic,
                                        std::string_view bytes) {
  ByteReader r(bytes);
  uint32_t got_magic = 0, version = 0;
  uint64_t size = 0, checksum = 0;
  CBQT_RETURN_IF_ERROR(r.U32(&got_magic));
  if (got_magic != magic) {
    return Status::DataCorruption("plan serde: bad magic");
  }
  CBQT_RETURN_IF_ERROR(r.U32(&version));
  if (version != kPlanSerdeVersion) {
    return Status::DataCorruption(
        "plan serde: version " + std::to_string(version) +
        " does not match " + std::to_string(kPlanSerdeVersion));
  }
  CBQT_RETURN_IF_ERROR(r.U64(&size));
  CBQT_RETURN_IF_ERROR(r.U64(&checksum));
  if (size != r.remaining()) {
    return Status::DataCorruption(
        "plan serde: payload size " + std::to_string(size) +
        " does not match " + std::to_string(r.remaining()) +
        " bytes present");
  }
  std::string_view payload = bytes.substr(bytes.size() - size);
  if (Fnv1a(payload, kFnvPersistedOffset) != checksum) {
    return Status::DataCorruption("plan serde: checksum mismatch");
  }
  return payload;
}

std::string SerializePlan(const PlanNode& plan) {
  ByteWriter w;
  WritePlanNode(plan, &w);
  return FramePayload(kPlanBlobMagic, w.Take());
}

Result<PlanPtr> DeserializePlan(std::string_view bytes) {
  auto payload = UnframePayload(kPlanBlobMagic, bytes);
  if (!payload.ok()) return payload.status();
  ByteReader r(*payload);
  PlanPtr plan;
  CBQT_RETURN_IF_ERROR(ReadPlanNode(&r, &plan));
  if (!r.exhausted()) {
    return r.Fail(std::to_string(r.remaining()) +
                  " trailing bytes after plan tree");
  }
  return plan;
}

}  // namespace cbqt
