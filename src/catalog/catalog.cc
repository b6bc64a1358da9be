#include "catalog/catalog.h"

#include <algorithm>
#include <string_view>

#include "common/hash.h"
#include "common/str_util.h"

namespace cbqt {

int TableDef::FindColumn(const std::string& column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == column_name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

bool SameColumnSet(const std::vector<std::string>& a,
                   const std::vector<std::string>& b) {
  if (a.size() != b.size()) return false;
  std::vector<std::string> sa = a, sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  return sa == sb;
}

}  // namespace

bool TableDef::IsUniqueKey(const std::vector<std::string>& cols) const {
  if (!primary_key.empty() && SameColumnSet(cols, primary_key)) return true;
  for (const auto& key : unique_keys) {
    if (SameColumnSet(cols, key)) return true;
  }
  for (const auto& idx : indexes) {
    if (idx.unique && SameColumnSet(cols, idx.columns)) return true;
  }
  return false;
}

std::string TableDef::FindIndexCovering(
    const std::vector<std::string>& cols) const {
  if (cols.empty()) return "";
  for (const auto& idx : indexes) {
    // Every leading index key column must be constrained; equality probes on
    // a prefix are what the storage layer supports.
    if (idx.columns.size() < cols.size()) continue;
    bool all_in_prefix = true;
    for (const auto& c : cols) {
      auto it = std::find(idx.columns.begin(),
                          idx.columns.begin() + static_cast<long>(cols.size()), c);
      if (it == idx.columns.begin() + static_cast<long>(cols.size())) {
        all_in_prefix = false;
        break;
      }
    }
    if (all_in_prefix) return idx.name;
  }
  return "";
}

bool TableDef::IsNotNull(const std::string& column_name) const {
  int i = FindColumn(column_name);
  if (i < 0) return false;
  return !columns[static_cast<size_t>(i)].nullable;
}

Status Catalog::AddTable(TableDef def) {
  def.name = ToLower(def.name);
  for (auto& col : def.columns) col.name = ToLower(col.name);
  if (tables_.count(def.name) > 0) {
    return Status::AlreadyExists("table already exists: " + def.name);
  }
  for (const auto& fk : def.foreign_keys) {
    if (fk.columns.size() != fk.ref_columns.size()) {
      return Status::InvalidArgument("foreign key column count mismatch on " +
                                     def.name);
    }
  }
  tables_.emplace(def.name, std::move(def));
  return Status::OK();
}

const TableDef* Catalog::FindTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return nullptr;
  return &it->second;
}

namespace {

void HashBytes(uint64_t* h, std::string_view s) {
  // FNV-1a over a length-prefixed string so ("ab","c") != ("a","bc").
  uint64_t len = s.size();
  for (size_t i = 0; i < sizeof(len); ++i) {
    *h = FnvMix(*h, static_cast<uint8_t>(len >> (8 * i)));
  }
  *h = Fnv1a(s, *h);
}

void HashStrings(uint64_t* h, const std::vector<std::string>& v) {
  HashBytes(h, "[");
  for (const auto& s : v) HashBytes(h, s);
  HashBytes(h, "]");
}

}  // namespace

uint64_t Catalog::Fingerprint() const {
  uint64_t h = kFnvPersistedOffset;
  for (const auto& [name, def] : tables_) {  // std::map: sorted, stable order
    HashBytes(&h, "table");
    HashBytes(&h, name);
    for (const auto& col : def.columns) {
      HashBytes(&h, col.name);
      HashBytes(&h, std::string(1, static_cast<char>(col.type)));
      HashBytes(&h, col.nullable ? "n" : "!");
    }
    HashStrings(&h, def.primary_key);
    for (const auto& key : def.unique_keys) HashStrings(&h, key);
    for (const auto& fk : def.foreign_keys) {
      HashBytes(&h, "fk");
      HashStrings(&h, fk.columns);
      HashBytes(&h, fk.ref_table);
      HashStrings(&h, fk.ref_columns);
    }
    for (const auto& idx : def.indexes) {
      HashBytes(&h, "ix");
      HashBytes(&h, idx.name);
      HashStrings(&h, idx.columns);
      HashBytes(&h, idx.unique ? "u" : "-");
    }
  }
  return h;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, def] : tables_) names.push_back(name);
  return names;
}

}  // namespace cbqt
