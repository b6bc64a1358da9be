// Pins the FNV-1a outputs other code can observe, on fixed inputs. The
// plan-serde checksum frames snapshot files and shared-store records and
// the catalog fingerprint stamps them, so neither may move; HashRow picks
// the spill partition of every spilled row.

#include "common/hash.h"

#include <gtest/gtest.h>

#include <cstring>

#include "catalog/catalog.h"
#include "common/value.h"
#include "optimizer/plan_serde.h"

namespace cbqt {
namespace {

TEST(Fnv1a, StandardVectors) {
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ULL);
  // Seeded continuation: hashing in two pieces equals hashing the whole.
  EXPECT_EQ(Fnv1a("bar", Fnv1a("foo")), Fnv1a("foobar"));
}

TEST(Fnv1a, SerdeChecksumPinned) {
  EXPECT_EQ(Fnv1a("", kFnvPersistedOffset), 1469598103934665603ULL);
  EXPECT_EQ(Fnv1a("cbqt plan", kFnvPersistedOffset), 803146482371292406ULL);

  PlanNode scan(PlanOp::kTableScan);
  scan.table_name = "employees";
  scan.table_alias = "e";
  scan.output.push_back({"e", "emp_id", DataType::kInt64});
  scan.est_rows = 100;
  scan.est_cost = 12.5;
  std::string blob = SerializePlan(scan);
  // Frame: magic, version, size, checksum (little-endian u64 at byte 16).
  ASSERT_GE(blob.size(), 24u);
  uint64_t checksum = 0;
  for (int i = 7; i >= 0; --i) {
    checksum = (checksum << 8) | static_cast<uint8_t>(blob[16 + i]);
  }
  EXPECT_EQ(checksum, 11568675210588742361ULL);
  EXPECT_EQ(Fnv1a(std::string_view(blob).substr(24), kFnvPersistedOffset),
            checksum);
}

TEST(Fnv1a, CatalogFingerprintPinned) {
  TableDef t;
  t.name = "employees";
  t.columns = {{"emp_id", DataType::kInt64, false},
               {"dept_id", DataType::kInt64, true}};
  t.primary_key = {"emp_id"};
  t.foreign_keys = {{{"dept_id"}, "departments", {"dept_id"}}};
  t.indexes = {{"emp_pk", {"emp_id"}, true}};
  Catalog cat;
  EXPECT_EQ(cat.Fingerprint(), 1469598103934665603ULL);
  ASSERT_TRUE(cat.AddTable(t).ok());
  EXPECT_EQ(cat.Fingerprint(), 3922567784877677135ULL);
}

TEST(Fnv1a, HashRowPinned) {
  EXPECT_EQ(HashRow({}), 14695981039346656037ULL);
  // Null and Bool hash to fixed constants (numbers and strings go through
  // std::hash, which the standard library chooses).
  EXPECT_EQ(HashRow({Value::Null()}), 2856389037799358096ULL);
  EXPECT_EQ(HashRow({Value::Null(), Value::Boolean(true),
                     Value::Boolean(false)}),
            17152738836172963281ULL);
}

}  // namespace
}  // namespace cbqt
