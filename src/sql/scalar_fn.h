#ifndef CBQT_SQL_SCALAR_FN_H_
#define CBQT_SQL_SCALAR_FN_H_

#include <cstdint>
#include <string_view>

#include "sql/type.h"

namespace cbqt {

/// The registered scalar functions. A kFuncCall expression resolves its
/// name to one of these once, when the node is built (MakeFuncCall, plan
/// deserialization); the binder validates calls against the table below,
/// and both evaluators dispatch on the enum — no string compares per row.
enum class ScalarFn : uint8_t {
  kNone = 0,   ///< not a registered function (the binder rejects the call)
  kAbs,
  kMod,
  kFloor,
  kUpper,
  kLower,
  kExpensive,  ///< the expensive_* family: a spin loop, then a cheap result
};

/// Argument kinds a function accepts (NULL is always accepted).
enum class FnArgKind : uint8_t { kAny, kNumeric, kString };

struct ScalarFnInfo {
  ScalarFn fn;
  const char* name;  ///< the name, or the prefix for kExpensive
  int min_args;
  int max_args;
  FnArgKind arg_kind;
  DataType result;
};

/// Resolves a lower-cased function name: "abs", "mod", "floor", "upper",
/// "lower", or any name starting with "expensive_". kNone otherwise.
ScalarFn LookupScalarFn(std::string_view name);

/// The table entry of `fn` (kNone has a zero-arity placeholder entry).
const ScalarFnInfo& GetScalarFnInfo(ScalarFn fn);

}  // namespace cbqt

#endif  // CBQT_SQL_SCALAR_FN_H_
