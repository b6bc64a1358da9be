#include "sql/scalar_fn.h"

namespace cbqt {

namespace {

constexpr std::string_view kExpensivePrefix = "expensive_";

// Indexed by ScalarFn.
constexpr ScalarFnInfo kScalarFns[] = {
    {ScalarFn::kNone, "", 0, 0, FnArgKind::kAny, DataType::kUnknown},
    {ScalarFn::kAbs, "abs", 1, 1, FnArgKind::kNumeric, DataType::kDouble},
    // mod's result is INT on two INT arguments; the binder refines it.
    {ScalarFn::kMod, "mod", 2, 2, FnArgKind::kNumeric, DataType::kDouble},
    {ScalarFn::kFloor, "floor", 1, 1, FnArgKind::kNumeric, DataType::kDouble},
    {ScalarFn::kUpper, "upper", 1, 1, FnArgKind::kString, DataType::kString},
    {ScalarFn::kLower, "lower", 1, 1, FnArgKind::kString, DataType::kString},
    // expensive_f(x[, m]): the argument is only hashed or read numerically,
    // so any kind is accepted; with no argument the result is 1.0.
    {ScalarFn::kExpensive, "expensive_", 0, 2, FnArgKind::kAny,
     DataType::kDouble},
};

}  // namespace

ScalarFn LookupScalarFn(std::string_view name) {
  if (name.substr(0, kExpensivePrefix.size()) == kExpensivePrefix) {
    return ScalarFn::kExpensive;
  }
  for (const ScalarFnInfo& info : kScalarFns) {
    if (info.fn != ScalarFn::kNone && info.fn != ScalarFn::kExpensive &&
        name == info.name) {
      return info.fn;
    }
  }
  return ScalarFn::kNone;
}

const ScalarFnInfo& GetScalarFnInfo(ScalarFn fn) {
  return kScalarFns[static_cast<size_t>(fn)];
}

}  // namespace cbqt
