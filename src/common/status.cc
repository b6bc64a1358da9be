#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace cbqt {

namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kBindError:
      return "BindError";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kCostCutoff:
      return "CostCutoff";
    case StatusCode::kBudgetExhausted:
      return "BudgetExhausted";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kTenantThrottled:
      return "TenantThrottled";
    case StatusCode::kDataCorruption:
      return "DataCorruption";
  }
  return "Unknown";
}

}  // namespace

namespace internal {

void DieOnBadResultAccess(const Status& status) {
  std::fprintf(stderr, "FATAL: Result::value() called on failed Result: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace cbqt
