#include "util/parse.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace blowfish {

StatusOr<double> ParseFiniteDouble(const std::string& value,
                                   const std::string& context) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("malformed number '" + value + "' for " +
                                   context);
  }
  // strtod happily accepts "nan" and "inf" — values that silently defeat
  // budget comparisons (spent + eps > budget is never true against NaN).
  if (!std::isfinite(parsed)) {
    return Status::InvalidArgument("non-finite number '" + value + "' for " +
                                   context);
  }
  return parsed;
}

void AppendDouble(std::string* out, double value) {
  // The longest shortest form is 24 bytes: "-2.2250738585072014e-308".
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, r.ptr);
}

StatusOr<uint64_t> ParseNonNegativeInt(const std::string& value,
                                       const std::string& context) {
  if (value.find('-') != std::string::npos) {
    return Status::InvalidArgument("expected a non-negative integer, got '" +
                                   value + "' for " + context);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("malformed integer '" + value + "' for " +
                                   context);
  }
  // Without this, out-of-range input silently clamps to ULLONG_MAX.
  if (errno == ERANGE) {
    return Status::InvalidArgument("integer '" + value +
                                   "' out of range for " + context);
  }
  return static_cast<uint64_t>(parsed);
}

}  // namespace blowfish
