// Strict numeric parsing for user-facing text inputs (config files,
// request files, CLI flags), and the one double formatter every
// persisted or wire format above util/ writes with.
//
// std::stoul/std::stod abort the process on malformed input via uncaught
// exceptions, and raw strtoull silently wraps negative input to huge
// values. Every surface that parses untrusted text shares these helpers
// so the accepted grammar cannot drift between the batch-request file,
// the serve config, and the CLI flags.

#ifndef BLOWFISH_UTIL_PARSE_H_
#define BLOWFISH_UTIL_PARSE_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace blowfish {

/// Parses a double; `context` names the offending key/flag in errors.
StatusOr<double> ParseFiniteDouble(const std::string& value,
                                   const std::string& context);

/// Appends the shortest decimal text that reads back to the same bits
/// (std::to_chars: "0.1", "5e-324", "1e+05", "-0", "inf", "-nan").
/// strtod and std::from_chars both read it, and both read the older
/// %.17g text, so files and frames written either way stay loadable.
void AppendDouble(std::string* out, double value);

/// Parses a non-negative integer, rejecting '-' (which strtoull would
/// silently wrap to a huge value).
StatusOr<uint64_t> ParseNonNegativeInt(const std::string& value,
                                       const std::string& context);

}  // namespace blowfish

#endif  // BLOWFISH_UTIL_PARSE_H_
