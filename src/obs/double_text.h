// The obs layer's copy of util/parse.h's AppendDouble: src/obs/ may
// include only obs/ headers, and its text outputs (trace and audit
// lines, the Prometheus dump) write doubles exactly like the wire and
// the ledger do, so a trace line's epsilon equals the receipt's.

#ifndef BLOWFISH_OBS_DOUBLE_TEXT_H_
#define BLOWFISH_OBS_DOUBLE_TEXT_H_

#include <charconv>
#include <string>

namespace blowfish {
namespace obs {

/// Appends the shortest decimal text that reads back to the same bits
/// (std::to_chars); strtod reads it.
inline void AppendDouble(std::string* out, double value) {
  // The longest shortest form is 24 bytes: "-2.2250738585072014e-308".
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, r.ptr);
}

}  // namespace obs
}  // namespace blowfish

#endif  // BLOWFISH_OBS_DOUBLE_TEXT_H_
