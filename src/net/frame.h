// Length-prefixed frame codec for the blowfish wire protocol.
//
// A frame is a 4-byte big-endian payload length followed by that many
// payload bytes; payloads are the line-oriented protocol messages of
// net/protocol.h. The codec is pure byte-shuffling — no I/O, no engine
// types — which is what makes it fuzzable in isolation
// (tests/net_frame_fuzz_test.cc): any byte stream, fed in any chunking,
// must yield either frames or one sticky structured error, never a
// crash, hang, or over-read.

#ifndef BLOWFISH_NET_FRAME_H_
#define BLOWFISH_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace blowfish {

/// Hard cap on a frame's payload. A length prefix above it poisons the
/// decoder: a stream claiming a 4 GiB frame is a protocol violation (or
/// an attack), not a buffering request.
constexpr size_t kMaxFramePayload = size_t{1} << 20;  // 1 MiB

/// Wraps a payload in a frame. Payloads over kMaxFramePayload are a
/// programming error on the sending side (the protocol layer never
/// builds one) and assert.
std::string EncodeFrame(const std::string& payload);

/// EncodeFrame appended to *out in place, with no temporary frame.
void AppendFrame(const std::string& payload, std::string* out);

/// Incremental frame parser. Feed() buffers raw bytes; Next() pops
/// complete frames. The split means chunking never matters: any
/// partition of a byte stream decodes to the same frame sequence (the
/// fuzz harness checks exactly that).
class FrameDecoder {
 public:
  enum class Result {
    kFrame,     // *payload holds the next frame's payload
    kNeedMore,  // the buffer holds no complete frame yet
    kError,     // the stream is poisoned; see error()
  };

  /// Appends raw bytes. Bytes fed after an error are discarded — the
  /// stream has no recoverable framing past a bad length prefix.
  void Feed(const char* data, size_t len);

  /// Pops the next complete frame. After kError every later call
  /// returns kError with the same status (sticky).
  Result Next(std::string* payload);

  /// The poisoning error; OK while the decoder is healthy.
  const Status& error() const { return error_; }

  /// Bytes buffered but not yet returned as frames. Bounded by
  /// 4 + kMaxFramePayload plus one Feed's worth of input when callers
  /// drain Next() between Feeds.
  size_t buffered() const { return buffer_.size() - head_; }

 private:
  std::string buffer_;
  size_t head_ = 0;  // consumed prefix of buffer_
  Status error_;
};

}  // namespace blowfish

#endif  // BLOWFISH_NET_FRAME_H_
