#include "net/frame.h"

#include <cassert>

namespace blowfish {

std::string EncodeFrame(const std::string& payload) {
  std::string frame;
  frame.reserve(4 + payload.size());
  AppendFrame(payload, &frame);
  return frame;
}

void AppendFrame(const std::string& payload, std::string* out) {
  assert(payload.size() <= kMaxFramePayload);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  out->push_back(static_cast<char>((len >> 24) & 0xff));
  out->push_back(static_cast<char>((len >> 16) & 0xff));
  out->push_back(static_cast<char>((len >> 8) & 0xff));
  out->push_back(static_cast<char>(len & 0xff));
  out->append(payload);
}

void FrameDecoder::Feed(const char* data, size_t len) {
  if (!error_.ok()) return;
  buffer_.append(data, len);
}

FrameDecoder::Result FrameDecoder::Next(std::string* payload) {
  if (!error_.ok()) return Result::kError;
  const size_t available = buffer_.size() - head_;
  if (available < 4) {
    // Compact so a slow trickle of tiny frames cannot grow the buffer
    // through its consumed prefix.
    if (head_ > 0) {
      buffer_.erase(0, head_);
      head_ = 0;
    }
    return Result::kNeedMore;
  }
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data()) + head_;
  const uint32_t len = (static_cast<uint32_t>(p[0]) << 24) |
                       (static_cast<uint32_t>(p[1]) << 16) |
                       (static_cast<uint32_t>(p[2]) << 8) |
                       static_cast<uint32_t>(p[3]);
  if (len > kMaxFramePayload) {
    error_ = Status::InvalidArgument(
        "oversized frame: length prefix " + std::to_string(len) +
        " exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte payload cap");
    buffer_.clear();
    head_ = 0;
    return Result::kError;
  }
  if (available < 4 + static_cast<size_t>(len)) {
    if (head_ > 0) {
      buffer_.erase(0, head_);
      head_ = 0;
    }
    return Result::kNeedMore;
  }
  payload->assign(buffer_, head_ + 4, len);
  head_ += 4 + static_cast<size_t>(len);
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  }
  return Result::kFrame;
}

}  // namespace blowfish
