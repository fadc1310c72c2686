#include "obs/trace.h"

#include <unistd.h>

#include <cstdint>

#include "obs/double_text.h"

namespace blowfish {
namespace obs {

namespace {

void AppendJsonEscaped(const std::string& value, std::string* out) {
  for (const char c : value) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

TraceEvent::TraceEvent(const char* span_kind)
    : TraceEvent("span", span_kind) {}

TraceEvent::TraceEvent(const char* discriminator_key, const char* kind) {
  buffer_ = "{\"";
  buffer_ += discriminator_key;  // identifier literal, never data
  buffer_ += "\":\"";
  AppendJsonEscaped(kind, &buffer_);
  buffer_ += '"';
}

void TraceEvent::Key(const char* key) {
  buffer_ += ",\"";
  buffer_ += key;  // keys are identifier literals, never data
  buffer_ += "\":";
}

TraceEvent& TraceEvent::Str(const char* key, const std::string& value) {
  Key(key);
  buffer_ += '"';
  AppendJsonEscaped(value, &buffer_);
  buffer_ += '"';
  return *this;
}

TraceEvent& TraceEvent::Int(const char* key, long long value) {
  Key(key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", value);
  buffer_ += buf;
  return *this;
}

TraceEvent& TraceEvent::Uint(const char* key, unsigned long long value) {
  Key(key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", value);
  buffer_ += buf;
  return *this;
}

TraceEvent& TraceEvent::Double(const char* key, double value) {
  Key(key);
  AppendDouble(&buffer_, value);
  return *this;
}

TraceEvent& TraceEvent::Bool(const char* key, bool value) {
  Key(key);
  buffer_ += value ? "true" : "false";
  return *this;
}

std::string TraceEvent::Finish() && {
  buffer_ += '}';
  return std::move(buffer_);
}

TraceWriter::~TraceWriter() { Close(); }

TraceWriter* TraceWriter::Global() {
  static TraceWriter* const global = new TraceWriter();
  return global;
}

bool TraceWriter::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    enabled_.store(false, std::memory_order_release);
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  file_ = file;
  enabled_.store(true, std::memory_order_release);
  return true;
}

void TraceWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_.store(false, std::memory_order_release);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void TraceWriter::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fflush(file_);
  ::fsync(fileno(file_));
}

void TraceWriter::Write(TraceEvent&& event) {
  const std::string line = std::move(event).Finish();
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  // Flushed per line so a crashed or SIGKILLed daemon still leaves a
  // readable trace; docs/observability.md carries the overhead note.
  std::fflush(file_);
}

}  // namespace obs
}  // namespace blowfish
