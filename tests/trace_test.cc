// Tests for the obs span tracer (src/obs/trace.h): JSON shape and
// escaping of TraceEvent, and the TraceWriter's disabled-by-default /
// concurrent-append contract (the concurrency case runs under TSan via
// the "obs" ctest label).

#include "obs/trace.h"

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace blowfish {
namespace obs {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream file(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) lines.push_back(line);
  return lines;
}

TEST(TraceEventTest, BuildsFlatJson) {
  TraceEvent event("query");
  event.Str("kind", "histogram")
      .Int("index", -3)
      .Uint("charge_id", 7)
      .Double("eps", 0.25)
      .Bool("cache_hit", true);
  EXPECT_EQ(std::move(event).Finish(),
            "{\"span\":\"query\",\"kind\":\"histogram\",\"index\":-3,"
            "\"charge_id\":7,\"eps\":0.25,\"cache_hit\":true}");
}

TEST(TraceEventTest, EscapesStrings) {
  TraceEvent event("q");
  event.Str("label", "a\"b\\c\nd\te\x01");
  EXPECT_EQ(std::move(event).Finish(),
            "{\"span\":\"q\",\"label\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
}

TEST(TraceEventTest, DoubleRoundTripsBitExactly) {
  // Not binary-exact; the shortest round-trip text (std::to_chars) must
  // read back to the same bits.
  const double eps = 0.1;
  TraceEvent event("q");
  event.Double("eps", eps);
  const std::string json = std::move(event).Finish();
  const size_t colon = json.rfind(':');
  const std::string text =
      json.substr(colon + 1, json.size() - colon - 2);
  EXPECT_EQ(std::stod(text), eps);
}

TEST(TraceWriterTest, DisabledByDefaultAndWriteIsNoOp) {
  TraceWriter writer;
  EXPECT_FALSE(writer.enabled());
  writer.Write(TraceEvent("q"));  // must not crash
}

TEST(TraceWriterTest, OpenFailsOnBadPath) {
  TraceWriter writer;
  EXPECT_FALSE(writer.Open("/nonexistent-dir-xyz/trace.jsonl"));
  EXPECT_FALSE(writer.enabled());
}

TEST(TraceWriterTest, WritesOneLinePerEvent) {
  const std::string path = ::testing::TempDir() + "/trace_test.jsonl";
  TraceWriter writer;
  ASSERT_TRUE(writer.Open(path));
  EXPECT_TRUE(writer.enabled());
  {
    TraceEvent event("batch");
    event.Uint("queries", 4);
    writer.Write(std::move(event));
  }
  {
    TraceEvent event("query");
    event.Str("kind", "mean");
    writer.Write(std::move(event));
  }
  writer.Close();
  EXPECT_FALSE(writer.enabled());
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"span\":\"batch\",\"queries\":4}");
  EXPECT_EQ(lines[1], "{\"span\":\"query\",\"kind\":\"mean\"}");
}

TEST(TraceWriterTest, CloseIsIdempotentAndWriteAfterCloseIsNoOp) {
  const std::string path = ::testing::TempDir() + "/trace_test2.jsonl";
  TraceWriter writer;
  ASSERT_TRUE(writer.Open(path));
  writer.Close();
  writer.Close();
  writer.Write(TraceEvent("q"));
  EXPECT_TRUE(ReadLines(path).empty());
}

TEST(TraceWriterTest, ConcurrentWritesYieldWholeLines) {
  const std::string path =
      ::testing::TempDir() + "/trace_test_concurrent.jsonl";
  TraceWriter writer;
  ASSERT_TRUE(writer.Open(path));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&writer, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        TraceEvent event("query");
        event.Int("thread", t).Int("i", i);
        writer.Write(std::move(event));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  writer.Close();
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  // The mutex serializes appends: every line is a complete object, never
  // an interleaving of two writers.
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find("{\"span\":\"query\",\"thread\":"), 0u);
  }
}

TEST(TraceWriterTest, GlobalIsStableAndStartsDisabled) {
  EXPECT_EQ(TraceWriter::Global(), TraceWriter::Global());
  EXPECT_FALSE(TraceWriter::Global()->enabled());
}

}  // namespace
}  // namespace obs
}  // namespace blowfish
