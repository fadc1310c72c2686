// Protocol fuzz battery for the wire layer's pure parsing surfaces:
// the frame decoder (net/frame.h) and the message / response parsers
// (net/protocol.h). Every input — random byte soup, truncated or
// length-mutated valid streams, random chunkings — must yield either
// frames or one sticky structured error: never a crash, hang, or
// over-read (the suite runs under the ASan/UBSan CI job, where an
// over-read is a finding, not a silent pass).
//
// All randomness is seeded Random::Fork streams, so a failure replays
// from the iteration index printed by the assertion.

#include "net/frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "engine/batch_request.h"
#include "net/protocol.h"
#include "util/random.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 20140612;

std::string RandomBytes(Random& rng, size_t len) {
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng.UniformInt(0, 255)));
  }
  return out;
}

/// Decodes everything in `input`, fed in the chunk sizes `rng` picks,
/// pumping the decoder dry between feeds. Returns the frames; *error
/// gets the sticky error (OK if none).
std::vector<std::string> DecodeChunked(const std::string& input,
                                       Random& rng, size_t max_chunk,
                                       Status* error) {
  FrameDecoder decoder;
  std::vector<std::string> frames;
  size_t pos = 0;
  while (pos < input.size()) {
    const size_t chunk = static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(max_chunk)));
    const size_t len = std::min(chunk, input.size() - pos);
    decoder.Feed(input.data() + pos, len);
    pos += len;
    std::string payload;
    while (decoder.Next(&payload) == FrameDecoder::Result::kFrame) {
      frames.push_back(payload);
    }
    // Drained: the buffer holds at most one incomplete frame.
    if (decoder.error().ok()) {
      EXPECT_LT(decoder.buffered(), 4 + kMaxFramePayload);
    }
  }
  *error = decoder.error();
  return frames;
}

TEST(NetFrameFuzzTest, RandomByteSoupNeverCrashes) {
  Random root(kSeed);
  for (uint64_t iter = 0; iter < 4000; ++iter) {
    Random rng = root.Fork(iter);
    const size_t len =
        static_cast<size_t>(rng.UniformInt(0, 2048));
    const std::string input = RandomBytes(rng, len);
    Status error;
    std::vector<std::string> frames =
        DecodeChunked(input, rng, 64, &error);
    // Everything decoded came out of the input: no over-read can
    // manufacture bytes.
    size_t total = 0;
    for (const std::string& f : frames) {
      total += 4 + f.size();
      ASSERT_LE(f.size(), kMaxFramePayload) << "iteration " << iter;
    }
    ASSERT_LE(total, input.size()) << "iteration " << iter;
    if (!error.ok()) {
      // Structured: the only way a byte stream can fail framing is an
      // oversized length prefix.
      ASSERT_EQ(error.code(), StatusCode::kInvalidArgument)
          << "iteration " << iter;
    }
  }
}

TEST(NetFrameFuzzTest, ChunkingNeverChangesTheFrameSequence) {
  Random root(kSeed + 1);
  for (uint64_t iter = 0; iter < 2000; ++iter) {
    Random rng = root.Fork(iter);
    // A stream of valid frames, optionally truncated mid-frame.
    std::string stream;
    std::vector<std::string> sent;
    const int num_frames = static_cast<int>(rng.UniformInt(0, 8));
    for (int f = 0; f < num_frames; ++f) {
      const size_t len = static_cast<size_t>(rng.UniformInt(0, 300));
      sent.push_back(RandomBytes(rng, len));
      stream += EncodeFrame(sent.back());
    }
    if (rng.Bernoulli(0.5) && !stream.empty()) {
      const size_t keep = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(stream.size())));
      stream.resize(keep);
    }

    Status error_a;
    Random chunk_a = rng.Fork(1);
    std::vector<std::string> frames_a =
        DecodeChunked(stream, chunk_a, 7, &error_a);
    Status error_b;
    Random chunk_b = rng.Fork(2);
    std::vector<std::string> frames_b =
        DecodeChunked(stream, chunk_b, 1024, &error_b);

    ASSERT_EQ(frames_a.size(), frames_b.size()) << "iteration " << iter;
    for (size_t i = 0; i < frames_a.size(); ++i) {
      ASSERT_EQ(frames_a[i], frames_b[i]) << "iteration " << iter;
    }
    ASSERT_EQ(error_a.ok(), error_b.ok()) << "iteration " << iter;
    // An untruncated stream decodes completely.
    for (size_t i = 0; i < frames_a.size(); ++i) {
      ASSERT_EQ(frames_a[i], sent[i]) << "iteration " << iter;
    }
  }
}

TEST(NetFrameFuzzTest, MutatedValidStreamsFailStructurally) {
  Random root(kSeed + 2);
  for (uint64_t iter = 0; iter < 2000; ++iter) {
    Random rng = root.Fork(iter);
    std::string stream;
    const int num_frames = static_cast<int>(rng.UniformInt(1, 6));
    for (int f = 0; f < num_frames; ++f) {
      stream += EncodeFrame(
          RandomBytes(rng, static_cast<size_t>(rng.UniformInt(0, 200))));
    }
    // Flip one byte anywhere — including the length prefixes, which is
    // how oversized/misaligned frames are born.
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(stream.size()) - 1));
    stream[at] = static_cast<char>(rng.UniformInt(0, 255));

    FrameDecoder decoder;
    decoder.Feed(stream.data(), stream.size());
    std::string payload;
    FrameDecoder::Result result;
    size_t frames = 0;
    while ((result = decoder.Next(&payload)) ==
           FrameDecoder::Result::kFrame) {
      ASSERT_LE(payload.size(), kMaxFramePayload) << "iteration " << iter;
      ASSERT_LE(++frames, stream.size()) << "iteration " << iter;
    }
    if (result == FrameDecoder::Result::kError) {
      ASSERT_FALSE(decoder.error().ok());
      // Sticky: feeding more does not resurrect the stream.
      decoder.Feed(stream.data(), stream.size());
      ASSERT_EQ(decoder.Next(&payload), FrameDecoder::Result::kError);
    }
  }
}

TEST(NetFrameFuzzTest, WireMessageParserNeverCrashes) {
  Random root(kSeed + 3);
  uint64_t parsed_ok = 0;
  for (uint64_t iter = 0; iter < 2000; ++iter) {
    Random rng = root.Fork(iter);
    std::string payload;
    if (rng.Bernoulli(0.5)) {
      payload = RandomBytes(
          rng, static_cast<size_t>(rng.UniformInt(0, 256)));
    } else {
      // Plausible-looking messages stress the key=value and %XX paths
      // harder than raw bytes.
      static const char* kPieces[] = {"RESULT",  "i=",      "0",
                                      " ",       "code=",   "OK",
                                      "values=", "1.5,2.5", "%",
                                      "2",       "G",       "=",
                                      "msg=",    "%ZZ",     "%2"};
      const int pieces = static_cast<int>(rng.UniformInt(0, 12));
      for (int p = 0; p < pieces; ++p) {
        payload +=
            kPieces[rng.UniformInt(0, 14)];
      }
    }
    auto msg = ParseWireMessage(payload);
    if (!msg.ok()) continue;
    ++parsed_ok;
    // Whatever parsed also survives the typed accessors and the
    // response parser without crashing (errors are fine).
    Status carried;
    (void)ParseStatusFields(*msg, &carried);
    (void)ParseResultPayload(*msg);
    size_t index;
    BudgetReceipt receipt;
    (void)ParseReceiptPayload(*msg, &index, &receipt);
  }
  // The grammar-ish generator must actually exercise the success path.
  EXPECT_GT(parsed_ok, 100u);

  // Numeric `values=` lists, mutated byte by byte: the in-place number
  // reader must never read past its token, and whatever it accepts must
  // re-encode and re-parse to the same bits.
  static const char kNumberBytes[] = "0123456789.-+eE,xpinfa% ";
  uint64_t values_ok = 0;
  uint64_t values_refused = 0;
  for (uint64_t iter = 0; iter < 2000; ++iter) {
    Random rng = root.Fork(2000 + iter);
    QueryResponse response;
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 8));
    for (size_t v = 0; v < n; ++v) {
      response.values.push_back(rng.Bernoulli(0.5) ? rng.Laplace(100.0)
                                                   : rng.UniformInt(-9, 9));
    }
    std::string payload = EncodeResultPayload(iter, response);
    const size_t start = payload.find(" values=") + 8;
    size_t end = payload.find(' ', start);
    const int edits = static_cast<int>(rng.UniformInt(1, 4));
    for (int e = 0; e < edits; ++e) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(start),
                         static_cast<int64_t>(end)));
      const char c =
          rng.Bernoulli(0.8)
              ? kNumberBytes[rng.UniformInt(0, sizeof(kNumberBytes) - 2)]
              : static_cast<char>(rng.UniformInt(0, 255));
      switch (rng.UniformInt(0, 2)) {
        case 0:  // insert
          payload.insert(at, 1, c);
          ++end;
          break;
        case 1:  // delete
          if (at < end) {
            payload.erase(at, 1);
            --end;
          }
          break;
        default:  // replace
          if (at < end) payload[at] = c;
          break;
      }
    }
    auto msg = ParseWireMessage(payload);
    if (!msg.ok()) continue;
    auto parsed = ParseResultPayload(*msg);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << "iteration " << iter;
      ++values_refused;
      continue;
    }
    ++values_ok;
    auto again_msg =
        ParseWireMessage(EncodeResultPayload(iter, parsed->second));
    ASSERT_TRUE(again_msg.ok()) << "iteration " << iter;
    auto again = ParseResultPayload(*again_msg);
    ASSERT_TRUE(again.ok()) << "iteration " << iter;
    ASSERT_EQ(again->second.values.size(), parsed->second.values.size());
    for (size_t v = 0; v < parsed->second.values.size(); ++v) {
      const double a = parsed->second.values[v];
      const double b = again->second.values[v];
      ASSERT_TRUE(std::memcmp(&a, &b, sizeof(a)) == 0 ||
                  (std::isnan(a) && std::isnan(b)))
          << "iteration " << iter << " value " << v;
    }
  }
  // Both the accepting and the refusing paths were exercised.
  EXPECT_GT(values_ok, 100u);
  EXPECT_GT(values_refused, 100u);
}

TEST(NetFrameFuzzTest, EscapeRoundTripsArbitraryBytes) {
  Random root(kSeed + 4);
  for (uint64_t iter = 0; iter < 1000; ++iter) {
    Random rng = root.Fork(iter);
    const std::string raw =
        RandomBytes(rng, static_cast<size_t>(rng.UniformInt(0, 128)));
    const std::string escaped = EscapeWireField(raw);
    for (unsigned char c : escaped) {
      ASSERT_TRUE(c > 0x20 && c < 0x7f) << "iteration " << iter;
    }
    auto back = UnescapeWireField(escaped);
    ASSERT_TRUE(back.ok()) << "iteration " << iter;
    ASSERT_EQ(*back, raw) << "iteration " << iter;
  }
}

TEST(NetFrameFuzzTest, DeterministicEdgeCases) {
  // Oversized length prefix poisons with a structured error.
  FrameDecoder decoder;
  const char oversized[4] = {0x7f, 0x00, 0x00, 0x00};  // ~2 GiB claim
  decoder.Feed(oversized, sizeof(oversized));
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error().code(), StatusCode::kInvalidArgument);
  // Sticky.
  decoder.Feed("more", 4);
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Result::kError);

  // A partial frame waits; the rest completes it.
  FrameDecoder partial;
  const std::string frame = EncodeFrame("hello");
  partial.Feed(frame.data(), 6);
  EXPECT_EQ(partial.Next(&payload), FrameDecoder::Result::kNeedMore);
  partial.Feed(frame.data() + 6, frame.size() - 6);
  EXPECT_EQ(partial.Next(&payload), FrameDecoder::Result::kFrame);
  EXPECT_EQ(payload, "hello");
  EXPECT_EQ(partial.Next(&payload), FrameDecoder::Result::kNeedMore);

  // Zero-length frames are legal at the framing layer (the protocol
  // layer rejects the empty message).
  FrameDecoder empty;
  const std::string zero = EncodeFrame("");
  empty.Feed(zero.data(), zero.size());
  EXPECT_EQ(empty.Next(&payload), FrameDecoder::Result::kFrame);
  EXPECT_EQ(payload, "");
  EXPECT_EQ(ParseWireMessage("").status().code(),
            StatusCode::kInvalidArgument);

  // The exact cap is legal; one byte past it is not.
  const std::string at_cap(kMaxFramePayload, 'x');
  FrameDecoder cap_ok;
  const std::string cap_frame = EncodeFrame(at_cap);
  cap_ok.Feed(cap_frame.data(), cap_frame.size());
  EXPECT_EQ(cap_ok.Next(&payload), FrameDecoder::Result::kFrame);
  EXPECT_EQ(payload.size(), kMaxFramePayload);

  FrameDecoder cap_over;
  const uint32_t over = static_cast<uint32_t>(kMaxFramePayload) + 1;
  const char over_prefix[4] = {
      static_cast<char>((over >> 24) & 0xff),
      static_cast<char>((over >> 16) & 0xff),
      static_cast<char>((over >> 8) & 0xff),
      static_cast<char>(over & 0xff)};
  cap_over.Feed(over_prefix, sizeof(over_prefix));
  EXPECT_EQ(cap_over.Next(&payload), FrameDecoder::Result::kError);
}

TEST(NetFrameFuzzTest, QuantilesQsListIsBoundCheckedAtParseTime) {
  // The `qs=` list must be rejected STRUCTURALLY at parse time — empty,
  // out-of-[0,1], or non-strictly-increasing lists never reach
  // admission (where they would be refused only after the request is
  // already minted). This is the wire-facing surface: a daemon parses
  // hostile batch text straight off a frame.
  auto expect_invalid = [](const std::string& qs) {
    auto requests =
        ParseBatchRequests("quantiles eps=0.25 qs=" + qs + "\n");
    ASSERT_FALSE(requests.ok()) << "qs=" << qs;
    EXPECT_EQ(requests.status().code(), StatusCode::kInvalidArgument)
        << "qs=" << qs;
    EXPECT_NE(requests.status().message().find("'qs'"), std::string::npos)
        << requests.status().ToString();
  };
  expect_invalid("");         // present-but-empty list
  expect_invalid("0.5,0.2");  // non-monotone
  expect_invalid("0.5,0.5");  // must be STRICTLY increasing
  expect_invalid("1.5");      // out of [0, 1]
  expect_invalid("-0.1");
  expect_invalid("nan");      // non-finite never parses
  expect_invalid(",0.5");     // leading comma -> empty token

  // The closed endpoints are legal, as is omitting qs entirely.
  EXPECT_TRUE(ParseBatchRequests("quantiles eps=0.25 qs=0,0.5,1\n").ok());
  EXPECT_TRUE(ParseBatchRequests("quantiles eps=0.25\n").ok());

  // Seeded fuzz: the parser's accept/reject decision must exactly match
  // the declared grammar (finite doubles, strictly increasing, within
  // [0, 1], non-empty) — and never crash on any generated list.
  Random root(kSeed + 5);
  uint64_t accepted = 0;
  for (uint64_t iter = 0; iter < 2000; ++iter) {
    Random rng = root.Fork(iter);
    const int n = static_cast<int>(rng.UniformInt(1, 4));
    std::vector<double> values;
    std::string qs;
    for (int i = 0; i < n; ++i) {
      // Mostly in-range draws so ascending in-range lists actually
      // occur; the tails exercise the bound checks.
      const double v = rng.Bernoulli(0.8) ? rng.Uniform(0.0, 1.0)
                                          : rng.Uniform(-0.5, 1.5);
      values.push_back(v);
      if (i > 0) qs += ",";
      qs += std::to_string(v);  // fixed 6-decimal tokens, always finite
    }
    // What the parser actually sees: the values after one decimal
    // round-trip (to_string may collapse close neighbours to equal
    // tokens, which the strict-monotonicity check must then reject).
    std::vector<double> seen;
    for (double v : values) seen.push_back(std::stod(std::to_string(v)));
    bool valid = true;
    for (size_t i = 0; i < seen.size(); ++i) {
      if (seen[i] < 0.0 || seen[i] > 1.0) valid = false;
      if (i > 0 && seen[i] <= seen[i - 1]) valid = false;
    }
    auto requests =
        ParseBatchRequests("quantiles eps=0.25 qs=" + qs + "\n");
    ASSERT_EQ(requests.ok(), valid)
        << "iteration " << iter << " qs=" << qs << ": "
        << requests.status().ToString();
    if (requests.ok()) ++accepted;
  }
  // The generator must exercise both verdicts heavily.
  EXPECT_GT(accepted, 200u);
  EXPECT_LT(accepted, 1800u);
}

TEST(NetFrameFuzzTest, UintFieldsRejectSignAndWhitespaceSmuggling) {
  // strtoull skips leading whitespace and wraps negatives, so the
  // parser must insist on a leading digit: an escaped " -5" is
  // malformed, not 18446744073709551611.
  auto expect_bad = [](const std::string& payload) {
    auto msg = ParseWireMessage(payload);
    ASSERT_TRUE(msg.ok()) << payload;
    EXPECT_EQ(GetUintField(*msg, "n").status().code(),
              StatusCode::kInvalidArgument)
        << payload;
  };
  expect_bad("X n=%20-5");  // unescapes to " -5"
  expect_bad("X n=%09-5");  // unescapes to "\t-5"
  expect_bad("X n=-5");
  expect_bad("X n=+5");
  expect_bad("X n=5x");

  auto msg = ParseWireMessage("X n=42");
  ASSERT_TRUE(msg.ok());
  auto value = GetUintField(*msg, "n");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42u);
}

}  // namespace
}  // namespace blowfish
