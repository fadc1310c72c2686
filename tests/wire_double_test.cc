// Property tests for the wire codec's double path (net/protocol.h).
// RESULT values are written as shortest round-trip text straight into
// the payload and read back in place with std::from_chars:
//
//  * round trip: EncodeResultPayload -> ParseWireMessage ->
//    ParseResultPayload returns every non-NaN value bit-identical (NaN
//    as NaN with its sign), over the edge values and 10^5 seeded random
//    bit patterns, in the values list and in the scalar fields;
//  * old form: a RESULT whose doubles an older peer wrote as %.17g text
//    parses to the same bits;
//  * refused: malformed or never-encoded number text is InvalidArgument.

#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/random.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 20140612;

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::vector<double> EdgeValues() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {0.0,      -0.0,     std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          DBL_MIN,  -DBL_MIN, DBL_MAX,
          -DBL_MAX, inf,      -inf,
          0.1,      -0.1,     1e16,
          1e5,      1e21,     123456789012345680.0,
          nan,      -nan};
}

QueryResponse ResponseWith(std::vector<double> values) {
  QueryResponse response;
  response.label = "h";
  response.sensitivity = 2.0;
  response.cache_hit = true;
  response.values = std::move(values);
  response.receipt.session = "s";
  response.receipt.charge_id = 3;
  response.receipt.charged = 0.1;
  response.receipt.epsilon = 0.1;
  response.receipt.remaining = 0.9;
  response.receipt.budget = 1.0;
  return response;
}

StatusOr<QueryResponse> Decode(const std::string& payload) {
  BLOWFISH_ASSIGN_OR_RETURN(WireMessage msg, ParseWireMessage(payload));
  BLOWFISH_ASSIGN_OR_RETURN(auto parsed, ParseResultPayload(msg));
  return std::move(parsed.second);
}

void ExpectSameBits(double sent, double got, const std::string& where) {
  if (std::isnan(sent)) {
    EXPECT_TRUE(std::isnan(got)) << where;
    EXPECT_EQ(std::signbit(got), std::signbit(sent)) << where;
  } else {
    EXPECT_EQ(Bits(got), Bits(sent)) << where << ": sent " << sent
                                     << ", got " << got;
  }
}

void ExpectSameValues(const std::vector<double>& sent,
                      const std::vector<double>& got) {
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    ExpectSameBits(sent[i], got[i], "values[" + std::to_string(i) + "]");
  }
}

/// The `values=` token of an encoded payload.
std::string ValuesToken(const std::string& payload) {
  const size_t start = payload.find(" values=") + 8;
  return payload.substr(start, payload.find(' ', start) - start);
}

/// `payload` with its values token replaced by `values` (raw wire text).
std::string WithValuesToken(const std::string& payload,
                            const std::string& values) {
  const size_t start = payload.find(" values=") + 8;
  const size_t end = payload.find(' ', start);
  return payload.substr(0, start) + values + payload.substr(end);
}

std::string OldText(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

TEST(WireDoubleTest, EdgeValuesRoundTripBitExactly) {
  const std::vector<double> edges = EdgeValues();
  const std::string payload = EncodeResultPayload(7, ResponseWith(edges));
  auto back = Decode(payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameValues(edges, back->values);

  // Every scalar double field carries the same values bit-exactly.
  for (double value : edges) {
    QueryResponse response = ResponseWith({});
    response.sensitivity = value;
    response.receipt.charged = value;
    response.receipt.epsilon = value;
    response.receipt.remaining = value;
    response.receipt.budget = value;
    auto scalar = Decode(EncodeResultPayload(0, response));
    ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
    ExpectSameBits(value, scalar->sensitivity, "sens");
    ExpectSameBits(value, scalar->receipt.charged, "charged");
    ExpectSameBits(value, scalar->receipt.epsilon, "eps");
    ExpectSameBits(value, scalar->receipt.remaining, "remaining");
    ExpectSameBits(value, scalar->receipt.budget, "budget");

    auto metric = ParseWireMessage(EncodeMetricPayload("m", value));
    ASSERT_TRUE(metric.ok());
    auto sample = ParseMetricPayload(*metric);
    ASSERT_TRUE(sample.ok()) << sample.status().ToString();
    ExpectSameBits(value, sample->second, "METRIC value");
  }
}

TEST(WireDoubleTest, RandomBitPatternsRoundTripBitExactly) {
  Random rng(kSeed);
  size_t nans = 0;
  for (int frame = 0; frame < 10; ++frame) {
    std::vector<double> values(10000);
    for (double& v : values) {
      v = FromBits(rng.engine()());
      if (std::isnan(v)) ++nans;
    }
    const std::string payload = EncodeResultPayload(0, ResponseWith(values));
    // Numbers are written raw: the list holds nothing to escape.
    const std::string token = ValuesToken(payload);
    EXPECT_EQ(EscapeWireField(token), token);
    auto back = Decode(payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectSameValues(values, back->values);
  }
  EXPECT_GT(nans, 0u);  // the NaN branch was exercised
}

TEST(WireDoubleTest, EmptyValuesListIsEmpty) {
  auto back = Decode(EncodeResultPayload(0, ResponseWith({})));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->values.empty());
}

TEST(WireDoubleTest, OldPrintfTextParsesToTheSameBits) {
  std::vector<double> values = EdgeValues();
  Random rng(kSeed + 1);
  for (int i = 0; i < 1000; ++i) values.push_back(FromBits(rng.engine()()));
  std::string old_list;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) old_list += ',';
    old_list += OldText(values[i]);
  }
  const QueryResponse response = ResponseWith(values);
  const std::string payload = EncodeResultPayload(0, response);
  std::string old_payload = WithValuesToken(payload, old_list);
  // The scalar fields in the old form too.
  const std::string new_eps = " eps=0.1 ";
  ASSERT_NE(old_payload.find(new_eps), std::string::npos) << old_payload;
  old_payload.replace(old_payload.find(new_eps), new_eps.size(),
                      " eps=" + OldText(0.1) + " ");
  ASSERT_NE(old_payload, payload);

  auto back = Decode(old_payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameValues(values, back->values);
  ExpectSameBits(0.1, back->receipt.epsilon, "eps");
  // Read back and re-encoded, the old frame is the new frame.
  EXPECT_EQ(EncodeResultPayload(0, *back), payload);
}

TEST(WireDoubleTest, MalformedValueListsAreRefused) {
  const std::string payload =
      EncodeResultPayload(0, ResponseWith({1.0, 2.0}));
  for (const char* bad :
       {"1,", ",1", "1,,2", ",", "%201", "1%20", "+1", "1,+2", "0x1p3",
        "1,0x1p3", "1e400", "-1e400", "1.5x", "1,2x,3", "1e", "--1",
        "1;2", "%2C"}) {
    auto msg = ParseWireMessage(WithValuesToken(payload, bad));
    ASSERT_TRUE(msg.ok()) << bad << ": " << msg.status().ToString();
    auto parsed = ParseResultPayload(*msg);
    ASSERT_FALSE(parsed.ok()) << "values=" << bad << " parsed";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(WireDoubleTest, MalformedScalarDoublesAreRefused) {
  const std::string payload = EncodeResultPayload(0, ResponseWith({}));
  const std::string sens = " sens=2 ";
  ASSERT_NE(payload.find(sens), std::string::npos) << payload;
  for (const char* bad : {"", "+2", "%202", "2%20", "0x2p0", "1e400", "2x",
                          "2,3"}) {
    std::string edited = payload;
    edited.replace(edited.find(sens), sens.size(),
                   std::string(" sens=") + bad + " ");
    auto msg = ParseWireMessage(edited);
    ASSERT_TRUE(msg.ok()) << bad << ": " << msg.status().ToString();
    auto parsed = ParseResultPayload(*msg);
    ASSERT_FALSE(parsed.ok()) << "sens=" << bad << " parsed";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

}  // namespace
}  // namespace blowfish
