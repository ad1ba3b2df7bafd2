//===- tests/support/JsonTest.cpp - Minimal JSON reader/writer tests ----------===//

#include "support/Json.h"

#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

using namespace igdt;

namespace {

/// The number formatting the writer has always produced: "%lld" for
/// integral values below 9e15 in magnitude, "%.17g" otherwise.
std::string printfNumber(double Num) {
  if (std::floor(Num) == Num && std::abs(Num) < 9e15)
    return formatString("%lld", (long long)Num);
  return formatString("%.17g", Num);
}

/// The writer as it was before it appended into one buffer: one string
/// per node, concatenated on the way up.
std::string concatenatingDump(const JsonValue &V) {
  switch (V.K) {
  case JsonValue::Kind::Null:
    return "null";
  case JsonValue::Kind::Bool:
    return V.B ? "true" : "false";
  case JsonValue::Kind::Number:
    return printfNumber(V.Num);
  case JsonValue::Kind::String:
    return "\"" + jsonEscape(V.Str) + "\"";
  case JsonValue::Kind::Array: {
    std::string Out = "[";
    for (std::size_t I = 0; I < V.Arr.size(); ++I)
      Out += (I ? "," : "") + concatenatingDump(V.Arr[I]);
    return Out + "]";
  }
  case JsonValue::Kind::Object: {
    std::string Out = "{";
    for (std::size_t I = 0; I < V.Obj.size(); ++I)
      Out += (I ? ",\"" : "\"") + jsonEscape(V.Obj[I].first) +
             "\":" + concatenatingDump(V.Obj[I].second);
    return Out + "}";
  }
  }
  return "null";
}

double fromBits(std::uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

/// A fixed-seed sample of finite doubles: edge values, random bit
/// patterns (every exponent, subnormals included), a uniform range, and
/// values straddling the 9e15 integer boundary.
std::vector<double> numberSample() {
  std::vector<double> Sample = {0.0,
                                -0.0,
                                1.0,
                                -1.0,
                                0.1,
                                1.5,
                                1e-7,
                                9e15,
                                -9e15,
                                std::nextafter(9e15, 0.0),
                                std::nextafter(9e15, 1e16),
                                -std::nextafter(9e15, 0.0),
                                8999999999999999.0,
                                123456789012345678.0,
                                DBL_TRUE_MIN,
                                -DBL_TRUE_MIN,
                                DBL_MIN,
                                -DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX,
                                std::nextafter(DBL_MIN, 0.0)};
  std::mt19937_64 Rng(0x1d7a5eedull);
  for (int I = 0; I < 60000; ++I) {
    double D = fromBits(Rng());
    if (std::isfinite(D))
      Sample.push_back(D);
  }
  for (int I = 0; I < 40000; ++I) {
    double Unit = double(Rng() >> 11) * 0x1p-53;
    Sample.push_back(-1e6 + 2e6 * Unit);
  }
  for (int I = 0; I < 10000; ++I) {
    double Near = 9e15 + double(std::int64_t(Rng() % 2001) - 1000);
    Sample.push_back(I % 2 ? Near : -Near);
    Sample.push_back(double(std::int64_t(Rng() >> 12)) + (I % 3) * 0.25);
  }
  return Sample;
}

} // namespace

TEST(JsonTest, DumpsObjectsInInsertionOrder) {
  JsonValue V = JsonValue::object();
  V.set("b", JsonValue::number(2))
      .set("a", JsonValue::string("x"))
      .set("flag", JsonValue::boolean(true))
      .set("none", JsonValue::null());
  EXPECT_EQ(V.dump(), "{\"b\":2,\"a\":\"x\",\"flag\":true,\"none\":null}");
}

TEST(JsonTest, IntegersPrintWithoutFraction) {
  JsonValue A = JsonValue::array();
  A.push(JsonValue::number(42))
      .push(JsonValue::number(-3))
      .push(JsonValue::number(1.5));
  EXPECT_EQ(A.dump(), "[42,-3,1.5]");
}

TEST(JsonTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(jsonEscape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  JsonValue V = JsonValue::string("line\nbreak");
  EXPECT_EQ(V.dump(), "\"line\\nbreak\"");
}

TEST(JsonTest, RoundTripsThroughParse) {
  JsonValue V = JsonValue::object();
  V.set("name", JsonValue::string("bytecodePrim_add"))
      .set("count", JsonValue::number(17))
      .set("ok", JsonValue::boolean(false));
  JsonValue Inner = JsonValue::array();
  Inner.push(JsonValue::string("x")).push(JsonValue::number(2));
  V.set("items", std::move(Inner));

  auto Parsed = JsonValue::parse(V.dump());
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(Parsed->stringOr("name", ""), "bytecodePrim_add");
  EXPECT_EQ(Parsed->numberOr("count", 0), 17);
  EXPECT_FALSE(Parsed->boolOr("ok", true));
  const JsonValue *Items = Parsed->find("items");
  ASSERT_NE(Items, nullptr);
  ASSERT_EQ(Items->Arr.size(), 2u);
  EXPECT_EQ(Items->Arr[0].Str, "x");
  EXPECT_EQ(Items->Arr[1].Num, 2);
}

TEST(JsonTest, ParseHandlesWhitespaceAndNesting) {
  auto V = JsonValue::parse(
      "  { \"a\" : [ 1 , { \"b\" : \"c\\u0041\" } , null ] }  ");
  ASSERT_TRUE(V.has_value());
  const JsonValue *A = V->find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_EQ(A->Arr.size(), 3u);
  EXPECT_EQ(A->Arr[1].stringOr("b", ""), "cA");
  EXPECT_EQ(A->Arr[2].K, JsonValue::Kind::Null);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\":}").has_value());
  EXPECT_FALSE(JsonValue::parse("[1,2,]trailing").has_value());
  EXPECT_FALSE(JsonValue::parse("").has_value());
  EXPECT_FALSE(JsonValue::parse("\"unterminated").has_value());
}

TEST(JsonTest, TypedAccessorsFallBackOnWrongTypes) {
  auto V = JsonValue::parse("{\"n\":\"text\",\"s\":7}");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->numberOr("n", -1), -1);
  EXPECT_EQ(V->stringOr("s", "dflt"), "dflt");
  EXPECT_EQ(V->numberOr("missing", 9), 9);
}

TEST(JsonTest, NumbersDumpExactlyAsPrintfFormatted) {
  std::vector<double> Sample = numberSample();
  ASSERT_GE(Sample.size(), 100000u);
  std::size_t Mismatches = 0;
  for (double D : Sample) {
    std::string Got = JsonValue::number(D).dump();
    std::string Want = printfNumber(D);
    if (Got != Want && ++Mismatches <= 5)
      ADD_FAILURE() << formatString("%a", D) << ": dumped " << Got
                    << ", printf gave " << Want;
  }
  EXPECT_EQ(Mismatches, 0u);
}

TEST(JsonTest, NestedValuesDumpAsConcatenatedNodes) {
  std::vector<double> Sample = numberSample();
  JsonValue Root = JsonValue::object();
  for (std::size_t Chunk = 0; Chunk < 64; ++Chunk) {
    JsonValue Row = JsonValue::object();
    JsonValue Numbers = JsonValue::array();
    for (std::size_t I = Chunk; I < Sample.size(); I += 997)
      Numbers.push(JsonValue::number(Sample[I]));
    JsonValue Inner = JsonValue::array();
    Inner.push(JsonValue::array())
        .push(JsonValue::object())
        .push(JsonValue::null())
        .push(JsonValue::boolean(Chunk % 2 == 0))
        .push(JsonValue::string("tab\there \"q\" \\ \x01\x1f"));
    Row.set("n", std::move(Numbers))
        .set("in\nner", std::move(Inner))
        .set("", JsonValue::string(""));
    Root.set(formatString("row%zu", Chunk), std::move(Row));
  }
  EXPECT_EQ(Root.dump(), concatenatingDump(Root));
}

TEST(JsonTest, NonFiniteNumbersDumpAsNullAndRoundTrip) {
  JsonValue A = JsonValue::array();
  A.push(JsonValue::number(std::numeric_limits<double>::quiet_NaN()))
      .push(JsonValue::number(-std::numeric_limits<double>::quiet_NaN()))
      .push(JsonValue::number(std::numeric_limits<double>::infinity()))
      .push(JsonValue::number(-std::numeric_limits<double>::infinity()))
      .push(JsonValue::number(2));
  EXPECT_EQ(A.dump(), "[null,null,null,null,2]");
  auto Parsed = JsonValue::parse(A.dump());
  ASSERT_TRUE(Parsed.has_value());
  ASSERT_EQ(Parsed->Arr.size(), 5u);
  EXPECT_EQ(Parsed->Arr[0].K, JsonValue::Kind::Null);
  EXPECT_EQ(Parsed->Arr[4].Num, 2);
}

TEST(JsonTest, ParseReadsSubnormals) {
  auto V = JsonValue::parse("[4.9406564584124654e-324,2.2250738585072009e-308]");
  ASSERT_TRUE(V.has_value());
  ASSERT_EQ(V->Arr.size(), 2u);
  EXPECT_EQ(V->Arr[0].Num, DBL_TRUE_MIN);
  EXPECT_EQ(V->Arr[1].Num, std::nextafter(DBL_MIN, 0.0));
}

TEST(JsonTest, FiniteNumbersRoundTripBitExactly) {
  for (double D : numberSample()) {
    auto V = JsonValue::parse(JsonValue::number(D).dump());
    ASSERT_TRUE(V.has_value()) << JsonValue::number(D).dump();
    ASSERT_EQ(V->K, JsonValue::Kind::Number);
    // -0 dumps as "0"; every other value comes back bit for bit.
    if (D == 0)
      EXPECT_EQ(V->Num, 0.0);
    else
      EXPECT_EQ(std::memcmp(&V->Num, &D, sizeof(D)), 0)
          << JsonValue::number(D).dump();
  }
}

TEST(JsonTest, ParseNumberSyntax) {
  auto Plus = JsonValue::parse("+5");
  ASSERT_TRUE(Plus.has_value());
  EXPECT_EQ(Plus->Num, 5);
  auto Exp = JsonValue::parse("[-1.5E+2,3e-2]");
  ASSERT_TRUE(Exp.has_value());
  EXPECT_EQ(Exp->Arr[0].Num, -150);
  EXPECT_EQ(Exp->Arr[1].Num, 3e-2);
  EXPECT_FALSE(JsonValue::parse("+").has_value());
  EXPECT_FALSE(JsonValue::parse("+-5").has_value());
  EXPECT_FALSE(JsonValue::parse("-").has_value());
  EXPECT_FALSE(JsonValue::parse("1e999").has_value());
}
