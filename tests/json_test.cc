// Unit tests for common/json: the one JSON lexer and number/string writer
// behind every payload — LLM wire requests and completions, GALP frames,
// perfbench reports. Pins the bytes the writer emits, the grammar the
// lexer accepts, and its limits.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/json.h"

namespace galois {
namespace {

std::string DumpNumber(double v) { return Json::Number(v).Dump(); }

/// Parses `text` as one number; fails the test on a rejection.
double ParseNumber(const std::string& text) {
  auto parsed = Json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status();
  if (!parsed.ok()) return 0.0;
  EXPECT_TRUE(parsed.value().is_number()) << text;
  return parsed.value().number_value();
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// --- strings ----------------------------------------------------------------

TEST(JsonStringTest, EveryByteRoundTrips) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    auto parsed = Json::Parse(Json::String(one).Dump());
    ASSERT_TRUE(parsed.ok()) << "byte " << b << ": " << parsed.status();
    EXPECT_EQ(one, parsed.value().string_value()) << "byte " << b;
    all += one;
  }
  auto parsed = Json::Parse(Json::String(all).Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(all, parsed.value().string_value());
}

TEST(JsonStringTest, EscapesAreShortOrLowercaseUnicode) {
  EXPECT_EQ("\"a\\\"b\\\\c\"", Json::String("a\"b\\c").Dump());
  EXPECT_EQ("\"\\b\\f\\n\\r\\t\"", Json::String("\b\f\n\r\t").Dump());
  EXPECT_EQ("\"\\u0000\\u001f\"",
            Json::String(std::string("\x00\x1f", 2)).Dump());
  // DEL, non-ASCII bytes and '/' travel raw.
  EXPECT_EQ("\"\x7f\xc3\xa9/\"", Json::String("\x7f\xc3\xa9/").Dump());
  EXPECT_EQ("a\\\"b\\\\c\\n\\u0001", JsonEscape("a\"b\\c\n\x01"));
}

TEST(JsonStringTest, UnicodeEscapesDecodeToUtf8) {
  auto parsed = Json::Parse("\"\\u0041\\u00e9\\u20AC\\u0000\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(std::string("A\xc3\xa9\xe2\x82\xac\x00", 7),
            parsed.value().string_value());
}

TEST(JsonStringTest, EscapedSolidusDecodes) {
  auto parsed = Json::Parse("\"a\\/b\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ("a/b", parsed.value().string_value());
}

TEST(JsonStringTest, BrokenStringsAreRejected) {
  for (const char* text : {"\"abc", "\"ab\\", "\"\\u12\"", "\"\\u12g4\"",
                           "\"\\x\""}) {
    auto parsed = Json::Parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(StatusCode::kParseError, parsed.status().code()) << text;
  }
}

// --- numbers ----------------------------------------------------------------

TEST(JsonNumberTest, IntegralValuesBelow1e15PrintAsIntegers) {
  EXPECT_EQ("0", DumpNumber(0.0));
  EXPECT_EQ("0", DumpNumber(-0.0));
  EXPECT_EQ("-42", DumpNumber(-42.0));
  EXPECT_EQ("999999999999999", DumpNumber(999999999999999.0));
  EXPECT_EQ("-999999999999999", DumpNumber(-999999999999999.0));
  EXPECT_EQ("42", Json::Number(static_cast<int64_t>(42)).Dump());
}

TEST(JsonNumberTest, OtherValuesPrintAt17SignificantDigits) {
  // 1e15 is the first integral value past the integer branch.
  EXPECT_EQ("1000000000000000", DumpNumber(1e15));
  EXPECT_EQ("1e+17", DumpNumber(1e17));
  EXPECT_EQ("0.10000000000000001", DumpNumber(0.1));
  EXPECT_EQ("1.5", DumpNumber(1.5));
  EXPECT_EQ("41.25", DumpNumber(41.25));
  EXPECT_EQ("-2.5", DumpNumber(-2.5));
  EXPECT_EQ("4.9406564584124654e-324", DumpNumber(5e-324));
  EXPECT_EQ("1.7976931348623157e+308", DumpNumber(1.7976931348623157e308));
}

TEST(JsonNumberTest, SampledDoublesRoundTripBitExact) {
  std::mt19937_64 rng(0x5EED);
  std::uniform_real_distribution<double> moderate(-1e6, 1e6);
  std::uniform_int_distribution<int64_t> integral(-(int64_t{1} << 53),
                                                  int64_t{1} << 53);
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) {
    uint64_t bits = rng();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    sample.push_back(v);
    sample.push_back(moderate(rng));
    sample.push_back(static_cast<double>(integral(rng)));
  }
  for (double v : sample) {
    // -0.0 prints as "0" by design; non-finite values are not numbers.
    if (!std::isfinite(v) || v == 0.0) continue;
    const std::string text = DumpNumber(v);
    ASSERT_EQ(Bits(v), Bits(ParseNumber(text))) << text;
  }
}

// --- grammar ----------------------------------------------------------------

TEST(JsonGrammarTest, AcceptsTheLenientNumberForms) {
  EXPECT_EQ(1.0, ParseNumber("01"));
  EXPECT_EQ(1.0, ParseNumber("1."));
  EXPECT_EQ(0.0, ParseNumber("-0"));
  EXPECT_TRUE(std::signbit(ParseNumber("-0")));
  EXPECT_EQ(100000.0, ParseNumber("1E+5"));
  EXPECT_EQ(-0.25, ParseNumber("-2.5e-1"));
}

TEST(JsonGrammarTest, RejectsMalformedInput) {
  for (const char* text :
       {"-", "1e", "+1", ".5", "0x10", "nan", "inf", "-inf", "[1,]",
        "{\"a\":1,}", "{\"a\"}", "{1:2}", "[1 2]", "tru", "nul", "1 2",
        "{} x", "[]]", "", "   ", "\"a\" \"b\""}) {
    auto parsed = Json::Parse(text);
    ASSERT_FALSE(parsed.ok()) << "accepted '" << text << "'";
    EXPECT_EQ(StatusCode::kParseError, parsed.status().code()) << text;
    EXPECT_EQ(0u, parsed.status().message().rfind("json: ", 0))
        << parsed.status();
    EXPECT_NE(std::string::npos, parsed.status().message().find(" at offset "))
        << parsed.status();
  }
}

TEST(JsonGrammarTest, WhitespaceBetweenTokensIsSkipped) {
  auto parsed = Json::Parse(" \t\r\n{ \"a\" : [ 1 , true , null ] ,\n"
                            "\"b\" : { } } \n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ("{\"a\":[1,true,null],\"b\":{}}", parsed.value().Dump());
}

TEST(JsonGrammarTest, DuplicateKeyKeepsFirstPositionAndLastValue) {
  auto parsed = Json::Parse("{\"a\":1,\"b\":2,\"a\":3}");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ((std::vector<std::string>{"a", "b"}), parsed.value().Keys());
  EXPECT_EQ(3.0, parsed.value()["a"].number_value());
  EXPECT_EQ("{\"a\":3,\"b\":2}", parsed.value().Dump());
}

TEST(JsonGrammarTest, DepthCapAllows65NestedArraysAndRejects66) {
  auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  auto ok = Json::Parse(nested(65));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(nested(65), ok.value().Dump());
  auto deep = Json::Parse(nested(66));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(StatusCode::kParseError, deep.status().code());
  EXPECT_NE(std::string::npos,
            deep.status().message().find("nesting too deep"))
      << deep.status();
  // The cap counts values, not brackets: a scalar inside 65 arrays sits
  // one level too deep.
  EXPECT_FALSE(Json::Parse(std::string(65, '[') + "1" + std::string(65, ']'))
                   .ok());
}

TEST(JsonDocumentTest, DumpParseRoundTripsADocument) {
  const std::string text =
      "{\"s\":\"x\\ny\",\"n\":-12.5,\"i\":7,\"b\":false,\"z\":null,"
      "\"a\":[[],{},[1,[2]],{\"k\":\"v\"}]}";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(text, parsed.value().Dump());
}

}  // namespace
}  // namespace galois
