// Tests for the minimal JSON substrate (archex::json): parser, writer,
// round-trips, error handling.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "support/json.hpp"
#include "support/rng.hpp"

namespace archex::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const Value v = parse(R"({"a": [1, 2, {"b": true}], "c": null})");
  ASSERT_TRUE(v.is_object());
  const Array& a = v.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].as_number(), 1.0);
  EXPECT_TRUE(a[2].at("b").as_bool());
  EXPECT_TRUE(v.at("c").is_null());
}

TEST(Json, ParsesEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(Json, WhitespaceTolerant) {
  const Value v = parse("  {\n\t\"k\" :\r [ 1 , 2 ]\n}  ");
  EXPECT_EQ(v.at("k").as_array().size(), 2u);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)parse(""), JsonError);
  EXPECT_THROW((void)parse("{"), JsonError);
  EXPECT_THROW((void)parse("[1,]"), JsonError);
  EXPECT_THROW((void)parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW((void)parse("tru"), JsonError);
  EXPECT_THROW((void)parse("\"unterminated"), JsonError);
  EXPECT_THROW((void)parse("1 2"), JsonError);
  EXPECT_THROW((void)parse("nan"), JsonError);
}

TEST(Json, ParseErrorsCarryLineColumnAndByte) {
  // Single-line document: the missing comma is noticed one byte after the
  // separator position (the parser reports where it stopped).
  try {
    (void)parse(R"({"a": 1 "b": 2})");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 1u);
    EXPECT_EQ(e.column(), 10u);
    EXPECT_EQ(e.byte(), 9u);
    EXPECT_NE(std::string(e.what()).find("line 1, column 10 (byte 9)"),
              std::string::npos);
  }

  // Multi-line document: the error position counts newlines.
  try {
    (void)parse("{\n  \"a\": 1,\n  \"b\": ?\n}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.column(), 8u);
    EXPECT_EQ(e.byte(), 19u);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Json, ParseErrorAtEndOfInputPointsPastLastByte) {
  try {
    (void)parse("[1, 2");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 1u);
    EXPECT_EQ(e.byte(), 5u);
  }
  // Every malformed-input error is the position-carrying subtype.
  EXPECT_THROW((void)parse("tru"), JsonParseError);
  EXPECT_THROW((void)parse(""), JsonParseError);
}

TEST(Json, NestingDepthIsBounded) {
  // The deepest accepted nesting parses, arrays and objects alike.
  const std::string deep_ok = std::string(kMaxNestingDepth, '[') +
                              std::string(kMaxNestingDepth, ']');
  EXPECT_NO_THROW((void)parse(deep_ok));
  std::string objects;
  for (int i = 0; i < kMaxNestingDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(kMaxNestingDepth, '}');
  EXPECT_NO_THROW((void)parse(objects));

  // One level deeper fails at the offending bracket.
  try {
    (void)parse(std::string(kMaxNestingDepth + 1, '['));
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 1u);
    EXPECT_EQ(e.byte(), static_cast<std::size_t>(kMaxNestingDepth));
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }

  // A hostile line far past any stack the recursion could survive is a
  // parse error, not a crash; mixed brackets count alike.
  EXPECT_THROW((void)parse(std::string(200000, '[')), JsonParseError);
  std::string mixed;
  for (int i = 0; i < 100000; ++i) mixed += "[{\"k\":";
  EXPECT_THROW((void)parse(mixed), JsonParseError);
}

TEST(Json, TypeMismatchThrows) {
  const Value v = parse("[1]");
  EXPECT_THROW((void)v.as_object(), JsonError);
  EXPECT_THROW((void)v.as_string(), JsonError);
  EXPECT_THROW((void)parse("1.5").as_int(), JsonError);
}

TEST(Json, ObjectAccessHelpers) {
  const Value v = parse(R"({"x": 1})");
  EXPECT_TRUE(v.contains("x"));
  EXPECT_FALSE(v.contains("y"));
  EXPECT_THROW((void)v.at("y"), JsonError);
  EXPECT_DOUBLE_EQ(v.get("y", Value(7.0)).as_number(), 7.0);
}

TEST(Json, DumpCompactAndPretty) {
  const Value v = parse(R"({"b": [1, 2], "a": "x"})");
  // std::map ordering: keys sorted.
  EXPECT_EQ(dump(v), R"({"a":"x","b":[1,2]})");
  const std::string pretty = dump(v, 2);
  EXPECT_NE(pretty.find("\n  \"a\": \"x\""), std::string::npos);
}

TEST(Json, DumpEscapesSpecials) {
  const Value v = Value(std::string("a\"b\\c\nd\x01"));
  EXPECT_EQ(dump(v), "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double n : {0.0, -1.0, 3.14159265358979, 2e-10, 1e15, -7.25}) {
    const Value v = parse(dump(Value(n)));
    EXPECT_DOUBLE_EQ(v.as_number(), n);
  }
}

TEST(Json, RandomRoundTripProperty) {
  Rng rng(2718);
  // Generate random documents, dump, reparse, dump again: fixed point.
  for (int trial = 0; trial < 50; ++trial) {
    // Build a random value tree of bounded depth.
    struct Gen {
      Rng& rng;
      Value value(int depth) {
        const auto pick = rng.next_below(depth >= 3 ? 4 : 6);
        switch (pick) {
          case 0: return Value(nullptr);
          case 1: return Value(rng.next_bernoulli(0.5));
          case 2: return Value(std::floor(rng.next_double() * 1000) / 8);
          case 3: return Value("s" + std::to_string(rng.next_below(100)));
          case 4: {
            Array a;
            const auto n = rng.next_below(4);
            for (std::uint64_t i = 0; i < n; ++i) {
              a.push_back(value(depth + 1));
            }
            return Value(std::move(a));
          }
          default: {
            Object o;
            const auto n = rng.next_below(4);
            for (std::uint64_t i = 0; i < n; ++i) {
              o.emplace("k" + std::to_string(i), value(depth + 1));
            }
            return Value(std::move(o));
          }
        }
      }
    } gen{rng};
    const Value v = gen.value(0);
    const std::string once = dump(v, 2);
    const std::string twice = dump(parse(once), 2);
    EXPECT_EQ(once, twice);
    // Compact form reparses identically too.
    EXPECT_EQ(dump(parse(dump(v))), dump(v));
  }
}

}  // namespace
}  // namespace archex::json
