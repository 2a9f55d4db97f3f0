#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "util/common.hpp"

namespace ckptfi {
namespace {

TEST(Json, ScalarConstruction) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Json(2.5).as_double(), 2.5);
  EXPECT_EQ(Json("hi").as_string(), "hi");
}

TEST(Json, IntDoubleInterop) {
  EXPECT_DOUBLE_EQ(Json(3).as_double(), 3.0);
  EXPECT_EQ(Json(3.7).as_int(), 3);
}

TEST(Json, TypeMismatchThrows) {
  EXPECT_THROW(Json(1).as_string(), FormatError);
  EXPECT_THROW(Json("x").as_int(), FormatError);
  EXPECT_THROW(Json().as_bool(), FormatError);
}

TEST(Json, ArrayOps) {
  Json a = Json::array();
  a.push_back(1);
  a.push_back("two");
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.at(0).as_int(), 1);
  EXPECT_EQ(a.at(1).as_string(), "two");
  EXPECT_THROW(a.at(2), FormatError);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json o = Json::object();
  o["zeta"] = 1;
  o["alpha"] = 2;
  o["mid"] = 3;
  const auto& m = o.members();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].first, "zeta");
  EXPECT_EQ(m[1].first, "alpha");
  EXPECT_EQ(m[2].first, "mid");
}

TEST(Json, ObjectAccess) {
  Json o = Json::object();
  o["k"] = 9;
  EXPECT_TRUE(o.contains("k"));
  EXPECT_FALSE(o.contains("absent"));
  EXPECT_EQ(o.at("k").as_int(), 9);
  EXPECT_THROW(o.at("absent"), FormatError);
}

TEST(Json, DumpCompact) {
  Json o = Json::object();
  o["a"] = 1;
  o["b"] = Json::array();
  o["b"].push_back(true);
  EXPECT_EQ(o.dump(), R"({"a":1,"b":[true]})");
}

TEST(Json, DumpStringEscapes) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), R"("a\"b\\c\nd")");
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(Json::parse(R"("s")").as_string(), "s");
}

TEST(Json, ParseNested) {
  const Json j = Json::parse(R"({"a":[1,2,{"b":"c"}],"d":null})");
  EXPECT_EQ(j.at("a").size(), 3u);
  EXPECT_EQ(j.at("a").at(2).at("b").as_string(), "c");
  EXPECT_TRUE(j.at("d").is_null());
}

TEST(Json, ParseEscapes) {
  EXPECT_EQ(Json::parse(R"("a\n\t\"\\")").as_string(), "a\n\t\"\\");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), FormatError);
  EXPECT_THROW(Json::parse("{"), FormatError);
  EXPECT_THROW(Json::parse("[1,]"), FormatError);
  EXPECT_THROW(Json::parse("tru"), FormatError);
  EXPECT_THROW(Json::parse("1 2"), FormatError);
  EXPECT_THROW(Json::parse(R"({"a" 1})"), FormatError);
}

// Hostile nesting must fail cleanly: before the cap, 1 MB of '[' overflowed
// the recursive parser's stack.
TEST(Json, NestingDepthIsCapped) {
  const std::size_t cap = Json::kMaxDepth;
  const auto nested = [](std::size_t depth, char open, char close) {
    return std::string(depth, open) + std::string(depth, close);
  };
  const Json at_cap = Json::parse(nested(cap, '[', ']'));
  EXPECT_TRUE(at_cap.is_array());

  std::string objects;
  for (std::size_t i = 0; i < cap; ++i) objects += "{\"k\":";
  objects += "1" + std::string(cap, '}');
  EXPECT_NO_THROW(Json::parse(objects));

  EXPECT_THROW(Json::parse(nested(cap + 1, '[', ']')), FormatError);
  EXPECT_THROW(Json::parse("{\"k\":" + nested(cap, '[', ']') + "}"),
               FormatError);
  EXPECT_THROW(Json::parse(std::string(1 << 20, '[')), FormatError);
  try {
    Json::parse(std::string(1 << 20, '['));
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 512"),
              std::string::npos)
        << e.what();
  }
  // Depth is per path, not per document: many shallow siblings are fine.
  std::string wide = "[";
  for (std::size_t i = 0; i < 4 * cap; ++i) wide += (i ? ",[[]]" : "[[]]");
  EXPECT_EQ(Json::parse(wide + "]").size(), 4 * cap);
}

TEST(Json, RoundTripPrettyAndCompact) {
  Json o = Json::object();
  o["name"] = "ckpt";
  o["vals"] = Json::array();
  for (int i = 0; i < 5; ++i) o["vals"].push_back(i * 1.5);
  o["nested"] = Json::object();
  o["nested"]["flag"] = false;

  for (int indent : {-1, 2, 4}) {
    const Json back = Json::parse(o.dump(indent));
    EXPECT_EQ(back.dump(), o.dump());
  }
}

TEST(Json, LargeIntsPreserved) {
  const std::int64_t big = 9007199254740993;  // not representable in double
  EXPECT_EQ(Json::parse(Json(big).dump()).as_int(), big);
}

}  // namespace
}  // namespace ckptfi
