// The shared JSON reader (sim/json.hpp): one parser behind gputn report,
// gputn analyze, and gputn whatif, with both error disciplines pinned —
// parse() throws std::runtime_error naming a byte offset, try_parse()
// returns nullopt on exactly the same inputs. These behaviors are load-
// bearing: the CLI maps the throw to a nonzero exit for corrupt baseline
// files, and tests use try_parse as a strict validity check on exporters.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "sim/json.hpp"

namespace gputn::sim::json {
namespace {

TEST(JsonReader, ParsesTheExporterSubset) {
  Value v = parse(R"({"name": "x", "n": -2.5e3, "ok": true,
                      "none": null, "list": [1, 2, 3], "nested": {"a": 1}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("name").string, "x");
  EXPECT_DOUBLE_EQ(v.at("n").number, -2500.0);
  EXPECT_TRUE(v.at("ok").boolean);
  EXPECT_EQ(v.at("none").kind, Value::Kind::kNull);
  ASSERT_TRUE(v.at("list").is_array());
  ASSERT_EQ(v.at("list").array->size(), 3u);
  EXPECT_DOUBLE_EQ((*v.at("list").array)[2].number, 3.0);
  EXPECT_DOUBLE_EQ(v.at("nested").at("a").number, 1.0);
  EXPECT_TRUE(v.has("name"));
  EXPECT_FALSE(v.has("absent"));
}

TEST(JsonReader, RoundTripsEscapedStrings) {
  // json_escape output must come back byte-identical through the reader —
  // the report/whatif baselines carry escaped resource names.
  const std::string raw = "a\"b\\c\nd\te\x01f";
  Value v = parse("{\"s\": \"" + json_escape(raw) + "\"}");
  EXPECT_EQ(v.at("s").string, raw);
}

TEST(JsonReader, ThrowsWithByteOffsetOnMalformedInput) {
  for (const char* bad :
       {"{", "{\"a\": }", "[1, 2", "{\"a\" 1}", "tru", "\"unterminated",
        "{\"a\": 1} trailing", "nul", "{\"a\": 01x}", ""}) {
    try {
      parse(bad);
      FAIL() << "no throw for: " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("invalid JSON at byte"),
                std::string::npos)
          << bad;
    }
  }
}

TEST(JsonReader, TryParseMirrorsParse) {
  // Same code path, nullopt discipline: whatever parse() throws on,
  // try_parse() rejects; whatever parse() accepts, try_parse() accepts.
  EXPECT_TRUE(try_parse("{\"a\": [1, true, null]}").has_value());
  EXPECT_FALSE(try_parse("{\"a\": [1, true, null]").has_value());
  EXPECT_FALSE(try_parse("{} {}").has_value());
  EXPECT_FALSE(try_parse("").has_value());
}

TEST(JsonReader, LenientReadersFallBackToTheDefault) {
  // The report-style readers: a present, well-typed field is returned; a
  // missing or wrong-typed one yields the default, never a throw.
  Value v = parse(R"({"n": 2.5, "i": -7.9, "s": "x", "b": true,
                      "huge": 1e30, "null": null, "obj": {}})");
  EXPECT_DOUBLE_EQ(num_or(v, "n"), 2.5);
  EXPECT_DOUBLE_EQ(num_or(v, "absent", 4.0), 4.0);
  EXPECT_DOUBLE_EQ(num_or(v, "s", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(num_or(v, "null"), 0.0);

  EXPECT_EQ(int_or(v, "i"), -7);  // truncates toward zero
  EXPECT_EQ(int_or(v, "absent", 3), 3);
  EXPECT_EQ(int_or(v, "b", 3), 3);
  EXPECT_EQ(int_or(v, "huge", 3), 3);  // does not fit int64

  EXPECT_EQ(str_or(v, "s"), "x");
  EXPECT_EQ(str_or(v, "n"), "");
  EXPECT_EQ(str_or(v, "absent", "dflt"), "dflt");

  EXPECT_TRUE(bool_or(v, "b"));
  EXPECT_FALSE(bool_or(v, "n"));
  EXPECT_TRUE(bool_or(v, "obj", true));
  EXPECT_FALSE(bool_or(v, "absent"));

  // Non-object receivers have no fields at all.
  Value arr = parse("[1, 2]");
  EXPECT_DOUBLE_EQ(num_or(arr, "n", 9.0), 9.0);
  EXPECT_EQ(str_or(arr, "s"), "");
}

}  // namespace
}  // namespace gputn::sim::json
