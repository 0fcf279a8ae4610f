#include "common/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "common/error.h"
#include "service/serialize.h"

namespace tetris::json {
namespace {

TEST(JsonWriter, FlatObject) {
  Writer w(0);
  w.begin_object();
  w.key("name").value("rd53");
  w.key("qubits").value(7);
  w.key("ok").value(true);
  w.key("nothing").null_value();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"rd53\",\"qubits\":7,\"ok\":true,\"nothing\":null}");
}

TEST(JsonWriter, NestedStructures) {
  Writer w(0);
  w.begin_object();
  w.key("sweep").begin_array();
  w.begin_object().key("threads").value(1u).end_object();
  w.begin_object().key("threads").value(4u).end_object();
  w.end_array();
  w.key("empty_array").begin_array().end_array();
  w.key("empty_object").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"sweep\":[{\"threads\":1},{\"threads\":4}],"
            "\"empty_array\":[],\"empty_object\":{}}");
}

TEST(JsonWriter, PrettyPrintingIndents) {
  Writer w(2);
  w.begin_object();
  w.key("a").value(1);
  w.key("b").begin_array().value(2).end_array();
  w.end_object();
  EXPECT_EQ(w.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(escape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(JsonWriter, DoubleFormattingRoundTrips) {
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(-3.0), "-3");
  // Shortest form that round-trips: 0.1 has no exact binary representation
  // but "0.1" parses back to the same double.
  EXPECT_EQ(format_double(0.1), "0.1");
  double awkward = 0.9929999999999999;
  double parsed = 0.0;
  sscanf(format_double(awkward).c_str(), "%lf", &parsed);
  EXPECT_EQ(parsed, awkward);
  // %g layout at the shortest precision, locale-independent.
  EXPECT_EQ(format_double(100000.0), "1e+05");
  EXPECT_EQ(format_double(123000.0), "1.23e+05");
  EXPECT_EQ(format_double(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(format_double(1e-5), "1e-05");
  // Extremes come back through the strict parser unchanged.
  for (double v : {std::numeric_limits<double>::max(),
                   -std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(parse(format_double(v)).as_number(), v) << format_double(v);
  }
  // Non-finite values serialize as null (no JSON representation).
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonWriter, DeterministicAcrossWriters) {
  auto build = [] {
    Writer w;
    w.begin_object();
    w.key("tvd").value(0.9929999999999999);
    w.key("count").value(std::size_t{384});
    w.end_object();
    return w.str();
  };
  EXPECT_EQ(build(), build());
}

TEST(JsonWriter, StructuralMisuseThrows) {
  {
    Writer w;
    EXPECT_THROW(w.key("k"), InvalidArgument);  // key outside object
  }
  {
    Writer w;
    w.begin_array();
    EXPECT_THROW(w.end_object(), InvalidArgument);  // mismatched close
  }
  {
    Writer w;
    w.begin_object();
    w.key("k");
    EXPECT_THROW(w.end_object(), InvalidArgument);  // dangling key
  }
  {
    Writer w;
    w.begin_object();
    EXPECT_THROW(w.value(1), InvalidArgument);  // value without key
  }
  {
    Writer w;
    w.begin_object();
    EXPECT_THROW(w.str(), InvalidArgument);  // incomplete document
  }
  {
    Writer w;
    w.value(1);
    EXPECT_THROW(w.value(2), InvalidArgument);  // two top-level values
  }
}

TEST(JsonWriter, TopLevelScalar) {
  Writer w;
  w.value("only");
  EXPECT_EQ(w.str(), "\"only\"");
}

// ----------------------------------------------------------------- parser

TEST(JsonParser, ScalarsAndContainers) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-7").as_int(), -7);
  EXPECT_EQ(parse("0").as_int(), 0);
  EXPECT_EQ(parse("0.5").as_number(), 0.5);
  EXPECT_EQ(parse("-1.25e2").as_number(), -125.0);
  EXPECT_EQ(parse("1E+2").as_number(), 100.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");

  Value doc = parse(R"(  {"a": [1, 2.5, "x"], "b": {"c": null}}  )");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.size(), 2u);
  const Value& a = doc.at("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.as_array()[0].as_int(), 1);
  EXPECT_EQ(a.as_array()[1].as_number(), 2.5);
  EXPECT_EQ(a.as_array()[2].as_string(), "x");
  EXPECT_TRUE(doc.at("b").at("c").is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), InvalidArgument);
}

TEST(JsonParser, IntegerVersusDoubleClassification) {
  EXPECT_TRUE(parse("7").is_integer());
  EXPECT_FALSE(parse("7.0").is_integer());
  EXPECT_FALSE(parse("7e0").is_integer());
  EXPECT_THROW(parse("7.0").as_int(), InvalidArgument);
  EXPECT_EQ(parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  // One past int64: still a valid JSON number, but only as a double.
  Value big = parse("9223372036854775808");
  EXPECT_FALSE(big.is_integer());
  EXPECT_EQ(big.as_number(), 9223372036854775808.0);
}

TEST(JsonParser, StringEscapesIncludingUnicode) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d")").as_string(), "a\"b\\c/d");
  EXPECT_EQ(parse(R"("\b\f\n\r\t")").as_string(), "\b\f\n\r\t");
  EXPECT_EQ(parse(R"("\u0041")").as_string(), "A");
  // 2- and 3-byte UTF-8 from BMP escapes.
  EXPECT_EQ(parse(R"("\u00e9")").as_string(), "\xc3\xa9");        // é
  EXPECT_EQ(parse(R"("\u20ac")").as_string(), "\xe2\x82\xac");    // €
  // Surrogate pair -> 4-byte UTF-8 (U+1F600).
  EXPECT_EQ(parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
  // Raw UTF-8 bytes pass through untouched.
  EXPECT_EQ(parse("\"caf\xc3\xa9\"").as_string(), "caf\xc3\xa9");
}

TEST(JsonParser, MalformedInputThrowsParseError) {
  const char* cases[] = {
      "",             // empty input
      "   ",          // whitespace only
      "{",            // unterminated object
      "[1, 2",        // unterminated array
      "{\"a\" 1}",    // missing colon
      "{\"a\": 1,}",  // trailing comma
      "[1,, 2]",      // double comma
      "{a: 1}",       // unquoted key
      "\"abc",        // unterminated string
      "tru",          // truncated literal
      "nulll",        // trailing junk on literal
      "1 2",          // two top-level values
      "01",           // leading zero
      "1.",           // missing fraction digits
      "1e",           // missing exponent digits
      "+1",           // leading plus
      "-",            // bare minus
      ".5",           // missing integer part
      "1e999",        // double overflow
      "\"\\x\"",      // invalid escape
      "\"\\u12\"",    // truncated \u escape
      "\"\\u123g\"",  // non-hex \u digit
      "\"\\ud800\"",  // lone high surrogate
      "\"\\ude00\"",  // lone low surrogate
      "\"\\ud83d\\u0041\"",  // high surrogate + non-surrogate
      "\"\x01\"",     // unescaped control character
      "{\"a\": }",    // missing value
      "// comment",   // comments are not JSON
  };
  for (const char* text : cases) {
    EXPECT_THROW(parse(text), ParseError) << "accepted: " << text;
  }
}

TEST(JsonParser, DepthLimitRejectsDeepNesting) {
  ParseOptions options;
  options.max_depth = 8;
  std::string shallow = "[[[[[[[1]]]]]]]";                  // depth 7: fine
  std::string deep = "[[[[[[[[[1]]]]]]]]]";                 // depth 9: rejected
  EXPECT_NO_THROW(parse(shallow, options));
  EXPECT_THROW(parse(deep, options), ParseError);
  // The default guards against the classic stack-exhaustion payload.
  EXPECT_THROW(parse(std::string(100000, '['), ParseOptions{}), ParseError);
}

TEST(JsonParser, ByteLimitRejectsOversizedDocuments) {
  ParseOptions options;
  options.max_bytes = 16;
  EXPECT_NO_THROW(parse("{\"a\": 1}", options));
  EXPECT_THROW(parse("{\"a\": \"0123456789abc\"}", options), ParseError);
}

TEST(JsonParser, DuplicateKeysKeepFirst) {
  Value doc = parse(R"({"k": 1, "k": 2})");
  EXPECT_EQ(doc.size(), 2u);       // both are retained...
  EXPECT_EQ(doc.at("k").as_int(), 1);  // ...find/at answer the first
}

TEST(JsonParser, TypeMismatchesThrowInvalidArgument) {
  Value doc = parse(R"({"n": 1})");
  EXPECT_THROW(doc.as_array(), InvalidArgument);
  EXPECT_THROW(doc.as_string(), InvalidArgument);
  EXPECT_THROW(doc.at("n").as_bool(), InvalidArgument);
  EXPECT_THROW(doc.at("n").as_object(), InvalidArgument);
  EXPECT_THROW(parse("[1]").find("k"), InvalidArgument);
}

TEST(JsonParser, WriterDocumentsRoundTrip) {
  Writer w(2);
  w.begin_object();
  w.key("name").value("rd53 \"quoted\" \t");
  w.key("tvd").value(0.9929999999999999);
  w.key("count").value(std::uint64_t{18446744073709551615ull});
  w.key("neg").value(-42);
  w.key("flags").begin_array().value(true).value(false).null_value()
      .end_array();
  w.key("nested").begin_object().key("empty").begin_array().end_array()
      .end_object();
  w.end_object();

  Value doc = parse(w.str());
  EXPECT_EQ(doc.at("name").as_string(), "rd53 \"quoted\" \t");
  EXPECT_EQ(doc.at("tvd").as_number(), 0.9929999999999999);
  // uint64 max does not fit int64; the parser keeps it as a double.
  EXPECT_FALSE(doc.at("count").is_integer());
  EXPECT_EQ(doc.at("neg").as_int(), -42);
  ASSERT_EQ(doc.at("flags").size(), 3u);
  EXPECT_EQ(doc.at("flags").as_array()[0].as_bool(), true);
  EXPECT_TRUE(doc.at("flags").as_array()[2].is_null());
  EXPECT_EQ(doc.at("nested").at("empty").size(), 0u);
}

// Round trip of every serialize.h producer: what the service writes, the
// parser must read back field-for-field (this is exactly what a REST
// consumer of the network front-end does).
TEST(JsonParser, SerializeOutputsRoundTrip) {
  lock::FlowResult result;
  result.depth_original = 5;
  result.depth_obfuscated = 5;
  result.gates_original = 6;
  result.gates_obfuscated = 8;
  result.tvd_obfuscated = 0.975;
  result.tvd_restored = 0.02;
  result.accuracy_original = 0.98;
  result.accuracy_restored = 0.97;

  Value flow = parse(service::to_json(result));
  EXPECT_EQ(flow.at("depth_original").as_int(), 5);
  EXPECT_EQ(flow.at("gates_obfuscated").as_int(), 8);
  EXPECT_EQ(flow.at("tvd_restored").as_number(), 0.02);
  EXPECT_EQ(flow.at("split_widths").size(), 2u);

  service::JobOutcome done;
  done.id = 3;
  done.name = "rd53";
  done.seed = 99;
  done.state = service::JobState::kDone;
  done.shots = 1000;
  done.fusion = true;
  done.seconds = 1.5;
  done.result = result;
  for (int indent : {0, 2}) {
    Value doc =
        parse(service::to_json(done, /*include_timing=*/true, indent));
    EXPECT_EQ(doc.at("id").as_int(), 3);
    EXPECT_EQ(doc.at("name").as_string(), "rd53");
    EXPECT_EQ(doc.at("state").as_string(), "done");
    EXPECT_EQ(doc.at("status").at("code").as_string(), "ok");
    EXPECT_EQ(doc.at("sampler").at("shots").as_int(), 1000);
    EXPECT_EQ(doc.at("sampler").at("fusion").as_bool(), true);
    EXPECT_EQ(doc.at("seconds").as_number(), 1.5);
    EXPECT_EQ(doc.at("result").at("accuracy_restored").as_number(), 0.97);
  }
  // Timing off: the field disappears entirely.
  EXPECT_EQ(parse(service::to_json(done, false)).find("seconds"), nullptr);

  service::JobOutcome failed;
  failed.id = 4;
  failed.name = "broken";
  failed.state = service::JobState::kFailed;
  failed.status = {service::StatusCode::kCompileError, "no route"};

  Value batch = parse(service::batch_to_json({done, failed}, /*threads=*/4,
                                             /*wall_seconds=*/2.0));
  EXPECT_EQ(batch.at("schema").as_string(), "tetrislock.batch.v1");
  EXPECT_EQ(batch.at("jobs").as_int(), 2);
  EXPECT_EQ(batch.at("failures").as_int(), 1);
  ASSERT_EQ(batch.at("items").size(), 2u);
  const Value& item1 = batch.at("items").as_array()[1];
  EXPECT_EQ(item1.at("state").as_string(), "failed");
  EXPECT_EQ(item1.at("status").at("code").as_string(), "compile_error");
  EXPECT_EQ(item1.at("status").at("message").as_string(), "no route");
  EXPECT_EQ(item1.find("result"), nullptr);
}

}  // namespace
}  // namespace tetris::json
