#include "common/json.h"

#include <cmath>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "json_corpus.h"

namespace dpclustx {
namespace {

using testing_json::EdgeDoubles;
using testing_json::RandomDouble;
using testing_json::RandomObject;
using testing_json::RandomTree;
using testing_json::ReferenceDump;
using testing_json::ReferenceNumber;

TEST(JsonValueTest, ScalarConstruction) {
  EXPECT_TRUE(JsonValue::Null().is_null());
  EXPECT_TRUE(JsonValue::Bool(true).AsBool());
  EXPECT_DOUBLE_EQ(JsonValue::Number(2.5).AsNumber(), 2.5);
  EXPECT_EQ(JsonValue::String("hi").AsString(), "hi");
}

TEST(JsonValueTest, ArrayOperations) {
  JsonValue array = JsonValue::Array();
  array.Append(JsonValue::Number(1));
  array.Append(JsonValue::String("two"));
  ASSERT_EQ(array.size(), 2u);
  EXPECT_DOUBLE_EQ(array.at(size_t{0}).AsNumber(), 1.0);
  EXPECT_EQ(array.at(size_t{1}).AsString(), "two");
}

TEST(JsonValueTest, ObjectOperations) {
  JsonValue object = JsonValue::Object();
  object.Set("k", JsonValue::Number(7));
  EXPECT_TRUE(object.Has("k"));
  EXPECT_FALSE(object.Has("missing"));
  EXPECT_DOUBLE_EQ(object.at("k").AsNumber(), 7.0);
  EXPECT_DOUBLE_EQ(object.GetNumber("k").value(), 7.0);
  EXPECT_FALSE(object.GetNumber("missing").ok());
  EXPECT_FALSE(object.GetString("k").ok());  // wrong type
}

TEST(JsonDumpTest, CompactOutput) {
  JsonValue object = JsonValue::Object();
  object.Set("b", JsonValue::Number(2));
  object.Set("a", JsonValue::Bool(false));
  JsonValue array = JsonValue::Array();
  array.Append(JsonValue::Null());
  array.Append(JsonValue::Number(1.5));
  object.Set("c", std::move(array));
  // Keys are emitted in lexicographic order.
  EXPECT_EQ(object.Dump(), R"({"a":false,"b":2,"c":[null,1.5]})");
}

TEST(JsonDumpTest, StringEscapes) {
  EXPECT_EQ(JsonValue::String("a\"b\\c\nd").Dump(), R"("a\"b\\c\nd")");
}

TEST(JsonDumpTest, IntegersWithoutDecimals) {
  EXPECT_EQ(JsonValue::Number(42).Dump(), "42");
  EXPECT_EQ(JsonValue::Number(-3).Dump(), "-3");
}

TEST(JsonParseTest, RoundTripsComplexDocument) {
  JsonValue object = JsonValue::Object();
  object.Set("name", JsonValue::String("lab_proc"));
  object.Set("count", JsonValue::Number(12345));
  object.Set("ratio", JsonValue::Number(0.12345678901234567));
  object.Set("flag", JsonValue::Bool(true));
  JsonValue nested = JsonValue::Array();
  nested.Append(JsonValue::String("x,y"));
  nested.Append(JsonValue::Null());
  object.Set("values", std::move(nested));
  const std::string dumped = object.Dump();

  const auto parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Dump(), dumped);
}

TEST(JsonParseTest, WhitespaceTolerant) {
  const auto parsed = JsonValue::Parse("  { \"a\" : [ 1 , 2 ] }\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("a").size(), 2u);
}

TEST(JsonParseTest, UnicodeEscape) {
  const auto parsed = JsonValue::Parse(R"("café")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "caf\xC3\xA9");
}

TEST(JsonParseTest, NegativeAndExponentNumbers) {
  const auto parsed = JsonValue::Parse("[-1.5e3, 0.25]");
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->at(size_t{0}).AsNumber(), -1500.0);
  EXPECT_DOUBLE_EQ(parsed->at(size_t{1}).AsNumber(), 0.25);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{'single':1}").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
}

TEST(JsonParseTest, ErrorsIncludeOffset) {
  const auto parsed = JsonValue::Parse("[1, oops]");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("offset"), std::string::npos);
}

// Regression: Number(NaN) used to DPX_CHECK-abort, so any computation that
// produced a NaN took down the whole service while serializing the response.
// Construction must succeed and Dump must emit valid JSON (null).
TEST(JsonNonFiniteTest, NumberAcceptsNonFiniteAndDumpsNull) {
  const JsonValue nan = JsonValue::Number(std::nan(""));
  EXPECT_EQ(nan.Dump(), "null");
  const JsonValue inf =
      JsonValue::Number(std::numeric_limits<double>::infinity());
  EXPECT_EQ(inf.Dump(), "null");
  JsonValue nested = JsonValue::Object();
  nested.Set("x", JsonValue::Number(-std::numeric_limits<double>::infinity()));
  EXPECT_EQ(nested.Dump(), R"({"x":null})");
}

TEST(JsonNonFiniteTest, IsFiniteRecursesIntoContainers) {
  EXPECT_TRUE(JsonValue::Number(1.5).IsFinite());
  EXPECT_TRUE(JsonValue::String("NaN").IsFinite());
  EXPECT_TRUE(JsonValue::Null().IsFinite());
  EXPECT_FALSE(JsonValue::Number(std::nan("")).IsFinite());

  JsonValue deep = JsonValue::Object();
  JsonValue inner = JsonValue::Array();
  inner.Append(JsonValue::Number(1.0));
  inner.Append(JsonValue::Number(std::nan("")));
  deep.Set("bins", std::move(inner));
  EXPECT_FALSE(deep.IsFinite());

  JsonValue clean = JsonValue::Object();
  JsonValue bins = JsonValue::Array();
  bins.Append(JsonValue::Number(1.0));
  clean.Set("bins", std::move(bins));
  EXPECT_TRUE(clean.IsFinite());
}

// The parser never manufactures non-finite numbers: bare NaN/Infinity
// literals are malformed JSON, so hostile requests cannot smuggle one in.
TEST(JsonNonFiniteTest, ParserRejectsNonFiniteLiterals) {
  EXPECT_FALSE(JsonValue::Parse("NaN").ok());
  EXPECT_FALSE(JsonValue::Parse("Infinity").ok());
  EXPECT_FALSE(JsonValue::Parse(R"({"epsilon":NaN})").ok());
  EXPECT_FALSE(JsonValue::Parse(R"({"epsilon":-Infinity})").ok());
}

// ---- streaming writer ----------------------------------------------------

/// Writes `v` through the writer's API call by call — independent of
/// JsonValue::WriteTo's recursion.
void StreamTree(const JsonValue& v, JsonWriter& w) {
  switch (v.type()) {
    case JsonValue::Type::kNull: w.Null(); break;
    case JsonValue::Type::kBool: w.Bool(v.AsBool()); break;
    case JsonValue::Type::kNumber: w.Number(v.AsNumber()); break;
    case JsonValue::Type::kString: w.String(v.AsString()); break;
    case JsonValue::Type::kSerialized: w.Raw(v.Dump()); break;
    case JsonValue::Type::kArray:
      w.BeginArray();
      for (size_t i = 0; i < v.size(); ++i) StreamTree(v.at(i), w);
      w.EndArray();
      break;
    case JsonValue::Type::kObject:
      w.BeginObject();
      for (const std::string& key : v.ObjectKeys()) {
        w.Key(key);
        StreamTree(v.at(key), w);
      }
      w.EndObject();
      break;
  }
}

// Differential: Dump (now a recursion over the writer) and a hand-driven
// writer both reproduce the pre-writer serializer byte for byte.
TEST(JsonWriterTest, MatchesReferenceSerializerOnRandomTrees) {
  std::mt19937_64 rng(20261019);
  for (int i = 0; i < 4000; ++i) {
    const JsonValue tree = RandomTree(rng);
    const std::string reference = ReferenceDump(tree);
    ASSERT_EQ(tree.Dump(), reference) << "tree #" << i;
    std::string streamed;
    JsonWriter writer(&streamed);
    StreamTree(tree, writer);
    ASSERT_EQ(streamed, reference) << "tree #" << i;
    EXPECT_TRUE(writer.finite());
    const StatusOr<JsonValue> parsed = JsonValue::Parse(reference);
    ASSERT_TRUE(parsed.ok()) << reference;
    ASSERT_EQ(parsed->Dump(), reference);
  }
}

// std::to_chars must print exactly what snprintf("%lld" / "%.17g") did.
TEST(JsonWriterTest, NumbersMatchPrintfByteForByte) {
  for (const double d : EdgeDoubles()) {
    EXPECT_EQ(JsonValue::Number(d).Dump(), ReferenceNumber(d)) << d;
    EXPECT_EQ(JsonValue::Number(-d).Dump(), ReferenceNumber(-d)) << -d;
  }
  EXPECT_EQ(JsonValue::Number(-0.0).Dump(), "0");
  EXPECT_EQ(JsonValue::Number(1e15).Dump(), "1000000000000000");
  EXPECT_EQ(JsonValue::Number(4.9406564584124654e-324).Dump(),
            "4.9406564584124654e-324");
  std::mt19937_64 rng(11);
  for (int i = 0; i < 200000; ++i) {
    const double d = RandomDouble(rng);
    ASSERT_EQ(JsonValue::Number(d).Dump(), ReferenceNumber(d)) << d;
  }
}

TEST(JsonWriterTest, EscapesEveryControlByteLikeTheReference) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  EXPECT_EQ(JsonValue::String(all).Dump(),
            ReferenceDump(JsonValue::String(all)));
  EXPECT_EQ(JsonValue::String("\x01\b\f\x1f").Dump(),
            R"("\u0001\u0008\u000c\u001f")");
}

// The envelope merge: an object whose members are pre-serialized dumps,
// plus small envelope keys, dumps exactly like the tree of the whole.
TEST(JsonWriterTest, PreSerializedMembersMergeWithEnvelopeKeysInOrder) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 1000; ++i) {
    JsonValue tree = RandomObject(rng);
    StatusOr<JsonValue> body = JsonValue::SplitDumpedObject(tree.Dump());
    ASSERT_TRUE(body.ok()) << body.status().ToString();
    for (JsonValue* v : {&tree, &*body}) {
      v->Set("cache_hit", JsonValue::Bool(i % 2 == 0));
      v->Set("epsilon_charged", JsonValue::Number(0.1 * i));
      v->Set("id", JsonValue::String("r" + std::to_string(i)));
      v->Set("ok", JsonValue::Bool(true));
    }
    ASSERT_EQ(body->Dump(), tree.Dump());
    JsonValue serialized = tree;
    serialized.SerializeMembers();
    ASSERT_EQ(serialized.Dump(), tree.Dump());
  }
}

TEST(JsonWriterDeathTest, RejectsKeysOutOfOrderOrRepeated) {
  EXPECT_DEATH(
      {
        std::string out;
        JsonWriter writer(&out);
        writer.BeginObject();
        writer.Key("b");
        writer.Null();
        writer.Key("a");
      },
      "out of order");
  EXPECT_DEATH(
      {
        std::string out;
        JsonWriter writer(&out);
        writer.BeginObject();
        writer.Key("a");
        writer.Null();
        writer.Key("a");
      },
      "out of order");
}

// A body built from pre-serialized members must still fail IsFinite when
// its writer met a NaN, so the serving boundary keeps suppressing it.
TEST(JsonNonFiniteTest, PreSerializedMembersCarryTheWritersVerdict) {
  JsonValue body = JsonValue::Object();
  body.Set("attribute", JsonValue::String("a"));
  body.Set("bins", SerializeWith([](JsonWriter& w) {
             w.BeginArray();
             w.Number(1.0);
             w.Number(std::nan(""));
             w.EndArray();
           }));
  EXPECT_FALSE(body.IsFinite());
  EXPECT_EQ(body.Dump(), R"({"attribute":"a","bins":[1,null]})");
  body.Set("cache_hit", JsonValue::Bool(false));
  EXPECT_FALSE(body.IsFinite());

  JsonValue clean = JsonValue::Object();
  clean.Set("bins", SerializeWith([](JsonWriter& w) {
              w.BeginArray();
              w.Number(1.0);
              w.EndArray();
            }));
  EXPECT_TRUE(clean.IsFinite());
  EXPECT_FALSE(JsonValue::Serialized("null", /*finite=*/false).IsFinite());
  EXPECT_TRUE(JsonValue::Serialized("null").IsFinite());
}

}  // namespace
}  // namespace dpclustx
