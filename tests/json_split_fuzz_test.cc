// Seeded differential fuzz of JsonValue::SplitDumpedObject, the scanner a
// release-cache hit uses instead of parsing the cached body.
//
// GCC ships no libFuzzer, so the test mutates a corpus itself: the real
// response lines of tests/data/release_golden (explain, hist and budget
// bodies, errors, traced envelopes) plus random Dump() trees with edge
// numbers, control bytes and UTF-8. Each mutant — byte flips, inserted
// structural bytes, deletions, duplicated or swapped spans, truncations —
// must either be refused or split into members whose Dump() is the input
// byte for byte and equals Parse(input)->Dump(); and every input that is
// exactly the Dump() of a parsed object must be accepted. scripts/check.sh
// runs this under ASan+UBSan: cached bytes come back from snapshots on
// disk.

#include <cstdint>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "json_corpus.h"

namespace dpclustx {
namespace {

std::vector<std::string> Corpus() {
  std::vector<std::string> corpus;
  std::ifstream in(DPX_TEST_DATA_DIR "/release_golden/responses.jsonl");
  for (std::string line; std::getline(in, line);) corpus.push_back(line);
  EXPECT_GT(corpus.size(), 50u) << "golden responses missing";
  std::mt19937_64 rng(314159);
  for (int i = 0; i < 300; ++i) {
    corpus.push_back(testing_json::RandomObject(rng).Dump());
  }
  corpus.push_back("{}");
  return corpus;
}

std::string Mutate(const std::string& input, std::mt19937_64& rng) {
  static const char kBytes[] = {'"', '\\', '{', '}', '[', ']', ',', ':',
                                ' ', '\n', '0', '1', '9', '-', '+', '.',
                                'e', 'E', 'u', 'n', 't', 'f', 'a', '\x01',
                                '\x7f', '\xc3'};
  std::string s = input;
  for (int edits = 1 + static_cast<int>(rng() % 3); edits > 0; --edits) {
    const size_t pos = s.empty() ? 0 : rng() % s.size();
    const char byte = kBytes[rng() % sizeof(kBytes)];
    switch (rng() % 7) {
      case 0:  // overwrite
        if (!s.empty()) s[pos] = byte;
        break;
      case 1:  // insert
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos), byte);
        break;
      case 2:  // delete a short span
        if (!s.empty()) s.erase(pos, 1 + rng() % 4);
        break;
      case 3: {  // duplicate a span in place
        const std::string span = s.substr(pos, 1 + rng() % 16);
        s.insert(pos, span);
        break;
      }
      case 4:  // swap two bytes
        if (s.size() > 1) std::swap(s[pos], s[rng() % s.size()]);
        break;
      case 5:  // truncate
        s.resize(pos);
        break;
      default:  // flip one bit
        if (!s.empty()) {
          s[pos] = static_cast<char>(s[pos] ^ (1 << (rng() % 8)));
        }
        break;
    }
  }
  return s;
}

/// The contract, checked on one input. Returns whether the scanner accepted.
bool CheckOne(const std::string& text) {
  const StatusOr<JsonValue> split = JsonValue::SplitDumpedObject(text);
  const StatusOr<JsonValue> parsed = JsonValue::Parse(text);
  const bool canonical = parsed.ok() &&
                         parsed->type() == JsonValue::Type::kObject &&
                         parsed->Dump() == text;
  EXPECT_EQ(split.ok(), canonical)
      << (split.ok() ? "accepted non-canonical input: "
                     : "refused canonical input (" +
                           split.status().ToString() + "): ")
      << text;
  if (split.ok() && canonical) {
    EXPECT_EQ(split->Dump(), text);
    EXPECT_EQ(split->ObjectKeys(), parsed->ObjectKeys()) << text;
  }
  return split.ok();
}

TEST(JsonSplitFuzzTest, CorpusIsAcceptedVerbatim) {
  for (const std::string& text : Corpus()) {
    ASSERT_TRUE(CheckOne(text)) << text;
  }
}

TEST(JsonSplitFuzzTest, MutantsAreSplitExactlyOrRefused) {
  const std::vector<std::string> corpus = Corpus();
  std::mt19937_64 rng(271828);
  size_t accepted = 0;
  constexpr int kMutants = 30000;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = Mutate(corpus[rng() % corpus.size()], rng);
    if (CheckOne(mutant)) ++accepted;
    if (::testing::Test::HasFailure()) {
      FAIL() << "mutant #" << i << " broke the contract";
    }
  }
  // Some mutants stay canonical (a digit for a digit, a letter inside a
  // string); the contract is exercised on both sides.
  EXPECT_GT(accepted, 100u);
  EXPECT_LT(accepted, static_cast<size_t>(kMutants));
}

TEST(JsonSplitFuzzTest, RefusesNearMissesDumpNeverWrites) {
  for (const char* text : {
           R"({"a":1} )", R"( {"a":1})", R"({"a": 1})", R"({"b":1,"a":2})",
           R"({"a":1,"a":2})", R"({"a":01})", R"({"a":-0})", R"({"a":1.0})",
           R"({"a":1e2})", R"({"a":0.30000000000000000})", R"({"a":"\/"})",
           R"({"a":"\u0041"})", R"({"a":"\u000A"})", R"({"a":"\u000a"})",
           R"({"a":"\b"})", R"({"a":"\u001F"})", R"({"a":tru})",
           R"({"a":[1,]})", R"({"a":1,})", R"([1])", R"("a")",
           "{\"a\":\"\x01\"}",
           R"({"a":1e999})", R"({"a":+1})", R"({"a":.5})", ""}) {
    EXPECT_FALSE(JsonValue::SplitDumpedObject(text).ok()) << text;
    CheckOne(text);
  }
  for (const char* text :
       {R"({})", R"({"a":"\u001f","b":[{"c":null}]})",
        R"({"a":-1,"b":0.29999999999999999,"c":1.0000000000000001e+300})",
        R"({"\u0001":1,"a":2})", "{\"\xc3\xa9\":true}"}) {
    EXPECT_TRUE(CheckOne(text)) << text;
  }
}

}  // namespace
}  // namespace dpclustx
