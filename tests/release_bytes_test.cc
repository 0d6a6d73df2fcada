// Byte-identity goldens for the engine's release path.
//
// tests/data/release_golden holds a pinned-seed request script
// (requests.jsonl) and the exact bytes a ServiceEngine answered and
// journaled for it: explain, hist and budget responses (one ledger of 68
// rows), their cache-hit repeats, traced requests, denials and errors
// (responses.jsonl), the audit-journal lines (journal.jsonl), and a digest
// of the snapshot saved at the end. The goldens were recorded from the
// tree-building serializer that preceded the streaming writer; any change
// to response, journal or snapshot bytes fails here first.
//
// Traced responses carry wall/CPU timings, so for requests with
// "trace":true the golden and the check both drop the "trace" member (the
// rest of the line, trace_id included, must still match exactly).

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/json.h"
#include "service/service_engine.h"

namespace dpclustx::service {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(ReleaseBytesTest, ResponsesJournalAndSnapshotMatchGoldens) {
  const std::string dir = DPX_TEST_DATA_DIR "/release_golden";
  const std::vector<std::string> requests = ReadLines(dir + "/requests.jsonl");
  const std::vector<std::string> expected = ReadLines(dir + "/responses.jsonl");
  ASSERT_EQ(requests.size(), expected.size());
  ASSERT_FALSE(requests.empty());

  ServiceEngineOptions options;
  options.insecure_deterministic_noise = true;
  options.num_threads = 1;
  ServiceEngine engine(options);
  const std::string scratch = ::testing::TempDir() + "/release_bytes_" +
                              std::to_string(::getpid());
  const std::string journal = scratch + ".journal";
  const std::string snapshot = scratch + ".snapshot";
  std::remove(journal.c_str());
  ASSERT_TRUE(engine.EnableAuditJournal(journal).ok());

  size_t traced = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    std::string response = engine.Handle(requests[i]);
    if (requests[i].find("\"trace\":true") != std::string::npos) {
      StatusOr<JsonValue> parsed = JsonValue::Parse(response);
      ASSERT_TRUE(parsed.ok()) << response;
      ASSERT_TRUE(parsed->Has("trace")) << response;
      EXPECT_EQ(parsed->at("trace").at("name").AsString(), "request");
      parsed->Remove("trace");
      response = parsed->Dump();
      ++traced;
    }
    EXPECT_EQ(response, expected[i])
        << "request #" << i << ": " << requests[i];
  }
  EXPECT_EQ(traced, 3u);

  StatusOr<std::string> journaled = ReadFileToString(journal);
  ASSERT_TRUE(journaled.ok());
  StatusOr<std::string> golden_journal =
      ReadFileToString(dir + "/journal.jsonl");
  ASSERT_TRUE(golden_journal.ok());
  EXPECT_EQ(*journaled, *golden_journal);

  // The snapshot embeds every cached release body and the journal cursor;
  // its 461,726 bytes are pinned by length and FNV-1a digest.
  ASSERT_TRUE(engine.SaveSnapshotToFile(snapshot).ok());
  StatusOr<std::string> saved = ReadFileToString(snapshot);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(saved->size(), 461726u);
  EXPECT_EQ(Fnv1a64(*saved), 0xed51789e713482c4ULL);
  std::remove(journal.c_str());
  std::remove(snapshot.c_str());
}

}  // namespace
}  // namespace dpclustx::service
