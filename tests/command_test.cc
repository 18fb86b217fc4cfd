// The command language (RunCommand / ExecuteCommand, src/serve/server.h)
// over its in-process backends: the local shell's single-database
// DatabaseBackend against the sharded InProcessBackend, argument
// validation, and output precision owned by the caller's stream.
//
// Nothing here forks, so the evaluation thread knobs the transcripts set
// (`threads 2`) cannot leak a thread pool into a forked child.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>

#include "src/engine/database.h"
#include "src/engine/shard.h"
#include "src/serve/server.h"

namespace pvcdb {
namespace {

// Drops the per-shard parts of a reply that only the sharded engines
// print: the `tables` row counts per shard and the "(per shard)" plan tag
// of a chain view in `views`.
std::string WithoutShardDetail(const std::string& text) {
  std::string out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    size_t at = line.find("; per shard:");
    if (at != std::string::npos) line = line.substr(0, at) + ")";
    const std::string tag = " (per shard)";
    at = line.find(tag);
    if (at != std::string::npos) line.erase(at, tag.size());
    out += line + "\n";
  }
  return out;
}

// The local shell's backends: a plain Database (DatabaseBackend) and the
// in-process sharded engine at 1, 2 and 4 shards (InProcessBackend) render
// every line of the shell transcripts byte-identically at precision 17 --
// the shell's own `shards n` replay proof, one layer down. At 4 shards
// some shards of `items` (keyed by its two `kind` values) hold no rows.
// The shell-local `shards` lines are rejected alike by every backend.
TEST(CommandTest, DatabaseBackendMatchesInProcessShards) {
  for (const char* script : {"input.txt", "input_ivm.txt"}) {
    SCOPED_TRACE(script);
    std::ifstream input(std::string(PVCDB_SOURCE_DIR) + "/tests/shell_e2e/" +
                        script);
    ASSERT_TRUE(input.good());
    Database db;
    ShardedDatabase one(1);
    ShardedDatabase two(2);
    ShardedDatabase four(4);
    DatabaseBackend single(&db);
    InProcessBackend sharded_one(&one);
    InProcessBackend sharded_two(&two);
    InProcessBackend sharded_four(&four);
    ServeBackend* backends[] = {&single, &sharded_one, &sharded_two,
                                &sharded_four};
    constexpr size_t kBackends = sizeof(backends) / sizeof(backends[0]);
    ServeSession sessions[kBackends];
    std::string line;
    size_t probability_lines = 0;
    while (std::getline(input, line)) {
      // Transcript CSV paths are relative to the repository root.
      const std::string data = " data/";
      size_t at = line.find(data);
      if (at != std::string::npos) {
        line.replace(at, data.size(),
                     std::string(" ") + PVCDB_SOURCE_DIR + "/data/");
      }
      ClientReplyMsg replies[kBackends];
      for (size_t b = 0; b < kBackends; ++b) {
        bool shutdown = false;
        replies[b] =
            ExecuteCommand(backends[b], line, &shutdown, &sessions[b]);
        EXPECT_FALSE(shutdown);
      }
      std::istringstream words(line);
      std::string command;
      words >> command;
      for (size_t b = 1; b < kBackends; ++b) {
        EXPECT_EQ(replies[b].ok, replies[0].ok) << "command: " << line;
        if (command == "tables" || command == "views") {
          EXPECT_EQ(replies[0].text.find("per shard"), std::string::npos);
          EXPECT_EQ(WithoutShardDetail(replies[b].text), replies[0].text)
              << "command: " << line;
        } else {
          EXPECT_EQ(replies[b].text, replies[0].text) << "command: " << line;
        }
      }
      for (size_t p = replies[0].text.find("P[row"); p != std::string::npos;
           p = replies[0].text.find("P[row", p + 1)) {
        ++probability_lines;
      }
    }
    EXPECT_GT(probability_lines, 0u);
    std::vector<size_t> counts = four.ShardRowCounts("items");
    EXPECT_NE(std::find(counts.begin(), counts.end(), 0u), counts.end());
  }
}

// `setprob` ids parse in full and unsigned: std::stoul alone would wrap
// "x-1" to an unknown huge id instead of rejecting the line.
TEST(CommandTest, SetProbRejectsSignedAndPartialIds) {
  Database db;
  DatabaseBackend backend(&db);
  db.AddTupleIndependentTable("t", Schema({{"k", CellType::kInt}}),
                              {{Cell(int64_t{1})}}, {0.5});
  for (const char* line : {"setprob x-1 0.5", "setprob -1 0.5",
                           "setprob x+0 0.5", "setprob +0 0.5",
                           "setprob x 0.5", "setprob x0x 0.5",
                           "setprob x0 0..5", "setprob x0 nan"}) {
    bool shutdown = false;
    ClientReplyMsg reply = ExecuteCommand(&backend, line, &shutdown);
    EXPECT_FALSE(reply.ok) << line;
    EXPECT_EQ(reply.text, "usage: setprob <var> <p in [0,1]>\n") << line;
  }
  bool shutdown = false;
  ClientReplyMsg reply = ExecuteCommand(&backend, "setprob x0 0.25", &shutdown);
  EXPECT_TRUE(reply.ok);
  EXPECT_EQ(reply.text, "P[t#0 = 1] = 0.25\n");
}

// The stream decides the precision: the local shell prints through
// std::cout at 6 digits, the wire reply carries 17.
TEST(CommandTest, PrecisionBelongsToTheStream) {
  Database db;
  DatabaseBackend backend(&db);
  db.AddTupleIndependentTable("t", Schema({{"k", CellType::kInt}}),
                              {{Cell(int64_t{1})}}, {0.1});
  const double p = db.TupleProbability(db.table("t").row(0));
  std::ostringstream p6;
  std::ostringstream p17;
  p6 << "P[row 0] = " << p << "\n";
  p17 << std::setprecision(17) << "P[row 0] = " << p << "\n";
  ASSERT_NE(p6.str(), p17.str());

  bool shutdown = false;
  std::ostringstream local;
  EXPECT_TRUE(RunCommand(&backend, "SELECT * FROM t", &shutdown, nullptr,
                         local));
  EXPECT_NE(local.str().find(p6.str()), std::string::npos) << local.str();
  ClientReplyMsg wire = ExecuteCommand(&backend, "SELECT * FROM t", &shutdown);
  EXPECT_NE(wire.text.find(p17.str()), std::string::npos) << wire.text;
}

// The session-topology commands belong to the local shell's REPL; the
// command language itself rejects them on every backend.
TEST(CommandTest, TopologyCommandsAreShellLocal) {
  Database db;
  DatabaseBackend backend(&db);
  for (const char* line : {"shards 2", "open /nonexistent"}) {
    bool shutdown = false;
    ClientReplyMsg reply = ExecuteCommand(&backend, line, &shutdown);
    EXPECT_FALSE(reply.ok) << line;
    EXPECT_NE(reply.text.find("not available"), std::string::npos) << line;
  }
  bool shutdown = false;
  ClientReplyMsg help = ExecuteCommand(&backend, "help", &shutdown);
  EXPECT_NE(help.text.find("local shell only:"), std::string::npos);
  EXPECT_NE(help.text.find("server only:"), std::string::npos);
}

}  // namespace
}  // namespace pvcdb
