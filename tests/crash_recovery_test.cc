// The durability proof: deterministic crash injection at every WAL record
// boundary +-1 byte, plus real fork/SIGKILL crashes mid-batch. After every
// simulated or real crash, recovery must serve exactly the durable prefix
// of logical mutations, bit-identical to a never-crashed twin session that
// applied only that prefix -- tuple probabilities, view caches and shard
// topology included. Shared fixtures live in tests/durability_testlib.h.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/snapshot.h"
#include "src/util/check.h"
#include "src/util/io.h"
#include "tests/crash_injection.h"
#include "tests/durability_testlib.h"

namespace pvcdb {
namespace {

using namespace durability_test;  // NOLINT(build/namespaces)

void RunBoundarySweep(uint64_t num_shards, bool with_reshard,
                      const std::string& tag) {
  const EngineState initial = InitialState(num_shards);
  const std::vector<Mutation> workload = SweepWorkload(with_reshard);
  const std::vector<uint64_t> boundaries =
      RecordBoundaries(TestDir(tag + "_ref"), initial, workload);
  ASSERT_EQ(boundaries.size(), workload.size() + 1);

  // Budgets: every record boundary, one byte short of it, one byte past it.
  std::set<uint64_t> budgets;
  for (uint64_t b : boundaries) {
    if (b > 0) budgets.insert(b - 1);
    budgets.insert(b);
    budgets.insert(b + 1);
  }

  const std::string crash_dir = TestDir(tag + "_crash");
  const std::string twin_dir = TestDir(tag + "_twin");
  FileSystem* real = DefaultFileSystem();
  for (uint64_t budget : budgets) {
    // Wipe the crash dir, then run against the fault-injecting file system
    // until the budget trips (only WAL files are budgeted; the snapshot
    // writes through).
    for (const std::string& file : real->ListDir(crash_dir)) {
      std::string error;
      real->Remove(JoinPath(crash_dir, file), &error);
    }
    FaultInjectingFileSystem faulty(real, "wal-", budget);
    DurableConfig config;
    config.dir = crash_dir;
    config.fs = &faulty;
    std::string error;
    std::unique_ptr<DurableSession> session =
        DurableSession::Create(config, initial, &error);
    size_t applied = 0;
    if (session != nullptr) {
      try {
        while (applied < workload.size()) {
          Apply(session.get(), workload[applied]);
          ++applied;
        }
      } catch (const CheckError&) {
        // The simulated crash: the mutation's WAL record did not fit.
      }
    }
    session.reset();  // "Process death": no checkpoint, no cleanup.

    // The durable prefix the budget allows: every record whose end offset
    // fits. Exact, because record encodings are deterministic.
    size_t expected_prefix = 0;
    for (size_t i = 1; i < boundaries.size(); ++i) {
      if (boundaries[i] <= budget) expected_prefix = i;
    }

    DurableConfig recover_config;
    recover_config.dir = crash_dir;
    std::unique_ptr<DurableSession> recovered =
        DurableSession::Recover(recover_config, &error);
    ASSERT_NE(recovered, nullptr)
        << tag << " budget=" << budget << ": " << error;
    EXPECT_EQ(recovered->stats().replayed_records, expected_prefix)
        << tag << " budget=" << budget;
    if (budget >= boundaries[0]) {
      EXPECT_EQ(recovered->stats().tail_truncated,
                budget > boundaries[expected_prefix] &&
                    applied < workload.size())
          << tag << " budget=" << budget;
    }

    std::unique_ptr<DurableSession> twin =
        BuildTwin(twin_dir, initial, workload, expected_prefix);
    ExpectSameState(recovered.get(), twin.get(),
                    tag + " budget=" + std::to_string(budget));
  }
}

TEST(CrashBoundarySweepTest, UnshardedEveryRecordBoundary) {
  RunBoundarySweep(0, /*with_reshard=*/false, "unsharded");
}

TEST(CrashBoundarySweepTest, UnshardedWithReshardRecords) {
  RunBoundarySweep(0, /*with_reshard=*/true, "reshard");
}

TEST(CrashBoundarySweepTest, ShardedEveryRecordBoundary) {
  RunBoundarySweep(3, /*with_reshard=*/false, "sharded");
}

// A real crash: fork a child that applies a seeded workload with fsync'd
// appends, signalling progress through a pipe; SIGKILL it mid-batch; then
// recover in the parent and compare against the twin at the durable
// prefix. Unlike the byte sweep this exercises actual process death with
// the kernel tearing whatever was in flight.
void RunForkKillCrash(uint32_t seed, uint64_t num_shards, int threads) {
  const std::string tag = "fork_s" + std::to_string(seed) + "_n" +
                          std::to_string(num_shards) + "_t" +
                          std::to_string(threads);
  const std::string dir = TestDir(tag);
  const EngineState initial = InitialState(num_shards);
  const std::vector<Mutation> workload = SeededWorkload(seed, 10);
  const size_t target = 2 + seed % 5;  // Kill after this many are durable.

  int pipe_fds[2];
  ASSERT_EQ(pipe(pipe_fds), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: every append fsyncs, so a progress byte means "durable".
    // The child applies mutations serially: fork() duplicates only the
    // calling thread, so a child forked after the pool started runs every
    // ParallelFor on that one thread anyway. The `threads` grid is
    // exercised parent-side, where it matters: the recovered engine and
    // its twin evaluate probabilities with it.
    close(pipe_fds[0]);
    DurableConfig config;
    config.dir = dir;
    config.sync = true;
    std::string error;
    std::unique_ptr<DurableSession> session =
        DurableSession::Create(config, initial, &error);
    if (session == nullptr) _exit(1);
    for (const Mutation& m : workload) {
      Apply(session.get(), m);
      char byte = 'd';
      if (write(pipe_fds[1], &byte, 1) != 1) _exit(1);
    }
    _exit(0);
  }

  close(pipe_fds[1]);
  size_t durable_seen = 0;
  char byte;
  while (durable_seen < target && read(pipe_fds[0], &byte, 1) == 1) {
    ++durable_seen;
  }
  kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  // Drain any bytes the child wrote between our last read and the kill:
  // they are durable too and recovery will replay them.
  while (read(pipe_fds[0], &byte, 1) == 1) ++durable_seen;
  close(pipe_fds[0]);

  DurableConfig config;
  config.dir = dir;
  std::string error;
  std::unique_ptr<DurableSession> recovered =
      DurableSession::Recover(config, &error);
  ASSERT_NE(recovered, nullptr) << tag << ": " << error;
  size_t prefix = recovered->stats().replayed_records;
  // Every mutation whose progress byte arrived was fsync'd before the
  // write(); the kill may additionally have left the next record durable
  // but unsignalled.
  EXPECT_GE(prefix, durable_seen) << tag;
  EXPECT_LE(prefix, workload.size()) << tag;
  if (recovered->is_sharded()) {
    recovered->sharded()->eval_options().num_threads = threads;
  } else {
    recovered->db()->eval_options().num_threads = threads;
  }

  std::unique_ptr<DurableSession> twin =
      BuildTwin(TestDir(tag + "_twin"), initial, workload, prefix);
  if (twin->is_sharded()) {
    twin->sharded()->eval_options().num_threads = threads;
  } else {
    twin->db()->eval_options().num_threads = threads;
  }
  ExpectSameState(recovered.get(), twin.get(), tag);
}

TEST(ForkCrashTest, SigkillMidBatchRecoversDurablePrefix) {
  // >= 20 seeded runs across shards {1 (unsharded), 4} x threads {1, 4}.
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    for (uint64_t shards : {uint64_t{0}, uint64_t{4}}) {
      for (int threads : {1, 4}) {
        RunForkKillCrash(seed, shards, threads);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace pvcdb
