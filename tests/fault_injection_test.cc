// The fault-injection gauntlet (ISSUE 10 acceptance): every fault the
// FaultProxy can inject -- plus a real SIGSTOP'd worker process -- against
// the coordinator's fault-tolerance plane, asserting the three invariants
// the plane exists for:
//
//   1. Bounded latency: no query ever blocks past the RPC deadline; a
//      faulted worker degrades the answer, never the availability.
//   2. Bit-identity: a degraded reply carries the same rendered text and
//      probabilities a never-faulted twin coordinator produces, plus an
//      explicit warning; after recovery the distributed reply is
//      bit-identical again.
//   3. Exactly-once: no fault schedule can make a mutation apply twice on
//      a worker. A dropped request ships the entry exactly once at
//      resync; a dropped/corrupted reply (the mutation DID apply, only
//      the ack was lost) ships it zero times -- the (lsn, chain) probe
//      decides, never a blind retry.
//
// Plus the heartbeat walk (healthy -> suspect -> down) and the
// auto-respawn circuit breaker, driven through a mock clock and a
// counting spawner so no test here sleeps for real.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/coordinator.h"
#include "src/engine/shard_worker.h"
#include "src/net/backoff.h"
#include "src/net/fault.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/query/parser.h"
#include "src/table/schema.h"
#include "src/util/metrics.h"
#include "src/util/timer.h"

namespace pvcdb {
namespace {

// A generous wall-clock bound for "the query returned within the
// deadline": a few sequential per-worker deadlines plus sanitizer
// headroom. Without the deadline plane these scenarios hang forever, so
// any finite bound proves the property; this one just keeps CI honest.
constexpr int kRpcDeadlineMs = 500;
constexpr double kBoundedMs = 8000.0;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/pvcdb_fault_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    std::string cmd = "rm -rf '" + path_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      // Best-effort cleanup.
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

pid_t StartStandaloneWorker(const std::string& address) {
  pid_t pid = fork();
  if (pid == 0) {
    _exit(ShardWorker::RunStandalone(address, /*quiet=*/true));
  }
  return pid;
}

void ReapWorker(pid_t pid) {
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
}

// Owns the standalone workers a scenario forks: kills and reaps each one
// when the scope ends -- also on a failing ASSERT's early return, so no
// orphaned worker keeps ctest's output pipe open until the TIMEOUT.
class WorkerReaper {
 public:
  WorkerReaper() = default;
  ~WorkerReaper() {
    for (pid_t pid : pids_) ReapWorker(pid);
  }
  WorkerReaper(const WorkerReaper&) = delete;
  WorkerReaper& operator=(const WorkerReaper&) = delete;

  /// Forks a standalone worker on `address` and waits until it listens
  /// (a FaultProxy dials its upstream once per connection, so it must not
  /// race the worker's bind); returns its pid (<= 0 when the fork or the
  /// wait failed). The probe connection closes without a hello, which the
  /// worker ignores.
  pid_t Start(const std::string& address) {
    pid_t pid = StartStandaloneWorker(address);
    if (pid <= 0) return pid;
    pids_.push_back(pid);
    std::string error;
    return ConnectWithRetry(address, 250, &error).valid() ? pid : -1;
  }

  /// Kills and reaps `pid` now, as a scenario step.
  void Reap(pid_t pid) {
    pids_.erase(std::remove(pids_.begin(), pids_.end(), pid), pids_.end());
    ReapWorker(pid);
  }

 private:
  std::vector<pid_t> pids_;
};

std::vector<RemoteShard> DialWorkers(const std::vector<std::string>& addrs) {
  std::vector<RemoteShard> workers;
  for (size_t s = 0; s < addrs.size(); ++s) {
    std::string error;
    Socket sock = ConnectWithRetry(addrs[s], 250, &error);
    EXPECT_TRUE(sock.valid()) << error;
    workers.emplace_back(static_cast<uint32_t>(s), std::move(sock), 0);
  }
  return workers;
}

Coordinator::WorkerSpawner RedialSpawner(std::vector<std::string> addrs) {
  return [addrs](uint32_t shard, RemoteShard* out,
                 std::string* error) -> bool {
    if (shard >= addrs.size()) {
      *error = "no address for shard " + std::to_string(shard);
      return false;
    }
    Socket sock = ConnectWithRetry(addrs[shard], 250, error);
    if (!sock.valid()) return false;
    *out = RemoteShard(shard, std::move(sock), 0);
    return true;
  };
}

std::unique_ptr<Coordinator> MakeCoordinator(
    const std::vector<std::string>& dial,
    const std::vector<std::string>& respawn, int deadline_ms) {
  auto coordinator = std::make_unique<Coordinator>(
      SemiringKind::kBool, DialWorkers(dial), RedialSpawner(respawn));
  FaultToleranceOptions ft;
  ft.rpc_deadline_ms = deadline_ms;
  coordinator->ConfigureFaultTolerance(ft);
  return coordinator;
}

// The deterministic pre-fault workload: a routed table load. Every
// scenario flows this through the link known-clean, then arms one fault
// for the frame that follows.
void LoadItems(Coordinator* coordinator) {
  Schema schema({{"item", CellType::kString}, {"price", CellType::kInt}});
  std::vector<std::vector<Cell>> rows = {
      {Cell(std::string("hammer")), Cell(int64_t{1299})},
      {Cell(std::string("wrench")), Cell(int64_t{450})},
      {Cell(std::string("shovel")), Cell(int64_t{2399})},
      {Cell(std::string("rake")), Cell(int64_t{1799})},
      {Cell(std::string("whisk")), Cell(int64_t{220})},
  };
  coordinator->AddTupleIndependentTable("items", schema, rows,
                                        {0.9, 0.7, 0.6, 0.5, 0.95});
}

QueryRun RunChain(Coordinator* coordinator) {
  ParseResult parsed =
      ParseQuery("SELECT * FROM items WHERE price >= 1000");
  EXPECT_TRUE(parsed.ok());
  return coordinator->Run(*parsed.query);
}

/// The never-faulted reference: its own worker, the identical workload
/// (load + the one mutation the faulted run attempts), no proxy.
struct Twin {
  explicit Twin(const std::string& dir) {
    address = dir + "/twin.sock";
    pid = reaper.Start(address);
    EXPECT_GT(pid, 0);
    coordinator = MakeCoordinator({address}, {address}, kRpcDeadlineMs);
    LoadItems(coordinator.get());
    coordinator->UpdateProbability(1, 0.45);
    run = RunChain(coordinator.get());
    EXPECT_TRUE(run.distributed);
    EXPECT_TRUE(coordinator->WorkerTail(0, &lsn, &chain));
  }
  ~Twin() {
    coordinator->Shutdown();
    coordinator.reset();
  }

  WorkerReaper reaper;  ///< Destroyed last: reaps the twin's worker.
  std::string address;
  pid_t pid = -1;
  std::unique_ptr<Coordinator> coordinator;
  QueryRun run;
  uint64_t lsn = 0;
  uint32_t chain = 0;
};

// ---------------------------------------------------------------------------
// 1. A SIGSTOP'd real worker: the kernel keeps its sockets alive and
//    accepting bytes, so only a recv deadline can unblock the caller.
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, SigstoppedWorkerDegradesWithinTheDeadline) {
  SetMetricsEnabled(true);
  TempDir dir;
  const std::vector<std::string> addrs = {dir.path() + "/w0.sock",
                                          dir.path() + "/w1.sock"};
  WorkerReaper reaper;
  std::vector<pid_t> pids;
  for (const std::string& a : addrs) pids.push_back(reaper.Start(a));
  for (pid_t pid : pids) ASSERT_GT(pid, 0);

  auto coordinator = MakeCoordinator(addrs, addrs, kRpcDeadlineMs);
  LoadItems(coordinator.get());
  QueryRun before = RunChain(coordinator.get());
  ASSERT_TRUE(before.distributed);
  ASSERT_TRUE(before.warnings.empty());
  uint64_t lsn0 = 0;
  uint32_t chain0 = 0;
  ASSERT_TRUE(coordinator->WorkerTail(0, &lsn0, &chain0));

  uint64_t timeouts_before =
      MetricsRegistry::Global().GetCounter("net.timeouts")->Value();

  // Freeze worker 0 mid-service. Its listening socket still accepts and
  // its kernel buffers still take our request bytes -- the pathological
  // peer that only a deadline catches.
  ASSERT_EQ(kill(pids[0], SIGSTOP), 0);

  WallTimer timer;
  QueryRun degraded = RunChain(coordinator.get());
  double elapsed_ms = timer.ElapsedMillis();
  EXPECT_LT(elapsed_ms, kBoundedMs);

  // Degraded, never wrong: local-replica values are bit-identical to the
  // healthy distributed reply, and the client is told it was degraded.
  EXPECT_FALSE(degraded.distributed);
  ASSERT_FALSE(degraded.warnings.empty());
  EXPECT_NE(degraded.warnings[0].find("worker 0"), std::string::npos);
  EXPECT_EQ(degraded.text, before.text);
  EXPECT_EQ(degraded.probabilities, before.probabilities);
  EXPECT_FALSE(coordinator->WorkerUp(0));
  EXPECT_TRUE(coordinator->WorkerUp(1));
  EXPECT_GT(MetricsRegistry::Global().GetCounter("net.timeouts")->Value(),
            timeouts_before);

  // The heartbeat cycle walks the frozen worker suspect -> down.
  std::vector<std::string> lines;
  coordinator->HeartbeatTick(&lines);
  EXPECT_EQ(coordinator->Health(0), WorkerHealth::kSuspect);
  coordinator->HeartbeatTick(&lines);
  EXPECT_EQ(coordinator->Health(0), WorkerHealth::kDown);
  EXPECT_EQ(coordinator->Health(1), WorkerHealth::kHealthy);

  // Thaw and respawn: the worker kept its state (queries are reads), so
  // the resync proof passes with an empty tail and the distributed path
  // is bit-identical again.
  ASSERT_EQ(kill(pids[0], SIGCONT), 0);
  std::string error;
  ResyncStats stats;
  ASSERT_TRUE(coordinator->Respawn(0, &error, &stats)) << error;
  EXPECT_FALSE(stats.full);
  EXPECT_EQ(stats.entries, 0u);
  uint64_t lsn_after = 0;
  uint32_t chain_after = 0;
  ASSERT_TRUE(coordinator->WorkerTail(0, &lsn_after, &chain_after));
  EXPECT_EQ(lsn_after, lsn0);
  EXPECT_EQ(chain_after, chain0);

  QueryRun recovered = RunChain(coordinator.get());
  EXPECT_TRUE(recovered.distributed);
  EXPECT_TRUE(recovered.warnings.empty());
  EXPECT_EQ(recovered.text, before.text);
  EXPECT_EQ(recovered.probabilities, before.probabilities);

  coordinator->Shutdown();
  coordinator.reset();
}

// ---------------------------------------------------------------------------
// 2. Exactly-once under dropped frames, both directions.
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, DroppedRequestShipsTheMutationExactlyOnce) {
  SetMetricsEnabled(true);
  TempDir dir;
  Twin twin(dir.path());

  const std::string worker_addr = dir.path() + "/w.sock";
  WorkerReaper reaper;
  pid_t pid = reaper.Start(worker_addr);
  ASSERT_GT(pid, 0);

  FaultProxy proxy;
  std::string error;
  ASSERT_TRUE(proxy.Start(dir.path() + "/p.sock", worker_addr,
                          FaultSchedule(), &error))
      << error;

  // Dial through the proxy; recover (respawn) around it.
  auto coordinator =
      MakeCoordinator({proxy.address()}, {worker_addr}, kRpcDeadlineMs);
  LoadItems(coordinator.get());

  // Arm: swallow the next coordinator -> worker frame (the kUpdateVar
  // about to be sent). The worker never sees it; the coordinator's recv
  // deadline fires and the connection is poisoned -- never blind-retried,
  // because a retry on a live-but-slow link is how mutations double.
  proxy.AddRule({FaultDirection::kRequests,
                 proxy.frames_seen(FaultDirection::kRequests),
                 FaultType::kDrop, 0});
  WallTimer timer;
  coordinator->UpdateProbability(1, 0.45);
  EXPECT_LT(timer.ElapsedMillis(), kBoundedMs);
  EXPECT_FALSE(coordinator->WorkerUp(0));
  EXPECT_GE(proxy.faults_injected(), 1u);

  // Resync ships the lost entry exactly once: the (lsn, chain) probe
  // shows the worker one entry behind the shard log.
  ResyncStats stats;
  ASSERT_TRUE(coordinator->Respawn(0, &error, &stats)) << error;
  EXPECT_FALSE(stats.full);
  EXPECT_EQ(stats.entries, 1u);

  // The recovered worker sits on the twin's exact (lsn, chain) position:
  // the mutation applied once, nowhere twice.
  uint64_t lsn = 0;
  uint32_t chain = 0;
  ASSERT_TRUE(coordinator->WorkerTail(0, &lsn, &chain));
  EXPECT_EQ(lsn, twin.lsn);
  EXPECT_EQ(chain, twin.chain);

  QueryRun run = RunChain(coordinator.get());
  EXPECT_TRUE(run.distributed);
  EXPECT_TRUE(run.warnings.empty());
  EXPECT_EQ(run.text, twin.run.text);
  EXPECT_EQ(run.probabilities, twin.run.probabilities);

  coordinator->Shutdown();
  coordinator.reset();
  proxy.Stop();
}

TEST(FaultInjectionTest, DroppedReplyNeverReappliesTheMutation) {
  SetMetricsEnabled(true);
  TempDir dir;
  Twin twin(dir.path());

  const std::string worker_addr = dir.path() + "/w.sock";
  WorkerReaper reaper;
  pid_t pid = reaper.Start(worker_addr);
  ASSERT_GT(pid, 0);

  FaultProxy proxy;
  std::string error;
  ASSERT_TRUE(proxy.Start(dir.path() + "/p.sock", worker_addr,
                          FaultSchedule(), &error))
      << error;

  auto coordinator =
      MakeCoordinator({proxy.address()}, {worker_addr}, kRpcDeadlineMs);
  LoadItems(coordinator.get());

  // Arm: swallow the next worker -> coordinator frame (the kOk ack of the
  // kUpdateVar). The mutation DID apply; only the ack is lost. From the
  // coordinator's side this is indistinguishable from the dropped-request
  // case -- which is exactly why it must not retransmit on a hunch.
  proxy.AddRule({FaultDirection::kReplies,
                 proxy.frames_seen(FaultDirection::kReplies),
                 FaultType::kDrop, 0});
  coordinator->UpdateProbability(1, 0.45);
  EXPECT_FALSE(coordinator->WorkerUp(0));

  // The duplicate-application regression: the probe finds the worker
  // already AT the log tail, so the resync ships zero entries. A blind
  // retry would have applied the update twice and diverged the chain.
  ResyncStats stats;
  ASSERT_TRUE(coordinator->Respawn(0, &error, &stats)) << error;
  EXPECT_FALSE(stats.full);
  EXPECT_EQ(stats.entries, 0u);

  uint64_t lsn = 0;
  uint32_t chain = 0;
  ASSERT_TRUE(coordinator->WorkerTail(0, &lsn, &chain));
  EXPECT_EQ(lsn, twin.lsn);
  EXPECT_EQ(chain, twin.chain);

  QueryRun run = RunChain(coordinator.get());
  EXPECT_TRUE(run.distributed);
  EXPECT_EQ(run.text, twin.run.text);
  EXPECT_EQ(run.probabilities, twin.run.probabilities);

  coordinator->Shutdown();
  coordinator.reset();
  proxy.Stop();
}

// ---------------------------------------------------------------------------
// 3. Corrupt / torn / reset replies: the ack was mangled, not lost -- the
//    same exactly-once contract must hold, and the connection must be
//    poisoned the instant the CRC or framing check fires.
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, MangledRepliesPoisonTheLinkWithoutReapplying) {
  SetMetricsEnabled(true);
  TempDir dir;
  Twin twin(dir.path());

  const FaultType kinds[] = {FaultType::kFlipBit, FaultType::kTruncate,
                             FaultType::kReset};
  for (size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("fault kind " + std::to_string(i));
    const std::string worker_addr =
        dir.path() + "/w" + std::to_string(i) + ".sock";
    WorkerReaper reaper;
    pid_t pid = reaper.Start(worker_addr);
    ASSERT_GT(pid, 0);

    FaultProxy proxy;
    std::string error;
    ASSERT_TRUE(proxy.Start(dir.path() + "/p" + std::to_string(i) + ".sock",
                            worker_addr, FaultSchedule(), &error))
        << error;

    auto coordinator =
        MakeCoordinator({proxy.address()}, {worker_addr}, kRpcDeadlineMs);
    LoadItems(coordinator.get());

    proxy.AddRule({FaultDirection::kReplies,
                   proxy.frames_seen(FaultDirection::kReplies), kinds[i],
                   0});
    WallTimer timer;
    coordinator->UpdateProbability(1, 0.45);
    EXPECT_LT(timer.ElapsedMillis(), kBoundedMs);
    EXPECT_FALSE(coordinator->WorkerUp(0));

    // Degraded serving continues, bit-identical to the twin.
    QueryRun degraded = RunChain(coordinator.get());
    EXPECT_FALSE(degraded.distributed);
    EXPECT_FALSE(degraded.warnings.empty());
    EXPECT_EQ(degraded.text, twin.run.text);
    EXPECT_EQ(degraded.probabilities, twin.run.probabilities);

    // The mutation applied before the reply was mangled: zero entries
    // reshipped, twin-identical position.
    ResyncStats stats;
    ASSERT_TRUE(coordinator->Respawn(0, &error, &stats)) << error;
    EXPECT_FALSE(stats.full);
    EXPECT_EQ(stats.entries, 0u);
    uint64_t lsn = 0;
    uint32_t chain = 0;
    ASSERT_TRUE(coordinator->WorkerTail(0, &lsn, &chain));
    EXPECT_EQ(lsn, twin.lsn);
    EXPECT_EQ(chain, twin.chain);

    QueryRun run = RunChain(coordinator.get());
    EXPECT_TRUE(run.distributed);
    EXPECT_EQ(run.text, twin.run.text);
    EXPECT_EQ(run.probabilities, twin.run.probabilities);

    coordinator->Shutdown();
    coordinator.reset();
    proxy.Stop();
  }
}

// ---------------------------------------------------------------------------
// 4. A slow link stays correct; a frozen link degrades within the
//    deadline (the transport analogue of the SIGSTOP scenario).
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, DelayedThenFrozenLinkDegradesWithinTheDeadline) {
  SetMetricsEnabled(true);
  TempDir dir;
  const std::string worker_addr = dir.path() + "/w.sock";
  WorkerReaper reaper;
  pid_t pid = reaper.Start(worker_addr);
  ASSERT_GT(pid, 0);

  FaultProxy proxy;
  std::string error;
  ASSERT_TRUE(proxy.Start(dir.path() + "/p.sock", worker_addr,
                          FaultSchedule(), &error))
      << error;

  auto coordinator =
      MakeCoordinator({proxy.address()}, {worker_addr}, kRpcDeadlineMs);
  LoadItems(coordinator.get());
  QueryRun before = RunChain(coordinator.get());
  ASSERT_TRUE(before.distributed);

  // A delay under the deadline: slower, still distributed, still right.
  proxy.AddRule({FaultDirection::kRequests,
                 proxy.frames_seen(FaultDirection::kRequests),
                 FaultType::kDelay, 50});
  QueryRun slow = RunChain(coordinator.get());
  EXPECT_TRUE(slow.distributed);
  EXPECT_EQ(slow.text, before.text);
  EXPECT_EQ(slow.probabilities, before.probabilities);
  EXPECT_GE(proxy.faults_injected(), 1u);

  // Freeze the link: nothing moves in either direction, both connections
  // held open. Only the deadline gets the coordinator out.
  proxy.AddRule({FaultDirection::kRequests,
                 proxy.frames_seen(FaultDirection::kRequests),
                 FaultType::kHang, 0});
  WallTimer timer;
  QueryRun degraded = RunChain(coordinator.get());
  EXPECT_LT(timer.ElapsedMillis(), kBoundedMs);
  EXPECT_FALSE(degraded.distributed);
  EXPECT_FALSE(degraded.warnings.empty());
  EXPECT_EQ(degraded.text, before.text);
  EXPECT_EQ(degraded.probabilities, before.probabilities);

  // Releasing the frozen relay frees the worker for a direct respawn; a
  // hung query never advanced its log, so the tail is empty.
  proxy.Stop();
  ResyncStats stats;
  ASSERT_TRUE(coordinator->Respawn(0, &error, &stats)) << error;
  EXPECT_FALSE(stats.full);
  EXPECT_EQ(stats.entries, 0u);
  QueryRun recovered = RunChain(coordinator.get());
  EXPECT_TRUE(recovered.distributed);
  EXPECT_EQ(recovered.text, before.text);
  EXPECT_EQ(recovered.probabilities, before.probabilities);

  coordinator->Shutdown();
  coordinator.reset();
}

// ---------------------------------------------------------------------------
// 5. The heartbeat walk and the respawn circuit breaker, on a mock clock.
// ---------------------------------------------------------------------------

class MockClock : public Clock {
 public:
  uint64_t NowMillis() override { return now_ms_; }
  void SleepMillis(uint64_t ms) override { now_ms_ += ms; }
  void Advance(uint64_t ms) { now_ms_ += ms; }

 private:
  uint64_t now_ms_ = 1000;
};

TEST(FaultInjectionTest, HeartbeatWalkAndRespawnCircuitBreaker) {
  SetMetricsEnabled(true);
  TempDir dir;
  const std::string addr_a = dir.path() + "/a.sock";
  const std::string addr_b = dir.path() + "/b.sock";
  WorkerReaper reaper;
  pid_t pid_a = reaper.Start(addr_a);
  ASSERT_GT(pid_a, 0);

  // A spawner the test steers: count calls, fail on demand, and dial
  // whichever address the scenario says is live.
  auto spawn_calls = std::make_shared<int>(0);
  auto spawn_fails = std::make_shared<bool>(true);
  auto spawn_addr = std::make_shared<std::string>(addr_b);
  Coordinator::WorkerSpawner spawner =
      [spawn_calls, spawn_fails, spawn_addr](
          uint32_t shard, RemoteShard* out, std::string* error) -> bool {
    ++*spawn_calls;
    if (*spawn_fails) {
      *error = "injected spawn failure";
      return false;
    }
    Socket sock = ConnectWithRetry(*spawn_addr, 250, error);
    if (!sock.valid()) return false;
    *out = RemoteShard(shard, std::move(sock), 0);
    return true;
  };

  auto coordinator = std::make_unique<Coordinator>(
      SemiringKind::kBool, DialWorkers({addr_a}), spawner);

  MockClock clock;
  FaultToleranceOptions ft;
  ft.rpc_deadline_ms = kRpcDeadlineMs;
  ft.auto_respawn = true;
  ft.down_after_misses = 2;
  ft.respawn_max_failures = 2;
  ft.respawn_window_ms = 10000;
  ft.respawn_backoff.base_ms = 100;
  ft.respawn_backoff.max_ms = 5000;
  ft.respawn_backoff.multiplier = 2.0;
  ft.respawn_backoff.jitter = 0.0;
  ft.clock = &clock;
  coordinator->ConfigureFaultTolerance(ft);
  LoadItems(coordinator.get());

  Counter* sent =
      MetricsRegistry::Global().GetCounter("coordinator.heartbeats_sent");
  Counter* missed =
      MetricsRegistry::Global().GetCounter("coordinator.heartbeats_missed");
  Counter* respawns =
      MetricsRegistry::Global().GetCounter("coordinator.auto_respawns");
  const uint64_t sent0 = sent->Value();
  const uint64_t missed0 = missed->Value();
  const uint64_t respawns0 = respawns->Value();

  // Healthy worker: the tick pings and learns nothing new.
  std::vector<std::string> lines;
  coordinator->HeartbeatTick(&lines);
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(coordinator->Health(0), WorkerHealth::kHealthy);
  EXPECT_EQ(sent->Value(), sent0 + 1);

  // Kill the worker. Tick 1: the ping fails -> suspect.
  reaper.Reap(pid_a);
  coordinator->HeartbeatTick(&lines);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("suspect"), std::string::npos);
  EXPECT_EQ(coordinator->Health(0), WorkerHealth::kSuspect);
  EXPECT_EQ(missed->Value(), missed0 + 1);

  // Tick 2: another missed beat -> down, and the first respawn attempt
  // runs (and fails; the spawner is set to fail).
  lines.clear();
  coordinator->HeartbeatTick(&lines);
  EXPECT_EQ(coordinator->Health(0), WorkerHealth::kDown);
  EXPECT_EQ(*spawn_calls, 1);
  bool saw_down = false;
  bool saw_failed = false;
  for (const std::string& line : lines) {
    saw_down = saw_down || line.find("down") != std::string::npos;
    saw_failed = saw_failed || line.find("respawn failed") != std::string::npos;
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_failed);

  // Backoff gates the next attempt: without advancing the clock past the
  // 100ms delay, further ticks do not call the spawner.
  coordinator->HeartbeatTick(nullptr);
  EXPECT_EQ(*spawn_calls, 1);

  // Past the backoff: attempt 2 fails too and trips the breaker (2
  // failures inside the 10s window) -> the shard is degraded and the
  // spawner is left alone.
  clock.Advance(150);
  lines.clear();
  coordinator->HeartbeatTick(&lines);
  EXPECT_EQ(*spawn_calls, 2);
  EXPECT_EQ(coordinator->Health(0), WorkerHealth::kDegraded);
  bool saw_circuit = false;
  for (const std::string& line : lines) {
    saw_circuit = saw_circuit || line.find("circuit open") != std::string::npos;
  }
  EXPECT_TRUE(saw_circuit);
  EXPECT_EQ(
      MetricsRegistry::Global().GetGauge("coordinator.circuit_open")->Value(),
      1);

  clock.Advance(500);
  coordinator->HeartbeatTick(nullptr);
  EXPECT_EQ(*spawn_calls, 2);  // Breaker open: no thrash.

  // Serving continued throughout: degraded, but correct and bounded.
  QueryRun degraded = RunChain(coordinator.get());
  EXPECT_FALSE(degraded.distributed);
  EXPECT_FALSE(degraded.warnings.empty());

  // The failures age out of the window; a replacement worker comes up at
  // the standby address and the next tick heals the shard end to end.
  clock.Advance(11000);
  pid_t pid_b = reaper.Start(addr_b);
  ASSERT_GT(pid_b, 0);
  *spawn_fails = false;
  lines.clear();
  coordinator->HeartbeatTick(&lines);
  EXPECT_EQ(*spawn_calls, 3);
  EXPECT_EQ(coordinator->Health(0), WorkerHealth::kHealthy);
  EXPECT_TRUE(coordinator->WorkerUp(0));
  EXPECT_EQ(respawns->Value(), respawns0 + 1);
  bool saw_respawned = false;
  for (const std::string& line : lines) {
    saw_respawned = saw_respawned || line.find("respawned") != std::string::npos;
  }
  EXPECT_TRUE(saw_respawned);
  EXPECT_EQ(
      MetricsRegistry::Global().GetGauge("coordinator.circuit_open")->Value(),
      0);

  QueryRun healed = RunChain(coordinator.get());
  EXPECT_TRUE(healed.distributed);
  EXPECT_TRUE(healed.warnings.empty());
  EXPECT_EQ(healed.text, degraded.text);
  EXPECT_EQ(healed.probabilities, degraded.probabilities);

  coordinator->Shutdown();
  coordinator.reset();
}

}  // namespace
}  // namespace pvcdb
