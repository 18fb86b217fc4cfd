// bench_serve -- throughput/latency of the out-of-process serving path.
//
// Forks a pvcdb server (worker processes or --in-process reference mode),
// loads a synthetic tuple-independent table, then drives it with N
// concurrent shell clients each issuing M distributable chain queries.
// Reports aggregate qps and client-observed latency percentiles per
// (shards x clients) grid point, for both backend modes -- the spread
// between them is the socket + worker-process overhead.
//
// Every reply is also compared against the first reply byte for byte; any
// divergence across clients or modes fails the run (exit 1), so the smoke
// doubles as a serving bit-identity check.
//
// Two durability sweeps ride along:
//
//  - Mutation throughput/latency per fsync discipline: concurrent clients
//    stream inserts through a worker-process server running volatile,
//    fsync-per-mutation (--open), and group-commit (--open
//    --group-commit). The spread between the last two is what batching
//    the window's fsyncs buys.
//  - Resync cost, tail vs full: a durable coordinator over standalone
//    worker processes is restarted; surviving workers take the
//    WAL-shipping tail path (zero shipped entries), blank replacements
//    the full rebuild. Shipped entries/bytes and wall time per worker are
//    the series the resync-bytes trajectory gate tracks.
//
// And one fault-plane sweep: client-observed latency with every
// coordinator <-> worker frame routed through a seeded FaultProxy that
// delays 1% of frames (the fault_p99 record). Replies must stay
// distributed and bit-identical -- a merely flaky link may cost latency,
// never correctness or availability.
//
//   bench_serve [--smoke|--full] [--json]

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/engine/coordinator.h"
#include "src/engine/shard.h"
#include "src/engine/shard_worker.h"
#include "src/engine/snapshot.h"
#include "src/net/fault.h"
#include "src/net/frame.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/query/parser.h"
#include "src/serve/server.h"
#include "src/util/metrics.h"
#include "src/util/timer.h"

namespace {

using namespace pvcdb;
using namespace pvcdb_bench;

std::string WriteDataset(const std::string& dir, size_t rows) {
  std::string path = dir + "/bench.csv";
  std::ofstream f(path);
  f << "k:int,v:int,_prob\n";
  for (size_t i = 0; i < rows; ++i) {
    f << i << "," << (i * 37) % 1000 << ",0."
      << 3 + (i % 6) << "\n";
  }
  return path;
}

class Client {
 public:
  bool Connect(const std::string& address) {
    std::string error;
    sock_ = ConnectWithRetry(address, 250, &error);
    return sock_.valid();
  }
  bool Send(const std::string& line, std::string* text) {
    if (!SendFrame(&sock_, static_cast<uint8_t>(MsgKind::kClientCommand),
                   line)) {
      return false;
    }
    uint8_t kind = 0;
    std::string payload;
    if (RecvFrame(&sock_, &kind, &payload) != FrameResult::kOk ||
        static_cast<MsgKind>(kind) != MsgKind::kClientReply) {
      return false;
    }
    ClientReplyMsg reply;
    if (!ClientReplyMsg::Decode(payload, &reply)) return false;
    *text = reply.text;
    return true;
  }

 private:
  Socket sock_;
};

pid_t StartServer(const std::string& address, size_t shards, bool in_process,
                  const std::string& open_dir = "", int group_commit_ms = -1) {
  pid_t pid = fork();
  if (pid == 0) {
    ServerConfig config;
    config.listen_address = address;
    config.num_shards = shards;
    config.in_process = in_process;
    config.quiet = true;
    config.open_dir = open_dir;
    config.group_commit_ms = group_commit_ms;
    _exit(RunServer(config));
  }
  return pid;
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  size_t index = static_cast<size_t>(p * (sorted->size() - 1));
  return (*sorted)[index];
}

struct GridResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_seconds = 0.0;
  double stddev_seconds = 0.0;
  bool ok = false;
};

GridResult RunGridPoint(const std::string& dir, const std::string& csv,
                        size_t shards, size_t num_clients, int requests,
                        bool in_process, std::string* expected) {
  GridResult result;
  const std::string address = dir + "/bench.sock";
  ::unlink(address.c_str());
  pid_t server = StartServer(address, shards, in_process);
  if (server <= 0) return result;

  const std::string query = "SELECT * FROM bench WHERE v >= 700";
  Client setup;
  std::string text;
  bool loaded = setup.Connect(address) &&
                setup.Send("load bench " + csv, &text) &&
                setup.Send(query, &text);  // Warm-up + reference reply.
  if (!loaded) {
    kill(server, SIGKILL);
    waitpid(server, nullptr, 0);
    return result;
  }
  if (expected->empty()) {
    *expected = text;
  } else if (*expected != text) {
    std::fprintf(stderr,
                 "bench_serve: reply diverged (shards=%zu, in_process=%d)\n",
                 shards, in_process ? 1 : 0);
    kill(server, SIGKILL);
    waitpid(server, nullptr, 0);
    return result;
  }

  std::mutex mu;
  std::vector<double> latencies;
  std::atomic<int> failures{0};
  WallTimer wall;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < num_clients; ++c) {
    threads.emplace_back([&]() {
      Client client;
      if (!client.Connect(address)) {
        ++failures;
        return;
      }
      std::vector<double> local;
      local.reserve(static_cast<size_t>(requests));
      std::string reply;
      for (int r = 0; r < requests; ++r) {
        WallTimer timer;
        if (!client.Send(query, &reply) || reply != *expected) {
          ++failures;
          return;
        }
        local.push_back(timer.ElapsedSeconds());
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = wall.ElapsedSeconds();

  setup.Send("shutdown", &text);
  int status = -1;
  waitpid(server, &status, 0);
  if (failures.load() != 0 || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return result;
  }

  std::sort(latencies.begin(), latencies.end());
  result.qps = elapsed > 0.0 ? latencies.size() / elapsed : 0.0;
  result.p50_ms = Percentile(&latencies, 0.50) * 1000.0;
  result.p99_ms = Percentile(&latencies, 0.99) * 1000.0;
  RunStats stats = Summarize(latencies);
  result.mean_seconds = stats.mean_seconds;
  result.stddev_seconds = stats.stddev_seconds;
  result.ok = true;
  return result;
}

// One fsync discipline of the mutation sweep.
struct DurabilityMode {
  const char* name;
  bool durable;
  int group_commit_ms;
};

// Streams inserts from `num_clients` concurrent clients through a
// worker-process server under one fsync discipline. `tables_after`
// collects the final `tables` reply: the logical end state must not
// depend on the discipline.
GridResult RunMutationPoint(const std::string& dir, const std::string& csv,
                            size_t shards, size_t num_clients,
                            int mutations_per_client,
                            const DurabilityMode& mode,
                            std::string* tables_after) {
  GridResult result;
  const std::string address = dir + "/bench_mut.sock";
  ::unlink(address.c_str());
  std::string store;
  if (mode.durable) {
    store = dir + "/store_" + mode.name;
    std::string rm = "rm -rf '" + store + "'";
    if (std::system(rm.c_str()) != 0) return result;
  }
  pid_t server =
      StartServer(address, shards, /*in_process=*/false, store,
                  mode.group_commit_ms);
  if (server <= 0) return result;

  Client setup;
  std::string text;
  if (!setup.Connect(address) || !setup.Send("load bench " + csv, &text)) {
    kill(server, SIGKILL);
    waitpid(server, nullptr, 0);
    return result;
  }

  std::mutex mu;
  std::vector<double> latencies;
  std::atomic<int> failures{0};
  WallTimer wall;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < num_clients; ++c) {
    threads.emplace_back([&, c]() {
      Client client;
      if (!client.Connect(address)) {
        ++failures;
        return;
      }
      std::vector<double> local;
      local.reserve(static_cast<size_t>(mutations_per_client));
      std::string reply;
      // Distinct key ranges per client: every insert routes and applies
      // independently of the interleaving.
      const int base = 1000000 + static_cast<int>(c) * mutations_per_client;
      for (int r = 0; r < mutations_per_client; ++r) {
        const int key = base + r;
        std::string line = "insert bench " + std::to_string(key) + " " +
                           std::to_string((key * 37) % 1000) + " 0.5";
        WallTimer timer;
        if (!client.Send(line, &reply)) {
          ++failures;
          return;
        }
        local.push_back(timer.ElapsedSeconds());
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = wall.ElapsedSeconds();

  bool state_ok = setup.Send("tables", tables_after);
  setup.Send("shutdown", &text);
  int status = -1;
  waitpid(server, &status, 0);
  if (failures.load() != 0 || !state_ok || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return result;
  }

  std::sort(latencies.begin(), latencies.end());
  result.qps = elapsed > 0.0 ? latencies.size() / elapsed : 0.0;
  result.p50_ms = Percentile(&latencies, 0.50) * 1000.0;
  result.p99_ms = Percentile(&latencies, 0.99) * 1000.0;
  RunStats stats = Summarize(latencies);
  result.mean_seconds = stats.mean_seconds;
  result.stddev_seconds = stats.stddev_seconds;
  result.ok = true;
  return result;
}

// ---------------------------------------------------------------------------
// Resync cost: WAL-shipping tail vs full rebuild.
// ---------------------------------------------------------------------------

struct ResyncPoint {
  double seconds = 0.0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
  bool ok = false;
};

pid_t StartStandaloneWorker(const std::string& address) {
  pid_t pid = fork();
  if (pid == 0) {
    _exit(ShardWorker::RunStandalone(address, /*quiet=*/true));
  }
  return pid;
}

std::vector<RemoteShard> DialWorkers(const std::vector<std::string>& addrs) {
  std::vector<RemoteShard> workers;
  for (size_t s = 0; s < addrs.size(); ++s) {
    std::string error;
    Socket sock = ConnectWithRetry(addrs[s], 250, &error);
    if (!sock.valid()) {
      std::fprintf(stderr, "bench_serve: dial %s: %s\n", addrs[s].c_str(),
                   error.c_str());
    }
    workers.emplace_back(static_cast<uint32_t>(s), std::move(sock), 0);
  }
  return workers;
}

Coordinator::WorkerSpawner RedialSpawner(std::vector<std::string> addrs) {
  return [addrs](uint32_t shard, RemoteShard* out,
                 std::string* error) -> bool {
    Socket sock = ConnectWithRetry(addrs[shard], 250, error);
    if (!sock.valid()) return false;
    *out = RemoteShard(shard, std::move(sock), 0);
    return true;
  };
}

// Sums the entries/bytes out of ReconcileWorkers' report lines; false when
// any worker failed or took the unexpected path.
bool SumResync(const std::vector<std::string>& lines, bool expect_full,
               ResyncPoint* point) {
  for (const std::string& line : lines) {
    const bool full = line.find("full resync") != std::string::npos;
    const bool tail = line.find("tail resync") != std::string::npos;
    if ((expect_full && !full) || (!expect_full && !tail)) {
      std::fprintf(stderr, "bench_serve: unexpected resync path: %s\n",
                   line.c_str());
      return false;
    }
    unsigned long long entries = 0;
    unsigned long long bytes = 0;
    size_t comma = line.find(", ");
    if (comma == std::string::npos ||
        std::sscanf(line.c_str() + comma, ", %llu entries, %llu bytes",
                    &entries, &bytes) != 2) {
      std::fprintf(stderr, "bench_serve: unparseable resync line: %s\n",
                   line.c_str());
      return false;
    }
    point->entries += entries;
    point->bytes += bytes;
  }
  return true;
}

// Builds a durable coordinator state of `rows` base rows + `mutations`
// inserts over standalone workers, then measures both recovery paths:
// reconnecting the SAME workers (tail: chain proof passes, nothing to
// ship) and blank replacements (full rebuild).
bool RunResyncPoints(const std::string& dir, size_t shards, size_t rows,
                     int mutations, ResyncPoint* tail, ResyncPoint* full) {
  std::vector<std::string> addrs;
  std::vector<pid_t> pids;
  for (size_t s = 0; s < shards; ++s) {
    addrs.push_back(dir + "/resync_w" + std::to_string(s) + ".sock");
    ::unlink(addrs.back().c_str());
    pid_t pid = StartStandaloneWorker(addrs.back());
    if (pid <= 0) return false;
    pids.push_back(pid);
  }

  DurableConfig dcfg;
  dcfg.dir = dir + "/resync_store";
  std::string rm = "rm -rf '" + dcfg.dir + "'";
  if (std::system(rm.c_str()) != 0) return false;

  bool ok = false;
  {
    auto coordinator = std::make_unique<Coordinator>(
        SemiringKind::kBool, DialWorkers(addrs), RedialSpawner(addrs));
    std::string error;
    std::unique_ptr<DurableSession> session =
        DurableSession::CreateAttached(dcfg, coordinator.get(), &error);
    if (session == nullptr) {
      std::fprintf(stderr, "bench_serve: %s\n", error.c_str());
    } else {
      Schema schema({{"k", CellType::kInt}, {"v", CellType::kInt}});
      std::vector<std::vector<Cell>> cells;
      std::vector<double> probs;
      for (size_t i = 0; i < rows; ++i) {
        cells.push_back({Cell(static_cast<int64_t>(i)),
                         Cell(static_cast<int64_t>((i * 37) % 1000))});
        probs.push_back(0.3 + 0.1 * (i % 6));
      }
      coordinator->AddTupleIndependentTable("bench", schema, cells, probs);
      for (int m = 0; m < mutations; ++m) {
        coordinator->InsertTuple(
            "bench",
            {Cell(static_cast<int64_t>(1000000 + m)),
             Cell(static_cast<int64_t>((m * 37) % 1000))},
            0.5);
      }
      ok = true;
    }
    session.reset();
    coordinator.reset();  // Front-end gone; workers keep their state.
  }
  if (!ok) return false;

  // Tail path: the same worker processes reconnect.
  {
    WallTimer timer;
    auto coordinator = std::make_unique<Coordinator>(
        SemiringKind::kBool, DialWorkers(addrs), RedialSpawner(addrs));
    std::string error;
    std::unique_ptr<DurableSession> session =
        DurableSession::RecoverAttached(dcfg, coordinator.get(), &error);
    if (session == nullptr) {
      std::fprintf(stderr, "bench_serve: %s\n", error.c_str());
      return false;
    }
    std::vector<std::string> lines;
    coordinator->ReconcileWorkers(&lines);
    tail->seconds = timer.ElapsedSeconds();
    if (!SumResync(lines, /*expect_full=*/false, tail)) return false;
    tail->ok = true;
    session.reset();
    coordinator.reset();
  }
  for (pid_t pid : pids) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }

  // Full path: blank replacement workers.
  std::vector<std::string> fresh_addrs;
  std::vector<pid_t> fresh_pids;
  for (size_t s = 0; s < shards; ++s) {
    fresh_addrs.push_back(dir + "/resync_f" + std::to_string(s) + ".sock");
    ::unlink(fresh_addrs.back().c_str());
    pid_t pid = StartStandaloneWorker(fresh_addrs.back());
    if (pid <= 0) return false;
    fresh_pids.push_back(pid);
  }
  {
    WallTimer timer;
    auto coordinator = std::make_unique<Coordinator>(
        SemiringKind::kBool, DialWorkers(fresh_addrs),
        RedialSpawner(fresh_addrs));
    std::string error;
    std::unique_ptr<DurableSession> session =
        DurableSession::RecoverAttached(dcfg, coordinator.get(), &error);
    if (session == nullptr) {
      std::fprintf(stderr, "bench_serve: %s\n", error.c_str());
      return false;
    }
    std::vector<std::string> lines;
    coordinator->ReconcileWorkers(&lines);
    full->seconds = timer.ElapsedSeconds();
    if (!SumResync(lines, /*expect_full=*/true, full)) return false;
    full->ok = true;
    coordinator->Shutdown();
    session.reset();
    coordinator.reset();
  }
  for (pid_t pid : fresh_pids) waitpid(pid, nullptr, 0);
  // The tail path must actually be the cheap one.
  if (tail->entries != 0 || full->entries == 0) {
    std::fprintf(stderr,
                 "bench_serve: resync paths inverted (tail %llu entries, "
                 "full %llu entries)\n",
                 static_cast<unsigned long long>(tail->entries),
                 static_cast<unsigned long long>(full->entries));
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Flaky-link latency: the fault_p99 record.
// ---------------------------------------------------------------------------

// Runs `requests` distributable chain queries over a coordinator whose
// every worker link passes through a FaultProxy delaying each frame by
// `delay_ms` with probability `probability` (seeded per shard, so the
// schedule is reproducible). Every reply must stay distributed -- the
// delays sit far under the RPC deadline -- and bit-identical to the first.
bool RunFaultPoint(const std::string& dir, size_t shards, size_t rows,
                   int requests, double probability, uint64_t delay_ms,
                   GridResult* result) {
  std::vector<std::string> worker_addrs;
  std::vector<std::string> proxy_addrs;
  std::vector<pid_t> pids;
  std::vector<std::unique_ptr<FaultProxy>> proxies;
  bool ok = true;
  for (size_t s = 0; s < shards; ++s) {
    worker_addrs.push_back(dir + "/fault_w" + std::to_string(s) + ".sock");
    proxy_addrs.push_back(dir + "/fault_p" + std::to_string(s) + ".sock");
    ::unlink(worker_addrs.back().c_str());
    ::unlink(proxy_addrs.back().c_str());
    pid_t pid = StartStandaloneWorker(worker_addrs.back());
    if (pid <= 0) return false;
    pids.push_back(pid);
    // The proxy dials its upstream once per accepted connection, so the
    // worker must be listening before the coordinator dials the proxy. A
    // probe connection that closes without a hello is ignored by the
    // worker.
    std::string error;
    if (!ConnectWithRetry(worker_addrs.back(), 250, &error).valid()) {
      std::fprintf(stderr, "bench_serve: worker %s: %s\n",
                   worker_addrs.back().c_str(), error.c_str());
      ok = false;
      break;
    }
    FaultSchedule schedule;
    schedule.delay_probability = probability;
    schedule.delay_ms = delay_ms;
    schedule.seed = 0x5eedf417 + s;
    proxies.push_back(std::make_unique<FaultProxy>());
    if (!proxies.back()->Start(proxy_addrs.back(), worker_addrs.back(),
                               schedule, &error)) {
      std::fprintf(stderr, "bench_serve: fault proxy: %s\n", error.c_str());
      ok = false;
      break;
    }
  }

  if (ok) {
    auto coordinator = std::make_unique<Coordinator>(
        SemiringKind::kBool, DialWorkers(proxy_addrs),
        RedialSpawner(worker_addrs));
    FaultToleranceOptions ft;
    ft.rpc_deadline_ms = 10000;  // Armed, but far above any injected delay.
    coordinator->ConfigureFaultTolerance(ft);

    Schema schema({{"k", CellType::kInt}, {"v", CellType::kInt}});
    std::vector<std::vector<Cell>> cells;
    std::vector<double> probs;
    for (size_t i = 0; i < rows; ++i) {
      cells.push_back({Cell(static_cast<int64_t>(i)),
                       Cell(static_cast<int64_t>((i * 37) % 1000))});
      probs.push_back(0.3 + 0.1 * (i % 6));
    }
    coordinator->AddTupleIndependentTable("bench", schema, cells, probs);

    ParseResult parsed = ParseQuery("SELECT * FROM bench WHERE v >= 700");
    if (!parsed.ok()) {
      ok = false;
    } else {
      QueryRun reference = coordinator->Run(*parsed.query);
      ok = reference.distributed;
      std::vector<double> latencies;
      latencies.reserve(static_cast<size_t>(requests));
      WallTimer wall;
      for (int r = 0; ok && r < requests; ++r) {
        WallTimer timer;
        QueryRun run = coordinator->Run(*parsed.query);
        latencies.push_back(timer.ElapsedSeconds());
        if (!run.distributed || run.text != reference.text ||
            run.probabilities != reference.probabilities) {
          std::fprintf(stderr,
                       "bench_serve: flaky-link reply degraded or "
                       "diverged at request %d\n",
                       r);
          ok = false;
        }
      }
      if (ok) {
        const double elapsed = wall.ElapsedSeconds();
        std::sort(latencies.begin(), latencies.end());
        result->qps = elapsed > 0.0 ? latencies.size() / elapsed : 0.0;
        result->p50_ms = Percentile(&latencies, 0.50) * 1000.0;
        result->p99_ms = Percentile(&latencies, 0.99) * 1000.0;
        RunStats stats = Summarize(latencies);
        result->mean_seconds = stats.mean_seconds;
        result->stddev_seconds = stats.stddev_seconds;
        result->ok = true;
      }
    }
    coordinator->Shutdown();
    coordinator.reset();
  }
  for (auto& proxy : proxies) proxy->Stop();
  for (pid_t pid : pids) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = SmokeMode(argc, argv);
  const bool full = FullMode(argc, argv);
  const bool json = JsonMode(argc, argv);

  const size_t rows = smoke ? 200 : full ? 20000 : 2000;
  const int requests = smoke ? 20 : full ? 200 : 60;
  const std::vector<size_t> shard_grid =
      smoke ? std::vector<size_t>{2} : std::vector<size_t>{1, 2, 4};
  const std::vector<size_t> client_grid =
      smoke ? std::vector<size_t>{4} : std::vector<size_t>{1, 4, 8};

  char tmpl[] = "/tmp/pvcdb_bench_serve_XXXXXX";
  char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "bench_serve: mkdtemp failed\n");
    return 1;
  }
  const std::string csv = WriteDataset(dir, rows);

  // Markdown tables only outside --json: their header rows would corrupt
  // the JSON-lines trajectory file.
  std::unique_ptr<TablePrinter> table;
  if (!json) {
    table = std::make_unique<TablePrinter>(std::vector<std::string>{
        "mode", "shards", "clients", "requests", "qps", "p50_ms", "p99_ms"});
  }
  // One reference reply across every grid point and both modes: the bench
  // is also a serving bit-identity check.
  std::string expected;
  bool failed = false;
  for (bool in_process : {true, false}) {
    for (size_t shards : shard_grid) {
      for (size_t clients : client_grid) {
        GridResult r = RunGridPoint(dir, csv, shards, clients, requests,
                                    in_process, &expected);
        if (!r.ok) {
          failed = true;
          continue;
        }
        const char* mode = in_process ? "in-process" : "workers";
        if (json) {
          JsonParams params;
          params.Set("mode", mode)
              .Set("shards", static_cast<int64_t>(shards))
              .Set("clients", static_cast<int64_t>(clients))
              .Set("requests", static_cast<int64_t>(clients) * requests)
              .Set("rows", static_cast<int64_t>(rows))
              .Set("qps", r.qps)
              .Set("p50_ms", r.p50_ms)
              .Set("p99_ms", r.p99_ms);
          RunStats stats;
          stats.mean_seconds = r.mean_seconds;
          stats.stddev_seconds = r.stddev_seconds;
          PrintJsonRecord("serve", params, stats);
        } else {
          table->PrintRow({mode, std::to_string(shards),
                          std::to_string(clients),
                          std::to_string(static_cast<size_t>(requests) *
                                         clients),
                          FormatDouble(r.qps, 1), FormatDouble(r.p50_ms, 3),
                          FormatDouble(r.p99_ms, 3)});
        }
      }
    }
  }
  // Instrumentation overhead, in two parts.
  //
  // Reply invariance: one worker-process grid point with the runtime kill
  // switch thrown (the forked server inherits the flag across fork). Its
  // replies are checked byte for byte against the same `expected` as
  // every metrics-on point above -- flipping the switch may not change a
  // single reply byte.
  //
  // The overhead number itself cannot come from forked-server qps: a
  // fork-serve-kill cycle swings tens of percent run to run (scheduler,
  // page cache, frequency scaling -- measured far above any real
  // instrumentation cost even with this binary's metrics compiled out).
  // So the <= 5% gate (--metric overhead-pct) tracks a controlled paired
  // loop instead: the same command pipeline the poll loop runs per
  // request (CommandTraceScope, command counter, ExecuteCommand, encode
  // span, reply encode) driven in-process, alternating metrics on/off
  // batches, best batch time per side. Alternation cancels warm-up bias;
  // best-of filters transient slowdowns, which only ever add time.
  {
    const size_t overhead_shards = 2;
    SetMetricsEnabled(false);
    GridResult off_grid = RunGridPoint(dir, csv, overhead_shards, 4,
                                       smoke ? 40 : 120,
                                       /*in_process=*/false, &expected);
    SetMetricsEnabled(true);
    if (!off_grid.ok) failed = true;

    const int batch = smoke ? 200 : full ? 800 : 400;
    const int trials = 5;
    ShardedDatabase db(overhead_shards);
    InProcessBackend backend(&db);
    bool shutdown = false;
    const std::string query = "SELECT * FROM bench WHERE v >= 700";
    ExecuteCommand(&backend, "load bench " + csv, &shutdown);
    size_t sink = 0;
    auto run_batch = [&](int n) {
      WallTimer timer;
      for (int i = 0; i < n; ++i) {
        CommandTraceScope trace_scope(query);
        PVCDB_COUNTER_ADD("server.commands", 1);
        ClientReplyMsg reply = ExecuteCommand(&backend, query, &shutdown);
        PVCDB_SPAN(encode_span, "encode");
        sink += reply.Encode().size();
      }
      return timer.ElapsedSeconds();
    };
    run_batch(batch / 2);  // Warm-up: caches filled, pools sized.
    double best_on = 0.0, best_off = 0.0;
    for (int t = 0; t < trials; ++t) {
      for (bool enabled : {t % 2 == 0, t % 2 != 0}) {
        SetMetricsEnabled(enabled);
        double seconds = run_batch(batch);
        SetMetricsEnabled(true);
        double& best = enabled ? best_on : best_off;
        if (best == 0.0 || seconds < best) best = seconds;
      }
    }
    if (sink == 0 || best_on <= 0.0 || best_off <= 0.0) {
      failed = true;
    } else {
      const double qps_on = batch / best_on;
      const double qps_off = batch / best_off;
      const double overhead_pct = (qps_off - qps_on) / qps_off * 100.0;
      if (json) {
        JsonParams params;
        params.Set("shards", static_cast<int64_t>(overhead_shards))
            .Set("threads", 0)
            .Set("requests", static_cast<int64_t>(batch))
            .Set("trials", static_cast<int64_t>(trials))
            .Set("qps_on", qps_on)
            .Set("qps_off", qps_off)
            .Set("overhead_pct", overhead_pct);
        RunStats stats;
        stats.mean_seconds = best_on / batch;
        stats.stddev_seconds = 0.0;
        PrintJsonRecord("metrics_overhead", params, stats);
      } else {
        TablePrinter overhead_table(std::vector<std::string>{
            "metrics", "shards", "batch", "qps", "overhead_pct"});
        overhead_table.PrintRow({"on", std::to_string(overhead_shards),
                                 std::to_string(batch),
                                 FormatDouble(qps_on, 1),
                                 FormatDouble(overhead_pct, 2)});
        overhead_table.PrintRow({"off", std::to_string(overhead_shards),
                                 std::to_string(batch),
                                 FormatDouble(qps_off, 1), "0.00"});
      }
    }
  }

  // Mutation throughput/latency per fsync discipline. The logical end
  // state (the `tables` reply) must not depend on the discipline.
  const int mutations = smoke ? 25 : full ? 250 : 75;
  const size_t mutation_clients = 4;
  const size_t mutation_shards = 2;
  const std::vector<DurabilityMode> modes = {
      {"volatile", false, -1},
      {"fsync", true, -1},
      {"group-commit", true, 2},
  };
  std::unique_ptr<TablePrinter> mutation_table;
  if (!json) {
    mutation_table = std::make_unique<TablePrinter>(std::vector<std::string>{
        "durability", "shards", "clients", "mutations", "qps", "p50_ms",
        "p99_ms"});
  }
  std::string tables_reference;
  for (const DurabilityMode& mode : modes) {
    std::string tables_after;
    GridResult r =
        RunMutationPoint(dir, csv, mutation_shards, mutation_clients,
                         mutations, mode, &tables_after);
    if (!r.ok) {
      failed = true;
      continue;
    }
    if (tables_reference.empty()) {
      tables_reference = tables_after;
    } else if (tables_reference != tables_after) {
      std::fprintf(stderr,
                   "bench_serve: end state diverged under durability=%s\n",
                   mode.name);
      failed = true;
      continue;
    }
    if (json) {
      JsonParams params;
      params.Set("durability", mode.name)
          .Set("shards", static_cast<int64_t>(mutation_shards))
          .Set("threads", 0)
          .Set("clients", static_cast<int64_t>(mutation_clients))
          .Set("mutations",
               static_cast<int64_t>(mutation_clients) * mutations)
          .Set("qps", r.qps)
          .Set("p50_ms", r.p50_ms)
          .Set("p99_ms", r.p99_ms);
      RunStats stats;
      stats.mean_seconds = r.mean_seconds;
      stats.stddev_seconds = r.stddev_seconds;
      PrintJsonRecord("serve_mutation", params, stats);
    } else {
      mutation_table->PrintRow(
          {mode.name, std::to_string(mutation_shards),
           std::to_string(mutation_clients),
           std::to_string(mutation_clients * static_cast<size_t>(mutations)),
           FormatDouble(r.qps, 1), FormatDouble(r.p50_ms, 3),
           FormatDouble(r.p99_ms, 3)});
    }
  }

  // Resync cost: WAL-shipping tail (surviving workers) vs full rebuild
  // (blank replacements) after a coordinator restart on the same WAL.
  ResyncPoint tail;
  ResyncPoint fullsync;
  if (RunResyncPoints(dir, mutation_shards, rows, mutations, &tail,
                      &fullsync)) {
    std::unique_ptr<TablePrinter> resync_table;
    if (!json) {
      resync_table = std::make_unique<TablePrinter>(std::vector<std::string>{
          "path", "shards", "entries", "bytes", "seconds"});
    }
    struct {
      const char* name;
      const ResyncPoint* point;
    } paths[] = {{"resync_tail", &tail}, {"resync_full", &fullsync}};
    for (const auto& p : paths) {
      if (json) {
        JsonParams params;
        params.Set("shards", static_cast<int64_t>(mutation_shards))
            .Set("threads", 0)
            .Set("rows", static_cast<int64_t>(rows))
            .Set("mutations", static_cast<int64_t>(mutations))
            .Set("resync_entries", static_cast<int64_t>(p.point->entries))
            .Set("resync_bytes", static_cast<int64_t>(p.point->bytes));
        RunStats stats;
        stats.mean_seconds = p.point->seconds;
        PrintJsonRecord(p.name, params, stats);
      } else {
        resync_table->PrintRow({p.name, std::to_string(mutation_shards),
                               std::to_string(p.point->entries),
                               std::to_string(p.point->bytes),
                               FormatSeconds(p.point->seconds)});
      }
    }
  } else {
    failed = true;
  }

  // Client-observed latency on a flaky link: 1% of frames delayed 2ms by
  // a seeded per-shard FaultProxy. Availability and bit-identity must
  // survive; the p99 spread vs the clean serve records is the cost.
  {
    const double delay_probability = 0.01;
    const uint64_t delay_ms = 2;
    GridResult r;
    if (RunFaultPoint(dir, mutation_shards, rows, requests,
                      delay_probability, delay_ms, &r) &&
        r.ok) {
      if (json) {
        JsonParams params;
        params.Set("shards", static_cast<int64_t>(mutation_shards))
            .Set("threads", 0)
            .Set("rows", static_cast<int64_t>(rows))
            .Set("requests", static_cast<int64_t>(requests))
            .Set("delay_probability", delay_probability)
            .Set("delay_ms", static_cast<int64_t>(delay_ms))
            .Set("qps", r.qps)
            .Set("p50_ms", r.p50_ms)
            .Set("p99_ms", r.p99_ms);
        RunStats stats;
        stats.mean_seconds = r.mean_seconds;
        stats.stddev_seconds = r.stddev_seconds;
        PrintJsonRecord("fault_p99", params, stats);
      } else {
        TablePrinter fault_table(std::vector<std::string>{
            "link", "shards", "requests", "qps", "p50_ms", "p99_ms"});
        fault_table.PrintRow({"flaky-1pct", std::to_string(mutation_shards),
                              std::to_string(requests),
                              FormatDouble(r.qps, 1),
                              FormatDouble(r.p50_ms, 3),
                              FormatDouble(r.p99_ms, 3)});
      }
    } else {
      failed = true;
    }
  }

  std::string cleanup = std::string("rm -rf '") + dir + "'";
  if (std::system(cleanup.c_str()) != 0) {
    // Best-effort cleanup.
  }
  if (failed) {
    std::fprintf(stderr, "bench_serve: FAILED (transport error or reply "
                         "divergence)\n");
    return 1;
  }
  return 0;
}
