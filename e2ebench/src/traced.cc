// The traced run. One seeded request stream, of a length fixed by
// --seconds, is
//   1. served by a real pvcdb_server to a single client, with `stats
//      --json` read before and after (the program's own counters);
//   2. replayed in process through ExecuteCommand over the server's own
//      backend stack -- a Coordinator over standalone worker processes and
//      an attached DurableSession -- once with tracing off and once with
//      the spans of trace.h on, followed by a traced crash recovery.
// Every served reply is checked against the reference engine, and every
// replayed reply against the served one, which shows the replay runs the
// same pipeline as the server.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "e2ebench/src/modes.h"
#include "e2ebench/src/proc.h"
#include "e2ebench/src/stats.h"
#include "e2ebench/src/trace.h"
#include "src/engine/coordinator.h"
#include "src/engine/snapshot.h"

namespace e2ebench {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

// Requests per second of --seconds: a fixed --seconds gives a fixed
// stream, so the program's counters repeat exactly for a fixed seed.
size_t StreamLength(const Workload& w, double seconds) {
  double rate = w.name == "chain_scan" ? 40 : w.name == "agg_having" ? 20 : 40;
  return static_cast<size_t>(rate * seconds);
}

// The single-client stream: the clients' streams taken round-robin.
std::vector<Request> TracedStream(const Workload& w, size_t n) {
  std::vector<Request> out;
  const size_t clients = w.clients.size();
  for (size_t i = 0; i < n; ++i) {
    const std::vector<Request>& stream = w.clients[i % clients];
    out.push_back(stream[(i / clients) % stream.size()]);
  }
  return out;
}

// Standalone `pvcdb_server --worker` processes, one group each.
class WorkerSet {
 public:
  ~WorkerSet() { Kill(); }
  bool Start(const Env& env, int shards, const std::string& tag) {
    for (int s = 0; s < shards; ++s) {
      std::string addr = env.dir + "/" + tag + "-w" + std::to_string(s) + ".sock";
      unlink(addr.c_str());
      pid_t pid = SpawnGroup({env.server_bin, "--worker", addr, "--quiet"},
                             env.dir + "/" + tag + "-workers.log");
      if (pid <= 0) return false;
      pids_.push_back(pid);
      addrs_.push_back(addr);
    }
    return true;
  }
  // A coordinator over every worker (the server's own Coordinator class).
  std::unique_ptr<pvcdb::Coordinator> Connect() {
    std::vector<pvcdb::RemoteShard> shards;
    for (size_t s = 0; s < addrs_.size(); ++s) {
      pvcdb::Socket sock = Dial(addrs_[s], kConnectTimeoutMs);
      if (!sock.valid()) return nullptr;
      shards.emplace_back(static_cast<uint32_t>(s), std::move(sock), 0);
    }
    return std::make_unique<pvcdb::Coordinator>(
        pvcdb::SemiringKind::kBool, std::move(shards),
        [](uint32_t, pvcdb::RemoteShard*, std::string* error) {
          *error = "the replay never respawns workers";
          return false;
        });
  }
  void Kill() {
    for (pid_t pid : pids_) KillGroup(pid);
    pids_.clear();
    addrs_.clear();
  }

 private:
  std::vector<pid_t> pids_;
  std::vector<std::string> addrs_;
};

struct ReplayPass {
  double loop_ms = 0.0;
  size_t pool_nodes = 0;
  uint64_t records_replayed = 0;
  int first_request = 0;
};

// The replay of set-up, check read and stream; `served` holds the served
// replies to compare with. With `traced`, spans are on and a crash
// recovery follows.
bool Replay(const Workload& w, const Env& env, const std::vector<Request>& stream,
            const std::vector<Reply>& served, const Expected& expected,
            const Reply& final_check, bool traced, ReplayPass* out,
            Tally* tally) {
  const std::string tag = traced ? "traced" : "untraced";
  WorkerSet workers;
  std::unique_ptr<pvcdb::Coordinator> coordinator;
  if (!tally->Check(workers.Start(env, kShards, tag) &&
                        (coordinator = workers.Connect()) != nullptr,
                    "cannot start the replay's workers", tag)) {
    return false;
  }
  TimingFileSystem fs;
  pvcdb::DurableConfig config;
  config.dir = env.dir + "/" + tag + "-store";
  config.fs = &fs;
  config.sync = true;  // The server's default flush policy.
  std::string error;
  std::unique_ptr<pvcdb::DurableSession> session =
      pvcdb::DurableSession::CreateAttached(config, coordinator.get(), &error);
  if (!tally->Check(session != nullptr, "cannot open the replay store", error)) {
    return false;
  }
  auto remote = std::make_unique<pvcdb::RemoteBackend>(coordinator.get());
  auto backend = std::make_unique<TracedBackend>(remote.get());
  pvcdb::ServeSession serve_session;
  serve_session.durable = session.get();

  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  tracer.Enable(traced);
  int request = 0;
  auto execute = [&](const std::string& line) {
    tracer.BeginRequest(request++);
    Tracer::Span span("serve.execute");
    bool shutdown = false;
    pvcdb::ClientReplyMsg msg =
        pvcdb::ExecuteCommand(backend.get(), line, &shutdown, &serve_session);
    return Reply{msg.ok, std::move(msg.text)};
  };
  bool ok = true;
  for (size_t i = 0; i < w.setup.size(); ++i) {
    std::string line = Expand(w.setup[i], env.dir);
    ok &= tally->Compare(execute(line), expected.setup[i], line + "  (replay)");
  }
  ok &= tally->Compare(execute(w.check), expected.check, w.check + "  (replay)");
  out->first_request = request;
  SteadyClock::time_point loop = SteadyClock::now();
  for (size_t i = 0; i < stream.size(); ++i) {
    ok &= tally->Compare(execute(stream[i].line), served[i],
                         stream[i].line + "  (replay)");
  }
  out->loop_ms = MsSince(loop);
  out->pool_nodes = coordinator->local().pool().NumNodes();

  if (traced) {
    // A crash and recovery of the same stack: drop the session without a
    // checkpoint, start blank workers, replay the store into a fresh
    // coordinator and reconcile the workers with it.
    serve_session.durable = nullptr;
    session.reset();
    backend.reset();
    remote.reset();
    coordinator->Shutdown();
    coordinator.reset();
    workers.Kill();
    if (!tally->Check(workers.Start(env, kShards, tag + "-recovered") &&
                          (coordinator = workers.Connect()) != nullptr,
                      "cannot restart the replay's workers", tag)) {
      tracer.Enable(false);
      return false;
    }
    tracer.BeginRequest(request++);
    {
      Tracer::Span span("recovery.replay");
      session = pvcdb::DurableSession::RecoverAttached(config, coordinator.get(),
                                                       &error);
    }
    if (!tally->Check(session != nullptr, "replay recovery failed", error)) {
      tracer.Enable(false);
      return false;
    }
    {
      Tracer::Span span("recovery.reconcile");
      coordinator->ReconcileWorkers(nullptr);
    }
    out->records_replayed = session->stats().replayed_records;
    remote = std::make_unique<pvcdb::RemoteBackend>(coordinator.get());
    backend = std::make_unique<TracedBackend>(remote.get());
    serve_session.durable = session.get();
    ok &= tally->Compare(execute(w.check), final_check,
                         w.check + "  (replay after recovery)");
  }
  tracer.Enable(false);
  serve_session.durable = nullptr;
  session.reset();
  coordinator->Shutdown();
  return ok;
}

// The server's own per-command totals (execution + reply encoding), in
// command order, from its `--slow-query-ms 0` lines.
std::vector<double> ServerCommandMs(const std::string& log_path) {
  std::vector<double> out;
  std::ifstream in(log_path);
  std::string line;
  const std::string prefix = "pvcdb slow-query total_ms=";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      out.push_back(std::strtod(line.c_str() + prefix.size(), nullptr));
    }
  }
  return out;
}

Stats StatsNow(Client* client, Tally* tally) {
  Reply reply;
  tally->Check(client->Call("stats --json", &reply) && reply.ok,
               "stats --json failed", "stats --json");
  return ParseStats(reply.text);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Result RunTraced(const Workload& w, const Env& env, double seconds) {
  Result result;
  Tally& tally = result.tally;
  const std::vector<Request> stream = TracedStream(w, StreamLength(w, seconds));
  size_t writes = 0;
  for (const Request& r : stream) writes += r.write ? 1 : 0;
  const double ops = static_cast<double>(stream.size());

  // -- 1. The served pass: one client, the program's counters around it. --
  Reference ref;
  Expected expected = ReferenceSetUp(w, env, &ref);
  std::vector<Reply> served(stream.size());
  double served_ms = 0.0;
  double server_ms = 0.0;
  double reply_bytes = 0.0;
  Stats counters;
  {
    Server server;
    Client client;
    server.extra_flags = {"--slow-query-ms", "0"};
    if (SetUp(w, env, expected, env.dir + "/served-store", "served", &server,
              &client, &tally) < 0) {
      return result;
    }
    // Two back-to-back snapshots measure what a stats call itself adds to
    // the counters; it is subtracted from the stream's delta.
    Stats s0 = StatsNow(&client, &tally);
    Stats s1 = StatsNow(&client, &tally);
    for (size_t i = 0; i < stream.size(); ++i) {
      SteadyClock::time_point t0 = SteadyClock::now();
      size_t bytes = 0;
      if (!tally.Check(client.Call(stream[i].line, &served[i], &bytes),
                       "transport failure", stream[i].line)) {
        return result;
      }
      served_ms += MsSince(t0);
      reply_bytes += static_cast<double>(bytes);
    }
    Stats s2 = StatsNow(&client, &tally);
    counters = Delta(Delta(s2, s1), Delta(s1, s0));
    // Set-up, check read and two stats calls precede the stream.
    const size_t skip = w.setup.size() + 3;
    std::vector<double> per_command = ServerCommandMs(server.log_path());
    if (!tally.Check(per_command.size() >= skip + stream.size(),
                     "the server logged fewer commands than were sent",
                     server.log_path())) {
      return result;
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      server_ms += per_command[skip + i];
    }
  }
  for (size_t i = 0; i < stream.size(); ++i) {
    tally.Compare(served[i], ref.Exec(stream[i].line), stream[i].line);
  }
  const Reply final_check = ref.Exec(w.check);

  // -- 2. The in-process replays: untraced, then traced. ------------------
  ReplayPass plain;
  ReplayPass traced;
  if (!Replay(w, env, stream, served, expected, final_check, false, &plain,
              &tally) ||
      !Replay(w, env, stream, served, expected, final_check, true, &traced,
              &tally)) {
    return result;
  }
  const Tracer& tracer = Tracer::Get();
  if (!env.trace_path.empty()) tracer.WriteJsonl(env.trace_path);
  const int first = traced.first_request;
  auto per_op = [&](const char* span) {
    return tracer.Sum(span, first).total_ms / ops;
  };
  const Tracer::Totals execute = tracer.Sum("serve.execute", first);
  const Tracer::Totals compile = tracer.Sum("dtree.compile", first);
  const Tracer::Totals prob = tracer.Sum("dtree.prob", first);
  const Tracer::Totals cond_agg = tracer.Sum("joint.cond_agg", first);
  const double nwrites = static_cast<double>(writes);
  const double hits = AllProcesses(counters, "cache.hits");
  const double misses = AllProcesses(counters, "cache.misses");
  const double applies = AllProcesses(counters, "views.incremental_applies");
  const double fallbacks = AllProcesses(counters, "views.recompute_fallbacks");

  result.metrics = {
      {"client.unattributed_ms", "ms", (served_ms - server_ms) / ops},
      {"net.bytes_out_per_op", "bytes",
       AllProcesses(counters, "net.bytes_out") / ops},
      {"net.frames_per_op", "count", AllProcesses(counters, "net.frames_out") / ops},
      {"net.reply_bytes_per_op", "bytes", reply_bytes / ops},
      {"serve.execute_ms", "ms", execute.total_ms / ops},
      {"serve.parse_ms", "ms", per_op("serve.parse")},
      {"serve.self_ms", "ms",
       (execute.total_ms - tracer.ChildTime("serve.execute", "backend.", first)) /
           ops},
      {"coordinator.run_ms", "ms", per_op("backend.run_query")},
      {"coordinator.scatters_per_op", "count", counters["coord.scatters"] / ops},
      {"coordinator.degraded_fallbacks", "count",
       counters["coord.degraded_fallbacks"]},
      {"worker.step1_ms", "ms", Workers(counters, "phase.step1.ms.sum") / ops},
      {"query.step1_ms", "ms", per_op("query.step1")},
      {"query.rows_scanned_per_op", "count",
       AllProcesses(counters, "engine.rows_scanned") / ops},
      {"expr.interned_per_op", "count",
       AllProcesses(counters, "engine.exprs_interned") / ops},
      {"expr.pool_nodes", "count", static_cast<double>(traced.pool_nodes)},
      {"dtree.compile_ms", "ms", compile.total_ms / ops},
      {"dtree.prob_ms", "ms", prob.total_ms / ops},
      {"dtree.compiles_per_op", "count", static_cast<double>(compile.count) / ops},
      {"dtree.nodes_per_op", "count", static_cast<double>(compile.items) / ops},
      {"engine.dtrees_compiled_per_op", "count",
       AllProcesses(counters, "engine.dtrees_compiled") / ops},
      {"joint.cond_agg_ms", "ms", cond_agg.total_ms / ops},
      {"joint.exprs_interned_per_call", "count",
       Ratio(static_cast<double>(cond_agg.items),
             static_cast<double>(cond_agg.count))},
      {"dtree_joint.self_share", "ratio",
       Ratio(compile.self_ms + prob.self_ms + cond_agg.self_ms, execute.total_ms)},
      {"view.apply_ms", "ms", per_op("view.apply")},
      {"view.print_ms", "ms", per_op("backend.print_view")},
      {"view.incremental_ratio", "ratio", Ratio(applies, applies + fallbacks)},
      {"cache.hit_ratio", "ratio", Ratio(hits, hits + misses)},
      {"cache.hits_per_op", "count", hits / ops},
      {"cache.misses_per_op", "count", misses / ops},
      {"views.incremental_applies_per_op", "count", applies / ops},
      {"views.recompute_fallbacks_per_op", "count", fallbacks / ops},
      {"wal.append_ms", "ms", Ratio(tracer.Sum("wal.append", first).total_ms, nwrites)},
      {"wal.fsync_ms", "ms", Ratio(tracer.Sum("wal.fsync", first).total_ms, nwrites)},
      {"wal.bytes_per_mutation", "bytes", Ratio(counters["wal.append_bytes"], nwrites)},
      {"wal.fsyncs_per_mutation", "count", Ratio(counters["wal.fsyncs"], nwrites)},
      {"recovery.replay_ms", "ms", tracer.Sum("recovery.replay", first).total_ms},
      {"recovery.records_replayed", "count",
       static_cast<double>(traced.records_replayed)},
      {"csv.load_ms", "ms", tracer.Sum("backend.load_csv", 0).total_ms},
      {"trace.overhead_pct", "%", 100.0 * (traced.loop_ms / plain.loop_ms - 1.0)},
  };
  result.info["stream_requests"] = std::to_string(stream.size());
  result.info["stream_writes"] = std::to_string(writes);
  result.info["traced_replay_ms"] = std::to_string(traced.loop_ms);
  result.info["untraced_replay_ms"] = std::to_string(plain.loop_ms);
  result.info["served_single_client_ms"] = std::to_string(served_ms);
  result.info["served_server_side_ms"] = std::to_string(server_ms);
  result.info["trace_file"] = env.trace_path;
  return result;
}

}  // namespace e2ebench
