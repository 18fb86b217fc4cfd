// The end-to-end run: set-up (timed, several times), a closed-loop window
// with tracing off, a crash (SIGKILL) and timed recoveries, and a
// byte-for-byte check of every reply against the reference engine.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "e2ebench/src/modes.h"

namespace e2ebench {

namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr int kSetUps = 11;
constexpr int kRecoveries = 11;
constexpr size_t kWarmUpReads = 2;  // Per client, before the window.

double MsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// A reply as one string (ok flag first), for interning.
std::string Flat(const Reply& r) { return (r.ok ? "1" : "0") + r.text; }

// What one closed-loop client saw in the window.
struct ClientLog {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<std::string> read_keys;
  std::string transport_failure;  // The request, when one failed.
  std::vector<std::pair<std::string, Reply>> writes;  // In issue order.
  // Reads independent of the writes: the first reply per request line.
  // Every later reply to the same line is compared to it in the loop (a
  // memcmp), and the first reply to the reference afterwards.
  std::unordered_map<std::string, Reply> first;
  uint64_t same_as_first = 0;
  std::vector<std::pair<std::string, Reply>> differing;
  // Reads that observe the writes: each with the window of writer states
  // it may have seen: [acks before it was sent, writes sent before its
  // reply arrived].
  struct Read {
    std::string line;
    const std::string* text;
    uint64_t lo, hi;
  };
  std::vector<Read> reads;
  std::unordered_set<std::string> texts;  // Interned replies.
};

// Checks the reads of a workload whose reads see the writes: replays the
// writer's acked sequence on the reference and renders a read at state k
// only when some read may have seen state k. Also checks every writer ack.
void VerifyReadsSeeWrites(const ClientLog& writer,
                          const std::vector<ClientLog>& logs, Reference* ref,
                          Tally* tally) {
  std::vector<const ClientLog::Read*> reads;
  for (const ClientLog& log : logs) {
    for (const ClientLog::Read& r : log.reads) reads.push_back(&r);
  }
  std::sort(reads.begin(), reads.end(),
            [](const auto* a, const auto* b) { return a->lo < b->lo; });
  const uint64_t n = writer.writes.size();
  std::vector<const ClientLog::Read*> active;
  size_t next = 0;
  for (uint64_t k = 0; k <= n; ++k) {
    while (next < reads.size() && reads[next]->lo == k) {
      active.push_back(reads[next++]);
    }
    std::unordered_map<std::string, std::string> rendered;
    std::vector<const ClientLog::Read*> still;
    for (const ClientLog::Read* r : active) {
      auto it = rendered.find(r->line);
      if (it == rendered.end()) {
        it = rendered.emplace(r->line, Flat(ref->Exec(r->line))).first;
      }
      if (*r->text == it->second) {
        tally->Check(true, "", r->line);
      } else if (r->hi == k) {
        tally->Check(false,
                     "read matches no reference state between writes " +
                         std::to_string(r->lo) + " and " +
                         std::to_string(r->hi),
                     r->line);
      } else {
        still.push_back(r);
      }
    }
    active.swap(still);
    if (k < n) {
      const auto& [line, reply] = writer.writes[k];
      tally->Compare(reply, ref->Exec(line), line);
    }
  }
  for (const ClientLog::Read* r : active) {
    tally->Check(false, "read window ends after the last write", r->line);
  }
}

}  // namespace

Result RunEndToEnd(const Workload& w, const Env& env, double seconds) {
  Result result;
  Tally& tally = result.tally;
  const bool see_writes = w.reads_see_writes;
  Reference ref;
  Expected expected = ReferenceSetUp(w, env, &ref);
  // Before any write; independent reads expect these throughout.
  std::unordered_map<std::string, Reply> ref_reads;
  auto ref_read = [&](const std::string& line) -> const Reply& {
    auto it = ref_reads.find(line);
    if (it == ref_reads.end()) it = ref_reads.emplace(line, ref.Exec(line)).first;
    return it->second;
  };

  // -- Set-up, several times: a fresh store and server each time; the last
  // one serves the window.
  std::vector<double> setups;
  std::string store;
  auto server = std::make_unique<Server>();
  auto client = std::make_unique<Client>();
  for (int i = 0; i < kSetUps; ++i) {
    server = std::make_unique<Server>();
    client = std::make_unique<Client>();
    store = env.dir + "/store" + std::to_string(i);
    double s = SetUp(w, env, expected, store, "setup" + std::to_string(i),
                     server.get(), client.get(), &tally);
    if (s < 0) return result;
    setups.push_back(s);
  }
  for (const std::vector<Request>& stream : w.clients) {
    size_t warmed = 0;
    for (size_t j = 0; j < stream.size() && warmed < kWarmUpReads; ++j) {
      if (stream[j].write) continue;
      Reply reply;
      const std::string& line = stream[j].line;
      if (!tally.Check(client->Call(line, &reply), "transport failure", line)) {
        return result;
      }
      tally.Compare(reply, ref_read(line), line);
      ++warmed;
    }
  }
  client->Close();  // At most one connection per closed-loop client.

  // -- The timed window (closed loop, tracing off). ----------------------
  std::vector<ClientLog> logs(w.clients.size());
  std::vector<Client> clients(w.clients.size());
  for (Client& c : clients) {
    if (!tally.Check(c.Connect(server->address(), kConnectTimeoutMs),
                     "cannot connect a client", server->address())) {
      return result;
    }
  }
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> acked{0};
  const SteadyClock::time_point start = SteadyClock::now();
  const SteadyClock::time_point deadline =
      start + std::chrono::duration_cast<SteadyClock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<SteadyClock::time_point> finished(clients.size(), start);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w.clients.size(); ++c) {
    threads.emplace_back([&, c]() {
      const std::vector<Request>& stream = w.clients[c];
      ClientLog& log = logs[c];
      for (size_t j = 0; SteadyClock::now() < deadline; ++j) {
        const Request& req = stream[j % stream.size()];
        if (req.think_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(req.think_ms));
        }
        if (req.write) sent.fetch_add(1);
        uint64_t lo = acked.load();
        Reply reply;
        SteadyClock::time_point t0 = SteadyClock::now();
        bool ok = clients[c].Call(req.line, &reply);
        SteadyClock::time_point t1 = SteadyClock::now();
        if (!ok) {
          log.transport_failure = req.line;
          break;
        }
        if (req.write) {
          acked.fetch_add(1);
          log.write_ms.push_back(MsBetween(t0, t1));
          log.writes.emplace_back(req.line, std::move(reply));
          continue;
        }
        log.read_ms.push_back(MsBetween(t0, t1));
        log.read_keys.push_back(req.key);
        if (see_writes) {
          uint64_t hi = sent.load();
          const std::string* text = &*log.texts.insert(Flat(reply)).first;
          log.reads.push_back(ClientLog::Read{req.line, text, lo, hi});
          continue;
        }
        auto [it, inserted] = log.first.emplace(req.line, reply);
        if (inserted) continue;
        if (it->second == reply) {
          ++log.same_as_first;
        } else {
          log.differing.emplace_back(req.line, std::move(reply));
        }
      }
      finished[c] = SteadyClock::now();
    });
  }
  for (std::thread& t : threads) t.join();
  clients.clear();
  const double window_s =
      std::chrono::duration<double>(
          *std::max_element(finished.begin(), finished.end()) - start)
          .count();

  // -- After the window: final reads, memory, then the crash. ------------
  client = std::make_unique<Client>();
  if (!tally.Check(client->Connect(server->address(), kConnectTimeoutMs),
                   "cannot reconnect", server->address())) {
    return result;
  }
  std::vector<Reply> finals;
  for (const std::string& line : w.final_reads) {
    Reply reply;
    if (!tally.Check(client->Call(line, &reply), "transport failure", line)) {
      return result;
    }
    finals.push_back(std::move(reply));
  }
  const double rss_mib = server->PeakRssMib(client.get());
  server->Kill();  // SIGKILL the front end and its workers.

  // -- Verification against the reference engine. ------------------------
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::set<std::string> keys;
  for (const ClientLog& log : logs) {
    read_ms.insert(read_ms.end(), log.read_ms.begin(), log.read_ms.end());
    write_ms.insert(write_ms.end(), log.write_ms.begin(), log.write_ms.end());
    keys.insert(log.read_keys.begin(), log.read_keys.end());
    if (!log.transport_failure.empty()) {
      tally.Check(false, "transport failure", log.transport_failure);
    }
  }
  if (see_writes) {
    VerifyReadsSeeWrites(logs[0], logs, &ref, &tally);
  } else {
    for (const ClientLog& log : logs) {
      for (const auto& [line, reply] : log.first) {
        tally.Compare(reply, ref_read(line), line);
      }
      tally.attempted += log.same_as_first;
      for (const auto& [line, reply] : log.differing) {
        tally.Compare(reply, ref_read(line), line);
      }
    }
    // Each client writes its own rows, so applying the clients one after
    // the other reaches the server's final state.
    for (const ClientLog& log : logs) {
      for (const auto& [line, reply] : log.writes) {
        tally.Compare(reply, ref.Exec(line), line);
      }
    }
  }
  std::vector<Reply> final_expected;
  for (size_t i = 0; i < w.final_reads.size(); ++i) {
    final_expected.push_back(ref.Exec(w.final_reads[i]));
    tally.Compare(finals[i], final_expected[i], w.final_reads[i]);
  }

  // -- Recovery: restart on the same store, up to the first correct reply.
  std::vector<double> recoveries;
  for (int i = 0; i < kRecoveries; ++i) {
    server = std::make_unique<Server>();
    client = std::make_unique<Client>();
    double s = Recover(env, store, w.final_reads.back(),
                       final_expected.back(), "recover" + std::to_string(i),
                       server.get(), client.get(), &tally);
    if (s < 0) return result;
    recoveries.push_back(s);
    for (size_t f = 0; f < w.final_reads.size(); ++f) {
      Reply reply;
      if (tally.Check(client->Call(w.final_reads[f], &reply),
                      "transport failure", w.final_reads[f])) {
        tally.Compare(reply, final_expected[f],
                      w.final_reads[f] + "  (after recovery)");
      }
    }
    server->Kill();
  }

  const size_t reads = read_ms.size();
  const size_t writes = write_ms.size();
  result.metrics = {
      {"setup_s", "s", Median(setups)},
      {"qps", "ops/s", static_cast<double>(reads + writes) / window_s},
      {"read_p50_ms", "ms", Percentile(&read_ms, 0.50)},
      {"read_p99_ms", "ms", Percentile(&read_ms, 0.99)},
      {"write_p50_ms", "ms", Percentile(&write_ms, 0.50)},
      {"write_p99_ms", "ms", Percentile(&write_ms, 0.99)},
      {"peak_rss_mb", "MB", rss_mib},
      {"recovery_s", "s", Median(recoveries)},
  };
  result.info["read_samples"] = std::to_string(reads);
  result.info["write_samples"] = std::to_string(writes);
  result.info["window_s"] = std::to_string(window_s);
  result.info["setup_samples"] = std::to_string(setups.size());
  result.info["recovery_samples"] = std::to_string(recoveries.size());
  result.info["repeat_share"] =
      reads == 0 ? "0"
                 : std::to_string(static_cast<double>(reads - keys.size()) /
                                  static_cast<double>(reads));
  return result;
}

}  // namespace e2ebench
