#include "e2ebench/src/harness.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "e2ebench/src/proc.h"

namespace e2ebench {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string Head(const std::string& text) {
  constexpr size_t kShown = 400;
  return text.size() <= kShown ? text
                               : text.substr(0, kShown) + "... (" +
                                     std::to_string(text.size()) + " bytes)";
}

void PrintLogTail(const std::string& path) {
  std::ifstream in(path);
  std::stringstream all;
  all << in.rdbuf();
  std::string text = all.str();
  if (text.size() > 2000) text = text.substr(text.size() - 2000);
  if (!text.empty()) std::fprintf(stderr, "server log:\n%s\n", text.c_str());
}

}  // namespace

bool Tally::Check(bool ok, const std::string& what,
                  const std::string& request) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "e2ebench: FAILED %s\n  request: %s\n", what.c_str(),
                 request.c_str());
  }
  return ok;
}

bool Tally::Compare(const Reply& got, const Reply& want,
                    const std::string& request) {
  if (got == want) return Check(true, "", request);
  std::string what = "reply differs from the reference engine\n  served (ok=" +
                     std::to_string(got.ok) + "): " + Head(got.text) +
                     "\n  expected (ok=" + std::to_string(want.ok) +
                     "): " + Head(want.text);
  return Check(false, what, request);
}

Reply Reference::Exec(const std::string& line) {
  bool shutdown = false;
  pvcdb::ClientReplyMsg msg =
      pvcdb::ExecuteCommand(&backend_, line, &shutdown, &session_);
  return Reply{msg.ok, std::move(msg.text)};
}

bool Server::Start(const Env& env, const std::string& store, int shards,
                   const std::string& tag) {
  Kill();
  address_ = env.dir + "/" + tag + ".sock";
  log_ = env.dir + "/" + tag + ".log";
  unlink(address_.c_str());
  std::vector<std::string> argv = {env.server_bin, "--listen", address_,
                                   "--shards", std::to_string(shards),
                                   "--open", store, "--quiet"};
  argv.insert(argv.end(), extra_flags.begin(), extra_flags.end());
  pid_ = SpawnGroup(argv, log_);
  return pid_ > 0;
}

void Server::Kill() {
  if (pid_ > 0) KillGroup(pid_);
  pid_ = -1;
}

double Server::PeakRssMib(Client* client) {
  long kib = PeakRssKib(pid_);
  Reply reply;
  if (client->Call("workers", &reply)) {
    // "worker N: pid P, up ..." per worker.
    std::istringstream in(reply.text);
    std::string line;
    while (std::getline(in, line)) {
      size_t at = line.find(": pid ");
      if (at != std::string::npos) {
        kib += PeakRssKib(static_cast<pid_t>(std::atol(line.c_str() + at + 6)));
      }
    }
  }
  return static_cast<double>(kib) / 1024.0;
}

bool WriteInputs(const Workload& w, const Env& env) {
  for (const auto& [name, contents] : w.files) {
    std::ofstream out(env.dir + "/" + name);
    out << contents;
    if (!out) return false;
  }
  return true;
}

Expected ReferenceSetUp(const Workload& w, const Env& env, Reference* ref) {
  Expected e;
  for (const std::string& cmd : w.setup) {
    e.setup.push_back(ref->Exec(Expand(cmd, env.dir)));
  }
  e.check = ref->Exec(w.check);
  return e;
}

double SetUp(const Workload& w, const Env& env, const Expected& expected,
             const std::string& store, const std::string& tag, Server* server,
             Client* client, Tally* tally) {
  auto start = std::chrono::steady_clock::now();
  if (!tally->Check(server->Start(env, store, kShards, tag),
                    "cannot start pvcdb_server", env.server_bin) ||
      !tally->Check(client->Connect(server->address(), kConnectTimeoutMs),
                    "cannot connect to the server", server->address())) {
    PrintLogTail(server->log_path());
    return -1.0;
  }
  for (size_t i = 0; i < w.setup.size(); ++i) {
    std::string line = Expand(w.setup[i], env.dir);
    Reply reply;
    if (!tally->Check(client->Call(line, &reply), "transport failure", line) ||
        !tally->Compare(reply, expected.setup[i], line)) {
      return -1.0;
    }
  }
  Reply reply;
  if (!tally->Check(client->Call(w.check, &reply), "transport failure",
                    w.check) ||
      !tally->Compare(reply, expected.check, w.check)) {
    return -1.0;
  }
  return SecondsSince(start);
}

double Recover(const Env& env, const std::string& store,
               const std::string& check, const Reply& expected,
               const std::string& tag, Server* server, Client* client,
               Tally* tally) {
  auto start = std::chrono::steady_clock::now();
  Reply reply;
  if (!tally->Check(server->Start(env, store, kShards, tag),
                    "cannot restart pvcdb_server", store) ||
      !tally->Check(client->Connect(server->address(), kConnectTimeoutMs),
                    "cannot connect to the restarted server",
                    server->address()) ||
      !tally->Check(client->Call(check, &reply), "transport failure", check)) {
    PrintLogTail(server->log_path());
    return -1.0;
  }
  double seconds = SecondsSince(start);
  return tally->Compare(reply, expected, check + "  (after recovery)")
             ? seconds
             : -1.0;
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values->size())));
  return (*values)[rank == 0 ? 0 : rank - 1];
}

double Median(std::vector<double> values) { return Percentile(&values, 0.5); }

}  // namespace e2ebench
