// e2ebench -- the end-to-end benchmark of pvcdb_server.
//
//   e2ebench --workload <chain_scan|agg_having|mixed_durable> --seed <n>
//            --seconds <s> --trace <0|1> --server-bin <path>
//            [--commit <id>] [--source-digest <hex>]
//
// Run from the checkout root (e2ebench/run.py builds and invokes it).
// --trace 0 prints the end-to-end metrics of a real server under its
// closed-loop clients; --trace 1 prints the per-layer metrics of the
// traced replay. Either way the last stdout line is one JSON object with
// the keys correct, attempted, failed and metrics; the line before it is a
// run-info JSON object (commit, hardware_threads, build, workload sizes).
// Any reply that differs from the reference engine, or any failed
// durability check, makes the exit code non-zero.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "e2ebench/src/modes.h"
#include "e2ebench/src/proc.h"
#include "e2ebench/src/workload.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif
#ifndef E2EBENCH_COMPILER
#define E2EBENCH_COMPILER "unknown"
#endif

namespace {

using namespace e2ebench;

// A run must end well inside the 180 s every invocation is allowed.
constexpr double kWatchdogSeconds = 170.0;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonObject(const std::map<std::string, std::string>& fields) {
  std::string out = "{";
  for (const auto& [k, v] : fields) {
    if (out.size() > 1) out += ", ";
    out += JsonString(k) + ": " + JsonString(v);
  }
  return out + "}";
}

std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --server-bin <path> [--commit <id>] "
               "[--source-digest <hex>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return Usage();
    args[flag.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage();
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "server-bin"}) {
    if (args.count(required) == 0) return Usage();
  }
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::atof(args["seconds"].c_str());
  const bool trace = args["trace"] == "1";
  if (!(seconds > 0 && seconds <= 60) ||
      (args["trace"] != "0" && args["trace"] != "1")) {
    return Usage();
  }
  Workload w;
  if (!MakeWorkload(args["workload"], seed, &w)) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 args["workload"].c_str());
    return Usage();
  }
  if (access(args["server-bin"].c_str(), X_OK) != 0) {
    std::fprintf(stderr, "e2ebench: no executable at %s\n",
                 args["server-bin"].c_str());
    return 2;
  }

  InstallProcessHygiene(kWatchdogSeconds);
  int exit_code = 0;
  {
    const std::string out_dir = ".bench_build";
    mkdir(out_dir.c_str(), 0755);
    TempDir dir(out_dir + "/e2ebench-run-" + std::to_string(getpid()));
    Env env;
    env.server_bin = args["server-bin"];
    env.dir = dir.path();
    if (trace) {
      mkdir((out_dir + "/e2ebench-traces").c_str(), 0755);
      env.trace_path = out_dir + "/e2ebench-traces/" + w.name + "-seed" +
                       std::to_string(seed) + ".jsonl";
    }
    if (!WriteInputs(w, env)) {
      std::fprintf(stderr, "e2ebench: cannot write inputs under %s\n",
                   env.dir.c_str());
      KillAllGroups();
      return 2;
    }
    Result r = trace ? RunTraced(w, env, seconds) : RunEndToEnd(w, env, seconds);
    KillAllGroups();
    const bool correct = r.tally.failed == 0 && !r.metrics.empty();
    const double error_rate =
        r.tally.attempted == 0 ? 1.0
                               : static_cast<double>(r.tally.failed) /
                                     static_cast<double>(r.tally.attempted);
    if (trace) r.metrics.push_back({"error_rate", "ratio", error_rate});

    std::map<std::string, std::string> info = r.info;
    info["bench"] = "e2ebench";
    info["workload"] = w.name;
    info["why"] = w.why;
    info["seed"] = std::to_string(seed);
    info["seconds"] = args["seconds"];
    info["mode"] = trace ? "traced replay (per-layer)" : "end to end, tracing off";
    info["commit"] = args.count("commit") ? args["commit"] : "unknown";
    info["source_digest"] =
        args.count("source-digest") ? args["source-digest"] : "unknown";
    info["hardware_threads"] = std::to_string(std::thread::hardware_concurrency());
    info["build_type"] = E2EBENCH_BUILD_TYPE;
    info["compiler"] = E2EBENCH_COMPILER;
    info["error_rate"] = Number(error_rate);
    for (const auto& [k, v] : w.info) info["workload." + k] = v;

    std::printf("%-36s %22s  %s\n", "metric", "value", "unit");
    for (const Metric& m : r.metrics) {
      std::printf("%-36s %22.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("run-info %s\n", JsonObject(info).c_str());
    std::string metrics;
    for (const Metric& m : r.metrics) {
      if (!metrics.empty()) metrics += ", ";
      metrics += JsonString(m.name) + ": {\"value\": " + Number(m.value) +
                 ", \"unit\": " + JsonString(m.unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.tally.attempted),
                static_cast<unsigned long long>(r.tally.failed),
                metrics.c_str());
    std::fflush(stdout);
    exit_code = correct ? 0 : 1;
  }
  StopWatchdog();
  return exit_code;
}
