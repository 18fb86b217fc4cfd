// The benchmark's three workloads, generated from a seed. The server only
// ever receives what is built here: CSV files and command lines.
//
//   chain_scan     20,000-row tuple-independent table, 4 readers issuing
//                  SELECT * ... WHERE v >= c (1-50% of rows). The only
//                  shape the worker tier serves; step II is a lookup.
//   agg_having     COUNT/SUM/MIN/MAX GROUP BY ... HAVING over groups of
//                  4-10 rows plus a join aggregate on a renamed key, 2
//                  readers. The paper's queries; coordinator replica only.
//   mixed_durable  1 writer streaming insert/setprob/delete beside 2
//                  readers printing a worker-served chain view and a
//                  replica aggregate view (IVM + step II cache).
//
// Every server runs `--open` with the default flush policy (fsync per
// mutation), so every workload has a write-ack latency and a crash
// recovery time. chain_scan's readers also send one `setprob` per four
// reads, and agg_having has a third client sending `setprob`s, on "cold"
// rows no read of the window returns: the acks are measured under the read
// load, the reads stay independent of the writes, and each client owns its
// own cold rows, so the final state does not depend on how the clients
// interleave.

#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

struct Request {
  std::string line;
  bool write = false;
  /// (template, constant) identity; the repeat share counts requests whose
  /// key an earlier request of the run already had.
  std::string key;
  /// Seeded pause before sending. Without it, two or three closed-loop
  /// clients of a single-threaded server lock into a fixed phase, and
  /// whether a write waits behind a read flips from seed to seed.
  double think_ms = 0.0;
};

/// Every workload's server forks this many shard workers.
constexpr int kShards = 2;

struct Workload {
  std::string name;
  std::string why;
  /// Generated input files: (path relative to the run directory, contents).
  std::vector<std::pair<std::string, std::string>> files;
  /// Set-up commands (loads, view registrations), in order; `{dir}` stands
  /// for the run directory.
  std::vector<std::string> setup;
  /// The read whose correct reply ends set-up.
  std::string check;
  /// One cyclic request stream per closed-loop client.
  std::vector<std::vector<Request>> clients;
  /// True when reads observe the writes (mixed_durable). Then client 0 is
  /// the only writer and the others only read; otherwise no read of the
  /// window depends on any write.
  bool reads_see_writes = false;
  /// Reads issued after the last ack; verified, then re-read after
  /// recovery (the last one first: it is the recovery's check).
  std::vector<std::string> final_reads;
  /// Sizes, client counts, flush policy, group sizes: echoed in run-info.
  std::map<std::string, std::string> info;
};

/// Builds workload `name` for `seed`. False when the name is unknown.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// Replaces every `{dir}` in `line` with `dir`.
std::string Expand(const std::string& line, const std::string& dir);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOAD_H_
