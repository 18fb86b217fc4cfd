// The program's own counters, read through `stats --json` (JSON Lines, one
// metric per line; worker entries are prefixed "shard<N>.").

#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <map>
#include <string>

namespace e2ebench {

/// Counter and gauge values by name; a histogram contributes
/// "<name>.count" and "<name>.sum".
using Stats = std::map<std::string, double>;

/// Parses `stats --json` output. Unparseable lines are skipped.
Stats ParseStats(const std::string& json_lines);

/// after - before, entry by entry (missing entries count as 0).
Stats Delta(const Stats& after, const Stats& before);

/// `name` summed over the front end and every shard worker.
double AllProcesses(const Stats& stats, const std::string& name);

/// `name` summed over the shard workers only.
double Workers(const Stats& stats, const std::string& name);

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
