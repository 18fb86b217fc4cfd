// The two run modes. RunEndToEnd drives a real server with tracing off and
// yields the end-to-end metrics; RunTraced replays a fixed request stream
// in process with spans on and yields the per-layer metrics.

#ifndef E2EBENCH_MODES_H_
#define E2EBENCH_MODES_H_

#include <map>
#include <string>
#include <vector>

#include "e2ebench/src/harness.h"
#include "e2ebench/src/workload.h"

namespace e2ebench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Result {
  Tally tally;
  std::vector<Metric> metrics;
  /// Sample counts, repeat share, trace file, ...: echoed in run-info.
  std::map<std::string, std::string> info;
};

Result RunEndToEnd(const Workload& w, const Env& env, double seconds);
Result RunTraced(const Workload& w, const Env& env, double seconds);

}  // namespace e2ebench

#endif  // E2EBENCH_MODES_H_
