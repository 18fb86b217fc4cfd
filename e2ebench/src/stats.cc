#include "e2ebench/src/stats.h"

#include <cstdlib>
#include <sstream>

namespace e2ebench {

namespace {

// The text after `"key": ` in `line`, or npos.
size_t ValueAt(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\": ";
  size_t at = line.find(needle);
  return at == std::string::npos ? at : at + needle.size();
}

std::string QuotedAt(const std::string& line, const std::string& key) {
  size_t at = ValueAt(line, key);
  if (at == std::string::npos || at >= line.size() || line[at] != '"') {
    return "";
  }
  size_t end = line.find('"', at + 1);
  return end == std::string::npos ? "" : line.substr(at + 1, end - at - 1);
}

double NumberAt(const std::string& line, const std::string& key) {
  size_t at = ValueAt(line, key);
  return at == std::string::npos ? 0.0 : std::strtod(line.c_str() + at, nullptr);
}

bool IsShardEntry(const std::string& entry, const std::string& name) {
  if (entry.rfind("shard", 0) != 0) return false;
  size_t dot = entry.find('.');
  if (dot == std::string::npos || dot == 5) return false;
  for (size_t i = 5; i < dot; ++i) {
    if (entry[i] < '0' || entry[i] > '9') return false;
  }
  return entry.compare(dot + 1, std::string::npos, name) == 0;
}

}  // namespace

Stats ParseStats(const std::string& json_lines) {
  Stats out;
  std::istringstream in(json_lines);
  std::string line;
  while (std::getline(in, line)) {
    std::string name = QuotedAt(line, "metric");
    std::string type = QuotedAt(line, "type");
    if (name.empty()) continue;
    if (type == "histogram") {
      out[name + ".count"] = NumberAt(line, "count");
      out[name + ".sum"] = NumberAt(line, "sum");
    } else {
      out[name] = NumberAt(line, "value");
    }
  }
  return out;
}

Stats Delta(const Stats& after, const Stats& before) {
  Stats out = after;
  for (const auto& [name, value] : before) out[name] -= value;
  return out;
}

double AllProcesses(const Stats& stats, const std::string& name) {
  auto it = stats.find(name);
  return (it == stats.end() ? 0.0 : it->second) + Workers(stats, name);
}

double Workers(const Stats& stats, const std::string& name) {
  double sum = 0.0;
  for (const auto& [entry, value] : stats) {
    if (IsShardEntry(entry, name)) sum += value;
  }
  return sum;
}

}  // namespace e2ebench
