#include "e2ebench/src/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace e2ebench {

namespace {

// splitmix64: the same seed gives the same inputs on every platform (the
// standard library's distributions are implementation-defined).
class Rng {
 public:
  Rng(uint64_t seed, const std::string& salt) : state_(seed) {
    for (char c : salt) state_ = state_ * 131 + static_cast<uint8_t>(c);
  }
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// A tuple probability in {0.05, 0.06, ..., 0.95}, printed exactly.
  std::string Prob() {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "0.%02zu", 5 + Below(91));
    return buf;
  }
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t state_;
};

std::string Str(size_t v) { return std::to_string(v); }

// One group of each size 4..10: the conditional aggregate of a HAVING
// query doubles in cost per group row, so groups stay at 10 rows or fewer,
// and a fixed size multiset keeps the cost of a region (or a view) the
// same for every seed while the seed decides which customer gets which.
const std::vector<size_t>& GroupSizes() {
  static const std::vector<size_t> sizes = {4, 5, 6, 7, 8, 9, 10};
  return sizes;
}

// Rotates `list` by `by` so concurrent readers start at different points.
std::vector<Request> Rotated(const std::vector<Request>& list, size_t by) {
  std::vector<Request> out(list.begin() + static_cast<long>(by % list.size()),
                           list.end());
  out.insert(out.end(), list.begin(),
             list.begin() + static_cast<long>(by % list.size()));
  return out;
}

// Interleaves one `setprob` on client `c`'s share of `cold_vars` after
// every kReadsPerWrite reads of `reads`.
constexpr size_t kReadsPerWrite = 4;
std::vector<Request> WithColdWrites(const std::vector<Request>& reads,
                                    const std::vector<size_t>& cold_vars,
                                    size_t c, size_t clients, Rng* rng) {
  std::vector<size_t> own;
  for (size_t i = c; i < cold_vars.size(); i += clients) {
    own.push_back(cold_vars[i]);
  }
  std::vector<Request> out;
  for (size_t i = 0; i < reads.size(); ++i) {
    out.push_back(reads[i]);
    if ((i + 1) % kReadsPerWrite == 0) {
      out.push_back(Request{"setprob x" + Str(own[rng->Below(own.size())]) +
                                " " + rng->Prob(),
                            true, ""});
    }
  }
  return out;
}

const char* kFlushPolicy = "--open, fsync per mutation (default)";
// Upper end of the pause before a write where clients would otherwise lock
// into a phase: about one read's service time.
constexpr double kThinkMs = 20.0;

void MakeChainScan(uint64_t seed, Workload* w) {
  Rng rng(seed, "chain_scan");
  constexpr size_t kRows = 20000;
  constexpr size_t kRange = 10000;
  constexpr size_t kThresholds = 64;
  constexpr size_t kReaders = 4;
  // Every value of [0, kRange) appears equally often, so `v >= c` selects
  // the same share of rows for every seed.
  std::vector<size_t> values(kRows);
  for (size_t i = 0; i < kRows; ++i) values[i] = i % kRange;
  rng.Shuffle(&values);
  std::ostringstream csv;
  csv << "k:int,v:int,_prob\n";
  std::vector<size_t> cold;  // v < kCold: below every threshold.
  constexpr size_t kCold = 50;
  for (size_t i = 0; i < kRows; ++i) {
    csv << i << "," << values[i] << "," << rng.Prob() << "\n";
    if (values[i] < kCold) cold.push_back(i);  // Row i is variable x<i>.
  }
  w->files.push_back({"events.csv", csv.str()});
  w->setup = {"load events {dir}/events.csv"};
  w->check = "SELECT * FROM events WHERE v >= 9900";
  // Stratified selectivities over [1%, 50%]: every seed sees the same
  // spread of reply sizes, so latency percentiles compare across seeds.
  std::vector<Request> list;
  for (size_t i = 0; i < kThresholds; ++i) {
    double share = 0.01 + 0.49 * (static_cast<double>(i) + rng.Unit()) /
                              static_cast<double>(kThresholds);
    size_t c = static_cast<size_t>(std::lround(kRange * (1.0 - share)));
    list.push_back(Request{"SELECT * FROM events WHERE v >= " + Str(c), false,
                           "chain:" + Str(c)});
  }
  rng.Shuffle(&list);
  for (size_t r = 0; r < kReaders; ++r) {
    w->clients.push_back(WithColdWrites(
        Rotated(list, r * kThresholds / kReaders), cold, r, kReaders, &rng));
  }
  w->final_reads = {w->check,
                    "SELECT * FROM events WHERE v < " + Str(kCold)};
  w->info = {{"rows", Str(kRows)},
             {"clients", "4 readers (closed loop)"},
             {"thresholds", Str(kThresholds) + " stratified, 1-50% of rows"},
             {"writes", "1 setprob per 4 reads, on the " + Str(cold.size()) +
                            " rows with v < " + Str(kCold)}};
}

void MakeAggHaving(uint64_t seed, Workload* w) {
  Rng rng(seed, "agg_having");
  constexpr size_t kRegions = 6;  // Queried; region kRegions is cold.
  constexpr size_t kReaders = 2;
  constexpr size_t kStream = 100;
  const size_t per_region = GroupSizes().size();
  const size_t customers = (kRegions + 1) * per_region;
  std::vector<size_t> ids(customers);
  for (size_t i = 0; i < customers; ++i) ids[i] = i;
  rng.Shuffle(&ids);
  struct Fact {
    size_t cust, region, amt;
    std::string p;
  };
  std::vector<Fact> facts;
  for (size_t r = 0; r <= kRegions; ++r) {
    std::vector<size_t> sizes = GroupSizes();
    rng.Shuffle(&sizes);
    for (size_t g = 0; g < per_region; ++g) {
      for (size_t j = 0; j < sizes[g]; ++j) {
        facts.push_back(Fact{ids[r * per_region + g], r, 1 + rng.Below(20),
                             rng.Prob()});
      }
    }
  }
  rng.Shuffle(&facts);
  std::ostringstream fcsv;
  fcsv << "fid:int,cust:int,region:int,amt:int,_prob\n";
  std::vector<size_t> cold;  // Facts load first: row i is variable x<i>.
  for (size_t i = 0; i < facts.size(); ++i) {
    fcsv << i << "," << facts[i].cust << "," << facts[i].region << ","
         << facts[i].amt << "," << facts[i].p << "\n";
    if (facts[i].region == kRegions) cold.push_back(i);
  }
  std::ostringstream dcsv;
  dcsv << "dcust:int,tier:int,_prob\n";
  for (size_t c = 0; c < customers; ++c) {
    dcsv << c << "," << rng.Below(3) << "," << rng.Prob() << "\n";
  }
  w->files = {{"facts.csv", fcsv.str()}, {"custs.csv", dcsv.str()}};
  w->setup = {"load facts {dir}/facts.csv", "load custs {dir}/custs.csv"};

  // (template, HAVING constants). {r} is the region, {k} the constant.
  struct Template {
    const char* name;
    const char* sql;
    std::vector<size_t> constants;
  };
  const std::vector<Template> templates = {
      {"count",
       "SELECT cust, COUNT(*) AS n FROM facts WHERE region = {r} GROUP BY "
       "cust HAVING n >= {k}",
       {3, 4, 5, 6}},
      {"sum",
       "SELECT cust, SUM(amt) AS s FROM facts WHERE region = {r} GROUP BY "
       "cust HAVING s >= {k}",
       {30, 45, 60, 75}},
      {"min",
       "SELECT cust, MIN(amt) AS m FROM facts WHERE region = {r} GROUP BY "
       "cust HAVING m <= {k}",
       {2, 4, 6, 8}},
      {"max",
       "SELECT cust, MAX(amt) AS m FROM facts WHERE region = {r} GROUP BY "
       "cust HAVING m >= {k}",
       {14, 16, 18, 19}},
      {"join",
       "SELECT cust, COUNT(*) AS n FROM facts, custs WHERE cust = dcust AND "
       "region = {r} GROUP BY cust HAVING n >= {k}",
       {3, 4, 5, 6}},
  };
  auto render = [](std::string sql, size_t r, size_t k) {
    sql.replace(sql.find("{r}"), 3, Str(r));
    sql.replace(sql.find("{k}"), 3, Str(k));
    return sql;
  };
  // Each template takes the same share of every stream; the seed picks the
  // order, the region and the constant.
  std::vector<size_t> order;
  for (size_t i = 0; i < kStream; ++i) order.push_back(i % templates.size());
  for (size_t r = 0; r < kReaders; ++r) {
    rng.Shuffle(&order);
    std::vector<Request> stream;
    for (size_t t : order) {
      size_t region = rng.Below(kRegions);
      size_t k = templates[t].constants[rng.Below(
          templates[t].constants.size())];
      stream.push_back(Request{render(templates[t].sql, region, k), false,
                               std::string(templates[t].name) + ":" +
                                   Str(region) + ":" + Str(k)});
    }
    w->clients.push_back(stream);
  }
  // A third client writes the cold rows, pausing before each write.
  std::vector<Request> writer;
  for (size_t i = 0; i < kStream; ++i) {
    writer.push_back(Request{"setprob x" + Str(cold[rng.Below(cold.size())]) +
                                 " " + rng.Prob(),
                             true, "", kThinkMs * rng.Unit()});
  }
  w->clients.push_back(writer);
  w->check = render(templates[0].sql, 0, 4);
  w->final_reads = {render(templates[4].sql, 1, 3),
                    render(templates[0].sql, kRegions, 4)};
  w->info = {
      {"rows", Str(facts.size()) + " facts, " + Str(customers) + " custs"},
      {"clients", "2 readers + 1 writer (0-20 ms pause before each write), "
                  "closed loop"},
      {"groups", Str(customers) + " customers in " + Str(kRegions + 1) +
                     " regions; each region has one group of each size 4-10"},
      {"templates", "count, sum, min, max, join (equal shares) over regions "
                    "0-" + Str(kRegions - 1)},
      {"writes", "setprob on the " + Str(cold.size()) + " facts of region " +
                     Str(kRegions)}};
}

void MakeMixedDurable(uint64_t seed, Workload* w) {
  Rng rng(seed, "mixed_durable");
  constexpr size_t kEvents = 4000;
  constexpr size_t kRange = 10000;
  constexpr size_t kWrites = 60000;
  std::ostringstream ecsv;
  ecsv << "k:int,v:int,_prob\n";
  for (size_t i = 0; i < kEvents; ++i) {
    ecsv << i << "," << rng.Below(kRange) << "," << rng.Prob() << "\n";
  }
  // Two groups of each base size 4..9. The writer keeps every group at its
  // base size or one row above it (at most 10), so the view's conditional
  // aggregates cost about the same at every point of the run.
  std::vector<size_t> base;
  for (size_t copy = 0; copy < 2; ++copy) {
    for (size_t size : GroupSizes()) {
      if (size < 10) base.push_back(size);
    }
  }
  rng.Shuffle(&base);
  std::vector<std::vector<size_t>> members(base.size());  // fids per cust
  std::ostringstream fcsv;
  fcsv << "fid:int,cust:int,amt:int,_prob\n";
  size_t next_fid = 0;
  for (size_t c = 0; c < base.size(); ++c) {
    for (size_t j = 0; j < base[c]; ++j) {
      fcsv << next_fid << "," << c << "," << 1 + rng.Below(20) << ","
           << rng.Prob() << "\n";
      members[c].push_back(next_fid++);
    }
  }
  const size_t loaded_facts = next_fid;
  const size_t loaded_vars = kEvents + loaded_facts;
  w->files = {{"events.csv", ecsv.str()}, {"facts.csv", fcsv.str()}};
  w->setup = {
      "load events {dir}/events.csv", "load facts {dir}/facts.csv",
      "view hot SELECT * FROM events WHERE v >= 9000",
      "view agg SELECT cust, COUNT(*) AS n FROM facts GROUP BY cust HAVING "
      "n >= 6"};
  w->check = "view agg";
  w->reads_see_writes = true;
  std::vector<Request> writer;

  // The writer's sequence is simulated here so that every mutation
  // succeeds: deletes name live keys, setprob names loaded variables.
  std::vector<size_t> live_events(kEvents);
  for (size_t i = 0; i < kEvents; ++i) live_events[i] = i;
  size_t next_key = kEvents;
  for (size_t i = 0; i < kWrites; ++i) {
    size_t dice = rng.Below(100);
    std::string line;
    if (dice < 50) {
      // A fact op on a random group: a delete when it is one row above its
      // base size, an insert otherwise.
      size_t c = rng.Below(members.size());
      std::vector<size_t>& fids = members[c];
      if (fids.size() > base[c]) {
        size_t at = rng.Below(fids.size());
        line = "delete facts " + Str(fids[at]);
        fids.erase(fids.begin() + static_cast<long>(at));
      } else {
        fids.push_back(next_fid);
        line = "insert facts " + Str(next_fid++) + " " + Str(c) + " " +
               Str(1 + rng.Below(20)) + " " + rng.Prob();
      }
    } else if (dice < 65) {
      live_events.push_back(next_key);
      line = "insert events " + Str(next_key++) + " " +
             Str(rng.Below(kRange)) + " " + rng.Prob();
    } else if (dice < 70) {
      size_t at = rng.Below(live_events.size());
      line = "delete events " + Str(live_events[at]);
      live_events[at] = live_events.back();
      live_events.pop_back();
    } else {
      line = "setprob x" + Str(rng.Below(loaded_vars)) + " " + rng.Prob();
    }
    writer.push_back(Request{line, true, "", kThinkMs * rng.Unit()});
  }
  w->clients = {
      writer,
      {{"view hot", false, "view:hot"}, {"view agg", false, "view:agg"}},
      {{"view agg", false, "view:agg"}, {"view hot", false, "view:hot"}}};
  w->final_reads = {"view hot", "view agg"};
  w->info = {
      {"rows", Str(kEvents) + " events, " + Str(loaded_facts) + " facts"},
      {"clients", "1 writer (0-20 ms pause before each write) + 2 readers "
                  "(closed loop)"},
      {"groups", Str(base.size()) +
                     " aggregate-view groups, two of each base size 4-9; "
                     "the writer keeps each at its base size or one above"},
      {"views", "hot: chain view on the workers; agg: COUNT HAVING view on "
                "the replica (recompute plan, step II cache)"},
      {"writer_mix", "50% fact insert/delete, 15% insert event, 5% delete "
                     "event, 30% setprob"}};
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  *out = Workload();
  out->name = name;
  if (name == "chain_scan") {
    MakeChainScan(seed, out);
    out->why = "worker-served chain scans: loads serve, net, scatter/gather "
               "and rendering; leaves dtree and joint idle";
  } else if (name == "agg_having") {
    MakeAggHaving(seed, out);
    out->why = "the paper's HAVING aggregates on the coordinator replica: "
               "query, dtree and joint do most of the work";
  } else if (name == "mixed_durable") {
    MakeMixedDurable(seed, out);
    out->why = "writes beside reads on one engine: a read gain that costs "
               "WAL, IVM or cache upkeep shows here";
  } else {
    return false;
  }
  out->info["shards"] = Str(static_cast<size_t>(kShards)) +
                        " forked worker processes";
  out->info["flush_policy"] = kFlushPolicy;
  return true;
}

std::string Expand(const std::string& line, const std::string& dir) {
  std::string out = line;
  for (size_t at = out.find("{dir}"); at != std::string::npos;
       at = out.find("{dir}", at + dir.size())) {
    out.replace(at, 5, dir);
  }
  return out;
}

}  // namespace e2ebench
