// The traced replay's span recorder, written in the benchmark's own code.
//
// Spans come from three places, all outside src/:
//   - the replay loop itself (`serve.execute` around ExecuteCommand);
//   - TracedBackend, a ServeBackend decorator (`backend.*`), and
//     TimingFileSystem, passed through DurableConfig::fs (`wal.*`);
//   - link-time wrappers (trace.cc) around public layer functions the
//     engine calls internally: ParseQuery, Database::Run, CompileToDTree,
//     ComputeDistribution, ConditionalAggregateDistribution and the
//     ViewRegistry maintenance entry points. The linker's --wrap option
//     (CMakeLists.txt) routes every call that crosses a translation unit of
//     libpvcdb to them; the engine itself is unchanged.
//
// Spans of one request share its id and record their parent. Repeated
// calls with the same name under the same parent merge into one node
// (count, total time, item count): a Shannon expansion makes thousands of
// d-tree calls per request, and the tree of call paths is what self time
// needs. A span's self time is its total minus the time of its children;
// spans nest strictly because the engine runs serially here. Everything
// stays in memory until WriteJsonl at the end of the run.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/server.h"
#include "src/util/io.h"

namespace e2ebench {

class Tracer {
 public:
  struct Node {
    int request = -1;
    int parent = -1;
    const char* name = "";
    uint64_t count = 0;
    double total_ms = 0.0;
    double child_ms = 0.0;  ///< Summed durations of direct children.
    uint64_t items = 0;     ///< Span-specific count (d-tree nodes, ...).
    std::vector<int> children;
  };

  static Tracer& Get();

  /// Turns recording on (for the calling thread only) or off.
  void Enable(bool on);
  bool enabled() const { return on_; }

  /// Later spans hang under a fresh root for request `request`.
  void BeginRequest(int request);

  /// RAII span; inert while tracing is off or on another thread.
  class Span {
   public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    void AddItems(uint64_t n);

   private:
    int node_ = -1;
    std::chrono::steady_clock::time_point start_;
  };

  struct Totals {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    uint64_t items = 0;
  };
  /// Sums every node called `name` whose request id is >= `first_request`.
  Totals Sum(const char* name, int first_request) const;
  /// Time of the children of `parent` nodes whose name starts with
  /// `child_prefix` (requests >= `first_request`).
  double ChildTime(const char* parent, const char* child_prefix,
                   int first_request) const;

  /// One JSON object per node.
  bool WriteJsonl(const std::string& path) const;
  void Clear();

 private:
  Tracer() = default;
  int Open(const char* name);
  void Close(int node, double ms);

  bool on_ = false;
  std::thread::id owner_;
  std::vector<Node> nodes_;
  std::vector<int> stack_;
};

/// The server's backend behind one span per backend call.
class TracedBackend : public pvcdb::ServeBackend {
 public:
  explicit TracedBackend(pvcdb::ServeBackend* inner) : inner_(inner) {}

  const pvcdb::Database& catalog() const override { return inner_->catalog(); }
  size_t num_shards() const override { return inner_->num_shards(); }
  std::vector<size_t> ShardRowCounts(const std::string& name) override {
    return inner_->ShardRowCounts(name);
  }
  pvcdb::CsvResult LoadCsv(const std::string& table,
                           const std::string& path) override;
  pvcdb::QueryRun RunQuery(const pvcdb::Query& q) override;
  pvcdb::Distribution ConditionalAgg(const pvcdb::QueryRun& run,
                                     size_t row_index,
                                     const std::string& column) override;
  void Insert(const std::string& table, std::vector<pvcdb::Cell> cells,
              double p) override;
  size_t Delete(const std::string& table, const pvcdb::Cell& key) override;
  void SetProb(pvcdb::VarId var, double p) override;
  size_t RegisterView(const std::string& name, pvcdb::QueryPtr query,
                      std::vector<std::string>* warnings) override;
  bool HasView(const std::string& name) override {
    return inner_->HasView(name);
  }
  pvcdb::QueryRun PrintView(const std::string& name) override;
  std::vector<pvcdb::ShardedDatabase::ViewInfo> ViewInfos() override {
    return inner_->ViewInfos();
  }
  std::string Workers() override { return inner_->Workers(); }
  bool Respawn(size_t shard, std::string* message) override {
    return inner_->Respawn(shard, message);
  }
  void SetEvalOptions(int num_threads, int intra_tree_threads) override {
    inner_->SetEvalOptions(num_threads, intra_tree_threads);
  }
  std::vector<pvcdb::MetricSnapshot> StatsSnapshot() override {
    return inner_->StatsSnapshot();
  }

 private:
  pvcdb::ServeBackend* inner_;
};

/// The POSIX file system with `wal.append` / `wal.fsync` spans around
/// every appended write and sync.
class TimingFileSystem : public pvcdb::FileSystem {
 public:
  std::unique_ptr<pvcdb::WritableFile> OpenForAppend(
      const std::string& path, std::string* error) override;
  bool ReadFile(const std::string& path, std::string* out,
                std::string* error) override {
    return base_->ReadFile(path, out, error);
  }
  bool Truncate(const std::string& path, uint64_t size,
                std::string* error) override {
    return base_->Truncate(path, size, error);
  }
  bool Rename(const std::string& from, const std::string& to,
              std::string* error) override {
    return base_->Rename(from, to, error);
  }
  bool Remove(const std::string& path, std::string* error) override {
    return base_->Remove(path, error);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  bool CreateDir(const std::string& path, std::string* error) override {
    return base_->CreateDir(path, error);
  }
  std::vector<std::string> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }

 private:
  pvcdb::FileSystem* base_ = pvcdb::DefaultFileSystem();
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
