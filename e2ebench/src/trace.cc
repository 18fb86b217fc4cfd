#include "e2ebench/src/trace.h"

#include <cstring>
#include <fstream>

#include "src/dtree/compile.h"
#include "src/dtree/joint.h"
#include "src/dtree/probability.h"
#include "src/engine/database.h"
#include "src/engine/view.h"
#include "src/query/parser.h"

namespace e2ebench {

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable(bool on) {
  on_ = on;
  owner_ = std::this_thread::get_id();
}

void Tracer::BeginRequest(int request) {
  Node root;
  root.request = request;
  root.name = "request";
  nodes_.push_back(root);
  stack_.assign(1, static_cast<int>(nodes_.size()) - 1);
}

int Tracer::Open(const char* name) {
  if (!on_ || stack_.empty() || std::this_thread::get_id() != owner_) {
    return -1;
  }
  int parent = stack_.back();
  int node = -1;
  for (int child : nodes_[parent].children) {
    if (std::strcmp(nodes_[child].name, name) == 0) {
      node = child;
      break;
    }
  }
  if (node < 0) {
    Node n;
    n.request = nodes_[parent].request;
    n.parent = parent;
    n.name = name;
    nodes_.push_back(n);
    node = static_cast<int>(nodes_.size()) - 1;
    nodes_[parent].children.push_back(node);
  }
  stack_.push_back(node);
  return node;
}

void Tracer::Close(int node, double ms) {
  Node& n = nodes_[node];
  ++n.count;
  n.total_ms += ms;
  nodes_[n.parent].child_ms += ms;
  stack_.pop_back();
}

Tracer::Span::Span(const char* name) : node_(Get().Open(name)) {
  if (node_ >= 0) start_ = std::chrono::steady_clock::now();
}

Tracer::Span::~Span() {
  if (node_ < 0) return;
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
  Get().Close(node_, ms);
}

void Tracer::Span::AddItems(uint64_t n) {
  if (node_ >= 0) Get().nodes_[node_].items += n;
}

Tracer::Totals Tracer::Sum(const char* name, int first_request) const {
  Totals t;
  for (const Node& n : nodes_) {
    if (n.request < first_request || std::strcmp(n.name, name) != 0) continue;
    t.count += n.count;
    t.total_ms += n.total_ms;
    t.self_ms += n.total_ms - n.child_ms;
    t.items += n.items;
  }
  return t;
}

double Tracer::ChildTime(const char* parent, const char* child_prefix,
                         int first_request) const {
  double ms = 0.0;
  size_t prefix = std::strlen(child_prefix);
  for (const Node& n : nodes_) {
    if (n.request < first_request || std::strcmp(n.name, parent) != 0) continue;
    for (int c : n.children) {
      if (std::strncmp(nodes_[c].name, child_prefix, prefix) == 0) {
        ms += nodes_[c].total_ms;
      }
    }
  }
  return ms;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    // A request's root spans exactly its top-level spans.
    double total = n.parent < 0 ? n.child_ms : n.total_ms;
    out << "{\"id\": " << i << ", \"request\": " << n.request
        << ", \"parent\": " << n.parent << ", \"name\": \"" << n.name
        << "\", \"count\": " << n.count << ", \"total_ms\": " << total
        << ", \"self_ms\": " << total - n.child_ms
        << ", \"items\": " << n.items << "}\n";
  }
  return static_cast<bool>(out);
}

void Tracer::Clear() {
  nodes_.clear();
  stack_.clear();
}

// ---------------------------------------------------------------------------
// TracedBackend
// ---------------------------------------------------------------------------

pvcdb::CsvResult TracedBackend::LoadCsv(const std::string& table,
                                        const std::string& path) {
  Tracer::Span span("backend.load_csv");
  return inner_->LoadCsv(table, path);
}

pvcdb::QueryRun TracedBackend::RunQuery(const pvcdb::Query& q) {
  Tracer::Span span("backend.run_query");
  return inner_->RunQuery(q);
}

pvcdb::Distribution TracedBackend::ConditionalAgg(const pvcdb::QueryRun& run,
                                                  size_t row_index,
                                                  const std::string& column) {
  Tracer::Span span("backend.cond_agg");
  return inner_->ConditionalAgg(run, row_index, column);
}

void TracedBackend::Insert(const std::string& table,
                           std::vector<pvcdb::Cell> cells, double p) {
  Tracer::Span span("backend.insert");
  inner_->Insert(table, std::move(cells), p);
}

size_t TracedBackend::Delete(const std::string& table, const pvcdb::Cell& key) {
  Tracer::Span span("backend.delete");
  return inner_->Delete(table, key);
}

void TracedBackend::SetProb(pvcdb::VarId var, double p) {
  Tracer::Span span("backend.setprob");
  inner_->SetProb(var, p);
}

size_t TracedBackend::RegisterView(const std::string& name,
                                   pvcdb::QueryPtr query,
                                   std::vector<std::string>* warnings) {
  Tracer::Span span("backend.register_view");
  return inner_->RegisterView(name, std::move(query), warnings);
}

pvcdb::QueryRun TracedBackend::PrintView(const std::string& name) {
  Tracer::Span span("backend.print_view");
  return inner_->PrintView(name);
}

// ---------------------------------------------------------------------------
// TimingFileSystem
// ---------------------------------------------------------------------------

namespace {

class TimingFile : public pvcdb::WritableFile {
 public:
  explicit TimingFile(std::unique_ptr<pvcdb::WritableFile> inner)
      : inner_(std::move(inner)) {}
  bool Append(const void* data, size_t n) override {
    Tracer::Span span("wal.append");
    return inner_->Append(data, n);
  }
  bool Sync() override {
    Tracer::Span span("wal.fsync");
    return inner_->Sync();
  }
  bool Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<pvcdb::WritableFile> inner_;
};

}  // namespace

std::unique_ptr<pvcdb::WritableFile> TimingFileSystem::OpenForAppend(
    const std::string& path, std::string* error) {
  std::unique_ptr<pvcdb::WritableFile> file = base_->OpenForAppend(path, error);
  if (file == nullptr) return nullptr;
  return std::make_unique<TimingFile>(std::move(file));
}

}  // namespace e2ebench

// ---------------------------------------------------------------------------
// Link-time wrappers. Each __wrap_<symbol> receives the calls the linker
// redirected from <symbol> and forwards them to __real_<symbol>, the
// original definition. Member functions take `this` as their first
// argument (Itanium C++ ABI). The symbol list must match CMakeLists.txt.
// ---------------------------------------------------------------------------

#define E2E_WRAP2(sym) __wrap_##sym
#define E2E_WRAP(sym) E2E_WRAP2(sym)
#define E2E_REAL2(sym) __real_##sym
#define E2E_REAL(sym) E2E_REAL2(sym)

// pvcdb::ParseQuery(const std::string&)
#define SYM_PARSE \
  _ZN5pvcdb10ParseQueryERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE
// pvcdb::Database::Run(const Query&)
#define SYM_RUN _ZN5pvcdb8Database3RunERKNS_5QueryE
// pvcdb::CompileToDTree(ExprPool*, const VariableTable*, ExprId,
//                       CompileOptions)
#define SYM_COMPILE \
  _ZN5pvcdb14CompileToDTreeEPNS_8ExprPoolEPKNS_13VariableTableEjNS_14CompileOptionsE
// pvcdb::ComputeDistribution(const DTree&, const VariableTable&,
//                            const Semiring&, ProbabilityOptions)
#define SYM_PROB \
  _ZN5pvcdb19ComputeDistributionERKNS_5DTreeERKNS_13VariableTableERKNS_8SemiringENS_18ProbabilityOptionsE
// pvcdb::ConditionalAggregateDistribution(ExprPool*, const VariableTable&,
//                                         ExprId, ExprId, CompileOptions)
#define SYM_CONDAGG \
  _ZN5pvcdb32ConditionalAggregateDistributionEPNS_8ExprPoolERKNS_13VariableTableEjjNS_14CompileOptionsE
// pvcdb::ViewRegistry::Apply(const TableDelta&, const ViewContext&)
#define SYM_VIEW_APPLY \
  _ZN5pvcdb12ViewRegistry5ApplyERKNS_10TableDeltaERKNS_11ViewContextE
// pvcdb::ViewRegistry::OnVariableUpdate(VarId, const VariableTable&,
//                                       const Semiring&, bool)
#define SYM_VIEW_UPDATE \
  _ZN5pvcdb12ViewRegistry16OnVariableUpdateEjRKNS_13VariableTableERKNS_8SemiringEb
// pvcdb::ViewRegistry::Probabilities(const std::string&,
//     const VariableTable&, const CompileOptions&, const ViewContext&)
#define SYM_VIEW_PROBS \
  _ZN5pvcdb12ViewRegistry13ProbabilitiesERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_13VariableTableERKNS_14CompileOptionsERKNS_11ViewContextE

using e2ebench::Tracer;

extern "C" {

pvcdb::ParseResult E2E_REAL(SYM_PARSE)(const std::string& sql);
pvcdb::ParseResult E2E_WRAP(SYM_PARSE)(const std::string& sql) {
  Tracer::Span span("serve.parse");
  return E2E_REAL(SYM_PARSE)(sql);
}

pvcdb::PvcTable E2E_REAL(SYM_RUN)(pvcdb::Database* self, const pvcdb::Query& q);
pvcdb::PvcTable E2E_WRAP(SYM_RUN)(pvcdb::Database* self, const pvcdb::Query& q) {
  Tracer::Span span("query.step1");
  return E2E_REAL(SYM_RUN)(self, q);
}

pvcdb::DTree E2E_REAL(SYM_COMPILE)(pvcdb::ExprPool* pool,
                                   const pvcdb::VariableTable* variables,
                                   pvcdb::ExprId e,
                                   pvcdb::CompileOptions options);
pvcdb::DTree E2E_WRAP(SYM_COMPILE)(pvcdb::ExprPool* pool,
                                   const pvcdb::VariableTable* variables,
                                   pvcdb::ExprId e,
                                   pvcdb::CompileOptions options) {
  Tracer::Span span("dtree.compile");
  pvcdb::DTree tree = E2E_REAL(SYM_COMPILE)(pool, variables, e, options);
  span.AddItems(tree.size());
  return tree;
}

pvcdb::Distribution E2E_REAL(SYM_PROB)(const pvcdb::DTree& tree,
                                       const pvcdb::VariableTable& variables,
                                       const pvcdb::Semiring& semiring,
                                       pvcdb::ProbabilityOptions options);
pvcdb::Distribution E2E_WRAP(SYM_PROB)(const pvcdb::DTree& tree,
                                       const pvcdb::VariableTable& variables,
                                       const pvcdb::Semiring& semiring,
                                       pvcdb::ProbabilityOptions options) {
  Tracer::Span span("dtree.prob");
  return E2E_REAL(SYM_PROB)(tree, variables, semiring, options);
}

pvcdb::Distribution E2E_REAL(SYM_CONDAGG)(pvcdb::ExprPool* pool,
                                          const pvcdb::VariableTable& variables,
                                          pvcdb::ExprId agg_expr,
                                          pvcdb::ExprId annotation,
                                          pvcdb::CompileOptions options);
pvcdb::Distribution E2E_WRAP(SYM_CONDAGG)(pvcdb::ExprPool* pool,
                                          const pvcdb::VariableTable& variables,
                                          pvcdb::ExprId agg_expr,
                                          pvcdb::ExprId annotation,
                                          pvcdb::CompileOptions options) {
  Tracer::Span span("joint.cond_agg");
  size_t before = pool->NumNodes();
  pvcdb::Distribution d =
      E2E_REAL(SYM_CONDAGG)(pool, variables, agg_expr, annotation, options);
  // Pool growth per call: an exact count of the Shannon work.
  span.AddItems(pool->NumNodes() - before);
  return d;
}

void E2E_REAL(SYM_VIEW_APPLY)(pvcdb::ViewRegistry* self,
                              const pvcdb::TableDelta& delta,
                              const pvcdb::ViewContext& ctx);
void E2E_WRAP(SYM_VIEW_APPLY)(pvcdb::ViewRegistry* self,
                              const pvcdb::TableDelta& delta,
                              const pvcdb::ViewContext& ctx) {
  Tracer::Span span("view.apply");
  E2E_REAL(SYM_VIEW_APPLY)(self, delta, ctx);
}

void E2E_REAL(SYM_VIEW_UPDATE)(pvcdb::ViewRegistry* self, pvcdb::VarId var,
                               const pvcdb::VariableTable& variables,
                               const pvcdb::Semiring& semiring,
                               bool same_support);
void E2E_WRAP(SYM_VIEW_UPDATE)(pvcdb::ViewRegistry* self, pvcdb::VarId var,
                               const pvcdb::VariableTable& variables,
                               const pvcdb::Semiring& semiring,
                               bool same_support) {
  Tracer::Span span("view.apply");
  E2E_REAL(SYM_VIEW_UPDATE)(self, var, variables, semiring, same_support);
}

std::vector<double> E2E_REAL(SYM_VIEW_PROBS)(
    pvcdb::ViewRegistry* self, const std::string& name,
    const pvcdb::VariableTable& variables,
    const pvcdb::CompileOptions& options, const pvcdb::ViewContext& ctx);
std::vector<double> E2E_WRAP(SYM_VIEW_PROBS)(
    pvcdb::ViewRegistry* self, const std::string& name,
    const pvcdb::VariableTable& variables,
    const pvcdb::CompileOptions& options, const pvcdb::ViewContext& ctx) {
  Tracer::Span span("view.probs");
  return E2E_REAL(SYM_VIEW_PROBS)(self, name, variables, options, ctx);
}

}  // extern "C"
