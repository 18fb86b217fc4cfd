// Semiring and semimodule expressions (the grammar of Figure 2).
//
// Expressions annotate tuples of pvc-tables and encode aggregation values:
//
//   Phi ::= x | Phi + Phi | Phi * Phi | [alpha theta alpha] |
//           [Phi theta Phi] | s                     (semiring expressions K)
//   alpha ::= Phi (x) m {+op Phi (x) m} | m         (semimodule expressions)
//
// Expressions are immutable nodes interned in an ExprPool (hash-consing):
// structurally equal subexpressions share one id, which makes syntactic
// independence tests, substitution (Eq. 10) and memoised compilation cheap.
//
// Smart constructors apply the semiring/semimodule laws of Definitions 3/4:
// sums and products are flattened and canonically sorted (commutativity +
// associativity, cf. Remark 2), neutral elements are dropped, annihilators
// short-circuit, constants fold, and nested tensors merge via
// (s1 * s2) (x) m = s1 (x) (s2 (x) m). Under the Boolean semiring the
// idempotent laws x + x = x and x * x = x of PosBool(X) are applied too.
//
// Storage layout (the step II hot path): nodes are fixed-size headers in
// one std::vector; child lists and variable sets live as spans into shared
// StableArena buffers, with lists of <= 2 items inlined into the node
// itself -- no per-node heap allocation. The intern table is a linear-probe
// open-addressing index over node ids. Arena runs never move, so child/var
// spans of *arena-backed* lists stay valid while the pool grows; spans of
// inlined lists point into the node vector and are invalidated by interning
// (copy the ExprNode header first -- the copy carries its inline items).
// Transformation kernels are iterative, so there is no recursion depth
// limit: Substitute memoizes in a dense epoch-stamped id-indexed table,
// CloneInto in a hash map holding only the nodes it reaches.

#ifndef PVCDB_EXPR_EXPR_H_
#define PVCDB_EXPR_EXPR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/algebra/monoid.h"
#include "src/algebra/semiring.h"
#include "src/prob/variable.h"
#include "src/util/span.h"

namespace pvcdb {

/// Identifier of an expression node within an ExprPool.
using ExprId = uint32_t;

/// Sentinel for "no expression".
inline constexpr ExprId kInvalidExpr = static_cast<ExprId>(-1);

/// Node kinds of the expression grammar (Figure 2).
enum class ExprKind : uint8_t {
  kVar,     ///< A random variable x in X (semiring-valued).
  kConstS,  ///< A semiring constant s in S.
  kAddS,    ///< n-ary semiring sum Phi_1 + ... + Phi_n.
  kMulS,    ///< n-ary semiring product Phi_1 * ... * Phi_n.
  kConstM,  ///< A monoid constant m in M (tagged with its AggKind).
  kTensor,  ///< Phi (x) alpha -- semiring expression acting on a monoid one.
  kAddM,    ///< n-ary monoid sum alpha_1 +op ... +op alpha_n.
  kCmp,     ///< Conditional expression [lhs theta rhs]; evaluates into S.
};

/// Whether a node denotes a semiring value (K) or a monoid value (K (x) M).
enum class ExprSort : uint8_t { kSemiring, kMonoid };

/// One immutable expression node: a fixed-size header whose child list and
/// variable set are either inlined (<= 2 items) or spans into the owning
/// pool's arenas. Nodes are owned by an ExprPool and referred to by ExprId;
/// children refer to nodes in the same pool.
///
/// Lifetime rule: children()/vars() of an *inlined* list point into this
/// very object. A reference obtained from ExprPool::node() is therefore
/// invalidated by the next interning (the node vector may reallocate), but
/// a *by-value copy* of the node keeps its spans valid -- inline items
/// travel with the copy and arena runs never move.
struct ExprNode {
  static constexpr uint32_t kInlineChildren = 2;
  static constexpr uint32_t kInlineVars = 2;

  ExprKind kind = ExprKind::kConstS;
  ExprSort sort = ExprSort::kSemiring;
  AggKind agg = AggKind::kSum;  ///< Monoid of monoid-sorted nodes.
  CmpOp cmp = CmpOp::kEq;       ///< Operator of kCmp nodes.
  uint32_t num_children = 0;
  uint32_t num_vars = 0;
  int64_t value = 0;  ///< Constant value, or VarId for kVar.
  uint64_t hash = 0;
  union {
    ExprId inline_children_[kInlineChildren];
    const ExprId* children_ptr_;
  };
  union {
    VarId inline_vars_[kInlineVars];
    const VarId* vars_ptr_;
  };

  ExprNode() : children_ptr_(nullptr), vars_ptr_(nullptr) {}

  /// Child expression ids, in canonical order.
  Span<ExprId> children() const {
    return {num_children <= kInlineChildren ? inline_children_ : children_ptr_,
            num_children};
  }

  /// Sorted distinct variables below this node.
  Span<VarId> vars() const {
    return {num_vars <= kInlineVars ? inline_vars_ : vars_ptr_, num_vars};
  }

  /// The i-th child.
  ExprId child(size_t i) const { return children()[i]; }

  /// The variable of a kVar node.
  VarId var() const { return static_cast<VarId>(value); }

  /// True when no random variable occurs below this node.
  bool IsGround() const { return num_vars == 0; }
};

/// Arena + hash-consing factory for expression DAGs.
///
/// The pool is parameterised by the target semiring S (SemiringKind),
/// because constant folding must use S's operations: e.g. 1 + x folds to 1
/// under B (absorption of OR by true) but not under N.
///
/// Thread-safety: the mutating smart constructors and Substitute require
/// external serialization (one compiling thread per pool); the const
/// accessors and CloneInto only read `this` and may run concurrently.
class ExprPool {
 public:
  explicit ExprPool(SemiringKind kind = SemiringKind::kBool);

  ExprPool(const ExprPool&) = delete;
  ExprPool& operator=(const ExprPool&) = delete;

  const Semiring& semiring() const { return semiring_; }

  // -- Smart constructors -------------------------------------------------

  /// The variable x as a semiring expression.
  ExprId Var(VarId x);

  /// Semiring constant s (canonicalised into the carrier).
  ExprId ConstS(int64_t s);

  /// Semiring sum of `terms` (flattens, sorts, folds constants; the empty
  /// sum is 0_S). All terms must be semiring-sorted.
  ExprId AddS(const std::vector<ExprId>& terms) {
    return AddSRange(terms.data(), terms.size());
  }

  /// Binary convenience overload (allocation-free).
  ExprId AddS(ExprId a, ExprId b) {
    ExprId terms[2] = {a, b};
    return AddSRange(terms, 2);
  }

  /// Semiring product of `factors` (flattens, sorts, folds; the empty
  /// product is 1_S; 0_S annihilates).
  ExprId MulS(const std::vector<ExprId>& factors) {
    return MulSRange(factors.data(), factors.size());
  }

  /// Binary convenience overload (allocation-free).
  ExprId MulS(ExprId a, ExprId b) {
    ExprId factors[2] = {a, b};
    return MulSRange(factors, 2);
  }

  /// Monoid constant m of aggregation monoid `agg`.
  ExprId ConstM(AggKind agg, int64_t m);

  /// Tensor term `s_expr (x) m_expr`. `s_expr` must be semiring-sorted and
  /// `m_expr` monoid-sorted. Applies 0_S (x) m = 0_M, 1_S (x) m = m,
  /// s (x) 0_M = 0_M, and merges nested tensors.
  ExprId Tensor(ExprId s_expr, ExprId m_expr);

  /// Monoid sum over monoid `agg` (flattens same-monoid sums, folds
  /// constants, drops neutral elements; the empty sum is 0_M).
  ExprId AddM(AggKind agg, const std::vector<ExprId>& terms) {
    return AddMRange(agg, terms.data(), terms.size());
  }

  /// Binary convenience overload (allocation-free).
  ExprId AddM(AggKind agg, ExprId a, ExprId b) {
    ExprId terms[2] = {a, b};
    return AddMRange(agg, terms, 2);
  }

  /// Conditional expression [lhs theta rhs]; lhs and rhs must have the same
  /// sort (their monoids may differ, cf. Experiment E). Folds when both
  /// sides are constants. The result is semiring-sorted (Eq. 2).
  ExprId Cmp(CmpOp op, ExprId lhs, ExprId rhs);

  /// Range-based entry points behind the std::vector overloads above.
  ExprId AddSRange(const ExprId* terms, size_t n);
  ExprId MulSRange(const ExprId* factors, size_t n);
  ExprId AddMRange(AggKind agg, const ExprId* terms, size_t n);

  // -- Node access --------------------------------------------------------

  /// Header of node `id`. The reference is invalidated by the next
  /// interning; copy the (small, trivially copyable) node when constructors
  /// may run -- the copy's children()/vars() spans stay valid.
  const ExprNode& node(ExprId id) const;

  /// Total number of distinct nodes interned so far.
  size_t NumNodes() const { return nodes_.size(); }

  /// Sorted distinct variables occurring in `id`. Arena-backed (> 2 vars)
  /// spans survive pool growth; inlined ones follow the node() lifetime
  /// rule above.
  Span<VarId> VarsOf(ExprId id) const { return node(id).vars(); }

  /// True when the node is a constant (kConstS or kConstM).
  bool IsConst(ExprId id) const;

  // -- Transformations ----------------------------------------------------

  /// The expression Phi|x<-s of Eq. (10): every occurrence of variable `x`
  /// replaced by the semiring constant `s`, with eager simplification.
  /// Returns `e` unchanged when x does not occur in it. Iterative: safe on
  /// arbitrarily deep expressions.
  ExprId Substitute(ExprId e, VarId x, int64_t s);

  /// Re-interns the expression DAG rooted at `e` into `dst` (which must use
  /// the same semiring kind) and returns the clone's id there. Shared
  /// subexpressions stay shared. `this` is only read, so one source pool
  /// may be cloned from concurrently into *distinct* destination pools --
  /// this is what lets independent tuples compile in parallel against
  /// task-private pools. Its cost is proportional to the nodes reachable
  /// from `e`, independent of the source pool's size. Note that `dst`'s ids
  /// (and hence the canonical child order of re-built sums/products)
  /// generally differ from the source pool's.
  ExprId CloneInto(ExprPool* dst, ExprId e) const;

  /// Counts syntactic occurrences of each variable in `e`, weighting shared
  /// subexpressions by the number of DAG paths that reach them (this equals
  /// the occurrence count in the fully expanded expression tree). Counts
  /// are doubles to tolerate path-count blowup.
  void CountVarOccurrences(ExprId e,
                           std::unordered_map<VarId, double>* counts) const;

  /// Number of nodes reachable from `e` (distinct DAG nodes).
  size_t ReachableSize(ExprId e) const;

 private:
  /// Interns the canonical node (kind, sort, agg, cmp, value, children):
  /// probes the open-addressing table, and on a miss stores the child list
  /// and the merged variable set (inline or in the arenas).
  ExprId Intern(ExprKind kind, ExprSort sort, AggKind agg, CmpOp cmp,
                int64_t value, const ExprId* children, uint32_t num_children);

  /// Fills the new node's variable set from its children (sorted union).
  void FillVars(ExprNode* node, const ExprId* children, uint32_t n);

  /// Stores `vars` (sorted distinct) into the node, inline or via arena.
  void StoreVars(ExprNode* node, const VarId* vars, uint32_t n);

  void Rehash(size_t new_size);

  static uint64_t NodeHash(ExprKind kind, ExprSort sort, AggKind agg,
                           CmpOp cmp, int64_t value, const ExprId* children,
                           uint32_t num_children);

  Semiring semiring_;
  std::vector<ExprNode> nodes_;
  detail::StableArena<ExprId> child_arena_;
  detail::StableArena<VarId> var_arena_;

  /// Open-addressing intern index: power-of-two slot array of node ids
  /// (kEmptySlot when free), linear probing on the node hash.
  std::vector<uint32_t> table_;
  size_t table_used_ = 0;

  // Reusable scratch for the smart constructors (never live across a
  // nested constructor call) and the epoch-stamped Substitute memo.
  std::vector<ExprId> scratch_flat_;
  std::vector<ExprId> scratch_rest_;
  std::vector<VarId> scratch_vars_;
  std::vector<ExprId> subst_memo_;
  std::vector<uint32_t> subst_stamp_;
  uint32_t subst_epoch_ = 0;
  std::vector<ExprId> subst_stack_;
};

/// Sort of the expression (`kSemiring` for annotations and conditions,
/// `kMonoid` for aggregation values).
inline ExprSort SortOf(const ExprNode& node) { return node.sort; }

}  // namespace pvcdb

#endif  // PVCDB_EXPR_EXPR_H_
