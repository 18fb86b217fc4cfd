// The set X of independent random variables and their distributions.
//
// A VariableTable registers S-valued independent random variables and
// induces the probability space of Definition 1: a sample is a valuation
// nu : X -> S, and Pr(nu) is the product of the per-variable probabilities.

#ifndef PVCDB_PROB_VARIABLE_H_
#define PVCDB_PROB_VARIABLE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/prob/distribution.h"

namespace pvcdb {

/// Identifier of a random variable within a VariableTable.
using VarId = uint32_t;

/// Registry of the independent random variables X underlying a
/// pvc-database, with one finite distribution per variable.
///
/// Mutation contract: the table must only be mutated while no evaluation
/// reads it. The engine marks in-flight evaluations with EvalScope; in
/// debug builds (!NDEBUG) every mutator asserts that no scope is open,
/// turning a violated contract into an immediate CheckError instead of a
/// silent race.
class VariableTable {
 public:
  /// RAII marker for an evaluation that reads this table (probability
  /// passes, d-tree compilation). Held by the Database probability
  /// methods; nesting and concurrent scopes from several
  /// threads are fine.
  class EvalScope {
   public:
    explicit EvalScope(const VariableTable& table) : table_(&table) {
      table_->eval_depth_.fetch_add(1, std::memory_order_relaxed);
    }
    ~EvalScope() {
      table_->eval_depth_.fetch_sub(1, std::memory_order_relaxed);
    }
    EvalScope(const EvalScope&) = delete;
    EvalScope& operator=(const EvalScope&) = delete;

   private:
    const VariableTable* table_;
  };

  /// Registers a variable with the given distribution; returns its id.
  VarId Add(Distribution distribution, std::string name = "");

  /// Registers a Boolean variable with P[x=1] = p.
  VarId AddBernoulli(double p, std::string name = "");

  /// Number of registered variables.
  size_t size() const { return distributions_.size(); }

  /// Distribution of variable `id`.
  const Distribution& DistributionOf(VarId id) const;

  /// Name of variable `id` ("x<id>" when unnamed).
  std::string NameOf(VarId id) const;

  /// Replaces the distribution of an existing variable (used by sensitivity
  /// analyses, probability updates and tests).
  void SetDistribution(VarId id, Distribution distribution);

 private:
  /// Debug-mode half of the mutation contract (see the class comment).
  void AssertMutable() const;

  std::vector<Distribution> distributions_;
  std::vector<std::string> names_;
  /// Number of open EvalScopes across all threads.
  mutable std::atomic<int> eval_depth_{0};
};

}  // namespace pvcdb

#endif  // PVCDB_PROB_VARIABLE_H_
