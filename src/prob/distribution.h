// Finite discrete probability distributions over int64_t values.
//
// This implements Section 2.1 of the paper: distributions are represented by
// their set of (value, probability) pairs with non-zero probability, and the
// probability distribution of a function of independent random variables is
// obtained by convolution with respect to that function (Proposition 1,
// Remark 1). Mutually exclusive decompositions (Eq. 10) correspond to
// weighted mixtures.

#ifndef PVCDB_PROB_DISTRIBUTION_H_
#define PVCDB_PROB_DISTRIBUTION_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace pvcdb {

/// A finite discrete probability distribution over int64_t values.
///
/// Entries are kept sorted by value with strictly positive probabilities and
/// no duplicate values. The "size" of a distribution in the paper's
/// complexity statements (Theorem 2, Propositions 2/3) is `size()` here.
class Distribution {
 public:
  using Entry = std::pair<int64_t, double>;
  using BinaryOp = std::function<int64_t(int64_t, int64_t)>;
  using UnaryOp = std::function<int64_t(int64_t)>;

  /// The empty (all-zero) distribution. Not a probability distribution per
  /// se; useful as an accumulator identity for Mix().
  Distribution() = default;

  /// Point mass: value `v` with probability 1.
  static Distribution Point(int64_t v);

  /// Builds a distribution from arbitrary pairs: merges duplicate values,
  /// drops zero-probability entries, and sorts by value.
  static Distribution FromPairs(std::vector<Entry> pairs);

  /// Bernoulli-style two-point distribution over {0, 1} with P[1] = p.
  static Distribution Bernoulli(double p);

  /// Number of support points.
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Sorted (value, probability) support.
  const std::vector<Entry>& entries() const { return entries_; }

  /// Probability of `v` (0.0 if v is outside the support).
  double ProbOf(int64_t v) const;

  /// Sum of all probabilities (1.0 for a proper distribution; mixtures of
  /// sub-distributions may carry partial mass).
  double TotalMass() const;

  /// True when TotalMass() is within `epsilon` of 1.
  bool IsNormalized(double epsilon = 1e-9) const;

  /// Convolution with respect to `op` (Proposition 1): the distribution of
  /// z = x `op` y for independent x ~ this and y ~ other. Runs in time
  /// O(size() * other.size()) plus the cost of merging result values.
  Distribution Convolve(const Distribution& other, const BinaryOp& op) const;

  /// Distribution of f(x) for x ~ this (merges collapsed values).
  Distribution Map(const UnaryOp& f) const;

  /// Weighted mixture Sum_i weight_i * dist_i (Eq. 10). Weights need not
  /// sum to one; the caller is responsible for overall normalization.
  static Distribution Mix(
      const std::vector<std::pair<double, Distribution>>& parts);

  /// Range overload of Mix for callers keeping parts in a shared arena
  /// (the iterative probability kernel). Identical accumulation order.
  static Distribution Mix(const std::pair<double, Distribution>* parts,
                          size_t n);

  /// Largest/smallest support value. Precondition: !empty().
  int64_t MinValue() const;
  int64_t MaxValue() const;

  /// Expected value, treating values as integers.
  double Mean() const;

  /// True when both supports match and probabilities agree within epsilon.
  bool ApproxEquals(const Distribution& other, double epsilon = 1e-9) const;

  /// Human-readable rendering "{(v1, p1), (v2, p2), ...}".
  std::string ToString() const;

 private:
  explicit Distribution(std::vector<Entry> sorted_entries)
      : entries_(std::move(sorted_entries)) {}

  static Distribution FromUnsorted(std::vector<Entry> pairs);

  std::vector<Entry> entries_;
};

/// P[x != 0] for x ~ d, clamped against negative floating-point dust --
/// the tuple-presence probability derived from an annotation distribution.
/// Every step II path (Database, the step II cache, the shard workers)
/// must use this exact expression so their results stay bit-identical.
inline double NonZeroMass(const Distribution& d) {
  return std::max(0.0, d.TotalMass() - d.ProbOf(0));
}

}  // namespace pvcdb

#endif  // PVCDB_PROB_DISTRIBUTION_H_
