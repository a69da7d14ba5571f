// Post-processing of match results into entity clusters: the pairwise
// match result is interpreted as a graph and closed transitively
// (connected components), the standard final step of ER pipelines (each
// component = one real-world object).
#ifndef ERLB_ER_CLUSTERING_H_
#define ERLB_ER_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "er/match_result.h"

namespace erlb {
namespace er {

/// Union-find over sparse 64-bit entity ids. Each id is interned to a
/// dense uint32 index (first-seen order) through one open-addressing
/// table; the forest itself is a flat parent array with path halving.
/// A union keeps the smaller id as the root, so Find returns the
/// smallest id of the set.
class UnionFind {
 public:
  /// Pre-sizes the id table for about `expected_ids` distinct ids.
  explicit UnionFind(size_t expected_ids = 0);

  /// Ensures `id` exists as a singleton set.
  void Add(uint64_t id) { Intern(id); }

  /// Unions the sets of `a` and `b` (adding them if absent).
  void Union(uint64_t a, uint64_t b) { UnionIndices(Intern(a), Intern(b)); }

  /// Representative of `id`'s set (adds `id` if absent).
  uint64_t Find(uint64_t id) { return ids_[FindIndex(Intern(id))]; }

  /// True iff both ids are known and in the same set.
  bool Connected(uint64_t a, uint64_t b);

  size_t num_elements() const { return ids_.size(); }

  // ---- Index-level interface: index i is the i-th distinct id seen.

  /// Index of `id`, interning it as a new singleton if absent.
  uint32_t Intern(uint64_t id);

  /// Root index of index `i`'s set.
  uint32_t FindIndex(uint32_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];  // Path halving.
      i = parent_[i];
    }
    return i;
  }

  /// Unions the sets of indexes `a` and `b`.
  void UnionIndices(uint32_t a, uint32_t b);

  /// The id interned at index `i`.
  uint64_t id_at(uint32_t i) const { return ids_[i]; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  struct Slot {
    uint64_t id = 0;
    uint32_t index = kEmpty;
  };

  /// Slot holding `id`, or the empty slot where it would go.
  Slot& Probe(uint64_t id);
  /// Doubles the table until it holds `n` ids at load <= 0.5.
  void Reserve(size_t n);

  std::vector<Slot> table_;       // power-of-two size, linear probing
  std::vector<uint64_t> ids_;     // index -> id
  std::vector<uint32_t> parent_;  // index -> parent index
};

/// A clustering of entity ids: each inner vector is one duplicate
/// cluster with >= 2 members, sorted ascending; clusters sorted by their
/// smallest member. Entities that matched nothing do not appear.
using Clusters = std::vector<std::vector<uint64_t>>;

/// Computes the connected components of `matches`.
Clusters ClusterMatches(const MatchResult& matches);

/// Expands a clustering back to its full pairwise form (every within-
/// cluster pair) — the transitive closure of the original match result.
MatchResult ClustersToPairs(const Clusters& clusters);

/// Number of pairs implied by the clustering (Σ C(|cluster|, 2)).
uint64_t ClusterPairCount(const Clusters& clusters);

}  // namespace er
}  // namespace erlb

#endif  // ERLB_ER_CLUSTERING_H_
