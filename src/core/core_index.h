// Core-hierarchy index for repeated community-search queries — an
// extension beyond the paper.
//
// The paper optimizes the *single query* case. Its motivating applications
// (friend recommendation, advertising) issue numerous queries against one
// slowly-changing graph; §4.3.2 already embraces offline precomputation
// for exactly that reason. This index takes the idea to its conclusion:
// one core decomposition plus a component merge tree answer
//
//   - "does CST(k) have an answer for v?"        in O(1)
//   - "the maximal CST(k) community of v"        in O(answer size)
//   - "the best community of v" (CSM)            in O(answer size)
//
// after an O(|E| α(|V|) + |V| log |V|) build: the union-find pass is
// near-linear, and folding the shorter child list into the longer one
// bounds the merge-tree child moves by O(|V| log |V|).
//
// Structure: vertices join a union-find in decreasing core-number order;
// whenever components merge while processing level k, the merge tree gains
// a node at level k whose subtree leaves are exactly the members of that
// component of the k-core. A query walks from the query vertex's leaf to
// the highest ancestor with level >= k and lists its subtree.

#ifndef LOCS_CORE_CORE_INDEX_H_
#define LOCS_CORE_CORE_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/common.h"
#include "core/kcore.h"
#include "graph/graph.h"
#include "util/const_array.h"

namespace locs {

/// Immutable index over one graph answering CST/CSM queries in output-
/// sensitive time. Thread-safe for concurrent queries (read-only).
/// Storage is ConstArray-backed so an index deserialized from a graph
/// image (src/store/) points straight into the mmap'd file.
class CoreIndex {
 public:
  static constexpr uint32_t kNil = ~uint32_t{0};

  /// Work counters of one build, for regression tests and benches.
  struct BuildStats {
    /// Same-level merges that folded one internal node into another.
    uint64_t folds = 0;
    /// Children re-attached by those folds.
    uint64_t child_moves = 0;
  };

  /// Builds the index. `stats` (optional) receives the build's counters.
  explicit CoreIndex(const Graph& graph, BuildStats* stats = nullptr);

  /// Adopts a precomputed index (the store/ image loader). The caller is
  /// responsible for structural validity: `core` has one entry per
  /// vertex, the five node arrays share one length >= core.size(), tree
  /// links are in-range or kNil, and slots [0, core.size()) are the
  /// vertex leaves.
  static CoreIndex FromParts(ConstArray<uint32_t> core, uint32_t degeneracy,
                             ConstArray<uint32_t> node_level,
                             ConstArray<uint32_t> node_parent,
                             ConstArray<uint32_t> node_first_child,
                             ConstArray<uint32_t> node_next_sibling,
                             ConstArray<VertexId> node_vertex);

  /// Core number of `v` — equals m*(G, v) (Lemma 4).
  uint32_t CoreNumber(VertexId v) const { return core_[v]; }

  /// Degeneracy of the indexed graph.
  uint32_t Degeneracy() const { return degeneracy_; }

  /// O(1): true iff CST(k) has an answer for v (v lies in the k-core).
  bool HasCst(VertexId v, uint32_t k) const { return core_[v] >= k; }

  /// O(answer): the maximal CST(k) answer — the connected component of v
  /// in the k-core (Lemma 3) — or an empty vector.
  std::vector<VertexId> CstMembers(VertexId v, uint32_t k) const;

  /// O(answer): the CSM answer — v's component of its maxcore (Lemma 4).
  Community Csm(VertexId v) const;

  /// Number of merge-tree nodes (diagnostics).
  size_t NumTreeNodes() const { return node_level_.size(); }

  /// Raw array access for serialization (src/store/).
  const ConstArray<uint32_t>& core_numbers() const { return core_; }
  const ConstArray<uint32_t>& node_level() const { return node_level_; }
  const ConstArray<uint32_t>& node_parent() const { return node_parent_; }
  const ConstArray<uint32_t>& node_first_child() const {
    return node_first_child_;
  }
  const ConstArray<uint32_t>& node_next_sibling() const {
    return node_next_sibling_;
  }
  const ConstArray<VertexId>& node_vertex() const { return node_vertex_; }

 private:
  CoreIndex() = default;

  /// Highest ancestor of v's leaf whose level is >= k, or kNil.
  uint32_t AncestorAtLevel(VertexId v, uint32_t k) const;
  /// Collects the leaves under `node`.
  std::vector<VertexId> SubtreeLeaves(uint32_t node) const;

  /// Per-vertex core numbers (the peel order is build-time scaffolding
  /// and is not retained).
  ConstArray<uint32_t> core_;
  uint32_t degeneracy_ = 0;

  // Merge tree in first-child / next-sibling form. The first NumVertices
  // node slots are the vertex leaves.
  ConstArray<uint32_t> node_level_;
  ConstArray<uint32_t> node_parent_;
  ConstArray<uint32_t> node_first_child_;
  ConstArray<uint32_t> node_next_sibling_;
  /// Leaf payload: the vertex id (kNil for internal nodes).
  ConstArray<VertexId> node_vertex_;
};

}  // namespace locs

#endif  // LOCS_CORE_CORE_INDEX_H_
