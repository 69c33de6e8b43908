// Core-number index for repeated community-search queries — an extension
// beyond the paper.
//
// The paper optimizes the *single query* case. Its motivating applications
// (friend recommendation, advertising) issue numerous queries against one
// slowly-changing graph; §4.3.2 already embraces offline precomputation
// for exactly that reason. By Lemmas 3 and 4 the core numbers alone fix
// every maximal answer: the maximal CST(k) community of v is v's
// connected component among the vertices with core number >= k, and the
// CSM answer is that component at k = core(v). So one core decomposition
// answers "does CST(k) have an answer for v?" in O(1), and one BFS over
// `core >= k` (kcore.h's KCoreComponentOf over core_numbers()) lists the
// answer in O(answer volume).
//
// The index also stores the core forest: the nested components of
// `core >= c` over every c, as a tree. A node is a connected component
// of the c-core that holds a vertex of core number exactly c; c is its
// level, which is also the component's least core number and its δ.
// Its parent is the node that encloses it at the next lower level that
// has one, so levels strictly fall toward a root (one root per connected
// component of G), and each vertex points at the node of its own core
// number. v's component of `core >= k` is the highest ancestor of v's
// node whose level is still >= k (ComponentNode), so a query knows its
// answer's size and δ, and whether two vertices share it, from at most
// δ* + 1 node reads, and lists only as many members as the caller asks
// for. One union-find pass over the vertices in descending core order
// builds the forest. Index-based k-core community search keeps this kind
// of tree too (survey arXiv:1904.12539, §3).

#ifndef LOCS_CORE_CORE_INDEX_H_
#define LOCS_CORE_CORE_INDEX_H_

#include <cstdint>
#include <span>

#include "graph/graph.h"
#include "util/const_array.h"

namespace locs {

/// One core-forest node: a connected component of the `level`-core that
/// holds a vertex of core number exactly `level`.
struct CoreForestNode {
  uint32_t parent;  ///< enclosing node at a lower level, or kNoNode
  uint32_t level;   ///< c: the component's least core number and its δ
  uint32_t size;    ///< number of member vertices
  friend bool operator==(const CoreForestNode&,
                         const CoreForestNode&) = default;
};
static_assert(sizeof(CoreForestNode) == 12,
              "the node table is serialized as-is (src/store/)");

/// Immutable per-vertex core numbers and core forest, plus the
/// degeneracy. Thread-safe for concurrent queries (read-only). Storage is
/// ConstArray-backed so an index deserialized from a graph image
/// (src/store/) points straight into the mmap'd file.
class CoreIndex {
 public:
  /// The parent of a root, and "no node" in CommonNode.
  static constexpr uint32_t kNoNode = UINT32_MAX;

  /// Builds the index: one Batagelj–Zaversnik peel, O(|V| + |E|), then
  /// one union-find pass for the forest, O((|V| + |E|) α).
  explicit CoreIndex(const Graph& graph);

  /// Adopts precomputed arrays (the store/ image loader). The caller
  /// guarantees one core number and one in-range node id per vertex, a
  /// node's level equal to its vertices' core number, parents of strictly
  /// lower level (so every walk up ends), and that the largest core
  /// number is `degeneracy`.
  static CoreIndex FromParts(ConstArray<uint32_t> core,
                             ConstArray<uint32_t> node_of,
                             ConstArray<CoreForestNode> forest,
                             uint32_t degeneracy);

  /// Core number of `v` — equals m*(G, v) (Lemma 4).
  uint32_t CoreNumber(VertexId v) const { return core_[v]; }

  /// Degeneracy of the indexed graph.
  uint32_t Degeneracy() const { return degeneracy_; }

  /// O(1): true iff CST(k) has an answer for v (v lies in the k-core).
  bool HasCst(VertexId v, uint32_t k) const { return core_[v] >= k; }

  /// The forest node of v's component of `core >= k`, for k <= core(v):
  /// walks up from v's node while the parent's level is >= k, at most
  /// δ* + 1 steps. Two vertices share a component of the k-core iff
  /// their nodes at k are equal.
  uint32_t ComponentNode(VertexId v, uint32_t k) const;

  /// The deepest node whose component holds every vertex of `vertices`
  /// (non-empty), or kNoNode when they span several connected components
  /// of G. Its level is the largest k for which they share a component of
  /// the k-core. O(|vertices| · (δ* + 1)).
  uint32_t CommonNode(std::span<const VertexId> vertices) const;

  /// Size of v's component of `core >= core(v)`: the size of v's CSM
  /// answer (Lemma 4), MaxCoreComponentOf(...).size().
  uint32_t ComponentSize(VertexId v) const {
    return forest_[node_of_[v]].size;
  }

  /// Raw array access for serialization (src/store/) and the one-shot
  /// component helpers of kcore.h.
  const ConstArray<uint32_t>& core_numbers() const { return core_; }
  /// node_of()[v]: the node of v's component of `core >= core(v)`.
  const ConstArray<uint32_t>& node_of() const { return node_of_; }
  /// The node table; children precede their parents.
  const ConstArray<CoreForestNode>& forest() const { return forest_; }

 private:
  CoreIndex() = default;

  ConstArray<uint32_t> core_;
  ConstArray<uint32_t> node_of_;
  ConstArray<CoreForestNode> forest_;
  uint32_t degeneracy_ = 0;
};

}  // namespace locs

#endif  // LOCS_CORE_CORE_INDEX_H_
