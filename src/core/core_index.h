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
// The index also stores, per vertex, the size of the CSM answer: v's
// component of `core >= core(v)`. One union-find pass over the vertices
// in descending core order computes every size at build time, so a CSM
// query knows its n (and δ = core(v)) in O(1) and lists only as many
// members as the caller asks for.

#ifndef LOCS_CORE_CORE_INDEX_H_
#define LOCS_CORE_CORE_INDEX_H_

#include <cstdint>

#include "graph/graph.h"
#include "util/const_array.h"

namespace locs {

/// Immutable per-vertex core numbers and CSM component sizes, plus the
/// degeneracy. Thread-safe for concurrent queries (read-only). Storage is
/// ConstArray-backed so an index deserialized from a graph image
/// (src/store/) points straight into the mmap'd file.
class CoreIndex {
 public:
  /// Builds the index: one Batagelj–Zaversnik peel, O(|V| + |E|), then
  /// one union-find pass for the component sizes, O((|V| + |E|) α).
  explicit CoreIndex(const Graph& graph);

  /// Adopts precomputed arrays (the store/ image loader). The caller
  /// guarantees one core number and one component size per vertex, and
  /// that the largest core number is `degeneracy`.
  static CoreIndex FromParts(ConstArray<uint32_t> core,
                             ConstArray<uint32_t> comp_size,
                             uint32_t degeneracy);

  /// Core number of `v` — equals m*(G, v) (Lemma 4).
  uint32_t CoreNumber(VertexId v) const { return core_[v]; }

  /// Degeneracy of the indexed graph.
  uint32_t Degeneracy() const { return degeneracy_; }

  /// O(1): true iff CST(k) has an answer for v (v lies in the k-core).
  bool HasCst(VertexId v, uint32_t k) const { return core_[v] >= k; }

  /// Size of v's component of `core >= core(v)`: the size of v's CSM
  /// answer (Lemma 4), MaxCoreComponentOf(...).size().
  uint32_t ComponentSize(VertexId v) const { return comp_size_[v]; }

  /// Raw array access for serialization (src/store/) and the one-shot
  /// component helpers of kcore.h.
  const ConstArray<uint32_t>& core_numbers() const { return core_; }
  const ConstArray<uint32_t>& component_sizes() const { return comp_size_; }

 private:
  CoreIndex() = default;

  ConstArray<uint32_t> core_;
  ConstArray<uint32_t> comp_size_;
  uint32_t degeneracy_ = 0;
};

}  // namespace locs

#endif  // LOCS_CORE_CORE_INDEX_H_
