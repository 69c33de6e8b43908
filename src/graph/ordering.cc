#include "graph/ordering.h"

#include <utility>

namespace locs {

namespace {

// Rank every vertex by (degree desc, id asc) with one counting sort,
// then transpose the adjacency in rank order: appending s to the list of
// each neighbor t, for s in rank order, leaves every list sorted by the
// same key. O(n + m) with no comparison sort.
std::vector<VertexId> SortByDegree(const Graph& graph) {
  const auto& offsets = graph.offsets();
  const VertexId n = graph.NumVertices();
  if (n == 0) return {};
  const uint32_t max_degree = graph.MaxDegree();
  // Bucket b holds degree max_degree - b, so bucket order is degree desc;
  // filling buckets in id order keeps ids ascending within a bucket.
  std::vector<VertexId> bucket_start(static_cast<size_t>(max_degree) + 2, 0);
  for (VertexId v = 0; v < n; ++v) {
    ++bucket_start[max_degree - graph.Degree(v) + 1];
  }
  for (uint32_t b = 0; b <= max_degree; ++b) {
    bucket_start[b + 1] += bucket_start[b];
  }
  std::vector<VertexId> by_rank(n);
  for (VertexId v = 0; v < n; ++v) {
    by_rank[bucket_start[max_degree - graph.Degree(v)]++] = v;
  }

  std::vector<VertexId> neighbors(graph.neighbors().size());
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const VertexId s : by_rank) {
    for (const VertexId t : graph.Neighbors(s)) neighbors[cursor[t]++] = s;
  }
  return neighbors;
}

}  // namespace

OrderedAdjacency::OrderedAdjacency(const Graph& graph)
    : OrderedAdjacency(graph.offsets(),
                       ConstArray<VertexId>(SortByDegree(graph))) {}

OrderedAdjacency OrderedAdjacency::FromParts(ConstArray<uint64_t> offsets,
                                             ConstArray<VertexId> neighbors) {
  return OrderedAdjacency(std::move(offsets), std::move(neighbors));
}

}  // namespace locs
