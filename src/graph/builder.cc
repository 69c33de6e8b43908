#include "graph/builder.h"

#include <algorithm>
#include <span>

namespace locs {

namespace {

/// Counting CSR build: bucket every half-edge by its source (lists in
/// input order, duplicates kept), then transpose once in ascending source
/// order. The graph is symmetric, so the transpose is the adjacency
/// itself, each list comes out ascending, and the copies of a duplicate
/// edge land next to each other, where one comparison drops them. No
/// comparison sort runs, so the build is O(n + m).
Graph BuildCsr(VertexId n, std::span<const Edge> edges) {
  std::vector<uint64_t> start(static_cast<size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    ++start[u + 1];
    ++start[v + 1];
  }
  for (VertexId v = 0; v < n; ++v) start[v + 1] += start[v];
  const uint64_t half_edges = start[n];

  std::vector<VertexId> by_source(half_edges);
  std::vector<uint64_t> cursor(start.begin(), start.end() - 1);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    by_source[cursor[u]++] = v;
    by_source[cursor[v]++] = u;
  }

  std::vector<VertexId> neighbors(half_edges);
  std::copy(start.begin(), start.end() - 1, cursor.begin());
  for (VertexId s = 0; s < n; ++s) {
    for (uint64_t i = start[s]; i < start[s + 1]; ++i) {
      const VertexId t = by_source[i];
      // A duplicate (t, s) was appended during this same s iteration, so
      // it is the last entry of t's list.
      if (cursor[t] > start[t] && neighbors[cursor[t] - 1] == s) continue;
      neighbors[cursor[t]++] = s;
    }
  }
  by_source = {};

  // Close the gaps the dropped duplicates left. Every list only moves
  // toward the front, so one forward pass compacts in place.
  std::vector<uint64_t> offsets(static_cast<size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t len = cursor[v] - start[v];
    if (offsets[v] != start[v]) {
      std::copy(neighbors.begin() + static_cast<ptrdiff_t>(start[v]),
                neighbors.begin() + static_cast<ptrdiff_t>(cursor[v]),
                neighbors.begin() + static_cast<ptrdiff_t>(offsets[v]));
    }
    offsets[v + 1] = offsets[v] + len;
  }
  neighbors.resize(offsets[n]);
  neighbors.shrink_to_fit();
  return Graph::FromCsr(std::move(offsets), std::move(neighbors));
}

}  // namespace

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  LOCS_CHECK_LT(u, num_vertices_);
  LOCS_CHECK_LT(v, num_vertices_);
  if (u == v) return;
  edges_.emplace_back(u, v);
}

void GraphBuilder::AddEdges(const EdgeList& edges) {
  edges_.reserve(edges_.size() + edges.size());
  for (const auto& [u, v] : edges) AddEdge(u, v);
}

Graph GraphBuilder::Build() const { return BuildCsr(num_vertices_, edges_); }

Graph BuildGraph(VertexId num_vertices, const EdgeList& edges) {
  for (const auto& [u, v] : edges) {
    LOCS_CHECK_LT(u, num_vertices);
    LOCS_CHECK_LT(v, num_vertices);
  }
  return BuildCsr(num_vertices, edges);
}

}  // namespace locs
