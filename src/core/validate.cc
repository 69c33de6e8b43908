#include "core/validate.h"

#include <algorithm>
#include <cstdio>

#include "graph/invariants.h"
#include "util/check.h"
#include "util/thread_annotations.h"

namespace locs::validate {

namespace {

/// Fingerprint of an immutable Graph's backing storage. Two live graphs
/// never collide (distinct data pointers); a graph rebuilt over a
/// recycled allocation with identical shape could in principle be
/// skipped, which trades a vanishingly unlikely missed CSR re-check for
/// not paying O(|V| + |E|) on every one of millions of queries.
struct GraphKey {
  const void* offsets;
  const void* neighbors;
  size_t num_offsets;
  size_t num_neighbors;

  bool operator==(const GraphKey&) const = default;
};

GraphKey KeyOf(const Graph& graph) {
  return GraphKey{graph.offsets().data(), graph.neighbors().data(),
                  graph.offsets().size(), graph.neighbors().size()};
}

constexpr size_t kGraphCacheSize = 64;

Mutex cache_mutex;
// Ring of recently validated graphs (bounded so long-running batch
// servers over churning graphs cannot grow it without limit).
GraphKey validated_graphs[kGraphCacheSize] LOCS_GUARDED_BY(cache_mutex);
size_t validated_count LOCS_GUARDED_BY(cache_mutex) = 0;
size_t validated_next LOCS_GUARDED_BY(cache_mutex) = 0;

/// True when `graph` was already CSR-validated; otherwise records it as
/// validated and returns false (the caller performs the validation —
/// a racing second thread may validate redundantly, never skip unsafely
/// only if validation cannot fail... it can, so record-before-validate
/// is acceptable solely because a failure aborts the process).
bool CheckAndRecordValidated(const Graph& graph) {
  const GraphKey key = KeyOf(graph);
  MutexLock lock(cache_mutex);
  for (size_t i = 0; i < validated_count; ++i) {
    if (validated_graphs[i] == key) return true;
  }
  validated_graphs[validated_next] = key;
  validated_next = (validated_next + 1) % kGraphCacheSize;
  validated_count = std::min(validated_count + 1, kGraphCacheSize);
  return false;
}

/// True when `v` is a member (members_sorted ascending).
bool IsMember(const std::vector<VertexId>& members_sorted, VertexId v) {
  return std::binary_search(members_sorted.begin(), members_sorted.end(), v);
}

std::string Describe(const char* what, uint64_t a, uint64_t b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), what, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

}  // namespace

std::string CheckCommunity(const Graph& graph, const Community& community,
                           const std::vector<VertexId>& query) {
  const std::vector<VertexId>& members = community.members;
  if (members.empty()) return "community has no members";

  std::vector<VertexId> sorted(members);
  std::sort(sorted.begin(), sorted.end());
  if (sorted.back() >= graph.NumVertices()) {
    return Describe("member id %llu out of range (|V| = %llu)", sorted.back(),
                    graph.NumVertices());
  }
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end()) {
    return Describe("duplicate member id %llu (community size %llu)", *dup,
                    members.size());
  }
  for (const VertexId q : query) {
    if (q >= graph.NumVertices()) {
      return Describe("query vertex %llu out of range (|V| = %llu)", q,
                      graph.NumVertices());
    }
    if (!IsMember(sorted, q)) {
      return Describe("query vertex %llu not a member (community size %llu)",
                      q, members.size());
    }
  }

  // Exact induced minimum degree, recounted edge by edge.
  uint32_t min_degree = ~uint32_t{0};
  for (const VertexId v : sorted) {
    uint32_t deg = 0;
    for (const VertexId u : graph.Neighbors(v)) {
      if (IsMember(sorted, u)) ++deg;
    }
    min_degree = std::min(min_degree, deg);
  }
  if (min_degree != community.min_degree) {
    return Describe("reported min degree %llu but recomputed %llu",
                    community.min_degree, min_degree);
  }

  // Connectivity of G[H] by BFS from the first member.
  std::vector<VertexId> frontier{sorted.front()};
  std::vector<bool> seen(sorted.size(), false);
  seen[0] = true;
  size_t reached = 1;
  while (!frontier.empty()) {
    const VertexId v = frontier.back();
    frontier.pop_back();
    for (const VertexId u : graph.Neighbors(v)) {
      const auto it = std::lower_bound(sorted.begin(), sorted.end(), u);
      if (it == sorted.end() || *it != u) continue;
      const size_t idx = static_cast<size_t>(it - sorted.begin());
      if (seen[idx]) continue;
      seen[idx] = true;
      ++reached;
      frontier.push_back(u);
    }
  }
  if (reached != sorted.size()) {
    return Describe("induced subgraph disconnected (%llu of %llu reachable)",
                    reached, sorted.size());
  }
  return "";
}

std::string CheckSearchResult(const Graph& graph, const SearchResult& result,
                              const std::vector<VertexId>& query, uint32_t k) {
  if (!CheckAndRecordValidated(graph)) {
    const std::string csr = ValidateGraph(graph);
    if (!csr.empty()) return "CSR malformed: " + csr;
  }
  if (query.empty()) return "query vertex set is empty";

  switch (result.status) {
    case Termination::kFound: {
      if (!result.community.has_value()) {
        return "status kFound but no community engaged";
      }
      std::string err = CheckCommunity(graph, *result.community, query);
      if (!err.empty()) return err;
      if (result.community->min_degree < k) {
        return Describe("min degree %llu below requested threshold %llu",
                        result.community->min_degree, k);
      }
      return "";
    }
    case Termination::kNotExists:
      if (result.community.has_value()) {
        return "status kNotExists but a community is engaged";
      }
      if (!result.best_so_far.members.empty()) {
        return "status kNotExists with a non-empty best_so_far";
      }
      return "";
    case Termination::kDeadline:
    case Termination::kBudgetExhausted: {
      if (result.community.has_value()) {
        return "interrupted status but a community is engaged";
      }
      // A multi-seed partial answer is only anchored at the first query
      // vertex (core/multi.h).
      return CheckCommunity(graph, result.best_so_far, {query.front()});
    }
  }
  return "unknown termination status";
}

void DieOnViolation(const char* solver, const Graph& graph,
                    const SearchResult& result,
                    const std::vector<VertexId>& query, uint32_t k) {
  const std::string err = CheckSearchResult(graph, result, query, k);
  if (err.empty()) return;
  char msg[512];
  std::snprintf(msg, sizeof(msg),
                "[LOCS_VALIDATE] solver=%s query=%llu size=%llu k=%llu "
                "status=%s violation: %s",
                solver,
                static_cast<unsigned long long>(query.empty() ? ~uint64_t{0}
                                                              : query.front()),
                static_cast<unsigned long long>(query.size()),
                static_cast<unsigned long long>(k),
                std::string(TerminationName(result.status)).c_str(),
                err.c_str());
  LOCS_CHECK_MSG(false, msg);
}

void DieOnViolation(const char* solver, const Graph& graph,
                    const SearchResult& result, VertexId v0, uint32_t k) {
  DieOnViolation(solver, graph, result, std::vector<VertexId>{v0}, k);
}

std::vector<VertexId> CsmMultiQuery(const SearchResult& result,
                                    const std::vector<VertexId>& query) {
  const bool singleton_fallback = result.Found() && query.size() > 1 &&
                                  result.community->members.size() == 1;
  if (singleton_fallback) return {query.front()};
  return query;
}

void ResetValidatedGraphCache() {
  MutexLock lock(cache_mutex);
  validated_count = 0;
  validated_next = 0;
}

}  // namespace locs::validate
