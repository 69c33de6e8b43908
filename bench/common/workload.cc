#include "common/workload.h"

#include "util/rng.h"

namespace locs::bench {

namespace {

std::vector<VertexId> SampleFromPool(std::vector<VertexId> pool,
                                     size_t count, uint64_t seed) {
  Rng rng(seed);
  rng.Shuffle(pool);
  if (pool.size() > count) pool.resize(count);
  return pool;
}

}  // namespace

std::vector<VertexId> SampleFromKCore(const CoreDecomposition& cores,
                                      uint32_t k, size_t count,
                                      uint64_t seed) {
  std::vector<VertexId> pool;
  for (VertexId v = 0; v < cores.core.size(); ++v) {
    if (cores.core[v] >= k) pool.push_back(v);
  }
  return SampleFromPool(std::move(pool), count, seed);
}

std::vector<VertexId> SampleWithDegreeAtLeast(const Graph& graph, uint32_t k,
                                              size_t count, uint64_t seed) {
  std::vector<VertexId> pool;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (graph.Degree(v) >= k) pool.push_back(v);
  }
  return SampleFromPool(std::move(pool), count, seed);
}

std::vector<VertexId> SampleUniform(const Graph& graph, size_t count,
                                    uint64_t seed) {
  std::vector<VertexId> pool(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) pool[v] = v;
  return SampleFromPool(std::move(pool), count, seed);
}

double MsPerQuery(const BatchResult& batch) {
  return batch.results.empty()
             ? 0.0
             : batch.stats.wall_ms / static_cast<double>(batch.results.size());
}

}  // namespace locs::bench
