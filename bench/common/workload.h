// Query-workload sampling, mirroring the paper's methodology (§6.1.3):
// query vertices drawn from the k-core (guaranteeing a solution exists),
// from the set of vertices with degree >= k ("arbitrary vertices",
// Figure 10), or uniformly — plus the per-query time of a sampled
// workload pushed through the batch engine (src/exec/), which answers as
// the production deployment does.

#ifndef LOCS_BENCH_COMMON_WORKLOAD_H_
#define LOCS_BENCH_COMMON_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "core/kcore.h"
#include "exec/batch_runner.h"
#include "graph/graph.h"

namespace locs::bench {

/// `count` distinct vertices whose core number is >= k (fewer if the
/// k-core is smaller than count).
std::vector<VertexId> SampleFromKCore(const CoreDecomposition& cores,
                                      uint32_t k, size_t count,
                                      uint64_t seed);

/// `count` distinct vertices with degree >= k.
std::vector<VertexId> SampleWithDegreeAtLeast(const Graph& graph, uint32_t k,
                                              size_t count, uint64_t seed);

/// `count` distinct vertices, uniformly.
std::vector<VertexId> SampleUniform(const Graph& graph, size_t count,
                                    uint64_t seed);

/// Mean batch wall time per query in milliseconds (0 for an empty
/// batch): the figures' "batch served" columns.
double MsPerQuery(const BatchResult& batch);

}  // namespace locs::bench

#endif  // LOCS_BENCH_COMMON_WORKLOAD_H_
