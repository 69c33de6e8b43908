// Dataset registry for the benchmark drivers.
//
// The paper evaluates on four SNAP graphs (DBLP, Berkeley, Youtube,
// LiveJournal). This environment has no network access, so the registry
// serves deterministic LFR-generated stand-ins whose density ordering and
// degree shapes echo the originals (see DESIGN.md §3 for the substitution
// rationale), scaled down so the full benchmark sweep completes quickly.
// Set LOCS_BENCH_SCALE to grow every dataset proportionally.
//
// Generated graphs are reduced to their largest connected component (as the
// paper does, §6.1.1) and cached as graph images (src/store/) under data/;
// a cache file that fails the image checks is regenerated.

#ifndef LOCS_BENCH_COMMON_DATASETS_H_
#define LOCS_BENCH_COMMON_DATASETS_H_

#include <string>
#include <vector>

#include "gen/lfr.h"
#include "graph/graph.h"

namespace locs::bench {

/// A benchmark dataset: the graph (largest component) plus identification.
struct Dataset {
  std::string name;
  Graph graph;
};

/// Names of the four real-graph stand-ins, in the paper's Table-2 order.
const std::vector<std::string>& StandInNames();

/// Loads (from the on-disk cache) or generates the named stand-in.
Dataset LoadStandIn(const std::string& name);

/// The cache's graph image of the named stand-in at the current scale,
/// which LoadStandIn writes.
std::string StandInCachePath(const std::string& name);

/// All four stand-ins.
std::vector<Dataset> LoadAllStandIns();

/// Generates (with caching) an LFR graph reduced to its largest component,
/// for the synthetic-network experiments (Figures 3, 16, 17).
Graph CachedLfrComponent(const gen::LfrParams& params,
                         const std::string& cache_tag);

/// Directory used for the dataset cache (created on demand).
std::string CacheDir();

/// The cache's graph image for `cache_tag` (a stand-in name plus scale
/// tag, or CachedLfrComponent's tag).
std::string CachePath(const std::string& cache_tag);

}  // namespace locs::bench

#endif  // LOCS_BENCH_COMMON_DATASETS_H_
