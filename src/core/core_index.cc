#include "core/core_index.h"

#include <utility>

#include "core/kcore.h"

namespace locs {

CoreIndex::CoreIndex(const Graph& graph) {
  CoreDecomposition cores = ComputeCores(graph);
  degeneracy_ = cores.degeneracy;
  core_ = ConstArray<uint32_t>(std::move(cores.core));
}

CoreIndex CoreIndex::FromParts(ConstArray<uint32_t> core,
                               uint32_t degeneracy) {
  CoreIndex index;
  index.core_ = std::move(core);
  index.degeneracy_ = degeneracy;
  return index;
}

}  // namespace locs
