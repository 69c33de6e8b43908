#include "common/datasets.h"

#include <sys/stat.h>

#include <cmath>
#include <cstdio>

#include "graph/traversal.h"
#include "store/image.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/timer.h"

namespace locs::bench {

namespace {

/// Recipe for one stand-in. Base sizes are ~5-20x below the SNAP
/// originals; relative density ordering follows the paper's Table 2
/// (LiveJournal densest and largest, Youtube sparse, Berkeley web-like
/// with tight clusters, DBLP moderate).
struct Recipe {
  const char* name;
  VertexId n;
  double degree_exponent;
  uint32_t min_degree;
  uint32_t max_degree;
  uint32_t min_community;
  uint32_t max_community;
  double mu;
  uint64_t seed;
};

// Degree exponents are steeper than the LFR default (α = 2) so that
// |V≥k| decays with k the way real SNAP graphs do — that decay is what
// gives local search its |V≥k| ≪ |V| advantage (paper §4.2.3, Figure 3).
constexpr Recipe kRecipes[] = {
    {"dblp-sim", 80000, 2.5, 4, 150, 20, 300, 0.10, 101},
    {"berkeley-sim", 100000, 2.2, 5, 300, 20, 400, 0.05, 202},
    {"youtube-sim", 150000, 2.8, 2, 120, 15, 200, 0.30, 303},
    {"livejournal-sim", 200000, 2.3, 6, 350, 30, 500, 0.10, 404},
};

const Recipe& FindRecipe(const std::string& name) {
  for (const Recipe& recipe : kRecipes) {
    if (name == recipe.name) return recipe;
  }
  LOCS_CHECK_MSG(false, "unknown dataset name");
  __builtin_unreachable();
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::string ScaleTag() {
  const double scale = BenchScaleFromEnv();
  if (scale == 1.0) return "";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_x%.2f", scale);
  return buf;
}

Graph GenerateComponent(const gen::LfrParams& params) {
  const gen::LfrGraph lfr = gen::Lfr(params);
  return ExtractLargestComponent(lfr.graph).graph;
}

Graph LoadOrGenerate(const std::string& cache_path,
                     const gen::LfrParams& params) {
  if (FileExists(cache_path)) {
    IoError error;
    auto loaded = store::LoadGraphImage(cache_path, &error);
    if (loaded.has_value()) return std::move(loaded->graph);
    std::fprintf(stderr,
                 "[datasets] cache %s unreadable (%s); regenerating\n",
                 cache_path.c_str(), error.message.c_str());
  }
  WallTimer timer;
  Graph graph = GenerateComponent(params);
  std::fprintf(stderr,
               "[datasets] generated %s: %u vertices, %lu edges (%.1fs)\n",
               cache_path.c_str(), graph.NumVertices(),
               static_cast<unsigned long>(graph.NumEdges()),
               timer.Seconds());
  IoError error;
  if (!store::CompileGraphImage(graph, cache_path, &error)) {
    std::fprintf(stderr, "[datasets] warning: could not cache %s: %s\n",
                 cache_path.c_str(), error.message.c_str());
  }
  return graph;
}

}  // namespace

std::string CacheDir() {
  const std::string dir = "data";
  ::mkdir(dir.c_str(), 0755);  // best-effort; EEXIST is fine
  return dir;
}

std::string CachePath(const std::string& cache_tag) {
  return CacheDir() + "/" + cache_tag + std::string(store::kImageExtension);
}

const std::vector<std::string>& StandInNames() {
  static const std::vector<std::string> names = {
      "dblp-sim", "berkeley-sim", "youtube-sim", "livejournal-sim"};
  return names;
}

std::string StandInCachePath(const std::string& name) {
  return CachePath(name + ScaleTag());
}

Dataset LoadStandIn(const std::string& name) {
  const Recipe& recipe = FindRecipe(name);
  const double scale = BenchScaleFromEnv();

  gen::LfrParams params;
  params.n = static_cast<VertexId>(
      std::lround(static_cast<double>(recipe.n) * scale));
  params.degree_exponent = recipe.degree_exponent;
  params.min_degree = recipe.min_degree;
  params.max_degree = recipe.max_degree;
  params.min_community = recipe.min_community;
  params.max_community = recipe.max_community;
  params.mu = recipe.mu;
  params.seed = recipe.seed;

  Dataset dataset;
  dataset.name = name;
  dataset.graph = LoadOrGenerate(StandInCachePath(name), params);
  return dataset;
}

std::vector<Dataset> LoadAllStandIns() {
  std::vector<Dataset> all;
  for (const std::string& name : StandInNames()) {
    all.push_back(LoadStandIn(name));
  }
  return all;
}

Graph CachedLfrComponent(const gen::LfrParams& params,
                         const std::string& cache_tag) {
  return LoadOrGenerate(CachePath(cache_tag), params);
}

}  // namespace locs::bench
