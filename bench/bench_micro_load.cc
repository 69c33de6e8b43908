// Cold-load micro-benchmark for the graph image store (src/store/):
// text-parse-and-index versus mmap zero-copy image load on a >=1M-edge
// power-law graph.
//
// The text leg is exactly what locsd pays on `LOAD` of an edge list —
// LoadEdgeList, GraphFacts (connectivity BFS), the degree-descending
// OrderedAdjacency, and the CoreIndex build. The image leg is `LOADIMG`:
// map the .limg file, verify header + checksum + structural pass, wrap
// ConstArray views. "Cold" means a fresh load into a new process-level
// object graph; the OS page cache is warm for both legs (both files were
// just written), which is the restart scenario the store targets — see
// EXPERIMENTS.md for the methodology.
//
// Flags:
//   --edges=N          approximate half-edge target (default ~2M half
//                      edges => >=1M undirected edges)
//   --repeats=R        timed repetitions per leg (default 5; min is
//                      reported — the steady-state cold-load cost)
//   --min-speedup=X    exit 1 unless text_ms/image_ms >= X (CI gate)
//   --max-image-ms=X   exit 1 unless image_ms <= X (CI gate)
//   --max-text-ms=X    exit 1 unless text_ms <= X (CI gate: keeps a
//                      super-linear parse or index build from returning)
//   --out=PATH         JSON artifact path (default BENCH_load.json)
// An unknown or malformed flag exits 2 before anything runs, so a
// misspelt gate cannot switch itself off.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/reporting.h"
#include "core/snapshot.h"
#include "gen/barabasi.h"
#include "graph/io.h"
#include "store/image.h"
#include "util/cli.h"

namespace locs::bench {
namespace {

std::string TempDir() {
  const char* tmp = std::getenv("TMPDIR");
  return tmp != nullptr ? tmp : "/tmp";
}

/// The full text-path cold load: parse + every serving precomputation.
/// Returns the degeneracy so the work cannot be optimized away.
uint32_t TextColdLoad(const std::string& path) {
  const std::optional<Graph> graph = LoadEdgeList(path);
  if (!graph.has_value()) std::abort();
  const Snapshot snapshot = Snapshot::Build(*graph);
  return snapshot.index.Degeneracy() + snapshot.facts.max_degree +
         static_cast<uint32_t>(snapshot.ordered.NumVertices() != 0);
}

uint32_t ImageColdLoad(const std::string& path) {
  IoError error;
  const std::optional<Snapshot> image = store::LoadGraphImage(path, &error);
  if (!image.has_value()) {
    std::fprintf(stderr, "image load failed: %s\n", error.message.c_str());
    std::abort();
  }
  return image->index.Degeneracy() + image->facts.max_degree;
}

int Run(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {
      "edges", "repeats", "min-speedup", "max-image-ms", "max-text-ms", "out"};
  uint64_t edges_flag = 2'100'000;
  size_t repeats = 5;
  double min_speedup = 0.0;
  double max_image_ms = 0.0;
  double max_text_ms = 0.0;
  std::string flag_error;
  if (!cli.OnlyKnownFlags(kFlags, &flag_error) ||
      !ReadWhole(cli, "edges", &edges_flag, &flag_error) ||
      !ReadWhole(cli, "repeats", &repeats, &flag_error) ||
      !ReadFinite(cli, "min-speedup", &min_speedup, &flag_error) ||
      !ReadMs(cli, "max-image-ms", &max_image_ms, &flag_error) ||
      !ReadMs(cli, "max-text-ms", &max_text_ms, &flag_error)) {
    return FlagError(flag_error);
  }
  repeats = std::max<size_t>(1, repeats);
  const auto half_edges_target = static_cast<uint64_t>(
      static_cast<double>(edges_flag) * BenchScaleFromEnv());
  const std::string out = cli.GetString("out", "BENCH_load.json");

  // BA with attachment degree 8: |E| ~= 8n, so n = target/16 gives the
  // requested half-edge count (>=1M edges at the default).
  constexpr uint32_t kAttach = 8;
  const auto n = static_cast<VertexId>(half_edges_target / (2 * kAttach));
  PrintBanner(
      "micro_load",
      "no direct paper figure — serving-layer cold-start extension",
      "image load should be orders of magnitude below text parse+index");

  std::printf("generating Barabasi-Albert n=%u m=%u...\n", n, kAttach);
  const Graph graph = gen::BarabasiAlbert(n, kAttach, /*seed=*/42);
  const uint64_t edges = graph.NumEdges();
  std::printf("graph: %u vertices, %" PRIu64 " edges\n", graph.NumVertices(),
              edges);

  const std::string text_path = TempDir() + "/bench_load_graph.txt";
  const std::string image_path = TempDir() + "/bench_load_graph.limg";
  if (!SaveEdgeList(graph, text_path)) std::abort();
  IoError error;
  const double compile_ms = TimeMs([&] {
    if (!store::CompileGraphImage(graph, image_path, &error)) {
      std::fprintf(stderr, "compile failed: %s\n", error.message.c_str());
      std::abort();
    }
  });
  std::printf("image compiled in %.0f ms\n", compile_ms);

  uint32_t sink = 0;
  std::vector<double> text_ms;
  std::vector<double> image_ms;
  for (size_t r = 0; r < repeats; ++r) {
    text_ms.push_back(TimeMs([&] { sink += TextColdLoad(text_path); }));
    image_ms.push_back(TimeMs([&] { sink += ImageColdLoad(image_path); }));
  }
  const double text_best = *std::min_element(text_ms.begin(), text_ms.end());
  const double image_best =
      *std::min_element(image_ms.begin(), image_ms.end());
  const double speedup =
      image_best > 0.0 ? text_best / image_best : text_best / 0.001;

  std::printf("\n%-28s %10s\n", "leg", "best ms");
  std::printf("%-28s %10.1f\n", "text parse+facts+index", text_best);
  std::printf("%-28s %10.2f\n", "image mmap load", image_best);
  std::printf("%-28s %9.0fx\n", "speedup", speedup);
  if (sink == 0) std::printf("(sink %u)\n", sink);  // defeat DCE

  JsonReport report("micro_load");
  report.Meta("generator", "barabasi_albert");
  report.Meta("attach_degree", std::to_string(kAttach));
  report.Meta("repeats", std::to_string(repeats));
  report.AddRow()
      .Num("vertices", static_cast<double>(graph.NumVertices()))
      .Num("edges", static_cast<double>(edges))
      .Num("compile_ms", compile_ms)
      .Num("text_cold_ms", text_best)
      .Num("image_cold_ms", image_best)
      .Num("speedup", speedup);
  if (!report.Write(out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());

  std::remove(text_path.c_str());
  std::remove(image_path.c_str());
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.1fx below required %.1fx\n",
                 speedup, min_speedup);
    return 1;
  }
  if (max_image_ms > 0.0 && image_best > max_image_ms) {
    std::fprintf(stderr, "FAIL: image load %.2f ms above limit %.2f ms\n",
                 image_best, max_image_ms);
    return 1;
  }
  if (max_text_ms > 0.0 && text_best > max_text_ms) {
    std::fprintf(stderr, "FAIL: text load %.1f ms above limit %.1f ms\n",
                 text_best, max_text_ms);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
