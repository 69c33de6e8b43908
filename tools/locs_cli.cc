// locs_cli — command-line front end for the locs library.
//
// Subcommands:
//   stats    --input=G                        graph statistics
//   cst      --input=G --vertex=V --k=K       community with δ >= K
//   csm      --input=G --vertex=V             best community
//   batch    --input=G --mode=cst|csm         a batch of queries on
//            [--queries-file=F|--sample=N]    --threads=T workers
//   decompose --input=G [--top=N]             core decomposition summary
//   convert  --input=G --output=F             between edgelist and metis
//   compile  <input> <image>                  build a mmap-ready graph
//                                             image (src/store/)
//   generate --model=lfr|ba|gnp --output=F    synthetic graphs
//   client   --port=P [--retries=N]           scripted TCP session
//                                             with locsd (stdin script)
//
// Every subcommand but compile lists its flags (util/cli.h): an unknown,
// repeated or malformed flag, a value on a switch (--global,
// --show-results), a positional argument or a missing required flag
// (--input; --vertex for cst and csm; --k for cst; --port for client)
// exits 2, naming it, before any graph is loaded or generated.
//
// Graph files are auto-detected: a graph image by its magic bytes (any
// extension), then by extension — .metis / .graph (METIS), anything
// else is treated as a whitespace edge list. `compile` is the only
// writer of graph images.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/global.h"
#include "core/kcore.h"
#include "core/searcher.h"
#include "exec/batch_runner.h"
#include "obs/trace_sink.h"
#include "serve/daemon.h"
#include "gen/barabasi.h"
#include "gen/erdos_renyi.h"
#include "gen/lfr.h"
#include "graph/io.h"
#include "graph/statistics.h"
#include "graph/traversal.h"
#include "store/image.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace locs {
namespace {

// Exit codes. 0 = success, 1 = generic usage/argument error, 2 = bad
// command line, 64 = unknown subcommand (distinct from `help`, so a
// script typo never parses as a successful usage request). Load failures
// and interrupted queries get distinct codes so scripts can branch
// without parsing stderr.
constexpr int kExitOpenError = 3;       // input file missing/unreadable
constexpr int kExitParseError = 4;      // input file malformed
constexpr int kExitTruncatedError = 5;  // input file short/truncated
constexpr int kExitAllocError = 6;      // graph did not fit in memory
constexpr int kExitDeadline = 10;       // query interrupted: deadline
constexpr int kExitBudget = 11;         // query interrupted: work budget
constexpr int kExitUnknownCommand = 64; // subcommand not recognized

int IoExitCode(IoErrorKind kind) {
  switch (kind) {
    case IoErrorKind::kOpen:
      return kExitOpenError;
    case IoErrorKind::kParse:
      return kExitParseError;
    case IoErrorKind::kTruncated:
      return kExitTruncatedError;
    case IoErrorKind::kAlloc:
      return kExitAllocError;
    case IoErrorKind::kNone:
      break;
  }
  return 1;
}

int StatusExitCode(Termination status) {
  switch (status) {
    case Termination::kDeadline:
      return kExitDeadline;
    case Termination::kBudgetExhausted:
      return kExitBudget;
    case Termination::kFound:
    case Termination::kNotExists:
      break;
  }
  return 0;
}

/// False, with *error naming it, when --name is absent.
bool Required(const CommandLine& cli, const char* name,
              std::string* error) {
  if (cli.Has(name)) return true;
  *error = "--" + std::string(name) + " is required";
  return false;
}

/// Opens --trace=<file> as a JSONL telemetry sink labelled with the
/// subcommand. Returns 0 with *out == nullptr when the flag is absent,
/// 0 with an open sink on success, kExitOpenError after printing an
/// error — an unopenable trace file is a hard failure, never a silent
/// untraced run.
int AttachTrace(const CommandLine& cli, const char* label,
                std::unique_ptr<obs::TraceSink>* out) {
  const std::string path = cli.GetString("trace", "");
  if (path.empty()) return 0;
  auto sink = std::make_unique<obs::TraceSink>(path);
  if (!sink->ok()) {
    std::fprintf(stderr, "error: could not open trace file '%s'\n",
                 path.c_str());
    return kExitOpenError;
  }
  sink->Annotate(label);
  *out = std::move(sink);
  return 0;
}

bool SaveAuto(const Graph& graph, const std::string& path) {
  if (path.ends_with(".metis") || path.ends_with(".graph")) {
    return SaveMetis(graph, path);
  }
  return SaveEdgeList(graph, path);
}

/// Prints up to `limit` member ids (0 = all).
void PrintMembers(const std::vector<VertexId>& members, size_t limit) {
  const size_t shown =
      limit == 0 ? members.size() : std::min(limit, members.size());
  for (size_t i = 0; i < shown; ++i) std::printf("%u ", members[i]);
  if (shown < members.size()) {
    std::printf("... (%zu more; pass --limit=0 for all)",
                members.size() - shown);
  }
  std::printf("\n");
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: locs_cli <command> [--flags]\n"
      "  stats     --input=G\n"
      "  cst       --input=G --vertex=V --k=K [--global] [--limit=50]\n"
      "            [--query-deadline-ms=D] [--work-budget=W]\n"
      "            [--trace=F]   per-query JSONL telemetry\n"
      "  csm       --input=G --vertex=V [--global] [--limit=50]\n"
      "            [--query-deadline-ms=D] [--work-budget=W] [--trace=F]\n"
      "  batch     --input=G [--mode=cst|csm] [--k=K]\n"
      "            [--queries-file=F | --sample=N --seed=S]\n"
      "            [--threads=T] [--deadline-ms=D] [--show-results]\n"
      "            [--query-deadline-ms=D] [--work-budget=W] [--trace=F]\n"
      "  decompose --input=G [--top=10]\n"
      "  convert   --input=G --output=F\n"
      "  compile   <input> <image>   precompute + serialize a graph\n"
      "            image for mmap cold loads (also --input= --output=)\n"
      "  generate  --output=F [--model=lfr|ba|gnp] [--n=10000] [--seed=S]\n"
      "            [--mu=0.1 --min-degree=5 --max-degree=100\n"
      "             --min-community=20 --max-community=200] [--m=3]\n"
      "            [--p=0.001]\n"
      "  client    --port=P [--retries=N]         scripted TCP session\n"
      "            [--request-deadline-ms=D]      with locsd (N>0:\n"
      "                                            self-healing reconnect\n"
      "                                            + backoff)\n"
      "flags in [] are optional; the rest are required\n"
      "exit codes: 0 ok, 2 bad command line (unknown, repeated or\n"
      "            malformed flag, missing required flag, positional\n"
      "            argument), 3 open, 4 parse,\n"
      "            5 truncated, 6 alloc, 10 deadline, 11 work-budget,\n"
      "            64 unknown command\n");
  return 2;
}

int CmdClient(const CommandLine& cli) {
  static constexpr std::string_view kFlags[] = {
      "port", "retries", "request-deadline-ms"};
  serve::RetryClientOptions options;
  // --retries=N grants N extra attempts per request (reconnect, backoff,
  // waiting out BUSY); the default 0 keeps the historical
  // die-on-first-error lockstep semantics scripted tests rely on.
  unsigned retries = 0;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "port", &options.port, &error) ||
      !ReadWhole(cli, "retries", &retries, &error,
                 std::numeric_limits<unsigned>::max() - 1) ||
      !ReadWhole(cli, "request-deadline-ms", &options.request_deadline_ms,
                 &error)) {
    return FlagError(error);
  }
  if (options.port == 0) {
    std::fprintf(stderr, "error: client requires --port=P (1..65535)\n");
    return 2;
  }
  options.max_attempts = 1 + retries;
  return serve::ClientMain(options);
}

/// Loads --input; on failure prints the IoError detail and stores the
/// matching exit code into *exit_code (left untouched on success). When
/// the input is a graph image and `image` is non-null, the stored
/// snapshot lands in *image; the returned graph shares its arrays.
std::optional<Graph> RequireGraph(const CommandLine& cli, int* exit_code,
                                  std::optional<Snapshot>* image = nullptr) {
  const std::string input = cli.GetString("input", "");
  if (input.empty()) {
    std::fprintf(stderr, "error: --input is required\n");
    *exit_code = 2;
    return std::nullopt;
  }
  WallTimer timer;
  IoError error;
  // Graph images are detected by content so a compiled image works as
  // --input for every subcommand, whatever it is named.
  std::optional<Graph> graph;
  if (store::SniffGraphImage(input)) {
    auto snapshot = store::LoadGraphImage(input, &error);
    if (snapshot.has_value()) graph = snapshot->graph;
    if (image != nullptr) *image = std::move(snapshot);
  } else {
    graph = LoadGraphAuto(input, &error);
  }
  if (!graph.has_value()) {
    if (error.line > 0) {
      std::fprintf(stderr, "error: could not load '%s' (%s error): %s "
                   "(line %llu)\n",
                   input.c_str(),
                   std::string(IoErrorKindName(error.kind)).c_str(),
                   error.message.c_str(),
                   static_cast<unsigned long long>(error.line));
    } else {
      std::fprintf(stderr, "error: could not load '%s' (%s error): %s\n",
                   input.c_str(),
                   std::string(IoErrorKindName(error.kind)).c_str(),
                   error.message.c_str());
    }
    *exit_code = IoExitCode(error.kind);
    return std::nullopt;
  }
  std::fprintf(stderr, "loaded %s: %u vertices, %lu edges (%.0fms)\n",
               input.c_str(), graph->NumVertices(),
               static_cast<unsigned long>(graph->NumEdges()),
               timer.Millis());
  return graph;
}

/// RequireGraph for the query commands (null on failure): a graph image
/// keeps the precomputations it stores; a text input goes through
/// Snapshot::Build.
std::shared_ptr<const Snapshot> RequireSnapshot(const CommandLine& cli,
                                                int* exit_code) {
  std::optional<Snapshot> image;
  auto graph = RequireGraph(cli, exit_code, &image);
  if (!graph.has_value()) return nullptr;
  return std::make_shared<const Snapshot>(
      image.has_value() ? std::move(*image)
                        : Snapshot::Build(std::move(*graph)));
}

int CmdStats(const CommandLine& cli) {
  static constexpr std::string_view kFlags[] = {"input"};
  if (std::string error; !cli.OnlyKnownFlags(kFlags, &error)) {
    return FlagError(error);
  }
  int load_rc = 1;
  const auto graph = RequireGraph(cli, &load_rc);
  if (!graph.has_value()) return load_rc;
  const Components comps = ConnectedComponents(*graph);
  const CoreDecomposition cores = ComputeCores(*graph);
  TableWriter table({"metric", "value"});
  table.Row().Cell("vertices").Cell(FormatCount(graph->NumVertices()));
  table.Row().Cell("edges").Cell(FormatCount(graph->NumEdges()));
  table.Row().Cell("min degree").Num(uint64_t{graph->MinDegree()});
  table.Row().Cell("avg degree").Num(graph->AverageDegree(), 2);
  table.Row().Cell("max degree").Num(uint64_t{graph->MaxDegree()});
  table.Row().Cell("components").Num(uint64_t{comps.count});
  table.Row()
      .Cell("largest component")
      .Cell(FormatCount(comps.size[comps.LargestId()]));
  table.Row().Cell("degeneracy δ*(G)").Num(uint64_t{cores.degeneracy});
  table.Row()
      .Cell("avg clustering (sampled)")
      .Num(AverageClusteringCoefficient(*graph, 2000, 1), 4);
  if (graph->NumVertices() > 0) {
    table.Row()
        .Cell("approx diameter (largest comp)")
        .Num(uint64_t{ApproxDiameter(
            *graph, [&] {
              for (VertexId v = 0; v < graph->NumVertices(); ++v) {
                if (comps.label[v] == comps.LargestId()) return v;
              }
              return VertexId{0};
            }())});
  }
  table.Print();
  return 0;
}

/// `cst`'s and `csm`'s flags, read strictly before the graph loads.
struct QueryFlags {
  uint64_t vertex = 0;  ///< checked against |V| once the graph is loaded
  uint32_t k = 0;
  QueryLimits limits;
  size_t limit = 50;  ///< member ids printed; 0 = all
  bool global = false;
};

/// Reads `cst`'s flags (with_k) or `csm`'s into *flags. False, with
/// *error naming the flag, for an unknown, malformed or missing one.
bool ReadQueryFlags(const CommandLine& cli, bool with_k, QueryFlags* flags,
                    std::string* error) {
  static constexpr std::string_view kCsmFlags[] = {
      "input", "vertex", "query-deadline-ms", "work-budget", "limit",
      "trace"};
  static constexpr std::string_view kCstFlags[] = {
      "input", "vertex", "k", "query-deadline-ms", "work-budget", "limit",
      "trace"};
  static constexpr std::string_view kSwitches[] = {"global"};
  const std::span<const std::string_view> known =
      with_k ? std::span<const std::string_view>(kCstFlags) : kCsmFlags;
  flags->global = cli.Has("global");
  return cli.OnlyKnownFlags(known, error, kSwitches) &&
         Required(cli, "vertex", error) &&
         (!with_k || Required(cli, "k", error)) &&
         ReadWhole(cli, "vertex", &flags->vertex, error) &&
         ReadWhole(cli, "k", &flags->k, error) &&
         ReadMs(cli, "query-deadline-ms", &flags->limits.deadline_ms,
                error) &&
         ReadWhole(cli, "work-budget", &flags->limits.work_budget, error) &&
         ReadWhole(cli, "limit", &flags->limit, error);
}

/// Loads --input for cst/csm after checking *flags' vertex against it;
/// null, with *exit_code set, on failure.
std::shared_ptr<const Snapshot> RequireQuerySnapshot(const CommandLine& cli,
                                                     const QueryFlags& flags,
                                                     int* exit_code) {
  auto snapshot = RequireSnapshot(cli, exit_code);
  if (snapshot != nullptr && flags.vertex >= snapshot->graph.NumVertices()) {
    std::fprintf(stderr, "error: vertex out of range\n");
    *exit_code = 1;
    return nullptr;
  }
  return snapshot;
}

int CmdCst(const CommandLine& cli) {
  QueryFlags flags;
  std::string error;
  if (!ReadQueryFlags(cli, /*with_k=*/true, &flags, &error)) {
    return FlagError(error);
  }
  int load_rc = 1;
  const auto snapshot = RequireQuerySnapshot(cli, flags, &load_rc);
  if (snapshot == nullptr) return load_rc;
  const auto v0 = static_cast<VertexId>(flags.vertex);
  const uint32_t k = flags.k;
  CommunitySearcher searcher(snapshot);
  std::unique_ptr<obs::TraceSink> trace;
  if (const int rc = AttachTrace(cli, "cst", &trace); rc != 0) return rc;
  if (trace != nullptr) searcher.set_recorder(trace.get());
  WallTimer timer;
  QueryGuard guard(flags.limits);
  const auto result = flags.global
                          ? GlobalCst(snapshot->graph, v0, k, &guard,
                                      trace.get())
                          : searcher.Cst(v0, k, {}, &guard);
  const double ms = timer.Millis();
  const auto visited =
      static_cast<unsigned long>(result.telemetry.TotalVisited());
  if (result.Interrupted()) {
    std::printf("interrupted (%s): best so far %zu members, δ=%u "
                "(%.2fms, %lu visited)\n",
                std::string(TerminationName(result.status)).c_str(),
                result.best_so_far.members.size(),
                result.best_so_far.min_degree, ms, visited);
    PrintMembers(result.best_so_far.members, flags.limit);
    return StatusExitCode(result.status);
  }
  if (!result.has_value()) {
    std::printf("no community with min degree >= %u contains vertex %u "
                "(%.2fms, %lu vertices visited)\n",
                k, v0, ms, visited);
    return 0;
  }
  std::printf("community: %zu members, δ=%u (%.2fms, %lu visited%s)\n",
              result->members.size(), result->min_degree, ms, visited,
              result.telemetry.used_global_fallback ? ", fallback" : "");
  PrintMembers(result->members, flags.limit);
  return 0;
}

int CmdCsm(const CommandLine& cli) {
  QueryFlags flags;
  std::string error;
  if (!ReadQueryFlags(cli, /*with_k=*/false, &flags, &error)) {
    return FlagError(error);
  }
  int load_rc = 1;
  const auto snapshot = RequireQuerySnapshot(cli, flags, &load_rc);
  if (snapshot == nullptr) return load_rc;
  const auto v0 = static_cast<VertexId>(flags.vertex);
  CommunitySearcher searcher(snapshot);
  std::unique_ptr<obs::TraceSink> trace;
  if (const int rc = AttachTrace(cli, "csm", &trace); rc != 0) return rc;
  if (trace != nullptr) searcher.set_recorder(trace.get());
  WallTimer timer;
  QueryGuard guard(flags.limits);
  const auto result = flags.global
                          ? GlobalCsm(snapshot->graph, v0, &guard, trace.get())
                          : searcher.Csm(v0, &guard);
  const Community& community = result.Best();
  std::printf("%s community: %zu members, δ=%u (%.2fms, %lu visited)\n",
              result.Interrupted() ? "interrupted; best-so-far" : "best",
              community.members.size(), community.min_degree,
              timer.Millis(),
              static_cast<unsigned long>(result.telemetry.TotalVisited()));
  PrintMembers(community.members, flags.limit);
  return StatusExitCode(result.status);
}

/// `batch`'s flags, read strictly: see ReadBatchFlags.
struct BatchFlags {
  uint32_t k = 3;
  uint32_t sample = 1000;
  uint64_t seed = 1;
  BatchLimits limits;
};

/// More workers than this is a typo, not a machine.
constexpr unsigned kMaxBatchThreads = 1024;

/// Reads `batch`'s flags into *flags. False, with *error naming the
/// flag, for an unknown flag or a malformed or out-of-range number.
bool ReadBatchFlags(const CommandLine& cli, BatchFlags* flags,
                    std::string* error) {
  static constexpr std::string_view kFlags[] = {
      "input", "mode", "k", "queries-file", "sample", "seed", "threads",
      "deadline-ms", "query-deadline-ms", "work-budget", "trace"};
  static constexpr std::string_view kSwitches[] = {"show-results"};
  BatchLimits& limits = flags->limits;
  return cli.OnlyKnownFlags(kFlags, error, kSwitches) &&
         ReadWhole(cli, "k", &flags->k, error) &&
         ReadWhole(cli, "sample", &flags->sample, error) &&
         ReadWhole(cli, "seed", &flags->seed, error) &&
         ReadWhole(cli, "threads", &limits.num_threads, error,
                   kMaxBatchThreads) &&
         ReadWhole(cli, "work-budget", &limits.query_work_budget, error) &&
         ReadMs(cli, "deadline-ms", &limits.deadline_ms, error) &&
         ReadMs(cli, "query-deadline-ms", &limits.query_deadline_ms, error);
}

/// Query vertices for `batch`: an explicit --queries-file (one vertex id
/// per line, '#' comments) or a seeded uniform --sample.
std::optional<std::vector<VertexId>> BatchQueries(const CommandLine& cli,
                                                  const BatchFlags& flags,
                                                  const Graph& graph) {
  std::vector<VertexId> queries;
  const std::string file = cli.GetString("queries-file", "");
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "error: could not read '%s'\n", file.c_str());
      return std::nullopt;
    }
    std::string token;
    while (in >> token) {
      if (token[0] == '#') {
        std::getline(in, token);
        continue;
      }
      const auto v = ParseWhole<uint64_t>(token);
      if (!v.has_value() || *v >= graph.NumVertices()) {
        std::fprintf(stderr, "error: query vertex %s out of range\n",
                     token.c_str());
        return std::nullopt;
      }
      queries.push_back(static_cast<VertexId>(*v));
    }
    return queries;
  }
  if (graph.NumVertices() == 0 || flags.sample == 0) return queries;
  Rng rng(flags.seed);
  queries.reserve(flags.sample);
  for (uint32_t i = 0; i < flags.sample; ++i) {
    queries.push_back(
        static_cast<VertexId>(rng.Below(graph.NumVertices())));
  }
  return queries;
}

int CmdBatch(const CommandLine& cli) {
  BatchFlags flags;
  std::string error;
  if (!ReadBatchFlags(cli, &flags, &error)) return FlagError(error);
  int load_rc = 1;
  const auto snapshot = RequireSnapshot(cli, &load_rc);
  if (snapshot == nullptr) return load_rc;
  const std::string mode = cli.GetString("mode", "cst");
  if (mode != "cst" && mode != "csm") {
    std::fprintf(stderr, "error: --mode must be cst or csm\n");
    return 1;
  }
  const auto queries = BatchQueries(cli, flags, snapshot->graph);
  if (!queries.has_value()) return 1;

  BatchRunner runner(snapshot);
  std::unique_ptr<obs::TraceSink> trace;
  if (const int rc = AttachTrace(cli, "batch", &trace); rc != 0) return rc;
  if (trace != nullptr) runner.set_recorder(trace.get());
  const BatchResult batch =
      mode == "cst" ? runner.RunCst(*queries, flags.k, flags.limits)
                    : runner.RunCsm(*queries, flags.limits);
  const BatchStats& stats = batch.stats;

  TableWriter table({"metric", "value"});
  table.Row().Cell("queries").Num(uint64_t{queries->size()});
  table.Row().Cell("completed").Num(stats.completed);
  table.Row().Cell("answered").Num(stats.answered);
  table.Row().Cell("visited vertices").Num(stats.visited_vertices);
  table.Row().Cell("scanned edges").Num(stats.scanned_edges);
  table.Row().Cell("batch wall ms").Num(stats.wall_ms, 2);
  if (stats.completed > 0 && stats.wall_ms > 0.0) {
    table.Row()
        .Cell("mean ms/query")
        .Num(stats.wall_ms / static_cast<double>(stats.completed), 4);
    table.Row()
        .Cell("throughput q/s")
        .Num(static_cast<double>(stats.completed) /
                 (stats.wall_ms / 1000.0),
             1);
  }
  for (int s = 0; s < kNumTerminations; ++s) {
    const auto status = static_cast<Termination>(s);
    if (stats.CountOf(status) == 0) continue;
    table.Row()
        .Cell(std::string("status ") +
              std::string(TerminationName(status)))
        .Num(stats.CountOf(status));
  }
  if (stats.deadline_hit) table.Row().Cell("deadline").Cell("hit");
  table.Print();

  if (cli.Has("show-results")) {
    for (size_t i = 0; i < stats.completed; ++i) {
      std::printf("%u %u\n", (*queries)[i],
                  batch.results[i].Best().min_degree);
    }
  }
  // Per-status exit reporting: interrupted queries surface the dominant
  // interruption cause as the exit code (deadline > budget).
  if (stats.CountOf(Termination::kDeadline) > 0) return kExitDeadline;
  if (stats.CountOf(Termination::kBudgetExhausted) > 0) return kExitBudget;
  return 0;
}

int CmdDecompose(const CommandLine& cli) {
  static constexpr std::string_view kFlags[] = {"input", "top"};
  size_t top = 10;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "top", &top, &error)) {
    return FlagError(error);
  }
  int load_rc = 1;
  const auto graph = RequireGraph(cli, &load_rc);
  if (!graph.has_value()) return load_rc;
  WallTimer timer;
  const CoreDecomposition cores = ComputeCores(*graph);
  std::printf("core decomposition in %.0fms; degeneracy %u\n",
              timer.Millis(), cores.degeneracy);
  std::vector<uint64_t> shell(cores.degeneracy + 1, 0);
  for (VertexId v = 0; v < graph->NumVertices(); ++v) {
    ++shell[cores.core[v]];
  }
  TableWriter table({"k-shell", "vertices"});
  const size_t first =
      shell.size() > top ? shell.size() - top : size_t{0};
  for (size_t k = first; k < shell.size(); ++k) {
    table.Row().Num(static_cast<uint64_t>(k)).Num(shell[k]);
  }
  table.Print();
  return 0;
}

int CmdConvert(const CommandLine& cli) {
  static constexpr std::string_view kFlags[] = {"input", "output"};
  if (std::string error; !cli.OnlyKnownFlags(kFlags, &error)) {
    return FlagError(error);
  }
  // Checked before the load. A missing --output exits 1, unlike a
  // missing --input (RequireGraph's exit 2), so --input goes first.
  const std::string output = cli.GetString("output", "");
  if (output.empty() && !cli.GetString("input", "").empty()) {
    std::fprintf(stderr, "error: --output is required\n");
    return 1;
  }
  int load_rc = 1;
  const auto graph = RequireGraph(cli, &load_rc);
  if (!graph.has_value()) return load_rc;
  if (!SaveAuto(*graph, output)) {
    std::fprintf(stderr, "error: could not write '%s'\n", output.c_str());
    return 1;
  }
  std::printf("wrote %s\n", output.c_str());
  return 0;
}

/// `compile <input> <image>` — parse once, precompute everything the
/// serving layer needs (facts, degree ordering, core index), and
/// serialize it as a mmap-ready graph image. Takes positional arguments
/// (and --input=/--output= as an alternative spelling), so it parses
/// argv directly instead of going through CommandLine.
int CmdCompile(int argc, char** argv) {
  std::string input;
  std::string output;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--input=", 0) == 0) {
      input = arg.substr(std::strlen("--input="));
    } else if (arg.rfind("--output=", 0) == 0) {
      output = arg.substr(std::strlen("--output="));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: compile: unknown flag '%s'\n",
                   arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  for (const std::string& arg : positional) {
    if (input.empty()) {
      input = arg;
    } else if (output.empty()) {
      output = arg;
    } else {
      std::fprintf(stderr, "error: compile: surplus argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (input.empty() || output.empty()) {
    std::fprintf(stderr,
                 "error: compile expects <input> <image> (or --input= "
                 "--output=)\n");
    return 2;
  }
  // Detect by content, like RequireGraph does: feeding a compiled image
  // back into compile would otherwise surface as a baffling edge-list
  // parse error.
  if (store::SniffGraphImage(input)) {
    std::fprintf(stderr,
                 "error: '%s' is already a compiled graph image; compile "
                 "expects an uncompiled graph input\n",
                 input.c_str());
    return 2;
  }
  WallTimer timer;
  IoError error;
  const auto graph = LoadGraphAuto(input, &error);
  if (!graph.has_value()) {
    std::fprintf(stderr, "error: could not load '%s' (%s error): %s\n",
                 input.c_str(),
                 std::string(IoErrorKindName(error.kind)).c_str(),
                 error.message.c_str());
    return IoExitCode(error.kind);
  }
  const double parse_ms = timer.Millis();
  timer.Restart();
  if (!store::CompileGraphImage(*graph, output, &error)) {
    std::fprintf(stderr, "error: could not write '%s' (%s error): %s\n",
                 output.c_str(),
                 std::string(IoErrorKindName(error.kind)).c_str(),
                 error.message.c_str());
    return IoExitCode(error.kind);
  }
  std::printf(
      "compiled %s -> %s: %u vertices, %lu edges "
      "(parse %.0fms, index+write %.0fms)\n",
      input.c_str(), output.c_str(), graph->NumVertices(),
      static_cast<unsigned long>(graph->NumEdges()), parse_ms,
      timer.Millis());
  return 0;
}

/// The first of `generate`'s flags out of range for `model`, as an error
/// naming it; empty when all fit. The generators abort on these.
std::string GenerateRangeError(const std::string& model, VertexId n,
                               const gen::LfrParams& lfr, uint32_t m,
                               double p) {
  if (model == "lfr") {
    if (n == 0) return "--n must be at least 1";
    if (lfr.mu < 0.0 || lfr.mu > 1.0) return "--mu must be in [0, 1]";
    if (lfr.min_degree == 0) return "--min-degree must be at least 1";
    if (lfr.min_degree > lfr.max_degree) {
      return "--min-degree must not exceed --max-degree";
    }
    if (lfr.min_community == 0) return "--min-community must be at least 1";
    if (lfr.min_community > lfr.max_community) {
      return "--min-community must not exceed --max-community";
    }
  } else if (model == "ba") {
    if (m == 0) return "--m must be at least 1";
    if (n <= m) return "--n must exceed --m";
  } else if (model == "gnp") {
    if (p < 0.0 || p > 1.0) return "--p must be in [0, 1]";
  }
  return "";
}

int CmdGenerate(const CommandLine& cli) {
  static constexpr std::string_view kFlags[] = {
      "model", "output", "n", "seed", "mu", "min-degree", "max-degree",
      "min-community", "max-community", "m", "p"};
  VertexId n = 10000;
  uint64_t seed = 1;
  gen::LfrParams lfr;  // its defaults are the flags' defaults
  uint32_t m = 3;
  double p = 0.001;
  const std::string model = cli.GetString("model", "lfr");
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "n", &n, &error) ||
      !ReadWhole(cli, "seed", &seed, &error) ||
      !ReadFinite(cli, "mu", &lfr.mu, &error) ||
      !ReadWhole(cli, "min-degree", &lfr.min_degree, &error) ||
      !ReadWhole(cli, "max-degree", &lfr.max_degree, &error) ||
      !ReadWhole(cli, "min-community", &lfr.min_community, &error) ||
      !ReadWhole(cli, "max-community", &lfr.max_community, &error) ||
      !ReadWhole(cli, "m", &m, &error) || !ReadFinite(cli, "p", &p, &error)) {
    return FlagError(error);
  }
  if (error = GenerateRangeError(model, n, lfr, m, p); !error.empty()) {
    return FlagError(error);
  }
  const std::string output = cli.GetString("output", "");
  if (output.empty()) {
    std::fprintf(stderr, "error: --output is required\n");
    return 1;
  }
  Graph graph;
  if (model == "lfr") {
    lfr.n = n;
    lfr.seed = seed;
    graph = gen::Lfr(lfr).graph;
  } else if (model == "ba") {
    graph = gen::BarabasiAlbert(n, m, seed);
  } else if (model == "gnp") {
    graph = gen::ErdosRenyiGnp(n, p, seed);
  } else {
    std::fprintf(stderr, "error: unknown model '%s'\n", model.c_str());
    return 1;
  }
  if (!SaveAuto(graph, output)) {
    std::fprintf(stderr, "error: could not write '%s'\n", output.c_str());
    return 1;
  }
  std::printf("generated %s graph: %u vertices, %lu edges -> %s\n",
              model.c_str(), graph.NumVertices(),
              static_cast<unsigned long>(graph.NumEdges()),
              output.c_str());
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    return Usage();
  }
  // compile takes positional arguments; CommandLine would reject them.
  if (command == "compile") return CmdCompile(argc - 1, argv + 1);
  const CommandLine cli(argc - 1, argv + 1);
  if (command == "stats") return CmdStats(cli);
  if (command == "cst") return CmdCst(cli);
  if (command == "csm") return CmdCsm(cli);
  if (command == "batch") return CmdBatch(cli);
  if (command == "decompose") return CmdDecompose(cli);
  if (command == "convert") return CmdConvert(cli);
  if (command == "generate") return CmdGenerate(cli);
  if (command == "client") return CmdClient(cli);
  // A typo must not exit like a usage request: distinct code, explicit
  // message, and the usage text for orientation.
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  Usage();
  return kExitUnknownCommand;
}

}  // namespace
}  // namespace locs

int main(int argc, char** argv) { return locs::Run(argc, argv); }
