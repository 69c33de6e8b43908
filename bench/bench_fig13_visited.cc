// Figure 13: the rationale of local search — answer size and number of
// visited vertices per CST solver, across k, on the DBLP stand-in.
//
// Paper's shape: local search produces answers up to an order of
// magnitude smaller than global search (which returns the maximal k-core
// component) and visits up to two orders of magnitude fewer vertices.
//
// The visited columns are read from the per-phase obs::QueryTelemetry
// counters carried by SearchResult (TotalVisited over the phase
// breakdown), and every query cross-checks that total against the legacy
// QueryStats projection — a mismatch is a telemetry-accounting bug and
// fails the bench.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/datasets.h"
#include "common/reporting.h"
#include "common/workload.h"
#include "core/global.h"
#include "core/kcore.h"
#include "core/local_cst.h"
#include "graph/ordering.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "obs/trace_sink.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

namespace locs::bench {
namespace {

/// Dies unless the telemetry totals reproduce the legacy QueryStats
/// counters exactly (the two are one accounting, not two).
void CheckConsistent(const obs::QueryTelemetry& telemetry,
                     const QueryStats& stats, const char* solver) {
  if (telemetry.TotalVisited() == stats.visited_vertices &&
      telemetry.TotalScanned() == stats.scanned_edges) {
    return;
  }
  std::fprintf(stderr,
               "fig13: telemetry/stats divergence in %s: "
               "visited %llu vs %llu, scanned %llu vs %llu\n",
               solver,
               static_cast<unsigned long long>(telemetry.TotalVisited()),
               static_cast<unsigned long long>(stats.visited_vertices),
               static_cast<unsigned long long>(telemetry.TotalScanned()),
               static_cast<unsigned long long>(stats.scanned_edges));
  std::exit(1);
}

int Run(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {"queries", "dataset", "trace"};
  size_t queries = 40;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "queries", &queries, &error)) {
    return FlagError(error);
  }
  const std::string name = cli.GetString("dataset", "dblp-sim");

  PrintBanner(
      "Figure 13 — answer size and visited vertices per CST solver",
      "local answers ~10x smaller than global; local visits up to 100x "
      "fewer vertices; ls-li/ls-lg the smallest",
      "answer-size and visited columns for ls-li well below global; "
      "ls-naive in between");

  Dataset dataset = LoadStandIn(name);
  const Graph& g = dataset.graph;
  const CoreDecomposition cores = ComputeCores(g);
  const GraphFacts facts = GraphFacts::Compute(g);
  const OrderedAdjacency ordered(g);
  LocalCstSolver solver(g, &ordered, &facts);

  // Artifacts: the BENCH_*.json report CI uploads, plus one JSONL trace
  // line per local query (--trace= overrides the path, empty disables).
  JsonReport report("fig13_visited");
  report.Meta("dataset", name);
  report.Meta("queries", std::to_string(queries));
  const std::string trace_path =
      cli.GetString("trace", "TRACE_fig13.jsonl");
  std::optional<obs::TraceSink> trace;
  obs::AggregateRecorder aggregate;
  if (!trace_path.empty()) {
    trace.emplace(trace_path);
    if (!trace->ok()) {
      // An unopenable trace file is a hard error — silently running
      // untraced would upload an artifact that looks complete but lies.
      std::fprintf(stderr, "fig13: could not open trace file '%s'\n",
                   trace_path.c_str());
      return 1;
    }
    solver.set_recorder(&*trace);
  } else {
    // No trace requested: still attach a timing-enabled sink so the
    // phase-duration columns below are measured, not zero.
    solver.set_recorder(&aggregate);
  }

  const uint32_t s = std::max(1u, cores.degeneracy / 10);
  TableWriter size_table({"k", "global size", "ls-naive size",
                          "ls-li size", "ls-lg size"});
  TableWriter visit_table({"k", "global visited", "ls-naive visited",
                           "ls-li visited", "ls-lg visited"});
  // Where the local solvers' visited effort goes: expansion-phase share
  // versus the Algorithm-2-line-6 global fallback (core decomposition +
  // connectivity phases), averaged over the ls-li queries — both as
  // visited-vertex counts (machine-independent) and as measured phase
  // time (the hot-path claim).
  TableWriter phase_table({"k", "ls-li expansion", "exp us", "ls-li fallback",
                           "fb us", "fallback rate"});
  double total_expansion_us = 0.0;
  double total_fallback_us = 0.0;
  for (uint32_t mult = 1; mult <= 8; ++mult) {
    const uint32_t k = s * mult;
    const auto sample = SampleFromKCore(cores, k, queries, 330 + k);
    if (sample.empty()) continue;
    std::vector<double> sizes[4];
    std::vector<double> visits[4];
    std::vector<double> expansion_visits;
    std::vector<double> fallback_visits;
    std::vector<double> expansion_us;
    std::vector<double> fallback_us;
    uint64_t fallbacks = 0;
    for (VertexId v0 : sample) {
      QueryStats stats;
      SearchResult result = GlobalCst(g, v0, k, &stats);
      CheckConsistent(result.telemetry, stats, "global");
      sizes[0].push_back(static_cast<double>(stats.answer_size));
      visits[0].push_back(
          static_cast<double>(result.telemetry.TotalVisited()));
      const Strategy strategies[3] = {Strategy::kNaive, Strategy::kLI,
                                      Strategy::kLG};
      for (int i = 0; i < 3; ++i) {
        CstOptions options;
        options.strategy = strategies[i];
        if (trace.has_value()) {
          trace->Annotate(std::string(StrategyName(strategies[i])) +
                          " k=" + std::to_string(k));
        }
        result = solver.Solve(v0, k, options, &stats);
        CheckConsistent(result.telemetry, stats, "local");
        sizes[i + 1].push_back(static_cast<double>(stats.answer_size));
        visits[i + 1].push_back(
            static_cast<double>(result.telemetry.TotalVisited()));
        if (strategies[i] == Strategy::kLI) {
          const obs::QueryTelemetry& t = result.telemetry;
          expansion_visits.push_back(static_cast<double>(
              t[obs::Phase::kExpansion].vertices_visited +
              t[obs::Phase::kAdmission].vertices_visited));
          fallback_visits.push_back(static_cast<double>(
              t[obs::Phase::kCoreDecomposition].vertices_visited +
              t[obs::Phase::kConnectivity].vertices_visited));
          expansion_us.push_back(
              static_cast<double>(
                  t[obs::Phase::kExpansion].duration_ns +
                  t[obs::Phase::kAdmission].duration_ns) /
              1000.0);
          fallback_us.push_back(
              static_cast<double>(
                  t[obs::Phase::kCoreDecomposition].duration_ns +
                  t[obs::Phase::kConnectivity].duration_ns) /
              1000.0);
          fallbacks += t.used_global_fallback ? 1 : 0;
        }
      }
    }
    size_table.Row()
        .Num(uint64_t{k})
        .Num(Summarize(sizes[0]).mean, 1)
        .Num(Summarize(sizes[1]).mean, 1)
        .Num(Summarize(sizes[2]).mean, 1)
        .Num(Summarize(sizes[3]).mean, 1);
    visit_table.Row()
        .Num(uint64_t{k})
        .Num(Summarize(visits[0]).mean, 1)
        .Num(Summarize(visits[1]).mean, 1)
        .Num(Summarize(visits[2]).mean, 1)
        .Num(Summarize(visits[3]).mean, 1);
    phase_table.Row()
        .Num(uint64_t{k})
        .Num(Summarize(expansion_visits).mean, 1)
        .Num(Summarize(expansion_us).mean, 2)
        .Num(Summarize(fallback_visits).mean, 1)
        .Num(Summarize(fallback_us).mean, 2)
        .Num(static_cast<double>(fallbacks) /
                 static_cast<double>(sample.size()),
             3);
    for (const double us : expansion_us) total_expansion_us += us;
    for (const double us : fallback_us) total_fallback_us += us;
    report.AddRow()
        .Num("k", k)
        .Num("samples", static_cast<double>(sample.size()))
        .Num("global_size", Summarize(sizes[0]).mean)
        .Num("naive_size", Summarize(sizes[1]).mean)
        .Num("li_size", Summarize(sizes[2]).mean)
        .Num("lg_size", Summarize(sizes[3]).mean)
        .Num("global_visited", Summarize(visits[0]).mean)
        .Num("naive_visited", Summarize(visits[1]).mean)
        .Num("li_visited", Summarize(visits[2]).mean)
        .Num("lg_visited", Summarize(visits[3]).mean)
        .Num("li_expansion_visited", Summarize(expansion_visits).mean)
        .Num("li_fallback_visited", Summarize(fallback_visits).mean)
        .Num("li_expansion_us", Summarize(expansion_us).mean)
        .Num("li_fallback_us", Summarize(fallback_us).mean)
        .Num("li_fallback_rate",
             static_cast<double>(fallbacks) /
                 static_cast<double>(sample.size()));
  }
  // Whole-run phase totals: the before/after comparison point for the
  // hot-path work (run the bench on two builds and diff these).
  report.AddRow()
      .Str("row", "phase_totals")
      .Num("li_expansion_total_us", total_expansion_us)
      .Num("li_fallback_total_us", total_fallback_us);
  std::printf("(a) answer size, dataset %s\n", name.c_str());
  size_table.Print("fig13a_" + name);
  std::printf("\n(b) visited vertices, dataset %s\n", name.c_str());
  visit_table.Print("fig13b_" + name);
  std::printf("\n(c) ls-li visited by phase, dataset %s\n", name.c_str());
  phase_table.Print("fig13c_" + name);
  const std::string out = "BENCH_fig13.json";
  if (report.Write(out)) {
    std::printf("\nreport: %s", out.c_str());
    if (trace.has_value() && trace->ok()) {
      std::printf("; trace: %s", trace_path.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) { return locs::bench::Run(argc, argv); }
