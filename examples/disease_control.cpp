// Infectious disease control — the paper's third motivating application
// (§1 and §2.1): given a contact network and an infected person, find the
// people to monitor. The threshold k tunes the scope: a highly contagious
// disease uses a small k (casual contacts matter), a less contagious one
// uses a large k (only close contact circles matter).
//
//   ./build/examples/disease_control [--n=15000] [--patient=4242]

#include <cstdio>

#include "core/searcher.h"
#include "gen/lfr.h"
#include "graph/traversal.h"
#include "util/cli.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace locs;
  const CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {"n", "patient"};
  VertexId n = 15000;
  uint64_t patient_flag = 4242;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !ReadWhole(cli, "n", &n, &error) ||
      !ReadWhole(cli, "patient", &patient_flag, &error)) {
    return FlagError(error);
  }
  if (n == 0) return FlagError("--n must be at least 1");

  // Contact network: households/workplaces appear as dense pockets.
  gen::LfrParams params;
  params.n = n;
  params.mu = 0.25;
  params.min_degree = 3;
  params.max_degree = 40;
  params.min_community = 8;
  params.max_community = 50;
  params.seed = 11;
  const MappedSubgraph component =
      ExtractLargestComponent(gen::Lfr(params).graph);
  CommunitySearcher searcher(Graph(component.graph));
  std::printf("contact network: %u people, %lu contacts\n",
              searcher.graph().NumVertices(),
              static_cast<unsigned long>(searcher.graph().NumEdges()));

  auto patient = static_cast<VertexId>(
      patient_flag % searcher.graph().NumVertices());
  // Make sure the patient has some contacts to reason about.
  while (searcher.graph().Degree(patient) < 3) {
    patient = (patient + 1) % searcher.graph().NumVertices();
  }
  std::printf("patient zero: person %u with %u direct contacts\n\n",
              patient, searcher.graph().Degree(patient));

  std::printf("%-14s %-12s %-10s %-14s %s\n", "contagiousness", "k",
              "monitored", "query ms", "note");
  struct Scenario {
    const char* label;
    uint32_t k;
  };
  const Scenario scenarios[] = {
      {"very high", 1}, {"high", 2}, {"moderate", 3}, {"low", 5},
      {"very low", 8}};
  for (const Scenario& scenario : scenarios) {
    WallTimer timer;
    const auto cohort = searcher.Cst(patient, scenario.k);
    const double ms = timer.Millis();
    if (!cohort.has_value()) {
      std::printf("%-14s %-12u %-10s %-14.2f %s\n", scenario.label,
                  scenario.k, "-", ms,
                  "no k-connected circle around the patient");
      continue;
    }
    std::printf("%-14s %-12u %-10zu %-14.2f δ=%u\n", scenario.label,
                scenario.k, cohort->members.size(), ms,
                cohort->min_degree);
  }

  std::printf("\nRaising k focuses monitoring on tighter contact circles "
              "(the paper's CST motivation); the search touches only the "
              "patient's neighborhood, not the whole network.\n");
  return 0;
}
