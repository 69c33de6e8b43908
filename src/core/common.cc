#include "core/common.h"

#include "core/result.h"

namespace locs {

std::string_view StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kNaive:
      return "naive";
    case Strategy::kLG:
      return "lg";
    case Strategy::kLI:
      return "li";
  }
  return "unknown";
}

QueryStats ToQueryStats(const obs::QueryTelemetry& telemetry) {
  QueryStats stats;
  stats.visited_vertices = telemetry.TotalVisited();
  stats.scanned_edges = telemetry.TotalScanned();
  stats.used_global_fallback = telemetry.used_global_fallback;
  stats.answer_size = telemetry.answer_size;
  return stats;
}

void FinishQuery(SearchResult& result, const obs::QueryTelemetry& telemetry,
                 obs::PhaseTracker& tracker, QueryStats* stats,
                 obs::Recorder& recorder) {
  tracker.Finish();
  result.telemetry = telemetry;
  if (stats != nullptr) *stats = ToQueryStats(telemetry);
  recorder.Record(telemetry);
}

}  // namespace locs
