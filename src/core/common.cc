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

void FinishQuery(SearchResult& result, const obs::QueryTelemetry& telemetry,
                 obs::PhaseTracker& tracker, obs::Recorder& recorder) {
  tracker.Finish();
  result.telemetry = telemetry;
  recorder.Record(telemetry);
}

}  // namespace locs
