#include "obs/recorder.h"

namespace locs::obs {

Recorder& Recorder::Null() {
  static Recorder null_sink;
  return null_sink;
}

void AggregateRecorder::Record(const QueryTelemetry& telemetry) {
  constexpr auto relaxed = std::memory_order_relaxed;
  for (size_t i = 0; i < kNumPhases; ++i) {
    const PhaseStats& p = telemetry.phases[i];
    AtomicPhase& a = phases_[i];
    a.duration_ns.fetch_add(p.duration_ns, relaxed);
    a.entered.fetch_add(p.entered, relaxed);
    a.vertices_visited.fetch_add(p.vertices_visited, relaxed);
    a.edges_scanned.fetch_add(p.edges_scanned, relaxed);
    a.candidates_generated.fetch_add(p.candidates_generated, relaxed);
    a.candidates_rejected.fetch_add(p.candidates_rejected, relaxed);
    a.budget_spent.fetch_add(p.budget_spent, relaxed);
  }
  answer_sizes_.fetch_add(telemetry.answer_size, relaxed);
  queries_.fetch_add(1, relaxed);
  if (telemetry.used_global_fallback) fallbacks_.fetch_add(1, relaxed);
}

AggregateRecorder::Totals AggregateRecorder::Snapshot() const {
  constexpr auto relaxed = std::memory_order_relaxed;
  Totals totals;
  totals.queries = queries_.load(relaxed);
  totals.fallbacks = fallbacks_.load(relaxed);
  totals.sum.answer_size = answer_sizes_.load(relaxed);
  // used_global_fallback has no meaningful sum; Totals::fallbacks is the
  // count. Leave the flag at its default.
  for (size_t i = 0; i < kNumPhases; ++i) {
    const AtomicPhase& a = phases_[i];
    PhaseStats& p = totals.sum.phases[i];
    p.duration_ns = a.duration_ns.load(relaxed);
    p.entered = a.entered.load(relaxed);
    p.vertices_visited = a.vertices_visited.load(relaxed);
    p.edges_scanned = a.edges_scanned.load(relaxed);
    p.candidates_generated = a.candidates_generated.load(relaxed);
    p.candidates_rejected = a.candidates_rejected.load(relaxed);
    p.budget_spent = a.budget_spent.load(relaxed);
  }
  return totals;
}

}  // namespace locs::obs
