// Recorder — where a solver's QueryTelemetry goes when the query ends.
//
// The base class is a no-op null sink: `timing_enabled()` is false (so
// PhaseTracker never reads a clock) and `Record` discards. Solvers hold
// a `Recorder*` defaulting to `Recorder::Null()`, which makes the
// telemetry layer zero-overhead-when-disabled by construction — the
// only residual cost is the plain counter increments the old QueryStats
// already paid.
//
// AggregateRecorder is the server-side sink: relaxed-atomic per-phase
// totals, safe to share across sessions/workers, snapshotted by locsd's
// STATS verb. The JSONL trace sink lives in obs/trace_sink.h.

#ifndef LOCS_OBS_RECORDER_H_
#define LOCS_OBS_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "obs/telemetry.h"

namespace locs::obs {

/// Telemetry sink interface; the base class IS the null sink.
class Recorder {
 public:
  virtual ~Recorder() = default;

  /// When false (the default), solvers skip all clock reads; phase
  /// durations stay zero.
  virtual bool timing_enabled() const { return false; }

  /// Called once per completed query with the full telemetry object.
  virtual void Record(const QueryTelemetry& telemetry) {
    (void)telemetry;
  }

  /// The process-wide no-op sink solvers default to.
  static Recorder& Null();
};

/// Thread-safe running totals across queries: each Record folds one
/// query's telemetry into per-phase relaxed-atomic counters. Relaxed
/// ordering is enough — the totals are monotone counters read for
/// monitoring, not for synchronization.
class AggregateRecorder : public Recorder {
 public:
  bool timing_enabled() const override { return true; }
  void Record(const QueryTelemetry& telemetry) override;

  struct Totals {
    uint64_t queries = 0;
    uint64_t fallbacks = 0;
    QueryTelemetry sum;
  };

  /// A coherent-enough copy of the running totals (each counter is read
  /// atomically; the set is not a consistent cut, as usual for stats).
  Totals Snapshot() const;

 private:
  struct AtomicPhase {
    std::atomic<uint64_t> duration_ns{0};
    std::atomic<uint64_t> entered{0};
    std::atomic<uint64_t> vertices_visited{0};
    std::atomic<uint64_t> edges_scanned{0};
    std::atomic<uint64_t> candidates_generated{0};
    std::atomic<uint64_t> candidates_rejected{0};
    std::atomic<uint64_t> budget_spent{0};
  };

  std::array<AtomicPhase, kNumPhases> phases_;
  std::atomic<uint64_t> answer_sizes_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> fallbacks_{0};
};

}  // namespace locs::obs

#endif  // LOCS_OBS_RECORDER_H_
