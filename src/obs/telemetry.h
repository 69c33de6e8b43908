// QueryTelemetry — per-query, per-phase effort accounting.
//
// The paper's evaluation (Figures 8–16) is an argument about *search
// effort*: visited vertices, candidate-set growth, γ-bounded expansion.
// This header defines the object that carries that accounting out of a
// solver: a fixed set of phases (admission, expansion, candidate
// generation, core decomposition, connectivity) each with monotonic
// -clock span durations and work counters. Every solver fills one
// QueryTelemetry per query and hands it back inside SearchResult. It is
// the one stats path: a caller reads a query's effort from
// `result.telemetry` (TotalVisited, TotalScanned, used_global_fallback,
// answer_size), and locsd's STATS and trace=1 replies, the JSONL traces
// and the benches all read these same counters.
//
// Cost model: with the default null Recorder (see obs/recorder.h) no
// clock is ever read — PhaseTracker::Enter is a couple of plain stores —
// and the per-vertex/per-edge counter increments are plain `++field`
// stores into the phase's PhaseStats block. Timing is read only when a
// sink that wants it (TraceSink, AggregateRecorder) is attached.
//
// This layer depends only on locs_util so that graph/core/exec/serve and
// the benches can all share it.

#ifndef LOCS_OBS_TELEMETRY_H_
#define LOCS_OBS_TELEMETRY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace locs::obs {

/// The phases a community-search query moves through. Not every solver
/// visits every phase; a phase with `entered == 0` did not run.
enum class Phase : uint8_t {
  /// Query-vertex admission: degree checks, core-number lookups, and
  /// other constant-ish setup before expansion starts.
  kAdmission = 0,
  /// Candidate expansion rounds (AddToC / AddToA loops): the γ-bounded
  /// frontier growth of Algorithms 2–4.
  kExpansion,
  /// Candidate-set generation beyond the expansion frontier (the
  /// Cnaive(k) BFS of local CSM solution 2).
  kCandidates,
  /// Core decomposition / peeling (global solvers, the G[C] fallback of
  /// Algorithm 2 line 6, MaxCoreOfCandidates).
  kCoreDecomposition,
  /// Connectivity checks and component harvest (BFS over a peeled
  /// subgraph to extract the component containing the query vertex).
  kConnectivity,
};

inline constexpr size_t kNumPhases = 5;

/// Stable lowercase phase identifier ("admission", "expansion",
/// "candidates", "core", "connectivity") — used in trace output and wire
/// replies, so treat it as a format contract.
std::string_view PhaseName(Phase phase);

/// Counters and span time for one phase of one query.
struct PhaseStats {
  /// Total monotonic-clock time spent in spans of this phase. Zero when
  /// the attached Recorder does not want timing (the default).
  uint64_t duration_ns = 0;
  /// Number of spans opened (e.g. expansion entered once per solve, but
  /// core decomposition once per binary-search probe in multi-CSM).
  uint64_t entered = 0;
  /// Vertices moved into the candidate/visited set in this phase.
  uint64_t vertices_visited = 0;
  /// Adjacency entries touched in this phase.
  uint64_t edges_scanned = 0;
  /// Candidates produced (enqueued for possible expansion).
  uint64_t candidates_generated = 0;
  /// Candidates discarded without joining the answer set (e.g. degree
  /// below threshold, outside the harvested prefix).
  uint64_t candidates_rejected = 0;
  /// γ-budget units consumed (local CSM step 1; CST candidate budget).
  uint64_t budget_spent = 0;

  /// The guard-visible work total for this phase.
  uint64_t Work() const { return vertices_visited + edges_scanned; }

  void Merge(const PhaseStats& other) {
    duration_ns += other.duration_ns;
    entered += other.entered;
    vertices_visited += other.vertices_visited;
    edges_scanned += other.edges_scanned;
    candidates_generated += other.candidates_generated;
    candidates_rejected += other.candidates_rejected;
    budget_spent += other.budget_spent;
  }
};

/// Everything a solver reports about one query's effort.
struct QueryTelemetry {
  std::array<PhaseStats, kNumPhases> phases;
  /// Line 6 of Algorithm 2 ran (candidate generation alone did not find
  /// the answer and the global method on G[C] finished the query).
  bool used_global_fallback = false;
  /// Size of the returned community (0 when there is none).
  uint64_t answer_size = 0;

  PhaseStats& operator[](Phase phase) {
    return phases[static_cast<size_t>(phase)];
  }
  const PhaseStats& operator[](Phase phase) const {
    return phases[static_cast<size_t>(phase)];
  }

  uint64_t TotalVisited() const {
    uint64_t total = 0;
    for (const PhaseStats& p : phases) total += p.vertices_visited;
    return total;
  }
  uint64_t TotalScanned() const {
    uint64_t total = 0;
    for (const PhaseStats& p : phases) total += p.edges_scanned;
    return total;
  }
  /// The quantity QueryGuard budgets charge against: visited + scanned.
  uint64_t TotalWork() const { return TotalVisited() + TotalScanned(); }
  uint64_t TotalDurationNs() const {
    uint64_t total = 0;
    for (const PhaseStats& p : phases) total += p.duration_ns;
    return total;
  }

  void Merge(const QueryTelemetry& other) {
    for (size_t i = 0; i < kNumPhases; ++i) phases[i].Merge(other.phases[i]);
    used_global_fallback |= other.used_global_fallback;
    answer_size += other.answer_size;
  }

  void Reset() { *this = QueryTelemetry{}; }
};

/// Span bookkeeping for one query: tracks which phase is open and, when
/// timing is wanted, charges elapsed monotonic time to the phase being
/// left. With `timed == false` (the null-recorder default) Enter/Finish
/// never read a clock.
class PhaseTracker {
 public:
  PhaseTracker(QueryTelemetry* telemetry, bool timed)
      : telemetry_(telemetry), timed_(timed) {
    if (timed_) start_ns_ = NowNs();
  }

  /// Closes the open span (if any) and opens a span of `phase`. Returns
  /// the phase's counter block so call sites increment it directly.
  PhaseStats& Enter(Phase phase) {
    CloseSpan();
    open_ = true;
    current_ = phase;
    PhaseStats& stats = (*telemetry_)[phase];
    ++stats.entered;
    return stats;
  }

  /// Closes the open span without opening another (end of query, or a
  /// stretch of untimed glue between phases).
  void Finish() {
    CloseSpan();
    open_ = false;
  }

 private:
  static uint64_t NowNs();

  void CloseSpan() {
    if (!timed_) return;
    const uint64_t now = NowNs();
    if (open_) (*telemetry_)[current_].duration_ns += now - start_ns_;
    start_ns_ = now;
  }

  QueryTelemetry* telemetry_;
  bool timed_;
  bool open_ = false;
  Phase current_ = Phase::kAdmission;
  uint64_t start_ns_ = 0;
};

}  // namespace locs::obs

#endif  // LOCS_OBS_TELEMETRY_H_
