// QueryGuard — per-query resource governance.
//
// The paper's own CSM design controls runaway local searches with a
// γ-scaled search-space budget (Eq. 8); QueryGuard generalizes that idea
// to every solver family: one small object carries a wall-clock deadline
// and a work cap counted in visited vertices + scanned edges, and the
// solver inner loops poll it cooperatively.
//
// Polling is amortized to stay off the per-edge hot path: Spend(units)
// accumulates work and only performs the expensive checks (clock read,
// budget compare) once per ~kPollInterval accumulated units. An
// unlimited guard (default construction, or limits that are all zero)
// never reaches the slow path — Spend is one add, one compare, one
// never-taken branch — so solvers can unconditionally poll a guard
// instead of branching on "is there a guard?" per edge.
//
// Work accounting is internal to the guard (callers pass deltas), so one
// guard can span nested sub-queries — the multi-vertex CSM binary search
// charges all of its CST probes against a single budget, exactly like
// wall-clock time.
//
// Determinism: trip points for budget exhaustion depend only on the
// sequence of Spend deltas, which for every solver is a pure function of
// (graph, query, options) — so a budget-tripped query returns the same
// partial answer on any thread count. Deadline trips are time-dependent,
// but only occur at poll points, which are themselves deterministic.
//
// Thread-safety: a QueryGuard belongs to exactly one query on one
// thread, shares no state and takes no lock, so nothing here needs the
// LOCS_GUARDED_BY annotations of util/thread_annotations.h.

#ifndef LOCS_UTIL_GUARD_H_
#define LOCS_UTIL_GUARD_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "util/failpoint.h"

namespace locs {

/// Why a query ended. Defined here (not core/) because the guard reports
/// the interruption causes; the solver layer adds kFound/kNotExists.
enum class Termination : uint8_t {
  kFound,            ///< ran to completion and produced the answer
  kNotExists,        ///< ran to completion; provably no answer exists
  kDeadline,         ///< interrupted: wall-clock deadline expired
  kBudgetExhausted,  ///< interrupted: work budget spent
};

inline constexpr int kNumTerminations = 4;

/// Human-readable status name ("found", "not-exists", "deadline",
/// "budget-exhausted").
constexpr std::string_view TerminationName(Termination status) {
  switch (status) {
    case Termination::kFound:
      return "found";
    case Termination::kNotExists:
      return "not-exists";
    case Termination::kDeadline:
      return "deadline";
    case Termination::kBudgetExhausted:
      return "budget-exhausted";
  }
  return "unknown";
}

/// User-facing per-query limits; zero members mean "no limit".
struct QueryLimits {
  /// Wall-clock budget in milliseconds from guard construction.
  double deadline_ms = 0.0;
  /// Cap on visited vertices + scanned edges (baseline and mCST: search
  /// steps).
  uint64_t work_budget = 0;

  bool Unlimited() const { return deadline_ms <= 0.0 && work_budget == 0; }
};

/// The steady-clock instant `ms` milliseconds from now, saturating: a
/// deadline too far out to represent (huge or infinite `ms`) becomes
/// `time_point::max()`, i.e. no deadline in practice, where a plain
/// duration_cast would overflow the integer tick count (undefined
/// behaviour). A non-positive or NaN `ms` yields now. The one
/// milliseconds-to-time-point conversion for every deadline.
inline std::chrono::steady_clock::time_point DeadlineAfterMs(double ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  if (!(ms > 0.0)) return now;
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double, std::milli>(ms))
                           .count();
  const Clock::rep headroom = (Clock::time_point::max() - now).count();
  // 0 < ticks < double(headroom) <= 2^63: the cast below is in range.
  if (!(ticks < static_cast<double>(headroom))) {
    return Clock::time_point::max();
  }
  const auto span = static_cast<Clock::rep>(ticks);
  return span >= headroom ? Clock::time_point::max()
                          : now + Clock::duration(span);
}

/// See the file comment. Not thread-safe (one guard per in-flight query).
class QueryGuard {
 public:
  using Clock = std::chrono::steady_clock;

  /// Expensive checks run at most once per this many work units.
  static constexpr uint64_t kPollInterval = 1024;

  /// Unlimited guard: never trips, never reaches the slow path.
  QueryGuard() = default;

  explicit QueryGuard(const QueryLimits& limits)
      : work_budget_(limits.work_budget) {
    if (limits.deadline_ms > 0.0) {
      has_deadline_ = true;
      deadline_ = DeadlineAfterMs(limits.deadline_ms);
    }
    if (!limits.Unlimited()) next_poll_ = 0;  // poll on the first Spend
  }

  /// Tightens the deadline to an absolute time point (never loosens).
  /// The batch layer uses this to convert one batch deadline into
  /// per-query guards that share the same expiry instant.
  void LimitDeadline(Clock::time_point deadline) {
    if (!has_deadline_ || deadline < deadline_) {
      has_deadline_ = true;
      deadline_ = deadline;
    }
    next_poll_ = 0;
  }

  /// Charges `units` of work (vertex visits + edge scans since the last
  /// call) and returns true when the query must stop. Once tripped it
  /// stays tripped.
  bool Spend(uint64_t units) {
    spent_ += units;
    if (spent_ < next_poll_) return false;
    return PollSlow();
  }

  /// True once a limit has tripped.
  bool Stopped() const { return stopped_; }

  /// The interruption cause; only meaningful when Stopped().
  Termination cause() const { return cause_; }

  /// Work charged so far.
  uint64_t spent() const { return spent_; }

 private:
  bool PollSlow() {
    if (stopped_) return true;
    // Forces a mid-search interruption regardless of the real limits so
    // tests can exercise the degradation path deterministically.
    if (LOCS_FAILPOINT("guard.force_deadline")) return Trip(Termination::kDeadline);
    if (work_budget_ != 0 && spent_ > work_budget_) {
      return Trip(Termination::kBudgetExhausted);
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      return Trip(Termination::kDeadline);
    }
    next_poll_ = spent_ + kPollInterval;
    if (work_budget_ != 0) {
      // Never coast past the (deterministic) budget boundary by a full
      // poll interval.
      next_poll_ = std::min(next_poll_, work_budget_ + 1);
    }
    return false;
  }

  bool Trip(Termination cause) {
    stopped_ = true;
    cause_ = cause;
    next_poll_ = 0;  // every subsequent Spend reports the trip
    return true;
  }

  uint64_t work_budget_ = 0;
  bool has_deadline_ = false;
  bool stopped_ = false;
  Termination cause_ = Termination::kFound;
  Clock::time_point deadline_{};
  uint64_t spent_ = 0;
  // ~uint64_t{0} = unlimited guard: Spend never reaches PollSlow.
  uint64_t next_poll_ = ~uint64_t{0};
};

}  // namespace locs

#endif  // LOCS_UTIL_GUARD_H_
