// SearchResult — the uniform solver answer type with a termination
// taxonomy.
//
// Every solver family (local/global CST, CSM, the Algorithm-1 baseline,
// greedy and exact mCST, multi-vertex) reports not just "answer or no
// answer" but *why* the query ended, and on interruption carries the best
// connected community found so far. (GreedyGlobalCsm, the independent
// oracle for GlobalCsm, returns its Community alone.) This is
// the graceful-degradation contract of the serving layer: a query that
// blows past its deadline or work budget still yields a well-defined
// partial answer instead of an indistinguishable std::nullopt.

#ifndef LOCS_CORE_RESULT_H_
#define LOCS_CORE_RESULT_H_

#include <optional>
#include <utility>

#include "core/common.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "util/guard.h"

namespace locs {

/// A solver answer plus its termination status.
///
/// Invariants:
///   - `community` is engaged iff `status == kFound`;
///   - on an interrupted query (`Interrupted()` true), `best_so_far` is a
///     valid *connected* community containing the (first) query vertex
///     with `min_degree` equal to its achieved induced minimum degree —
///     it just may not meet the requested threshold k or be optimal;
///   - `kNotExists` is exact: the solver proved no answer exists.
///
/// The optional-style accessors (`has_value`, `operator*`, `operator->`)
/// view the *qualifying* answer only, mirroring the historical
/// `std::optional<Community>` API.
struct SearchResult {
  Termination status = Termination::kNotExists;
  std::optional<Community> community;
  Community best_so_far;
  /// Members of the answer left out of `community`: non-zero only for a
  /// CSM or MULTI listed under a member limit (CommunitySearcher's Csm,
  /// CstMulti and CsmMulti), whose members are then the first `limit` of
  /// its BFS order.
  uint64_t unlisted = 0;
  /// Per-phase effort accounting for this query (see obs/telemetry.h).
  /// Always filled by the solver wrappers; durations are nonzero only
  /// when the attached obs::Recorder enables timing.
  obs::QueryTelemetry telemetry;

  bool Found() const { return status == Termination::kFound; }
  bool Interrupted() const {
    return status == Termination::kDeadline ||
           status == Termination::kBudgetExhausted;
  }

  // std::optional-compatible view of the qualifying answer.
  bool has_value() const { return community.has_value(); }
  explicit operator bool() const { return community.has_value(); }
  Community& operator*() { return *community; }
  const Community& operator*() const { return *community; }
  Community* operator->() { return &*community; }
  const Community* operator->() const { return &*community; }
  Community& value() { return community.value(); }
  const Community& value() const { return community.value(); }

  /// Best available answer: the solution when found, otherwise the
  /// partial `best_so_far` (empty for kNotExists).
  const Community& Best() const {
    return community.has_value() ? *community : best_so_far;
  }

  /// Size of the full answer Best() lists: Best().members.size() plus the
  /// members a member limit left out.
  uint64_t AnswerSize() const { return Best().members.size() + unlisted; }

  static SearchResult MakeFound(Community answer) {
    SearchResult result;
    result.status = Termination::kFound;
    result.community = std::move(answer);
    return result;
  }
  static SearchResult MakeNotExists() { return SearchResult{}; }
  static SearchResult MakeInterrupted(Termination cause, Community partial) {
    SearchResult result;
    result.status = cause;
    result.best_so_far = std::move(partial);
    return result;
  }
};

/// Shared solve epilogue of the solver entry points: closes the spans,
/// attaches the telemetry to the result and records the query.
void FinishQuery(SearchResult& result, const obs::QueryTelemetry& telemetry,
                 obs::PhaseTracker& tracker, obs::Recorder& recorder);

}  // namespace locs

#endif  // LOCS_CORE_RESULT_H_
