#include "exec/batch_runner.h"

#include <utility>

#include "util/timer.h"

// No locks in this translation unit (see the synchronization-design note
// in batch_runner.h): workers partition state disjointly and the Executor
// supplies the only mutex, already annotated at its definition.

namespace locs {

namespace {

Executor::RunOptions ToRunOptions(const BatchLimits& limits) {
  Executor::RunOptions options;
  options.max_workers = limits.num_threads;
  options.deadline_ms = limits.deadline_ms;
  options.cancel = limits.cancel;
  return options;
}

/// Builds the guard for one query: per-query deadline/budget/cancel from
/// the limits, tightened to the batch-wide absolute deadline so a batch
/// expiry interrupts the query mid-search instead of waiting it out.
QueryGuard MakeQueryGuard(const BatchLimits& limits,
                          bool has_batch_deadline,
                          QueryGuard::Clock::time_point batch_deadline) {
  QueryLimits query_limits;
  query_limits.deadline_ms = limits.query_deadline_ms;
  query_limits.work_budget = limits.query_work_budget;
  query_limits.cancel = limits.cancel;
  QueryGuard guard(query_limits);
  if (has_batch_deadline) guard.LimitDeadline(batch_deadline);
  return guard;
}

/// Slots past the executed prefix were never started; report them under
/// the batch stop cause with the singleton community as the (trivially
/// valid) partial answer.
void FillNeverStarted(const std::vector<VertexId>& queries, size_t completed,
                      const Executor::RunResult& run,
                      std::vector<SearchResult>* results,
                      BatchStats* stats) {
  const Termination cause = run.cause == Executor::StopCause::kCancelled
                                ? Termination::kCancelled
                                : Termination::kDeadline;
  for (size_t i = completed; i < queries.size(); ++i) {
    (*results)[i] =
        SearchResult::MakeInterrupted(cause, Community{{queries[i]}, 0});
    ++stats->status_counts[static_cast<size_t>(cause)];
  }
}

}  // namespace

void BatchRunner::WorkerTotals::Add(const SearchResult& result) {
  const obs::QueryTelemetry& telemetry = result.telemetry;
  if (telemetry.answer_size > 0) ++answered;
  visited_vertices += telemetry.TotalVisited();
  scanned_edges += telemetry.TotalScanned();
  total_answer_size += telemetry.answer_size;
  ++status_counts[static_cast<size_t>(result.status)];
}

BatchRunner::BatchRunner(std::shared_ptr<const Snapshot> snapshot,
                         Executor* executor)
    : snapshot_(std::move(snapshot)),
      executor_(executor != nullptr ? executor : &Executor::Shared()),
      searchers_(executor_->num_workers()) {}

CommunitySearcher& BatchRunner::Searcher(unsigned worker) {
  auto& slot = searchers_[worker];
  if (slot == nullptr) {
    slot = std::make_unique<CommunitySearcher>(snapshot_);
    slot->set_recorder(recorder_);
  }
  return *slot;
}

void BatchRunner::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder != nullptr ? recorder : &obs::Recorder::Null();
  for (auto& slot : searchers_) {
    if (slot != nullptr) slot->set_recorder(recorder_);
  }
}

template <typename Solve>
BatchResult BatchRunner::Run(const std::vector<VertexId>& queries,
                             const BatchLimits& limits, Solve solve) {
  BatchResult out;
  out.results.resize(queries.size());
  if (queries.empty()) return out;
  WallTimer timer;
  const bool has_batch_deadline = limits.deadline_ms > 0.0;
  const QueryGuard::Clock::time_point batch_deadline =
      DeadlineAfterMs(limits.deadline_ms);
  std::vector<WorkerTotals> totals(executor_->num_workers());
  const Executor::RunResult run = executor_->ParallelFor(
      queries.size(),
      [&](unsigned worker, size_t i) {
        QueryGuard guard =
            MakeQueryGuard(limits, has_batch_deadline, batch_deadline);
        out.results[i] = solve(Searcher(worker), queries[i], guard);
        totals[worker].Add(out.results[i]);
      },
      ToRunOptions(limits));

  BatchStats& stats = out.stats;
  stats.completed = run.items_run;
  stats.deadline_hit = run.cause == Executor::StopCause::kDeadline;
  stats.cancelled = run.cause == Executor::StopCause::kCancelled;
  stats.wall_ms = timer.Millis();
  for (const WorkerTotals& t : totals) {
    stats.answered += t.answered;
    stats.visited_vertices += t.visited_vertices;
    stats.scanned_edges += t.scanned_edges;
    stats.total_answer_size += t.total_answer_size;
    for (int s = 0; s < kNumTerminations; ++s) {
      stats.status_counts[s] += t.status_counts[s];
    }
  }
  FillNeverStarted(queries, run.items_run, run, &out.results, &stats);
  return out;
}

BatchResult BatchRunner::RunCst(const std::vector<VertexId>& queries,
                                uint32_t k, const BatchLimits& limits) {
  return Run(queries, limits,
             [k](CommunitySearcher& searcher, VertexId v, QueryGuard& guard) {
               return searcher.Cst(v, k, {}, nullptr, &guard);
             });
}

BatchResult BatchRunner::RunCsm(const std::vector<VertexId>& queries,
                                const BatchLimits& limits) {
  return Run(queries, limits,
             [](CommunitySearcher& searcher, VertexId v, QueryGuard& guard) {
               return searcher.Csm(v, nullptr, &guard);
             });
}

}  // namespace locs
