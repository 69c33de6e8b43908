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
  // Queries are coarse units (µs to ms each): chunking by single queries
  // keeps the dynamic distribution balanced under power-law query costs
  // and makes deadline checks per-query precise, at one relaxed
  // fetch_add per query.
  options.chunk_size = 1;
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

void BatchRunner::WorkerTotals::Add(const QueryStats& stats,
                                    Termination status) {
  if (stats.answer_size > 0) ++answered;
  visited_vertices += stats.visited_vertices;
  scanned_edges += stats.scanned_edges;
  global_fallbacks += stats.used_global_fallback ? 1 : 0;
  total_answer_size += stats.answer_size;
  ++status_counts[static_cast<size_t>(status)];
}

BatchRunner::BatchRunner(const Graph& graph, const OrderedAdjacency* ordered,
                         const GraphFacts* facts, Executor* executor,
                         std::span<const uint32_t> core)
    : graph_(graph),
      ordered_(ordered),
      facts_(facts),
      core_(core),
      executor_(executor != nullptr ? executor : &Executor::Shared()),
      cst_solvers_(executor_->num_workers()),
      csm_solvers_(executor_->num_workers()) {}

LocalCstSolver& BatchRunner::CstSolver(unsigned worker) {
  auto& slot = cst_solvers_[worker];
  if (slot == nullptr) {
    slot = std::make_unique<LocalCstSolver>(graph_, ordered_, facts_, core_);
    slot->set_recorder(recorder_);
  }
  return *slot;
}

LocalCsmSolver& BatchRunner::CsmSolver(unsigned worker) {
  auto& slot = csm_solvers_[worker];
  if (slot == nullptr) {
    slot = std::make_unique<LocalCsmSolver>(graph_, ordered_, facts_);
    slot->set_recorder(recorder_);
  }
  return *slot;
}

void BatchRunner::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder != nullptr ? recorder : &obs::Recorder::Null();
  for (auto& slot : cst_solvers_) {
    if (slot != nullptr) slot->set_recorder(recorder_);
  }
  for (auto& slot : csm_solvers_) {
    if (slot != nullptr) slot->set_recorder(recorder_);
  }
}

BatchStats BatchRunner::Merge(const std::vector<WorkerTotals>& totals,
                              const Executor::RunResult& run,
                              double wall_ms) {
  BatchStats stats;
  stats.completed = run.items_run;
  stats.deadline_hit = run.cause == Executor::StopCause::kDeadline;
  stats.cancelled = run.cause == Executor::StopCause::kCancelled;
  stats.wall_ms = wall_ms;
  for (const WorkerTotals& t : totals) {
    stats.answered += t.answered;
    stats.visited_vertices += t.visited_vertices;
    stats.scanned_edges += t.scanned_edges;
    stats.global_fallbacks += t.global_fallbacks;
    stats.total_answer_size += t.total_answer_size;
    for (int s = 0; s < kNumTerminations; ++s) {
      stats.status_counts[s] += t.status_counts[s];
    }
  }
  return stats;
}

CstBatchResult BatchRunner::RunCst(const std::vector<VertexId>& queries,
                                   uint32_t k, const CstOptions& options,
                                   const BatchLimits& limits) {
  CstBatchResult out;
  out.results.resize(queries.size());
  if (queries.empty()) return out;
  WallTimer timer;
  const bool has_batch_deadline = limits.deadline_ms > 0.0;
  const QueryGuard::Clock::time_point batch_deadline =
      DeadlineAfterMs(limits.deadline_ms);
  std::vector<WorkerTotals> totals(executor_->num_workers());
  const Executor::RunResult run = executor_->ParallelFor(
      queries.size(),
      [&](unsigned worker, size_t begin, size_t end) {
        LocalCstSolver& solver = CstSolver(worker);
        WorkerTotals& mine = totals[worker];
        for (size_t i = begin; i < end; ++i) {
          QueryGuard guard =
              MakeQueryGuard(limits, has_batch_deadline, batch_deadline);
          QueryStats stats;
          out.results[i] =
              solver.Solve(queries[i], k, options, &stats, &guard);
          mine.Add(stats, out.results[i].status);
        }
      },
      ToRunOptions(limits));
  out.stats = Merge(totals, run, timer.Millis());
  FillNeverStarted(queries, run.items_run, run, &out.results, &out.stats);
  return out;
}

CsmBatchResult BatchRunner::RunCsm(const std::vector<VertexId>& queries,
                                   const CsmOptions& options,
                                   const BatchLimits& limits) {
  CsmBatchResult out;
  out.results.resize(queries.size());
  if (queries.empty()) return out;
  WallTimer timer;
  const bool has_batch_deadline = limits.deadline_ms > 0.0;
  const QueryGuard::Clock::time_point batch_deadline =
      DeadlineAfterMs(limits.deadline_ms);
  std::vector<WorkerTotals> totals(executor_->num_workers());
  const Executor::RunResult run = executor_->ParallelFor(
      queries.size(),
      [&](unsigned worker, size_t begin, size_t end) {
        LocalCsmSolver& solver = CsmSolver(worker);
        WorkerTotals& mine = totals[worker];
        for (size_t i = begin; i < end; ++i) {
          QueryGuard guard =
              MakeQueryGuard(limits, has_batch_deadline, batch_deadline);
          QueryStats stats;
          out.results[i] = solver.Solve(queries[i], options, &stats, &guard);
          mine.Add(stats, out.results[i].status);
        }
      },
      ToRunOptions(limits));
  out.stats = Merge(totals, run, timer.Millis());
  FillNeverStarted(queries, run.items_run, run, &out.results, &out.stats);
  return out;
}

std::vector<std::optional<Community>> SolveCstBatch(
    const Graph& graph, const OrderedAdjacency* ordered,
    const GraphFacts* facts, const std::vector<VertexId>& queries,
    uint32_t k, const BatchOptions& options) {
  BatchRunner runner(graph, ordered, facts);
  BatchLimits limits;
  limits.num_threads = options.num_threads;
  CstBatchResult batch = runner.RunCst(queries, k, options.cst, limits);
  std::vector<std::optional<Community>> out(batch.results.size());
  for (size_t i = 0; i < batch.results.size(); ++i) {
    out[i] = std::move(batch.results[i].community);
  }
  return out;
}

std::vector<Community> SolveCsmBatch(const Graph& graph,
                                     const OrderedAdjacency* ordered,
                                     const GraphFacts* facts,
                                     const std::vector<VertexId>& queries,
                                     const CsmOptions& csm_options,
                                     unsigned num_threads) {
  BatchRunner runner(graph, ordered, facts);
  BatchLimits limits;
  limits.num_threads = num_threads;
  CsmBatchResult batch = runner.RunCsm(queries, csm_options, limits);
  std::vector<Community> out(batch.results.size());
  for (size_t i = 0; i < batch.results.size(); ++i) {
    SearchResult& result = batch.results[i];
    out[i] = result.community.has_value() ? std::move(*result.community)
                                          : std::move(result.best_so_far);
  }
  return out;
}

}  // namespace locs
