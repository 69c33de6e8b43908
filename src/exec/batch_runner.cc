#include "exec/batch_runner.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "util/timer.h"

// No locks in this translation unit (see the synchronization-design note
// in batch_runner.h): workers partition state disjointly.

namespace locs {

namespace {

/// Workers for a batch of `num_queries`: the requested count (0 = the
/// hardware's), never more than there are queries to claim.
unsigned WorkerCount(unsigned num_threads, size_t num_queries) {
  const unsigned requested =
      num_threads != 0 ? num_threads
                       : std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::min<size_t>(requested, num_queries));
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
                      Termination cause, std::vector<SearchResult>* results,
                      BatchStats* stats) {
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

BatchRunner::BatchRunner(std::shared_ptr<const Snapshot> snapshot)
    : snapshot_(std::move(snapshot)) {}

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
  const unsigned workers = WorkerCount(limits.num_threads, queries.size());
  if (searchers_.size() < workers) searchers_.resize(workers);
  std::vector<WorkerTotals> totals(workers);
  std::vector<std::exception_ptr> errors(workers);
  std::atomic<size_t> cursor{0};
  std::atomic<bool> failed{false};     // a worker caught an exception
  std::atomic<bool> cancelled{false};  // a worker saw the cancel flag

  // Claims one query at a time until the batch is drained, cancelled,
  // past its deadline or failed. A claimed query always finishes, so
  // the queries run are the prefix [0, completed).
  const auto work = [&](unsigned worker) {
    try {
      while (!failed.load(std::memory_order_relaxed)) {
        if (limits.cancel != nullptr &&
            limits.cancel->load(std::memory_order_relaxed)) {
          cancelled.store(true, std::memory_order_relaxed);
          return;
        }
        if (has_batch_deadline &&
            QueryGuard::Clock::now() >= batch_deadline) {
          return;
        }
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= queries.size()) return;
        QueryGuard guard =
            MakeQueryGuard(limits, has_batch_deadline, batch_deadline);
        out.results[i] = solve(Searcher(worker), queries[i], guard);
        totals[worker].Add(out.results[i]);
      }
    } catch (...) {
      errors[worker] = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (unsigned worker = 1; worker < workers; ++worker) {
    // Results do not depend on the worker count, so a thread that cannot
    // start just leaves its share to the workers that did.
    try {
      threads.emplace_back(work, worker);
    } catch (...) {
      break;
    }
  }
  work(0);
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }

  BatchStats& stats = out.stats;
  stats.wall_ms = timer.Millis();
  for (const WorkerTotals& t : totals) {
    stats.answered += t.answered;
    stats.visited_vertices += t.visited_vertices;
    stats.scanned_edges += t.scanned_edges;
    stats.total_answer_size += t.total_answer_size;
    for (int s = 0; s < kNumTerminations; ++s) {
      stats.status_counts[s] += t.status_counts[s];
      stats.completed += t.status_counts[s];
    }
  }
  if (stats.completed < queries.size()) {
    stats.cancelled = cancelled.load(std::memory_order_relaxed);
    stats.deadline_hit = !stats.cancelled;
    FillNeverStarted(queries, stats.completed,
                     stats.cancelled ? Termination::kCancelled
                                     : Termination::kDeadline,
                     &out.results, &stats);
  }
  return out;
}

BatchResult BatchRunner::RunCst(const std::vector<VertexId>& queries,
                                uint32_t k, const BatchLimits& limits) {
  return Run(queries, limits,
             [k](CommunitySearcher& searcher, VertexId v, QueryGuard& guard) {
               return searcher.Cst(v, k, {}, &guard);
             });
}

BatchResult BatchRunner::RunCsm(const std::vector<VertexId>& queries,
                                const BatchLimits& limits) {
  return Run(queries, limits,
             [](CommunitySearcher& searcher, VertexId v, QueryGuard& guard) {
               return searcher.Csm(v, &guard);
             });
}

}  // namespace locs
