// Batch query engine on top of the persistent Executor.
//
// BatchRunner binds one Snapshot to an Executor and keeps one
// CommunitySearcher per worker slot alive across batches, so a batch
// answers every question exactly as `locs_cli cst`/`csm` and a locsd
// session do. The searchers' epoch-stamped scratch resets in O(1)
// between queries and between batches, and a batch pays no per-call
// thread spawn.
//
// Results are deterministic and thread-count invariant: result i depends
// only on (snapshot, queries[i], k), never on scheduling.
//
// A BatchRunner is not thread-safe; run one batch at a time per instance.
//
// Synchronization design: BatchRunner itself holds no mutex — and so
// carries no LOCS_GUARDED_BY annotations (util/thread_annotations.h).
// Workers touch strictly disjoint state: slot s owns searchers_[s]
// exclusively, result i is written by the one worker that claimed query
// i, and cross-thread coordination (item claiming, deadline flags)
// happens through the std::atomic fields below plus the Executor's own
// annotated mutex. The Clang thread-safety analysis therefore has
// nothing to prove here; the TSan lane (tools/run_sanitizers.sh) is the
// check that this lock-free partitioning claim actually holds.

#ifndef LOCS_EXEC_BATCH_RUNNER_H_
#define LOCS_EXEC_BATCH_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/common.h"
#include "core/result.h"
#include "core/searcher.h"
#include "core/snapshot.h"
#include "exec/executor.h"
#include "util/guard.h"

namespace locs {

/// Per-batch execution limits.
struct BatchLimits {
  /// Cap on worker threads for this batch; 0 = the whole executor pool.
  unsigned num_threads = 0;
  /// Batch-wide wall-clock budget in milliseconds; 0 = none. The deadline
  /// is converted into every query's guard, so on expiry in-flight queries
  /// are interrupted mid-search (status kDeadline with a partial answer)
  /// and queries not yet started are reported interrupted untouched; the
  /// queries actually executed still form the prefix [0, stats.completed).
  double deadline_ms = 0.0;
  /// Per-query wall-clock budget in milliseconds; 0 = none. Each query's
  /// guard gets its own deadline counted from the moment it starts.
  double query_deadline_ms = 0.0;
  /// Per-query work budget (visited vertices + scanned edges); 0 = none.
  /// Budget trips are deterministic and thread-count invariant.
  uint64_t query_work_budget = 0;
  /// External cancellation flag, polled by every in-flight query's guard.
  const std::atomic<bool>* cancel = nullptr;
};

/// Per-query telemetry aggregated over one batch.
struct BatchStats {
  uint64_t completed = 0;  ///< queries executed (always a batch prefix)
  uint64_t answered = 0;   ///< queries that produced a non-empty community
  uint64_t visited_vertices = 0;
  uint64_t scanned_edges = 0;
  uint64_t total_answer_size = 0;
  /// Per-termination-status query counts, indexed by Termination. Counts
  /// every result slot, including never-started queries (reported under
  /// the batch stop cause).
  uint64_t status_counts[kNumTerminations] = {};
  double wall_ms = 0.0;
  bool deadline_hit = false;
  bool cancelled = false;

  uint64_t CountOf(Termination status) const {
    return status_counts[static_cast<size_t>(status)];
  }
};

struct BatchResult {
  /// results[i] answers queries[i]; slots past stats.completed were never
  /// started and carry the batch stop cause with a singleton best_so_far.
  std::vector<SearchResult> results;
  BatchStats stats;
};

/// Persistent batch runner; see the file comment.
class BatchRunner {
 public:
  /// `executor` null means Executor::Shared().
  explicit BatchRunner(std::shared_ptr<const Snapshot> snapshot,
                       Executor* executor = nullptr);

  /// CommunitySearcher::Cst(v, k) for every query vertex.
  BatchResult RunCst(const std::vector<VertexId>& queries, uint32_t k,
                     const BatchLimits& limits = {});

  /// CommunitySearcher::Csm(v) for every query vertex.
  BatchResult RunCsm(const std::vector<VertexId>& queries,
                     const BatchLimits& limits = {});

  /// Telemetry sink shared by every per-worker searcher (existing slots
  /// and slots created later). The recorder must be safe for concurrent
  /// Record() calls (obs::AggregateRecorder and obs::TraceSink are);
  /// nullptr restores the no-op null sink. Not owned. Call between
  /// batches only — BatchRunner is not thread-safe.
  void set_recorder(obs::Recorder* recorder);

 private:
  /// Per-worker stat accumulator, cache-line padded against false sharing.
  struct alignas(64) WorkerTotals {
    uint64_t answered = 0;
    uint64_t visited_vertices = 0;
    uint64_t scanned_edges = 0;
    uint64_t total_answer_size = 0;
    uint64_t status_counts[kNumTerminations] = {};

    void Add(const SearchResult& result);
  };

  /// The shared worker loop: result i = solve(searcher, queries[i], guard)
  /// on the claiming worker's searcher.
  template <typename Solve>
  BatchResult Run(const std::vector<VertexId>& queries,
                  const BatchLimits& limits, Solve solve);
  CommunitySearcher& Searcher(unsigned worker);

  std::shared_ptr<const Snapshot> snapshot_;
  Executor* executor_;
  obs::Recorder* recorder_ = &obs::Recorder::Null();
  // One searcher per worker slot, created on first use; a slot that
  // never participates never binds.
  std::vector<std::unique_ptr<CommunitySearcher>> searchers_;
};

}  // namespace locs

#endif  // LOCS_EXEC_BATCH_RUNNER_H_
