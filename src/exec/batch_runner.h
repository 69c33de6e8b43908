// Batch query engine: one batch of CST or CSM queries over one Snapshot.
//
// BatchRunner keeps one CommunitySearcher per worker slot alive across
// batches, so a batch answers every question exactly as `locs_cli
// cst`/`csm` and a locsd session do. The searchers' epoch-stamped
// scratch resets in O(1) between queries and between batches; that
// reuse is what pays for many small batches.
//
// Each batch runs on its own threads: RunCst/RunCsm start
// min(workers, queries) - 1 std::threads, the calling thread works as
// worker 0, and all are joined before the call returns. Workers claim one query at a time off an
// atomic cursor, so the load stays balanced under power-law query costs
// and the batch deadline is checked before every claim. A thread start
// costs tens of microseconds; a local query costs what its answer costs
// (milliseconds on the paper's figure batches), so a persistent pool
// would save under 1% there. The library is exception-free (see
// docs/ARCHITECTURE.md), but a solve may still throw (std::bad_alloc, a
// user recorder): a worker catches it, the others stop claiming, and
// after every worker has joined the lowest-numbered worker's exception
// is rethrown on the caller.
//
// Results are deterministic and thread-count invariant: result i depends
// only on (snapshot, queries[i], k), never on scheduling.
//
// A BatchRunner is not thread-safe; run one batch at a time per instance.
//
// Synchronization design: BatchRunner holds no mutex — and so carries no
// LOCS_GUARDED_BY annotations (util/thread_annotations.h). Workers touch
// strictly disjoint state: worker w owns searchers_[w], its totals and
// its exception slot, result i is written by the one worker that
// claimed query i, and the rest (the cursor, the failure flag) are
// std::atomic. Joining the workers publishes their writes to the caller.
// The Clang thread-safety analysis therefore has nothing to prove here;
// the TSan lane (tools/run_sanitizers.sh) is the check that this
// partitioning claim actually holds.

#ifndef LOCS_EXEC_BATCH_RUNNER_H_
#define LOCS_EXEC_BATCH_RUNNER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/common.h"
#include "core/result.h"
#include "core/searcher.h"
#include "core/snapshot.h"
#include "util/guard.h"

namespace locs {

/// Per-batch execution limits.
struct BatchLimits {
  /// Worker threads for this batch, the calling thread included (never
  /// more than there are queries); 0 = std::thread::hardware_concurrency().
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
};

/// Per-query telemetry aggregated over one batch.
struct BatchStats {
  uint64_t completed = 0;  ///< queries executed (always a batch prefix)
  uint64_t answered = 0;   ///< queries that produced a non-empty community
  uint64_t visited_vertices = 0;
  uint64_t scanned_edges = 0;
  uint64_t total_answer_size = 0;
  /// Per-termination-status query counts, indexed by Termination. Counts
  /// every result slot, including never-started queries (reported as
  /// kDeadline).
  uint64_t status_counts[kNumTerminations] = {};
  double wall_ms = 0.0;
  bool deadline_hit = false;

  uint64_t CountOf(Termination status) const {
    return status_counts[static_cast<size_t>(status)];
  }
};

struct BatchResult {
  /// results[i] answers queries[i]; slots past stats.completed were never
  /// started and carry kDeadline with a singleton best_so_far.
  std::vector<SearchResult> results;
  BatchStats stats;
};

/// Batch runner with per-worker searchers; see the file comment.
class BatchRunner {
 public:
  explicit BatchRunner(std::shared_ptr<const Snapshot> snapshot);

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

  /// The shared batch body: result i = solve(searcher, queries[i], guard)
  /// on the claiming worker's searcher.
  template <typename Solve>
  BatchResult Run(const std::vector<VertexId>& queries,
                  const BatchLimits& limits, Solve solve);
  CommunitySearcher& Searcher(unsigned worker);

  std::shared_ptr<const Snapshot> snapshot_;
  obs::Recorder* recorder_ = &obs::Recorder::Null();
  // One searcher per worker slot, created on first use; a slot that
  // never participates never binds. Grows to the widest batch run.
  std::vector<std::unique_ptr<CommunitySearcher>> searchers_;
};

}  // namespace locs

#endif  // LOCS_EXEC_BATCH_RUNNER_H_
