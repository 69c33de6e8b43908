// Batch query engine on top of the persistent Executor.
//
// BatchRunner binds one graph (plus optional ordering/facts/core numbers,
// same contract as the local solvers) to an Executor and keeps one
// LocalCstSolver / LocalCsmSolver per worker slot alive across batches.
// The solvers' epoch-stamped scratch therefore resets in O(1) between
// queries *and* between batches — a batch pays neither the per-call thread
// spawn nor the per-call O(|V|) solver construction of the old
// core/parallel.cc layer.
//
// Results are deterministic and thread-count invariant: result i depends
// only on (graph, queries[i], options), never on scheduling.
//
// A BatchRunner is not thread-safe; run one batch at a time per instance.
//
// Synchronization design: BatchRunner itself holds no mutex — and so
// carries no LOCS_GUARDED_BY annotations (util/thread_annotations.h).
// Workers touch strictly disjoint state: slot s owns solver_slots_[s]
// exclusively, result i is written by the one worker that claimed query
// i, and cross-thread coordination (chunk claiming, deadline flags)
// happens through the std::atomic fields below plus the Executor's own
// annotated mutex. The Clang thread-safety analysis therefore has
// nothing to prove here; the TSan lane (tools/run_sanitizers.sh) is the
// check that this lock-free partitioning claim actually holds.

#ifndef LOCS_EXEC_BATCH_RUNNER_H_
#define LOCS_EXEC_BATCH_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/common.h"
#include "core/local_csm.h"
#include "core/local_cst.h"
#include "core/result.h"
#include "exec/executor.h"
#include "graph/graph.h"
#include "graph/ordering.h"
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

/// Per-query QueryStats aggregated over one batch.
struct BatchStats {
  uint64_t completed = 0;  ///< queries executed (always a batch prefix)
  uint64_t answered = 0;   ///< queries that produced a non-empty community
  uint64_t visited_vertices = 0;
  uint64_t scanned_edges = 0;
  uint64_t global_fallbacks = 0;
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

struct CstBatchResult {
  /// results[i] answers queries[i]; slots past stats.completed were never
  /// started and carry the batch stop cause with a singleton best_so_far.
  std::vector<SearchResult> results;
  BatchStats stats;
};

struct CsmBatchResult {
  /// results[i] answers queries[i]; same never-started contract as CST.
  std::vector<SearchResult> results;
  BatchStats stats;
};

/// Persistent batch runner; see the file comment.
class BatchRunner {
 public:
  /// `ordered`/`facts` may be null (same contract as the solvers);
  /// `executor` null means Executor::Shared(). `core` (optional) is passed
  /// to every LocalCstSolver: with a snapshot's core numbers, RunCst
  /// answers exactly as CommunitySearcher::Cst does.
  explicit BatchRunner(const Graph& graph,
                       const OrderedAdjacency* ordered = nullptr,
                       const GraphFacts* facts = nullptr,
                       Executor* executor = nullptr,
                       std::span<const uint32_t> core = {});

  /// Solves CST(k) for every query vertex.
  CstBatchResult RunCst(const std::vector<VertexId>& queries, uint32_t k,
                        const CstOptions& options = {},
                        const BatchLimits& limits = {});

  /// Solves CSM for every query vertex.
  CsmBatchResult RunCsm(const std::vector<VertexId>& queries,
                        const CsmOptions& options = {},
                        const BatchLimits& limits = {});

  /// Telemetry sink shared by every per-worker solver (existing slots and
  /// slots created later). The recorder must be safe for concurrent
  /// Record() calls (obs::AggregateRecorder and obs::TraceSink are);
  /// nullptr restores the no-op null sink. Not owned. Call between
  /// batches only — BatchRunner is not thread-safe.
  void set_recorder(obs::Recorder* recorder);

  Executor& executor() const { return *executor_; }

 private:
  /// Per-worker stat accumulator, cache-line padded against false sharing.
  struct alignas(64) WorkerTotals {
    uint64_t answered = 0;
    uint64_t visited_vertices = 0;
    uint64_t scanned_edges = 0;
    uint64_t global_fallbacks = 0;
    uint64_t total_answer_size = 0;
    uint64_t status_counts[kNumTerminations] = {};

    void Add(const QueryStats& stats, Termination status);
  };

  LocalCstSolver& CstSolver(unsigned worker);
  LocalCsmSolver& CsmSolver(unsigned worker);
  static BatchStats Merge(const std::vector<WorkerTotals>& totals,
                          const Executor::RunResult& run, double wall_ms);

  const Graph& graph_;
  const OrderedAdjacency* ordered_;
  const GraphFacts* facts_;
  std::span<const uint32_t> core_;
  Executor* executor_;
  obs::Recorder* recorder_ = &obs::Recorder::Null();
  // One solver per worker slot, created on first use; a slot that never
  // participates never pays the O(|V|) construction.
  std::vector<std::unique_ptr<LocalCstSolver>> cst_solvers_;
  std::vector<std::unique_ptr<LocalCsmSolver>> csm_solvers_;
};

/// Options for the free-function batch entry points below.
struct BatchOptions {
  /// Worker threads; 0 means the shared executor's full pool.
  unsigned num_threads = 0;
  CstOptions cst;
};

/// Solves CST(k) for every query vertex in parallel on the shared
/// executor. Result i corresponds to queries[i]. Prefer a long-lived
/// BatchRunner when issuing many batches against the same graph.
std::vector<std::optional<Community>> SolveCstBatch(
    const Graph& graph, const OrderedAdjacency* ordered,
    const GraphFacts* facts, const std::vector<VertexId>& queries,
    uint32_t k, const BatchOptions& options = {});

/// Solves CSM for every query vertex in parallel on the shared executor.
std::vector<Community> SolveCsmBatch(const Graph& graph,
                                     const OrderedAdjacency* ordered,
                                     const GraphFacts* facts,
                                     const std::vector<VertexId>& queries,
                                     const CsmOptions& csm_options = {},
                                     unsigned num_threads = 0);

}  // namespace locs

#endif  // LOCS_EXEC_BATCH_RUNNER_H_
