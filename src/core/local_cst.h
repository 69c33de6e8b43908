// Local search for CST(k) — §4 of the paper.
//
// The solver implements the three-step framework of Algorithm 2:
//   1. upper-bound admission test (Theorem 3 and Proposition 3);
//   2. candidate generation from the query vertex's neighborhood
//      (Algorithm 3), with the vertex-selection strategy pluggable:
//      naive FIFO, `lg` (largest increment of goodness, Eq. 5), or `li`
//      (largest number of incidence, Eq. 6 — backed by a lazy bucket
//      queue, core/lazy_bucket_queue.h, that pops in the Figure-5
//      structure's order);
//   3. if generation exhausts the candidates without qualifying, a global
//      peel restricted to G[C] (sound by Proposition 4, and exact because
//      the candidate set always contains the k-core component of v0).
//      This step runs only for the paper's solver, built without core
//      numbers. Given them, the candidate tests also skip every vertex
//      with core number < k (Lemma 3: it lies in no δ >= k community), so
//      C stays inside the seeds' k-core components. Were C all of one,
//      every member would have induced degree >= k: a single seed always
//      ends in early success, and a seed set that exhausts the candidates
//      spans several components and is an exact negative. The peel never
//      starts.
//
// Per-query cost is proportional to the neighborhood actually explored —
// not to |V| — thanks to epoch-stamped scratch state. Construction is O(1)
// as well: the scratch arrays are zero-page mappings (core/epoch.h,
// core/bucket_list.h, core/lazy_bucket_queue.h), so memory becomes
// resident only where queries write, and the destructor hands it back to
// the OS.
//
// A vertex joins C with one neighbor scan (AddToC, compiled per strategy).
// On a degree-sorted list it ends at the §4.3.2 break, binary-searched
// (BreakIndex), so it reads no neighbor's degree; an li step is one C-cell
// probe plus, for a frontier neighbor, one key write and one append.
//
// One engine serves every local CST entry point. `Solve(v0, k)` is the
// paper's single-vertex query; `CstMulti(Q, k)` runs the same li expansion,
// G[C] peel and BFS over a seed set, the Sozio–Gionis query-set problem the
// paper cites in §7 (|Q| = 1 is exactly `Solve`). With several seeds, early
// success also needs G[C] to connect them, which a union-find over C tracks
// in O(1) per check; it is allocated on the first multi-seed query, so a
// solver that only ever answers `Solve` never pays for it. `CsmMulti(Q)`
// maximizes δ by binary search over `CstMulti` (Propositions 1-2 make
// feasibility monotone in k).

#ifndef LOCS_CORE_LOCAL_CST_H_
#define LOCS_CORE_LOCAL_CST_H_

#include <optional>
#include <span>
#include <vector>

#include "core/bucket_list.h"
#include "core/common.h"
#include "core/epoch.h"
#include "core/lazy_bucket_queue.h"
#include "core/result.h"
#include "graph/graph.h"
#include "graph/ordering.h"
#include "obs/recorder.h"
#include "util/guard.h"

namespace locs {

/// Whole-graph facts gathered once and shared by all queries. The
/// Theorem-3/5 bounds require a connected graph; `connected` gates their
/// use so the solvers stay correct on disconnected inputs.
struct GraphFacts {
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint32_t max_degree = 0;
  bool connected = false;

  static GraphFacts Compute(const Graph& graph);
};

/// Checks a query set (LOCS_CHECK): non-empty, distinct, in range.
/// O(q log q).
void CheckQuerySet(const Graph& graph, std::span<const VertexId> query);

/// Reusable local-CST solver bound to one graph. Not thread-safe; create
/// one instance per thread.
class LocalCstSolver {
 public:
  /// `ordered` (optional) enables the §4.3.2 sorted-adjacency expansion;
  /// `facts` (optional) enables the Theorem-3 admission test; `core`
  /// (optional, one core number per vertex, e.g.
  /// CoreIndex::core_numbers()) prunes every candidate outside the k-core,
  /// so the G[C] peel never runs. The answer then differs from the paper
  /// solver's only where the latter falls back, and is a valid subset of
  /// it there.
  LocalCstSolver(const Graph& graph, const OrderedAdjacency* ordered,
                 const GraphFacts* facts,
                 std::span<const uint32_t> core = {});

  /// Solves CST(k) for `v0`. `status == kFound` iff a solution exists and
  /// the query ran to completion: the returned community is connected,
  /// contains v0, and has minimum induced degree >= k. `kNotExists` is an
  /// exact negative. A `guard` trip (deadline / budget) yields an
  /// interrupted status with the best connected community so far in
  /// `best_so_far`.
  /// The unnamed fourth parameter is an ignored slot (always nullptr; see
  /// core/common.h), kept only for the benchmark replay
  /// (perfbench/tool.cc), which passes it positionally; the change that
  /// next edits the benchmark deletes it. Read the query's effort from
  /// `SearchResult::telemetry`.
  SearchResult Solve(VertexId v0, uint32_t k, const CstOptions& options = {},
                     QueryStats* = nullptr, QueryGuard* guard = nullptr);

  /// CST(k) for a query set under the li strategy: a connected community
  /// containing every query vertex with minimum induced degree >= k. Exact:
  /// kNotExists iff no solution exists. Query vertices must be distinct. A
  /// guard trip reports the connected fragment of C holding query[0] (C
  /// may not connect the query yet). `CstMulti({v}, k)` is `Solve(v, k)`.
  /// The unnamed third parameter is the same ignored slot as Solve's.
  SearchResult CstMulti(const std::vector<VertexId>& query, uint32_t k,
                        QueryStats* = nullptr, QueryGuard* guard = nullptr);

  /// CSM for a query set: binary search over CstMulti. All probes charge
  /// one shared guard and accumulate into one QueryTelemetry (recorded
  /// once); an interrupted search reports the best community proven so
  /// far.
  SearchResult CsmMulti(const std::vector<VertexId>& query,
                        QueryGuard* guard = nullptr);

  /// Telemetry sink for completed queries; defaults to the no-op null
  /// sink (no clock reads, counters discarded). Not owned.
  void set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder != nullptr ? recorder : &obs::Recorder::Null();
  }

 private:
  SearchResult SolveImpl(std::span<const VertexId> seeds, uint32_t k,
                         const CstOptions& options, QueryGuard* guard,
                         obs::PhaseTracker& tracker);
  SearchResult CsmMultiImpl(const std::vector<VertexId>& query,
                            QueryGuard* guard, obs::PhaseTracker& tracker);
  VertexId SelectNext(Strategy strategy, uint32_t k, bool use_ordered);
  VertexId SelectLg(uint32_t k, bool use_ordered);
  /// Moves v into C with one scan of its neighbors, the frontier upkeep
  /// compiled per strategy.
  template <Strategy kStrategy>
  void AddToC(VertexId v, uint32_t k, obs::PhaseStats& ph);
  void JoinFragments(VertexId v, uint32_t k);
  /// The §4.3.2 break: on the degree-sorted list the index of the first
  /// neighbor of degree < k (Proposition 3 prunes it and all after), in
  /// O(log d) degree reads; otherwise the list's end.
  size_t BreakIndex(std::span<const VertexId> nbrs, uint32_t k) const;
  VertexId FindFragment(VertexId v);
  /// True iff cores are bound and w lies outside the k-core (Lemma 3).
  bool OutsideCore(VertexId w, uint32_t k) const {
    return !core_.empty() && core_[w] < k;
  }
  SearchResult GlobalFallback(std::span<const VertexId> seeds, uint32_t k,
                              obs::PhaseTracker& tracker, QueryGuard& guard,
                              uint64_t& charged);
  Community HarvestExpansion(VertexId anchor);
  Community HarvestUnpeeled(VertexId anchor);
  uint32_t InducedMinDegree(const std::vector<VertexId>& members,
                            uint32_t mark) const;

  const Graph& graph_;
  const OrderedAdjacency* ordered_;
  const GraphFacts* facts_;
  std::span<const uint32_t> core_;  // empty: the paper's degree-only pruning
  obs::Recorder* recorder_ = &obs::Recorder::Null();
  obs::QueryTelemetry telemetry_;  // reset at the top of every Solve

  // Flattened scratch: membership and induced degree share one packed cell
  // (fresh ⟺ v ∈ C), so the expansion inner loop's "is w in C, and at what
  // degree" probe is a single cache-line touch.
  EpochU32Array c_deg_;             // fresh ⟺ in C; value = deg within G[C]
  EpochFlags enqueued_;             // naive/lg: discovered (queued) once
  EpochU32Array peeled_;            // fallback: 1 = peeled, 2 = BFS-reached
  EpochU32Array cursor_;            // lg: adjacency scan position
  std::vector<VertexId> peel_worklist_;
  LazyBucketQueue li_queue_;        // li: frontier keyed by incidence
  EpochBucketList lg_sources_;      // lg: C members keyed by deg_in_c
  std::vector<VertexId> fifo_;      // naive order / lg fallback
  size_t fifo_head_ = 0;
  std::vector<VertexId> c_members_;
  uint64_t deficient_ = 0;          // |{v in C : deg_in_c < k}|

  // Multi-seed queries only: union-find over the fragments of G[C] (cell =
  // parent + 1; 0 = root), allocated on the first such query. C grows from
  // the seeds through neighbors of C, so every fragment holds a seed and C
  // connects the seeds iff fragments_ == 1 (always 1 for a single seed).
  std::optional<EpochU32Array> fragment_parent_;
  uint64_t fragments_ = 1;
};

}  // namespace locs

#endif  // LOCS_CORE_LOCAL_CST_H_
