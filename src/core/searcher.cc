#include "core/searcher.h"

#include "core/global.h"
#include "core/validate.h"
#include "util/prefetch.h"

namespace locs {

namespace {

/// CstAdaptive dispatches to global search when the exact |V≥k| / |V|
/// ratio exceeds this fraction — the regime where the paper observes
/// global search competitive (small k, §6.1.3).
constexpr double kAdaptiveGlobalFraction = 0.35;

/// tail[k] = |{v : deg(v) >= k}| for k in [0, max_degree + 1].
std::vector<uint64_t> ComputeTailCounts(const Graph& graph) {
  std::vector<uint64_t> histogram(graph.MaxDegree() + 2, 0);
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    ++histogram[graph.Degree(v)];
  }
  // Suffix-sum in place: histogram[k] becomes the tail count.
  for (size_t k = histogram.size() - 1; k-- > 0;) {
    histogram[k] += histogram[k + 1];
  }
  return histogram;
}

}  // namespace

CommunitySearcher::CommunitySearcher(std::shared_ptr<const Snapshot> snapshot)
    : snapshot_(std::move(snapshot)),
      cst_solver_(snapshot_->graph, &snapshot_->ordered, &snapshot_->facts),
      multi_solver_(snapshot_->graph, &snapshot_->ordered, &snapshot_->facts),
      csm_seen_(snapshot_->graph.NumVertices()) {}

CommunitySearcher::CommunitySearcher(Graph graph)
    : CommunitySearcher(std::make_shared<const Snapshot>(
          Snapshot::Build(std::move(graph)))) {}

bool CommunitySearcher::IndexRulesOut(std::span<const VertexId> seeds,
                                      uint32_t k, QueryStats* stats) const {
  bool outside = false;
  for (const VertexId v : seeds) {
    if (v >= graph().NumVertices()) return false;
    outside = outside || !snapshot_->index.HasCst(v, k);
  }
  if (outside && stats != nullptr) *stats = QueryStats{};
  return outside;
}

SearchResult CommunitySearcher::Cst(VertexId v0, uint32_t k,
                                    const CstOptions& options,
                                    QueryStats* stats, QueryGuard* guard) {
  if (IndexRulesOut({&v0, 1}, k, stats)) return SearchResult::MakeNotExists();
  return cst_solver_.Solve(v0, k, options, stats, guard);
}

SearchResult CommunitySearcher::CstGlobal(VertexId v0, uint32_t k,
                                          QueryStats* stats,
                                          QueryGuard* guard) {
  return GlobalCst(graph(), v0, k, stats, guard, recorder_);
}

void CommunitySearcher::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder != nullptr ? recorder : &obs::Recorder::Null();
  cst_solver_.set_recorder(recorder_);
  multi_solver_.set_recorder(recorder_);
}

double CommunitySearcher::DegreeTailFraction(uint32_t k) const {
  if (graph().NumVertices() == 0) return 0.0;
  if (tail_count_.empty()) tail_count_ = ComputeTailCounts(graph());
  const uint64_t count =
      k < tail_count_.size() ? tail_count_[k] : 0;
  return static_cast<double>(count) /
         static_cast<double>(graph().NumVertices());
}

SearchResult CommunitySearcher::CstAdaptive(VertexId v0, uint32_t k,
                                            const CstOptions& options,
                                            QueryStats* stats,
                                            QueryGuard* guard) {
  // k <= 2 answers are tiny (an incident edge / a short cycle), so local
  // search terminates almost immediately regardless of |V>=k| — always go
  // local there (the k=1..2 rows of Figure 9). Beyond that, when most of
  // the graph survives the Proposition-3 pruning, candidate generation
  // degenerates to a slower global pass (the small-k regime of Figures
  // 8/9); dispatch straight to the global peel in that regime.
  if (k > 2 && DegreeTailFraction(k) > kAdaptiveGlobalFraction) {
    return GlobalCst(graph(), v0, k, stats, guard, recorder_);
  }
  return Cst(v0, k, options, stats, guard);
}

SearchResult CommunitySearcher::Csm(VertexId v0, QueryStats* stats,
                                    QueryGuard* guard) {
  LOCS_CHECK_LT(v0, graph().NumVertices());
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, recorder_->timing_enabled());
  std::vector<VertexId> members;
  SearchResult result;
  if (!g.Stopped() &&
      MaxcoreComponent(v0, g, tracker.Enter(obs::Phase::kConnectivity),
                       &members)) {
    telemetry.answer_size = members.size();
    result = SearchResult::MakeFound(
        Community{std::move(members), snapshot_->index.CoreNumber(v0)});
  } else {
    // Any connected community holding v0 is a valid partial; the
    // singleton needs no degree recount.
    result = SearchResult::MakeInterrupted(g.cause(), Community{{v0}, 0});
  }
  tracker.Finish();
  result.telemetry = telemetry;
  if (stats != nullptr) *stats = ToQueryStats(telemetry);
  recorder_->Record(telemetry);
  // CSM has no minimum-degree threshold: pass k = 0.
  LOCS_VALIDATE_RESULT("CommunitySearcher::Csm", graph(), result, v0, 0);
  return result;
}

bool CommunitySearcher::MaxcoreComponent(VertexId v0, QueryGuard& guard,
                                         obs::PhaseStats& ph,
                                         std::vector<VertexId>* out) {
  // v0's k*-core component (k* = core(v0)) is the maximal connected set
  // holding v0 whose vertices all have core number >= k*: its induced
  // minimum degree is >= k*, and it cannot exceed k* since v0 is not in
  // the (k*+1)-core.
  const uint32_t* const core = snapshot_->index.core_numbers().data();
  const uint64_t* const offsets = graph().offsets().data();
  const VertexId* const adjacency = graph().neighbors().data();
  const uint32_t k_star = core[v0];
  csm_seen_.NewEpoch();
  csm_seen_.Set(v0);
  out->push_back(v0);
  for (size_t head = 0; head < out->size(); ++head) {
    // Two-stage prefetch down the queue: the offset of the vertex two
    // distances ahead, then the first two adjacency cache lines of the one
    // a distance ahead (a maxcore member's list spans about two).
    const size_t queued = out->size();
    if (head + 2 * kPrefetchDistance < queued) {
      LOCS_PREFETCH(offsets + (*out)[head + 2 * kPrefetchDistance]);
    }
    if (head + kPrefetchDistance < queued) {
      const VertexId* const list =
          adjacency + offsets[(*out)[head + kPrefetchDistance]];
      LOCS_PREFETCH(list);
      LOCS_PREFETCH(list + 16);
    }
    const std::span<const VertexId> nbrs = graph().Neighbors((*out)[head]);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (i + kPrefetchDistance < nbrs.size()) {
        const VertexId ahead = nbrs[i + kPrefetchDistance];
        LOCS_PREFETCH(core + ahead);
        csm_seen_.Prefetch(ahead);
      }
      const VertexId w = nbrs[i];
      if (core[w] < k_star) {
        ++ph.candidates_rejected;
      } else if (csm_seen_.TestAndSet(w)) {
        ++ph.candidates_generated;
        out->push_back(w);
      }
    }
    ++ph.vertices_visited;
    ph.edges_scanned += nbrs.size();
    if (guard.Spend(1 + nbrs.size())) return false;
  }
  return true;
}

SearchResult CommunitySearcher::CsmGlobal(VertexId v0, QueryStats* stats,
                                          QueryGuard* guard) {
  return GlobalCsm(graph(), v0, stats, guard, recorder_);
}

SearchResult CommunitySearcher::CstMulti(const std::vector<VertexId>& query,
                                         uint32_t k, QueryStats* stats,
                                         QueryGuard* guard) {
  if (IndexRulesOut(query, k, stats)) return SearchResult::MakeNotExists();
  return multi_solver_.CstMulti(query, k, stats, guard);
}

SearchResult CommunitySearcher::CsmMulti(const std::vector<VertexId>& query,
                                         QueryStats* stats,
                                         QueryGuard* guard) {
  return multi_solver_.CsmMulti(query, stats, guard);
}

}  // namespace locs
