#include "core/searcher.h"

#include "core/global.h"

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
      csm_solver_(snapshot_->graph, &snapshot_->ordered, &snapshot_->facts),
      multi_solver_(snapshot_->graph, &snapshot_->ordered,
                    &snapshot_->facts) {}

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
  csm_solver_.set_recorder(recorder_);
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

SearchResult CommunitySearcher::Csm(VertexId v0, const CsmOptions& options,
                                    QueryStats* stats, QueryGuard* guard) {
  return csm_solver_.Solve(v0, options, stats, guard);
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
