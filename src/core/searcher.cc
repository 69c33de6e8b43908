#include "core/searcher.h"

#include <algorithm>
#include <cstdint>

#include "core/validate.h"
#include "util/prefetch.h"

namespace locs {

CommunitySearcher::CommunitySearcher(std::shared_ptr<const Snapshot> snapshot)
    : snapshot_(std::move(snapshot)),
      cst_solver_(snapshot_->graph, &snapshot_->ordered, &snapshot_->facts,
                  snapshot_->index.core_numbers().span()),
      seen_(snapshot_->graph.NumVertices()) {}

CommunitySearcher::CommunitySearcher(Graph graph)
    : CommunitySearcher(std::make_shared<const Snapshot>(
          Snapshot::Build(std::move(graph)))) {}

SearchResult CommunitySearcher::Cst(VertexId v0, uint32_t k,
                                    const CstOptions& options,
                                    QueryGuard* guard) {
  // Outside the k-core no δ >= k community holds v0 (Lemma 3).
  // Out-of-range ids are left to the solver, which rejects them.
  if (v0 < graph().NumVertices() && !snapshot_->index.HasCst(v0, k)) {
    return SearchResult::MakeNotExists();
  }
  return cst_solver_.Solve(v0, k, options, nullptr, guard);
}

void CommunitySearcher::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder != nullptr ? recorder : &obs::Recorder::Null();
  cst_solver_.set_recorder(recorder_);
}

SearchResult CommunitySearcher::Csm(VertexId v0, QueryGuard* guard,
                                    uint64_t member_limit) {
  LOCS_CHECK_LT(v0, graph().NumVertices());
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, recorder_->timing_enabled());
  const CoreIndex& index = snapshot_->index;
  // v0's k*-core component (k* = core(v0)) is its maxcore component: the
  // forest node v0 points at.
  SearchResult result =
      ListComponent({&v0, 1}, index.ComponentNode(v0, index.CoreNumber(v0)),
                    member_limit, g, tracker, telemetry);
  FinishQuery(result, telemetry, tracker, *recorder_);
  return result;
}

SearchResult CommunitySearcher::CstMulti(const std::vector<VertexId>& query,
                                         uint32_t k, QueryGuard* guard,
                                         uint64_t member_limit) {
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  CheckSeeds(query, g);
  // A δ >= k community holding the seeds lies inside one component of
  // the k-core, and that component is one (Lemma 3): the seeds must all
  // lie in the k-core and share their forest node at k.
  const CoreIndex& index = snapshot_->index;
  uint32_t node = CoreIndex::kNoNode;
  for (const VertexId v : query) {
    const uint32_t own =
        index.HasCst(v, k) ? index.ComponentNode(v, k) : CoreIndex::kNoNode;
    if (own == CoreIndex::kNoNode || (v != query[0] && own != node)) {
      // Answered from the index alone, as in Cst.
      return SearchResult::MakeNotExists();
    }
    node = own;
  }
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, recorder_->timing_enabled());
  SearchResult result =
      ListComponent(query, node, member_limit, g, tracker, telemetry);
  FinishQuery(result, telemetry, tracker, *recorder_);
  return result;
}

SearchResult CommunitySearcher::CsmMulti(const std::vector<VertexId>& query,
                                         QueryGuard* guard,
                                         uint64_t member_limit) {
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  CheckSeeds(query, g);
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, recorder_->timing_enabled());
  const uint32_t node = snapshot_->index.CommonNode(query);
  SearchResult result;
  if (node != CoreIndex::kNoNode) {
    result = ListComponent(query, node, member_limit, g, tracker, telemetry);
  } else {
    // The seeds lie in different components, so no community spans
    // them: GlobalCsmMulti's fallback, query[0]'s singleton.
    telemetry.answer_size = 1;
    result = SearchResult::MakeFound(Community{{query[0]}, 0});
    LOCS_VALIDATE_RESULT("CommunitySearcher::CsmMulti", graph(), result,
                         validate::CsmMultiQuery(result, query), 0);
  }
  FinishQuery(result, telemetry, tracker, *recorder_);
  return result;
}

void CommunitySearcher::CheckSeeds(std::span<const VertexId> seeds,
                                   QueryGuard& guard) {
  LOCS_CHECK(!seeds.empty());
  seen_.NewEpoch();
  for (const VertexId v : seeds) {
    LOCS_CHECK_LT(v, graph().NumVertices());
    LOCS_CHECK_MSG(seen_.TestAndSet(v), "duplicate query vertex");
  }
  // A trip here surfaces at the traversal's first guard check.
  guard.Spend(seeds.size() - 1);
}

SearchResult CommunitySearcher::ListComponent(
    std::span<const VertexId> seeds, uint32_t node, uint64_t member_limit,
    QueryGuard& guard, obs::PhaseTracker& tracker,
    obs::QueryTelemetry& telemetry) {
  const CoreForestNode& component = snapshot_->index.forest()[node];
  const size_t stop_at = member_limit == 0 ? SIZE_MAX : member_limit;
  std::vector<VertexId> members;
  if (guard.Stopped() ||
      !CoreComponent(seeds[0], component.level, stop_at, guard,
                     tracker.Enter(obs::Phase::kConnectivity), &members)) {
    // Any connected community holding seeds[0] is a valid partial; the
    // singleton needs no degree recount.
    SearchResult partial = SearchResult::MakeInterrupted(
        guard.cause(), Community{{seeds[0]}, 0});
    LOCS_VALIDATE_RESULT("CommunitySearcher::ListComponent", graph(), partial,
                         std::vector<VertexId>(seeds.begin(), seeds.end()),
                         0);
    return partial;
  }
  const uint64_t listed = members.size();
  // The node's level is the component's δ: it is a component of the
  // level-core, so δ >= level, and it holds a vertex of that core number,
  // which lies in no (level+1)-core, so δ <= level.
  SearchResult result =
      SearchResult::MakeFound(Community{std::move(members), component.level});
  // Saturating, so a crafted image's wrong size cannot wrap.
  result.unlisted = std::max<uint64_t>(component.size, listed) - listed;
  telemetry.answer_size = listed + result.unlisted;
#if defined(LOCS_VALIDATE)
  // A listed prefix is not a community of its own, and the forest's n
  // and δ are not recounted by the listing: rerun the full BFS and check
  // the size, the least core number, the seeds, the prefix and the full
  // answer.
  QueryGuard full_guard;
  obs::PhaseStats full_ph;
  std::vector<VertexId> full;
  CoreComponent(seeds[0], component.level, SIZE_MAX, full_guard, full_ph,
                &full);
  const uint32_t* const core = snapshot_->index.core_numbers().data();
  uint32_t min_core = core[seeds[0]];
  for (const VertexId v : full) min_core = std::min(min_core, core[v]);
  LOCS_CHECK_EQ(full.size(), result.AnswerSize());
  LOCS_CHECK_EQ(min_core, component.level);
  for (const VertexId v : seeds) LOCS_CHECK(seen_.Test(v));
  LOCS_CHECK(std::equal(result->members.begin(), result->members.end(),
                        full.begin()));
  LOCS_VALIDATE_RESULT(
      "CommunitySearcher::ListComponent", graph(),
      SearchResult::MakeFound(Community{std::move(full), component.level}),
      std::vector<VertexId>(seeds.begin(), seeds.end()), 0);
#endif
  return result;
}

bool CommunitySearcher::CoreComponent(VertexId root, uint32_t k,
                                      size_t stop_at, QueryGuard& guard,
                                      obs::PhaseStats& ph,
                                      std::vector<VertexId>* out) {
  const uint32_t* const core = snapshot_->index.core_numbers().data();
  const uint64_t* const offsets = graph().offsets().data();
  const VertexId* const adjacency = graph().neighbors().data();
  LOCS_DCHECK(core[root] >= k);
  seen_.NewEpoch();
  seen_.Set(root);
  out->push_back(root);
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
        seen_.Prefetch(ahead);
      }
      const VertexId w = nbrs[i];
      if (core[w] < k) {
        ++ph.candidates_rejected;
      } else if (seen_.TestAndSet(w)) {
        ++ph.candidates_generated;
        out->push_back(w);
      }
    }
    ++ph.vertices_visited;
    ph.edges_scanned += nbrs.size();
    if (guard.Spend(1 + nbrs.size())) return false;
    if (out->size() >= stop_at) {
      // BFS order is deterministic, so these are the full answer's first
      // stop_at members.
      out->resize(stop_at);
      break;
    }
  }
  return true;
}

}  // namespace locs
