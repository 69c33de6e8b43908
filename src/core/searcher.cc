#include "core/searcher.h"

#include <algorithm>
#include <cstdint>

#include "core/global.h"
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
                                    QueryStats* stats, QueryGuard* guard) {
  // Outside the k-core no δ >= k community holds v0 (Lemma 3).
  // Out-of-range ids are left to the solver, which rejects them.
  if (v0 < graph().NumVertices() && !snapshot_->index.HasCst(v0, k)) {
    if (stats != nullptr) *stats = QueryStats{};
    return SearchResult::MakeNotExists();
  }
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
}

SearchResult CommunitySearcher::Csm(VertexId v0, QueryStats* stats,
                                    QueryGuard* guard,
                                    uint64_t member_limit) {
  LOCS_CHECK_LT(v0, graph().NumVertices());
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, recorder_->timing_enabled());
  const CoreIndex& index = snapshot_->index;
  // v0's k*-core component (k* = core(v0)) is its maxcore component. The
  // index holds its size, so a member limit can cut the BFS short.
  const size_t stop_at = member_limit == 0 ? SIZE_MAX : member_limit;
  SearchResult result = ComponentAnswer(
      {&v0, 1}, index.CoreNumber(v0), stop_at, g, tracker, telemetry);
  if (member_limit != 0 && result.Found()) {
    const uint64_t listed = result->members.size();
    // Saturating, so a crafted image's wrong size cannot wrap.
    result.unlisted =
        std::max<uint64_t>(index.ComponentSize(v0), listed) - listed;
    telemetry.answer_size = listed + result.unlisted;
  }
  FinishQuery(result, telemetry, tracker, stats, *recorder_);
#if defined(LOCS_VALIDATE)
  if (member_limit != 0 && result.Found()) {
    // A listed prefix is not a community of its own: rerun the full BFS
    // and check the size, the prefix and the full answer.
    QueryGuard full_guard;
    obs::PhaseStats full_ph;
    std::vector<VertexId> full;
    CoreComponent(v0, index.CoreNumber(v0), SIZE_MAX, full_guard, full_ph,
                  &full);
    LOCS_CHECK_EQ(full.size(), result.AnswerSize());
    LOCS_CHECK(std::equal(result->members.begin(), result->members.end(),
                          full.begin()));
    LOCS_VALIDATE_RESULT(
        "CommunitySearcher::Csm", graph(),
        SearchResult::MakeFound(Community{full, result->min_degree}), v0, 0);
    return result;
  }
#endif
  // CSM has no minimum-degree threshold: pass k = 0.
  LOCS_VALIDATE_RESULT("CommunitySearcher::Csm", graph(), result, v0, 0);
  return result;
}

SearchResult CommunitySearcher::CsmGlobal(VertexId v0, QueryStats* stats,
                                          QueryGuard* guard) {
  return GlobalCsm(graph(), v0, stats, guard, recorder_);
}

SearchResult CommunitySearcher::CstMulti(const std::vector<VertexId>& query,
                                         uint32_t k, QueryStats* stats,
                                         QueryGuard* guard) {
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  CheckSeeds(query, g);
  for (const VertexId v : query) {
    if (!snapshot_->index.HasCst(v, k)) {
      // Answered from the core numbers alone, as in Cst.
      if (stats != nullptr) *stats = QueryStats{};
      return SearchResult::MakeNotExists();
    }
  }
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, recorder_->timing_enabled());
  SearchResult result =
      ComponentAnswer(query, k, SIZE_MAX, g, tracker, telemetry);
  FinishQuery(result, telemetry, tracker, stats, *recorder_);
  LOCS_VALIDATE_RESULT("CommunitySearcher::CstMulti", graph(), result, query,
                       k);
  return result;
}

SearchResult CommunitySearcher::CsmMulti(const std::vector<VertexId>& query,
                                         QueryStats* stats,
                                         QueryGuard* guard) {
  QueryGuard unlimited;
  QueryGuard& g = guard != nullptr ? *guard : unlimited;
  CheckSeeds(query, g);
  if (sweep_reached_.capacity() == 0) {
    sweep_reached_ = EpochFlags(graph().NumVertices());
  }
  obs::QueryTelemetry telemetry;
  obs::PhaseTracker tracker(&telemetry, recorder_->timing_enabled());
  const std::optional<uint32_t> delta =
      g.Stopped() ? std::nullopt
                  : BottleneckSweep(query, g,
                                    tracker.Enter(obs::Phase::kExpansion));
  SearchResult result;
  if (delta.has_value()) {
    result = ComponentAnswer(query, *delta, SIZE_MAX, g, tracker, telemetry);
  } else if (g.Stopped()) {
    result = SearchResult::MakeInterrupted(g.cause(), Community{{query[0]}, 0});
  } else {
    // The seeds lie in different components, so no community spans
    // them: GlobalCsmMulti's fallback, query[0]'s singleton.
    telemetry.answer_size = 1;
    result = SearchResult::MakeFound(Community{{query[0]}, 0});
  }
  FinishQuery(result, telemetry, tracker, stats, *recorder_);
  LOCS_VALIDATE_RESULT("CommunitySearcher::CsmMulti", graph(), result,
                       validate::CsmMultiQuery(result, query), 0);
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

SearchResult CommunitySearcher::ComponentAnswer(
    std::span<const VertexId> seeds, uint32_t k, size_t stop_at,
    QueryGuard& guard, obs::PhaseTracker& tracker,
    obs::QueryTelemetry& telemetry) {
  // A δ >= k community holding the seeds lies inside one component of
  // the k-core, and that component is one (Lemma 3).
  std::vector<VertexId> members;
  const std::optional<uint32_t> min_core =
      guard.Stopped()
          ? std::nullopt
          : CoreComponent(seeds[0], k, stop_at, guard,
                          tracker.Enter(obs::Phase::kConnectivity), &members);
  if (!min_core.has_value()) {
    // Any connected community holding seeds[0] is a valid partial; the
    // singleton needs no degree recount.
    return SearchResult::MakeInterrupted(guard.cause(),
                                         Community{{seeds[0]}, 0});
  }
  for (const VertexId v : seeds) {
    if (!seen_.Test(v)) return SearchResult::MakeNotExists();
  }
  telemetry.answer_size = members.size();
  // The least core number m among the members is the component's δ: the
  // component is also a component of the m-core, so δ >= m, and its
  // least-core member lies in no (m+1)-core, so δ <= m.
  return SearchResult::MakeFound(Community{std::move(members), *min_core});
}

std::optional<uint32_t> CommunitySearcher::CoreComponent(
    VertexId root, uint32_t k, size_t stop_at, QueryGuard& guard,
    obs::PhaseStats& ph, std::vector<VertexId>* out) {
  const uint32_t* const core = snapshot_->index.core_numbers().data();
  const uint64_t* const offsets = graph().offsets().data();
  const VertexId* const adjacency = graph().neighbors().data();
  LOCS_DCHECK(core[root] >= k);
  uint32_t min_core = core[root];
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
        min_core = std::min(min_core, core[w]);
        out->push_back(w);
      }
    }
    ++ph.vertices_visited;
    ph.edges_scanned += nbrs.size();
    if (guard.Spend(1 + nbrs.size())) return std::nullopt;
    if (out->size() >= stop_at) {
      // BFS order is deterministic, so these are the full answer's first
      // stop_at members.
      out->resize(stop_at);
      break;
    }
  }
  return min_core;
}

std::optional<uint32_t> CommunitySearcher::BottleneckSweep(
    std::span<const VertexId> seeds, QueryGuard& guard, obs::PhaseStats& ph) {
  // A vertex's level is the largest k for which it shares a component of
  // `core >= k` with seeds[0]: the least core number on its best path.
  // Levels pop in non-increasing order, so a vertex's first push, from
  // its first popped neighbor, is already at its final level and nothing
  // is queued twice. The seeds share a component of `core >= k` iff k is
  // at most every seed's level: the level of the last seed to pop is δ.
  // δ is at most the least seed core number, so higher levels fold into
  // its bucket.
  const uint32_t* const core = snapshot_->index.core_numbers().data();
  uint32_t top = core[seeds[0]];
  for (const VertexId v : seeds) top = std::min(top, core[v]);
  for (std::vector<VertexId>& bucket : sweep_buckets_) bucket.clear();
  sweep_buckets_.resize(size_t{top} + 1);
  sweep_reached_.NewEpoch();
  sweep_reached_.Set(seeds[0]);
  sweep_buckets_[top].push_back(seeds[0]);
  size_t unpopped = seeds.size();
  uint32_t level = top;
  while (true) {
    std::vector<VertexId>& bucket = sweep_buckets_[level];
    if (bucket.empty()) {
      if (level == 0) return std::nullopt;  // a seed is unreachable
      --level;
      continue;
    }
    const VertexId u = bucket.back();
    bucket.pop_back();
    ++ph.vertices_visited;
    if (seen_.Test(u) && --unpopped == 0) return level;
    const std::span<const VertexId> nbrs = graph().Neighbors(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (i + kPrefetchDistance < nbrs.size()) {
        const VertexId ahead = nbrs[i + kPrefetchDistance];
        LOCS_PREFETCH(core + ahead);
        sweep_reached_.Prefetch(ahead);
      }
      const VertexId w = nbrs[i];
      if (sweep_reached_.TestAndSet(w)) {
        ++ph.candidates_generated;
        sweep_buckets_[std::min(level, core[w])].push_back(w);
      }
    }
    ph.edges_scanned += nbrs.size();
    if (guard.Spend(1 + nbrs.size())) return std::nullopt;
  }
}

}  // namespace locs
