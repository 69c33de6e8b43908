#include "serve/session.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <unordered_set>

#include "core/result.h"
#include "util/failpoint.h"
#include "util/guard.h"
#include "util/timer.h"

namespace locs::serve {

namespace {

/// The verbs the query ledger counts.
bool IsQuery(Verb verb) {
  return verb == Verb::kCst || verb == Verb::kCsm || verb == Verb::kMulti;
}

void AppendKv(std::string* out, const char* key, uint64_t value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), " %s=%" PRIu64, key, value);
  *out += buffer;
}

/// Renders a query reply. Replies are deterministic for a given (graph,
/// request): timing lives in the STATS histogram, not here, so scripted
/// sessions can be compared byte-for-byte. The trace=1 breakdown keeps
/// that property — it renders phase *counters* only, never durations.
std::string FormatQueryReply(const SearchResult& result,
                             uint64_t member_limit, bool trace) {
  const obs::QueryTelemetry& telemetry = result.telemetry;
  const Community& community = result.Best();
  // A CSM or MULTI under a member limit lists only its first members; n
  // and truncated= count the full answer either way.
  const uint64_t answer_size = result.AnswerSize();
  std::string reply = "OK status=";
  reply += TerminationName(result.status);
  AppendKv(&reply, "n", answer_size);
  AppendKv(&reply, "delta", community.min_degree);
  AppendKv(&reply, "visited", telemetry.TotalVisited());
  reply += " members=";
  const size_t shown =
      member_limit == 0
          ? community.members.size()
          : std::min<size_t>(member_limit, community.members.size());
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) reply += ',';
    reply += std::to_string(community.members[i]);
  }
  if (shown < answer_size) {
    AppendKv(&reply, "truncated", answer_size - shown);
  }
  if (trace) {
    AppendKv(&reply, "scanned", telemetry.TotalScanned());
    AppendKv(&reply, "fallback", telemetry.used_global_fallback ? 1 : 0);
    // One block per entered phase:
    //   <name>:<entered>:<visited>:<scanned>:<cand_gen>:<cand_rej>:<budget>
    reply += " phases=";
    bool first = true;
    for (size_t i = 0; i < obs::kNumPhases; ++i) {
      const obs::PhaseStats& ph = telemetry.phases[i];
      if (ph.entered == 0) continue;
      if (!first) reply += ',';
      first = false;
      reply += obs::PhaseName(static_cast<obs::Phase>(i));
      for (const uint64_t value :
           {ph.entered, ph.vertices_visited, ph.edges_scanned,
            ph.candidates_generated, ph.candidates_rejected,
            ph.budget_spent}) {
        reply += ':';
        reply += std::to_string(value);
      }
    }
    if (first) reply += '-';  // no phase ran (e.g. core-index negative)
  }
  return reply;
}

}  // namespace

Session::Session(Transport& transport, GraphRegistry& registry,
                 AdmissionController& admission, ServerMetrics& metrics,
                 const SessionOptions& options)
    : transport_(transport),
      registry_(registry),
      admission_(admission),
      metrics_(metrics),
      options_(options) {
  metrics_.CountSessionOpened();
}

Session::~Session() { metrics_.CountSessionClosed(); }

void Session::Run() {
  std::string line;
  while (true) {
    const Transport::ReadStatus status = transport_.ReadLine(&line);
    if (status == Transport::ReadStatus::kEof ||
        status == Transport::ReadStatus::kError) {
      return;
    }
    if (status == Transport::ReadStatus::kTimeout) {
      // Peer started a request and stalled past the io deadline; the
      // parting ERR is best-effort (the peer may already be gone).
      metrics_.CountIoTimeout();
      metrics_.CountError(WireError::kIoTimeout);
      transport_.WriteLine(
          FormatError(WireError::kIoTimeout, "request stalled; closing"));
      return;
    }
    if (status == Transport::ReadStatus::kIdleTimeout) {
      // Idle reaper: a quiet-but-open connection gives its thread back.
      metrics_.CountIdleReaped();
      transport_.WriteLine(
          FormatError(WireError::kIoTimeout, "idle; closing"));
      return;
    }
    if (status == Transport::ReadStatus::kTooLong) {
      ++requests_handled_;
      metrics_.CountError(WireError::kLineTooLong);
      if (!transport_.WriteLine(FormatError(WireError::kLineTooLong,
                                            "request line discarded"))) {
        return;
      }
      continue;
    }
    ParseResult parsed = ParseRequest(line);
    if (parsed.ok() && parsed.request.verb == Verb::kNone) continue;
    ++requests_handled_;
    if (!parsed.ok()) {
      metrics_.CountError(parsed.error);
      if (!transport_.WriteLine(FormatError(parsed.error, parsed.detail))) {
        return;
      }
      continue;
    }
    const Verb verb = parsed.request.verb;
    metrics_.CountRequest(verb);
    // Conservation ledger: every attempted query reaches exactly one of
    // {completed, failed}, counted once its reply is written or lost.
    // All ledger updates live in this single-threaded loop, so the
    // identity is exact.
    const bool is_query = IsQuery(verb);
    if (is_query) metrics_.CountQueryAttempted();
    bool quit = false;
    const std::string reply = Dispatch(parsed.request, &quit);
    const bool written = transport_.WriteLine(reply);
    if (is_query) {
      if (written && reply.compare(0, 2, "OK") == 0) {
        metrics_.CountQueryCompleted();
      } else {
        metrics_.CountQueryFailed();
      }
    }
    if (!written) {
      if (transport_.WriteTimedOut()) metrics_.CountIoTimeout();
      return;
    }
    if (quit || Stopping()) return;
  }
}

std::string Session::Dispatch(const Request& request, bool* quit) {
  switch (request.verb) {
    case Verb::kPing:
      return "OK pong";
    case Verb::kQuit:
      *quit = true;
      return "OK bye";
    case Verb::kStats:
      return ExecStats();
    case Verb::kList:
      return ExecList();
    case Verb::kEvict:
      return ExecEvict(request);
    case Verb::kLoad:
    case Verb::kLoadImg:
    case Verb::kCst:
    case Verb::kCsm:
    case Verb::kMulti: {
      const bool is_query = IsQuery(request.verb);
      if (Stopping()) {
        metrics_.CountError(WireError::kShuttingDown);
        return FormatError(WireError::kShuttingDown, "server draining");
      }
      // Result-cache lookup, before admission: a hit is answered from
      // memory without a solver run, so it neither takes a ticket nor
      // competes with real queries for a slot. The key pins the
      // registry's *current* epoch for the graph — a reply cached
      // against an evicted or replaced generation can never match.
      if (is_query && options_.cache != nullptr) {
        if (const auto entry = registry_.Get(request.graph)) {
          WallTimer timer;
          std::string reply;
          if (options_.cache->Lookup(MakeCacheKey(entry->epoch, request),
                                     &reply)) {
            metrics_.CountCacheHit();
            metrics_.RecordLatencyUs(static_cast<uint64_t>(timer.Micros()));
            return reply;
          }
          metrics_.CountCacheMiss();
        }
      }
      // Admission gates the expensive verbs: graph loads and queries.
      // Cheap control verbs above bypass it so STATS stays responsive
      // under load — exactly when it is most needed.
      AdmissionTicket ticket(admission_);
      std::string cache_key;
      std::string reply =
          is_query ? ExecQuery(request, &cache_key) : ExecLoad(request);
      if (options_.max_reply_bytes != 0 &&
          reply.size() > options_.max_reply_bytes) {
        metrics_.CountError(WireError::kReplyTooLarge);
        reply = FormatError(
            WireError::kReplyTooLarge,
            "reply of " + std::to_string(reply.size()) +
                " bytes exceeds cap " +
                std::to_string(options_.max_reply_bytes) +
                "; page with limit=");
        cache_key.clear();  // never cache a reply the cap replaced
      }
      if (!cache_key.empty()) {
        const size_t evicted = options_.cache->Insert(cache_key, reply);
        metrics_.CountCacheInsert();
        metrics_.CountCacheEvictions(evicted);
      }
      return reply;
    }
    case Verb::kNone:
      break;
  }
  metrics_.CountError(WireError::kUnknownVerb);
  return FormatError(WireError::kUnknownVerb, "unhandled verb");
}

std::string Session::ExecLoad(const Request& request) {
  IoError io_error;
  bool full = false;
  bool image_attempted = false;
  const auto source = request.verb == Verb::kLoadImg
                          ? GraphRegistry::LoadSource::kImage
                          : GraphRegistry::LoadSource::kAuto;
  const auto entry = registry_.Load(request.graph, request.path, &io_error,
                                    &full, source, &image_attempted);
  if (entry == nullptr) {
    if (full) {
      metrics_.CountError(WireError::kRegistryFull);
      return FormatError(WireError::kRegistryFull,
                         "registry holds " +
                             std::to_string(registry_.max_graphs()) +
                             " graphs; EVICT one first");
    }
    if (image_attempted) metrics_.CountImageLoadError();
    metrics_.CountError(WireError::kIo);
    return FormatError(
        WireError::kIo,
        std::string(IoErrorKindName(io_error.kind)) + ": " +
            io_error.message);
  }
  if (entry->from_image) metrics_.CountImageLoad();
  std::string reply = "OK graph=" + entry->name;
  AppendKv(&reply, "vertices", entry->graph.NumVertices());
  AppendKv(&reply, "edges", entry->graph.NumEdges());
  AppendKv(&reply, "degeneracy", entry->index.Degeneracy());
  reply += entry->from_image ? " source=image" : " source=text";
  AppendKv(&reply, "load_ms", static_cast<uint64_t>(entry->load_ms));
  AppendKv(&reply, "build_ms", static_cast<uint64_t>(entry->build_ms));
  return reply;
}

std::string Session::ExecEvict(const Request& request) {
  if (!registry_.Evict(request.graph)) {
    metrics_.CountError(WireError::kUnknownGraph);
    return FormatError(WireError::kUnknownGraph,
                       "no graph named '" + request.graph + "'");
  }
  return "OK evicted=" + request.graph;
}

std::string Session::ExecList() {
  const auto infos = registry_.List();
  std::string reply = "OK";
  AppendKv(&reply, "graphs", infos.size());
  for (const auto& info : infos) {
    reply += ' ';
    reply += info.name;
    reply += ':';
    reply += std::to_string(info.vertices);
    reply += ':';
    reply += std::to_string(info.edges);
  }
  return reply;
}

std::string Session::ExecStats() {
  const AdmissionController::Counts counts = admission_.Snapshot();
  return metrics_.Snapshot().RenderStatsLine(counts.inflight,
                                             counts.queued,
                                             registry_.size());
}

QueryLimits Session::EffectiveLimits(const QueryLimits& requested) const {
  QueryLimits limits = requested;
  if (limits.deadline_ms <= 0.0) {
    limits.deadline_ms = options_.default_deadline_ms;
  }
  if (options_.max_deadline_ms > 0.0 &&
      (limits.deadline_ms <= 0.0 ||
       limits.deadline_ms > options_.max_deadline_ms)) {
    limits.deadline_ms = options_.max_deadline_ms;
  }
  if (limits.work_budget == 0) {
    limits.work_budget = options_.default_work_budget;
  }
  if (options_.max_work_budget != 0 &&
      (limits.work_budget == 0 ||
       limits.work_budget > options_.max_work_budget)) {
    limits.work_budget = options_.max_work_budget;
  }
  return limits;
}

std::string Session::ExecQuery(const Request& request,
                               std::string* cache_key) {
  // The lease ends with this query, inside Dispatch's admission ticket:
  // an entry never has more searchers out than there are slots.
  bool refused = false;
  GraphRegistry::Lease lease =
      registry_.LeaseSearcher(request.graph, &refused);
  if (!lease) {
    if (refused) {
      metrics_.CountError(WireError::kInternal);
      return FormatError(
          WireError::kInternal,
          "out of memory binding graph '" + request.graph + "'");
    }
    metrics_.CountError(WireError::kUnknownGraph);
    return FormatError(WireError::kUnknownGraph,
                       "no graph named '" + request.graph + "'");
  }
  // Test hook: holds the slot and the lease long enough that other
  // queries must wait for the slot, or a LOAD can replace the entry
  // (see serve_session_test's saturation and pool coverage).
  if (LOCS_FAILPOINT("serve.slow_query")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  CommunitySearcher& searcher = lease.searcher();
  // The server-wide aggregate feeds the STATS line's per-phase totals.
  searcher.set_recorder(&metrics_.recorder());
  const Graph& graph = searcher.graph();
  for (const VertexId v : request.vertices) {
    if (v >= graph.NumVertices()) {
      metrics_.CountError(WireError::kVertexRange);
      return FormatError(WireError::kVertexRange,
                         "vertex " + std::to_string(v) +
                             " out of range [0, " +
                             std::to_string(graph.NumVertices()) + ")");
    }
  }
  if (request.verb == Verb::kMulti && request.vertices.size() > 1) {
    std::unordered_set<VertexId> seen(request.vertices.begin(),
                                      request.vertices.end());
    if (seen.size() != request.vertices.size()) {
      metrics_.CountError(WireError::kDuplicateVertex);
      return FormatError(WireError::kDuplicateVertex,
                         "MULTI query vertices must be distinct");
    }
  }

  // Chaos hook: a solver-dispatch fault degrades to a typed ERR on this
  // one request; the session (and every other session) keeps serving.
  if (LOCS_FAILPOINT("serve.solver.error")) {
    metrics_.CountError(WireError::kInternal);
    return FormatError(WireError::kInternal, "injected solver fault");
  }

  const uint64_t member_limit = request.member_limit != 0
                                    ? request.member_limit
                                    : options_.default_member_limit;
  WallTimer timer;
  QueryGuard guard(EffectiveLimits(request.limits));
  SearchResult result;
  switch (request.verb) {
    case Verb::kCst:
      result = searcher.Cst(request.vertices[0], request.k, {}, &guard);
      break;
    case Verb::kCsm:
      result = searcher.Csm(request.vertices[0], &guard, member_limit);
      break;
    case Verb::kMulti:
      result = request.multi_max
                   ? searcher.CsmMulti(request.vertices, &guard, member_limit)
                   : searcher.CstMulti(request.vertices, request.k, &guard,
                                       member_limit);
      break;
    default:
      return FormatError(WireError::kUnknownVerb, "not a query verb");
  }
  metrics_.RecordLatencyUs(static_cast<uint64_t>(timer.Micros()));
  if (result.Interrupted()) metrics_.CountInterrupted();
  // Admit only settled results: an interrupted reply reflects where the
  // guard happened to trip, not a deterministic function of the key.
  // The insert key uses the epoch of the entry that answered (not the
  // registry's current one), keeping key and value consistent even if a
  // re-LOAD raced this query.
  if (options_.cache != nullptr && !result.Interrupted()) {
    *cache_key = MakeCacheKey(lease.entry().epoch, request);
  }
  return FormatQueryReply(result, member_limit, request.trace);
}

std::string Session::MakeCacheKey(uint64_t epoch,
                                  const Request& request) const {
  const QueryLimits limits = EffectiveLimits(request.limits);
  const uint64_t member_limit = request.member_limit != 0
                                    ? request.member_limit
                                    : options_.default_member_limit;
  std::string key = std::to_string(epoch);
  key += '|';
  key += VerbName(request.verb);
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer),
                "|%" PRIu32 "|%d|%.17g|%" PRIu64 "|%" PRIu64 "|%d",
                request.k, request.multi_max ? 1 : 0, limits.deadline_ms,
                limits.work_budget, member_limit, request.trace ? 1 : 0);
  key += buffer;
  for (const VertexId v : request.vertices) {
    key += '|';
    key += std::to_string(v);
  }
  return key;
}

}  // namespace locs::serve
