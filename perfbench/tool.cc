// perfbench_tool — the compiled half of the end-to-end benchmark driven by
// run.py (see README.md for the workloads and the metric map).
//
//   perfbench_tool gen --seed=S --scale=X --out=EDGES --labels=FILE
//                      --joined=FILE
//       the livejournal-sim LFR stand-in (largest component) as a text
//       edge list, generated through the public gen API; "degree
//       community" per served id (the planted LFR communities) for each
//       of the two orders a loader may number a line's endpoints in; and
//       "s", then the community pairs joined by an s-core edge
//   perfbench_tool coreinfo --image=LIMG --out=FILE
//       "vertices edges degeneracy", then "degree core" per served id
//   perfbench_tool compile-phases --input=EDGES --out=LIMG
//       `locs_cli compile` split into parse / index / write (JSON)
//   perfbench_tool replay --image=LIMG --requests=FILE --cache-entries=N
//                         [--spans-out=FILE]
//       the traced in-process replay of a request list (JSON)
//
// The replay performs, per request, the public calls a serve::Session
// makes, in its order: ParseRequest; GraphRegistry::Get, or Load for
// LOADIMG; ResultCache::Lookup; CoreIndex::HasCst; the solver call;
// ResultCache::Insert. Constructing the three solvers stands in for
// Session's Bind, on a connection's first query and after a reload. Each
// request line of the input is "<connection>\t<wire line>"; a QUIT line
// ends its connection's solvers.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/core_index.h"
#include "core/local_csm.h"
#include "core/local_cst.h"
#include "core/multi.h"
#include "gen/lfr.h"
#include "graph/io.h"
#include "graph/ordering.h"
#include "graph/traversal.h"
#include "obs/recorder.h"
#include "serve/registry.h"
#include "serve/result_cache.h"
#include "serve/wire.h"
#include "store/image.h"
#include "util/guard.h"

namespace locs::perfbench {
namespace {

using serve::Verb;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// --key=value flags; positional arguments are rejected.
std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "error: expected --key=value, got '%s'\n",
                   arg.c_str());
      std::exit(2);
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

std::string Require(const std::map<std::string, std::string>& flags,
                    const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end() || it->second.empty()) {
    std::fprintf(stderr, "error: --%s is required\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

[[noreturn]] void Fail(const std::string& what, const IoError& error) {
  std::fprintf(stderr, "error: %s (%s): %s\n", what.c_str(),
               std::string(IoErrorKindName(error.kind)).c_str(),
               error.message.c_str());
  std::exit(1);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Resident set size of this process in MB (from /proc/self/statm).
double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * 4096.0 / (1024.0 * 1024.0);
}

// --------------------------------------------------------------- gen

int CmdGen(const std::map<std::string, std::string>& flags) {
  const uint64_t seed = std::strtoull(Require(flags, "seed").c_str(),
                                      nullptr, 10);
  const double scale = std::atof(Require(flags, "scale").c_str());
  const std::string out = Require(flags, "out");
  // The livejournal-sim recipe of the figure benches (paper Table 2's
  // largest graph), seeded by the caller.
  gen::LfrParams params;
  params.n = static_cast<VertexId>(200000.0 * scale);
  params.degree_exponent = 2.3;
  params.min_degree = 6;
  params.max_degree = 350;
  params.min_community = 30;
  params.max_community = 500;
  params.mu = 0.10;
  params.seed = seed;
  const gen::LfrGraph lfr = gen::Lfr(params);
  const MappedSubgraph component = ExtractLargestComponent(lfr.graph);
  const Graph& graph = component.graph;
  if (!SaveEdgeList(graph, out)) {
    std::fprintf(stderr, "error: could not write '%s'\n", out.c_str());
    return 1;
  }
  // Planted communities by served id. The loader numbers vertices in
  // order of first appearance, and SaveEdgeList writes "u v" for u < v in
  // ascending u; which endpoint of a line is numbered first is up to the
  // compiler, so both orders are written and the run keeps the one whose
  // degrees match the compiled image.
  std::FILE* labels = std::fopen(Require(flags, "labels").c_str(), "w");
  if (labels == nullptr) {
    std::fprintf(stderr, "error: could not open labels output\n");
    return 1;
  }
  for (const bool left_first : {true, false}) {
    std::vector<bool> seen(graph.NumVertices(), false);
    auto appear = [&](VertexId x) {
      if (seen[x]) return;
      seen[x] = true;
      std::fprintf(labels, "%u %u\n", graph.Degree(x),
                   lfr.community[component.original_id[x]]);
    };
    for (VertexId u = 0; u < graph.NumVertices(); ++u) {
      for (const VertexId v : graph.Neighbors(u)) {
        if (u >= v) continue;
        appear(left_first ? u : v);
        appear(left_first ? v : u);
      }
    }
  }
  if (std::fclose(labels) != 0) return 1;
  // Pairs of planted communities joined by an edge inside the s-core
  // (s = degeneracy / 10). MULTI seeds from two communities that are not
  // joined share no s-core edge, so every such query spans the s-core
  // component and its latency is unimodal.
  const CoreIndex index(graph);
  const uint32_t s = std::max<uint32_t>(1, index.Degeneracy() / 10);
  std::vector<std::pair<uint32_t, uint32_t>> joined;
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    if (index.CoreNumber(u) < s) continue;
    const uint32_t cu = lfr.community[component.original_id[u]];
    for (const VertexId v : graph.Neighbors(u)) {
      const uint32_t cv = lfr.community[component.original_id[v]];
      if (u < v && cu != cv && index.CoreNumber(v) >= s) {
        joined.emplace_back(std::min(cu, cv), std::max(cu, cv));
      }
    }
  }
  std::sort(joined.begin(), joined.end());
  joined.erase(std::unique(joined.begin(), joined.end()), joined.end());
  std::FILE* adjacent = std::fopen(Require(flags, "joined").c_str(), "w");
  if (adjacent == nullptr) {
    std::fprintf(stderr, "error: could not open joined output\n");
    return 1;
  }
  std::fprintf(adjacent, "%u\n", s);
  for (const auto& [a, b] : joined) std::fprintf(adjacent, "%u %u\n", a, b);
  if (std::fclose(adjacent) != 0) return 1;
  std::printf("vertices=%u edges=%" PRIu64 "\n",
              component.graph.NumVertices(), component.graph.NumEdges());
  return 0;
}

// ----------------------------------------------------------- coreinfo

int CmdCoreInfo(const std::map<std::string, std::string>& flags) {
  const std::string image_path = Require(flags, "image");
  IoError error;
  const auto image = store::LoadGraphImage(image_path, &error);
  if (!image.has_value()) Fail("could not load " + image_path, error);
  std::FILE* out = std::fopen(Require(flags, "out").c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: could not open output\n");
    return 1;
  }
  const Graph& graph = image->graph;
  const CoreIndex& index = image->index;
  std::fprintf(out, "%u %" PRIu64 " %u\n", graph.NumVertices(),
               graph.NumEdges(), index.Degeneracy());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    std::fprintf(out, "%u %u\n", graph.Degree(v), index.CoreNumber(v));
  }
  return std::fclose(out) == 0 ? 0 : 1;
}

// ------------------------------------------------------ compile-phases

int CmdCompilePhases(const std::map<std::string, std::string>& flags) {
  const std::string input = Require(flags, "input");
  const std::string out = Require(flags, "out");
  IoError error;
  const uint64_t t0 = NowNs();
  const auto graph = LoadEdgeList(input, &error);
  if (!graph.has_value()) Fail("could not load " + input, error);
  const uint64_t t1 = NowNs();
  const GraphFacts facts = GraphFacts::Compute(*graph);
  const OrderedAdjacency ordered(*graph);
  const CoreIndex index(*graph);
  const uint64_t t2 = NowNs();
  if (!store::WriteGraphImage(*graph, facts, ordered, index, out, &error)) {
    Fail("could not write " + out, error);
  }
  const uint64_t t3 = NowNs();
  std::printf("{\"parse_s\": %.9f, \"index_s\": %.9f, \"write_s\": %.9f}\n",
              Seconds(t1 - t0), Seconds(t2 - t1), Seconds(t3 - t2));
  return 0;
}

// -------------------------------------------------------------- replay

/// Stage names of the span tree. A request span parents its stages; a
/// solve span parents one span per solver phase that ran.
enum Stage : uint32_t {
  kRequest,
  kParse,
  kRegistryGet,
  kRegistryLoad,
  kCacheLookup,
  kBind,
  kCoreIndex,
  kSolve,
  kCacheInsert,
  kPhaseBase,  // + obs::Phase
};

constexpr uint32_t kNumStages = kPhaseBase + obs::kNumPhases;

const char* StageName(uint32_t stage) {
  static const char* const kNames[kNumStages] = {
      "request",         "parse",       "registry.get", "registry.load",
      "cache.lookup",    "bind",        "core_index",   "solve",
      "cache.insert",    "admission",   "expansion",    "candidates",
      "core",            "connectivity"};
  return kNames[stage];
}

constexpr uint32_t kNoSpan = UINT32_MAX;

struct Span {
  uint32_t stage;
  uint32_t parent;   // index into the span log, or kNoSpan
  uint32_t request;  // request id (line index of the request file)
  uint64_t start_ns;
  uint64_t end_ns;
};

/// In-memory span log. With spans off, Open/Close never read a clock.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  bool on() const { return on_; }

  uint32_t Open(uint32_t stage, uint32_t parent, uint32_t request) {
    if (!on_) return kNoSpan;
    spans_.push_back({stage, parent, request, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }

  void Close(uint32_t span) {
    if (span != kNoSpan) spans_[span].end_ns = NowNs();
  }

  void Add(uint32_t stage, uint32_t parent, uint32_t request,
           uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back({stage, parent, request, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const Span& at(uint32_t span) const { return spans_[span]; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Phase durations come from the solvers' own PhaseTracker; this sink
/// only switches timing on (the telemetry rides back in SearchResult).
class TimingRecorder : public obs::Recorder {
 public:
  bool timing_enabled() const override { return true; }
};

/// The solvers Session::Bind constructs for one connection.
struct BoundSolvers {
  std::shared_ptr<const serve::ServedGraph> entry;
  LocalCstSolver cst;
  LocalCsmSolver csm;
  LocalMultiSolver multi;

  BoundSolvers(std::shared_ptr<const serve::ServedGraph> bound,
               obs::Recorder* recorder)
      : entry(std::move(bound)),
        cst(entry->graph, &entry->ordered, &entry->facts),
        csm(entry->graph, &entry->ordered, &entry->facts),
        multi(entry->graph, &entry->ordered, &entry->facts) {
    cst.set_recorder(recorder);
    csm.set_recorder(recorder);
    multi.set_recorder(recorder);
  }
};

/// Same key fields as Session's result-cache key (server defaults: no
/// deadline, no budget, member limit from the request).
std::string CacheKey(uint64_t epoch, const serve::Request& request) {
  std::string key = std::to_string(epoch);
  key += '|';
  key += serve::VerbName(request.verb);
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer),
                "|%" PRIu32 "|%d|%.17g|%.17g|%" PRIu64 "|%" PRIu64 "|%d",
                request.k, request.multi_max ? 1 : 0, request.gamma, 0.0,
                uint64_t{0}, request.member_limit, request.trace ? 1 : 0);
  key += buffer;
  for (const VertexId v : request.vertices) {
    key += '|';
    key += std::to_string(v);
  }
  return key;
}

/// A reply of the same shape as the server's (rendering is private to
/// Session; its cost lands in the request's self time).
std::string RenderReply(const SearchResult& result, uint64_t member_limit) {
  const Community& community = result.Best();
  std::string reply = "OK status=";
  reply += TerminationName(result.status);
  reply += " n=" + std::to_string(community.members.size());
  reply += " delta=" + std::to_string(community.min_degree);
  reply += " visited=" + std::to_string(result.telemetry.TotalVisited());
  reply += " members=";
  const size_t shown =
      member_limit == 0
          ? community.members.size()
          : std::min<size_t>(member_limit, community.members.size());
  for (size_t i = 0; i < shown; ++i) {
    if (i > 0) reply += ',';
    reply += std::to_string(community.members[i]);
  }
  return reply;
}

struct ReplayLine {
  uint32_t connection;
  std::string line;
};

/// What one request did, for the per-layer aggregates.
struct RequestRecord {
  Verb verb = Verb::kNone;
  bool cache_hit = false;
  bool index_negative = false;
  bool solved = false;
  uint64_t evictions = 0;
  obs::QueryTelemetry telemetry;
};

struct PassResult {
  uint64_t wall_ns = 0;
  std::vector<RequestRecord> records;
  std::vector<double> store_open_ms;  // ServedGraph::load_ms per load
  uint64_t binds = 0;
};

/// One pass over the request list against a fresh registry and cache.
PassResult RunPass(const std::vector<ReplayLine>& lines,
                   const std::string& image_path, size_t cache_entries,
                   SpanLog* log) {
  serve::GraphRegistry registry;
  std::unique_ptr<serve::ResultCache> cache;
  if (cache_entries > 0) {
    cache = std::make_unique<serve::ResultCache>(cache_entries);
  }
  TimingRecorder timing;
  obs::Recorder* recorder = log->on() ? &timing : &obs::Recorder::Null();
  std::map<uint32_t, std::unique_ptr<BoundSolvers>> sessions;
  PassResult pass;
  pass.records.resize(lines.size());

  auto load = [&](uint32_t parent, uint32_t id) {
    IoError error;
    bool full = false;
    const uint32_t span = log->Open(kRegistryLoad, parent, id);
    const auto entry = registry.Load(
        "g", image_path, &error, &full,
        serve::GraphRegistry::LoadSource::kImage);
    log->Close(span);
    if (entry == nullptr) Fail("replay LOADIMG " + image_path, error);
    pass.store_open_ms.push_back(entry->load_ms);
  };
  // The setup LOADIMG every run sends before its traffic (id = n).
  const uint32_t setup_id = static_cast<uint32_t>(lines.size());
  {
    const uint32_t root = log->Open(kRequest, kNoSpan, setup_id);
    load(root, setup_id);
    log->Close(root);
  }

  const uint64_t start = NowNs();
  for (uint32_t id = 0; id < lines.size(); ++id) {
    RequestRecord& record = pass.records[id];
    const uint32_t root = log->Open(kRequest, kNoSpan, id);
    uint32_t span = log->Open(kParse, root, id);
    const serve::ParseResult parsed = serve::ParseRequest(lines[id].line);
    log->Close(span);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: replay line %u does not parse: %s\n", id,
                   parsed.detail.c_str());
      std::exit(1);
    }
    const serve::Request& request = parsed.request;
    record.verb = request.verb;
    std::unique_ptr<BoundSolvers>& session = sessions[lines[id].connection];
    if (request.verb == Verb::kQuit) {
      session.reset();
      log->Close(root);
      continue;
    }
    if (request.verb == Verb::kLoadImg) {
      load(root, id);
      log->Close(root);
      continue;
    }
    span = log->Open(kRegistryGet, root, id);
    std::shared_ptr<const serve::ServedGraph> entry =
        registry.Get(request.graph);
    log->Close(span);
    if (cache != nullptr) {
      std::string reply;
      span = log->Open(kCacheLookup, root, id);
      record.cache_hit = cache->Lookup(CacheKey(entry->epoch, request),
                                       &reply);
      log->Close(span);
      if (record.cache_hit) {
        log->Close(root);
        continue;
      }
    }
    if (session == nullptr || session->entry != entry) {
      span = log->Open(kBind, root, id);
      session = std::make_unique<BoundSolvers>(entry, recorder);
      log->Close(span);
      ++pass.binds;
    }
    QueryGuard guard{QueryLimits{}};
    SearchResult result;
    const CoreIndex& index = session->entry->index;
    bool possible = true;
    if (request.verb == Verb::kCst || request.verb == Verb::kMulti) {
      span = log->Open(kCoreIndex, root, id);
      for (const VertexId v : request.vertices) {
        if (!index.HasCst(v, request.k)) {
          possible = false;
          break;
        }
      }
      log->Close(span);
    }
    record.index_negative = !possible;
    if (!possible) {
      result = SearchResult::MakeNotExists();
    } else {
      const uint32_t solve = log->Open(kSolve, root, id);
      if (request.verb == Verb::kCst) {
        result = session->cst.Solve(request.vertices[0], request.k, {},
                                    nullptr, &guard);
      } else if (request.verb == Verb::kCsm) {
        CsmOptions options;
        options.gamma = request.gamma;
        result = session->csm.Solve(request.vertices[0], options, nullptr,
                                    &guard);
      } else {
        result = session->multi.CstMulti(request.vertices, request.k,
                                         nullptr, &guard);
      }
      log->Close(solve);
      record.solved = true;
      record.telemetry = result.telemetry;
      if (log->on()) {
        // The tracker's phase totals, laid end to end from the solve
        // start: each phase becomes one child span of the solve.
        uint64_t at = log->at(solve).start_ns;
        for (size_t p = 0; p < obs::kNumPhases; ++p) {
          const uint64_t ns = result.telemetry.phases[p].duration_ns;
          if (ns == 0) continue;
          log->Add(kPhaseBase + static_cast<uint32_t>(p), solve, id, at,
                   at + ns);
          at += ns;
        }
      }
    }
    const std::string reply = RenderReply(result, request.member_limit);
    if (cache != nullptr && !result.Interrupted()) {
      span = log->Open(kCacheInsert, root, id);
      record.evictions =
          cache->Insert(CacheKey(session->entry->epoch, request), reply);
      log->Close(span);
    }
    log->Close(root);
  }
  pass.wall_ns = NowNs() - start;
  return pass;
}

/// Checks that each span lies inside its parent and siblings do not
/// overlap, so self times (duration minus children) partition every
/// request's time. Returns the largest violation in ns (0 when exact).
uint64_t PartitionError(const std::vector<Span>& spans,
                        std::vector<uint64_t>* self_ns) {
  self_ns->assign(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    (*self_ns)[i] = spans[i].end_ns - spans[i].start_ns;
  }
  uint64_t worst = 0;
  auto note = [&worst](uint64_t a, uint64_t b) {
    if (a > b) worst = std::max(worst, a - b);
  };
  std::vector<uint64_t> last_child_end(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent == kNoSpan) continue;
    const Span& parent = spans[span.parent];
    note(parent.start_ns, span.start_ns);
    note(span.end_ns, parent.end_ns);
    note(last_child_end[span.parent], span.start_ns);
    last_child_end[span.parent] = span.end_ns;
    const uint64_t duration = span.end_ns - span.start_ns;
    uint64_t& parent_self = (*self_ns)[span.parent];
    if (duration > parent_self) {
      worst = std::max(worst, duration - parent_self);
      parent_self = 0;
    } else {
      parent_self -= duration;
    }
  }
  return worst;
}

void PrintMetric(bool* first, const char* name, double value) {
  std::printf("%s\"%s\": %.9g", *first ? "" : ", ", name, value);
  *first = false;
}

int CmdReplay(const std::map<std::string, std::string>& flags) {
  const std::string image_path = Require(flags, "image");
  const std::string requests_path = Require(flags, "requests");
  const size_t cache_entries = static_cast<size_t>(
      std::strtoull(Require(flags, "cache-entries").c_str(), nullptr, 10));
  const auto spans_out = flags.find("spans-out");

  std::vector<ReplayLine> lines;
  {
    std::ifstream in(requests_path);
    std::string row;
    while (std::getline(in, row)) {
      const size_t tab = row.find('\t');
      if (tab == std::string::npos) continue;
      lines.push_back({static_cast<uint32_t>(std::stoul(row.substr(0, tab))),
                       row.substr(tab + 1)});
    }
  }
  if (lines.empty()) {
    std::fprintf(stderr, "error: no requests in '%s'\n",
                 requests_path.c_str());
    return 1;
  }

  // One session's solver scratch: the resident growth of one Bind.
  double scratch_mb = 0.0;
  {
    serve::GraphRegistry registry;
    IoError error;
    bool full = false;
    const auto entry =
        registry.Load("g", image_path, &error, &full,
                      serve::GraphRegistry::LoadSource::kImage);
    if (entry == nullptr) Fail("could not load " + image_path, error);
    const double before = ResidentMb();
    const auto solvers =
        std::make_unique<BoundSolvers>(entry, &obs::Recorder::Null());
    scratch_mb = ResidentMb() - before;
  }

  // Spans off / on alternate twice; the overhead compares the faster of
  // each pair, and the aggregates come from the last traced pass.
  uint64_t off_ns = UINT64_MAX;
  uint64_t on_ns = UINT64_MAX;
  SpanLog traced(true);
  PassResult pass;
  for (int round = 0; round < 2; ++round) {
    SpanLog untraced(false);
    off_ns = std::min(
        off_ns, RunPass(lines, image_path, cache_entries, &untraced).wall_ns);
    traced = SpanLog(true);
    pass = RunPass(lines, image_path, cache_entries, &traced);
    on_ns = std::min(on_ns, pass.wall_ns);
  }
  const std::vector<Span>& spans = traced.spans();
  std::vector<uint64_t> self_ns;
  const uint64_t partition_error_ns = PartitionError(spans, &self_ns);

  if (spans_out != flags.end()) {
    std::FILE* out = std::fopen(spans_out->second.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: could not open spans output\n");
      return 1;
    }
    std::fprintf(out, "span\tname\tparent\trequest\tstart_ns\tend_ns\n");
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out, "%zu\t%s\t%lld\t%u\t%" PRIu64 "\t%" PRIu64 "\n", i,
                   StageName(s.stage),
                   s.parent == kNoSpan ? -1LL
                                       : static_cast<long long>(s.parent),
                   s.request, s.start_ns, s.end_ns);
    }
    std::fclose(out);
  }

  // Per-stage durations and per-request in-process times.
  std::vector<uint64_t> root_ns(lines.size() + 1, 0);
  std::vector<uint64_t> solve_ns(lines.size(), 0);
  std::vector<std::vector<double>> stage_us(kNumStages);
  std::vector<uint64_t> stage_self_ns(kNumStages, 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const uint64_t ns = s.end_ns - s.start_ns;
    stage_us[s.stage].push_back(static_cast<double>(ns) * 1e-3);
    stage_self_ns[s.stage] += self_ns[i];
    if (s.stage == kRequest) root_ns[s.request] = ns;
    if (s.stage == kSolve) solve_ns[s.request] = ns;
  }

  // Solver-layer aggregates by verb.
  obs::QueryTelemetry cst;
  obs::QueryTelemetry csm;
  uint64_t cst_solves = 0;
  uint64_t cst_fallbacks = 0;
  uint64_t cst_index_checks = 0;
  uint64_t cst_negatives = 0;
  uint64_t cst_solve_ns = 0;
  uint64_t csm_solve_ns = 0;
  uint64_t multi_visited = 0;
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t evictions = 0;
  std::vector<double> multi_ms;
  for (size_t id = 0; id < pass.records.size(); ++id) {
    const RequestRecord& r = pass.records[id];
    if (r.verb == Verb::kCst || r.verb == Verb::kCsm ||
        r.verb == Verb::kMulti) {
      if (cache_entries > 0) ++lookups;
      if (r.cache_hit) ++hits;
    }
    evictions += r.evictions;
    if (r.cache_hit) continue;
    if (r.verb == Verb::kCst) {
      ++cst_index_checks;
      if (r.index_negative) ++cst_negatives;
      if (r.solved) {
        ++cst_solves;
        cst.Merge(r.telemetry);
        if (r.telemetry.used_global_fallback) ++cst_fallbacks;
        cst_solve_ns += solve_ns[id];
      }
    } else if (r.verb == Verb::kCsm && r.solved) {
      csm.Merge(r.telemetry);
      csm_solve_ns += solve_ns[id];
    } else if (r.verb == Verb::kMulti && r.solved) {
      multi_visited += r.telemetry.TotalVisited();
      multi_ms.push_back(static_cast<double>(solve_ns[id]) * 1e-6);
    }
  }
  auto phase_s = [](const obs::QueryTelemetry& t, obs::Phase phase) {
    return Seconds(t[phase].duration_ns);
  };
  auto per = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };

  std::printf("{\"metrics\": {");
  bool first = true;
  PrintMetric(&first, "cst.expansion_s", phase_s(cst, obs::Phase::kExpansion));
  PrintMetric(&first, "cst.ns_per_visited",
              per(cst_solve_ns, cst.TotalVisited()));
  PrintMetric(&first, "cst.ns_per_scanned",
              per(cst_solve_ns, cst.TotalScanned()));
  PrintMetric(&first, "cst.core_s",
              phase_s(cst, obs::Phase::kCoreDecomposition));
  PrintMetric(&first, "cst.connectivity_s",
              phase_s(cst, obs::Phase::kConnectivity));
  PrintMetric(&first, "cst.fallback_share", per(cst_fallbacks, cst_solves));
  PrintMetric(&first, "cst.visited",
              static_cast<double>(cst.TotalVisited()));
  PrintMetric(&first, "cst.scanned",
              static_cast<double>(cst.TotalScanned()));
  PrintMetric(&first, "core_index.negative_share",
              per(cst_negatives, cst_index_checks));
  PrintMetric(&first, "csm.expansion_s", phase_s(csm, obs::Phase::kExpansion));
  PrintMetric(&first, "csm.candidates_s",
              phase_s(csm, obs::Phase::kCandidates));
  PrintMetric(&first, "csm.core_s",
              phase_s(csm, obs::Phase::kCoreDecomposition));
  PrintMetric(&first, "csm.connectivity_s",
              phase_s(csm, obs::Phase::kConnectivity));
  PrintMetric(&first, "csm.ns_per_visited",
              per(csm_solve_ns, csm.TotalVisited()));
  PrintMetric(&first, "multi.solve_ms", Median(multi_ms));
  PrintMetric(&first, "multi.visited", static_cast<double>(multi_visited));
  PrintMetric(&first, "session.bind_ms", Median(stage_us[kBind]) * 1e-3);
  PrintMetric(&first, "session.scratch_mb", scratch_mb);
  PrintMetric(&first, "cache.hit_ratio", per(hits, lookups));
  PrintMetric(&first, "cache.lookup_us", Median(stage_us[kCacheLookup]));
  PrintMetric(&first, "cache.insert_us", Median(stage_us[kCacheInsert]));
  PrintMetric(&first, "cache.evictions", static_cast<double>(evictions));
  PrintMetric(&first, "wire.parse_us", Median(stage_us[kParse]));
  PrintMetric(&first, "registry.load_ms",
              Median(stage_us[kRegistryLoad]) * 1e-3);
  PrintMetric(&first, "store.open_ms", Median(pass.store_open_ms));
  PrintMetric(&first, "trace.overhead_pct",
              100.0 * (static_cast<double>(on_ns) -
                       static_cast<double>(off_ns)) /
                  static_cast<double>(off_ns));
  std::printf("}, \"requests\": %zu, \"binds\": %" PRIu64
              ", \"partition_error_ns\": %" PRIu64
              ", \"pass_off_s\": %.6f, \"pass_on_s\": %.6f",
              lines.size(), pass.binds, partition_error_ns, Seconds(off_ns),
              Seconds(on_ns));
  std::printf(", \"stage_self_s\": {");
  first = true;
  for (uint32_t stage = 0; stage < kNumStages; ++stage) {
    if (stage_us[stage].empty()) continue;
    PrintMetric(&first, StageName(stage), Seconds(stage_self_ns[stage]));
  }
  std::printf("}, \"request_ns\": [");
  for (size_t id = 0; id < lines.size(); ++id) {
    std::printf("%s%" PRIu64, id == 0 ? "" : ", ", root_ns[id]);
  }
  std::printf("]}\n");
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_tool gen|coreinfo|compile-phases|replay "
               "--key=value...\n");
  return 2;
}

}  // namespace
}  // namespace locs::perfbench

int main(int argc, char** argv) {
  using namespace locs::perfbench;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);
  if (command == "gen") return CmdGen(flags);
  if (command == "coreinfo") return CmdCoreInfo(flags);
  if (command == "compile-phases") return CmdCompilePhases(flags);
  if (command == "replay") return CmdReplay(flags);
  return Usage();
}
