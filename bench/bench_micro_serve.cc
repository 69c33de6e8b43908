// Closed-loop micro-benchmark of the serving layer's stdio transport:
// in-process sessions over pipe pairs, exactly the locsd --stdio data
// path (FdTransport -> wire parse -> registry -> leased searcher), minus
// process startup. Each client thread issues CST queries in lockstep
// (write one request, block for the reply) against a cached LFR dataset,
// so the measured quantity is serving throughput and round-trip latency,
// not load time.
//
// The sweep runs 1 vs N concurrent sessions (sessions are the serving
// layer's unit of concurrency; the shared registry is read-only, so
// throughput should scale until the machine runs out of cores). Results
// go to stdout as a table and to BENCH_serve.json via the standard
// reporting schema.
//
// A first-query row comes first: what a new session's first CST costs on
// the livejournal-sim stand-in, on a CommunitySearcher built for it (what
// every session paid while each bound its own) against one leased idle
// from the GraphRegistry (what a session pays once an earlier query has
// warmed the entry), in wall time and minor page faults.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/datasets.h"
#include "common/reporting.h"
#include "core/searcher.h"
#include "graph/io.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/metrics.h"
#include "serve/registry.h"
#include "serve/result_cache.h"
#include "serve/session.h"
#include "serve/transport.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace locs::bench {
namespace {

constexpr uint32_t kQueryK = 6;
constexpr char kCacheTag[] = "micro_serve_20k";

/// The served dataset. Generating it also writes the cached image at
/// CachePath(kCacheTag), which the sweep and locsd then load.
Graph MicroServeGraph() {
  gen::LfrParams params;
  params.n = 20000;
  params.min_degree = 5;
  params.max_degree = 80;
  params.min_community = 20;
  params.max_community = 150;
  params.mu = 0.1;
  params.seed = 808;
  return CachedLfrComponent(params, kCacheTag);
}

/// Queries per session; LOCS_BENCH_SCALE multiplies it.
size_t QueriesPerSession() {
  return static_cast<size_t>(2000.0 * BenchScaleFromEnv());
}

constexpr int kFirstQueries = 20;

/// Minor page faults of this process so far.
uint64_t MinorFaults() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

struct FirstQueryPoint {
  uint32_t vertices = 0;
  uint32_t k = 0;
  double fresh_ms = 0.0;      // median: build a searcher, run the CST
  double leased_ms = 0.0;     // median: lease an idle one, run the CST
  double fresh_faults = 0.0;  // mean minor faults over the same spans
  double leased_faults = 0.0;
};

/// Runs kFirstQueries CSTs at k = max(1, δ*/10) from k-core vertices,
/// each twice: once on a searcher built for it (destroyed untimed after,
/// as a session's was at close) and once on a searcher leased idle from
/// the registry entry, which one warm-up query parked there.
FirstQueryPoint MeasureFirstQuery() {
  const std::string name = "livejournal-sim";
  LoadStandIn(name);  // writes the cached image when it is missing
  serve::GraphRegistry registry(1);
  IoError io_error;
  bool full = false;
  const auto entry =
      registry.Load(name, StandInCachePath(name), &io_error, &full);
  if (entry == nullptr) {
    std::fprintf(stderr, "registry load failed: %s\n",
                 io_error.message.c_str());
    std::exit(1);
  }
  FirstQueryPoint point;
  point.vertices = entry->graph.NumVertices();
  point.k = std::max<uint32_t>(1, entry->index.Degeneracy() / 10);
  std::vector<VertexId> sources;
  uint64_t state = 0x5eed;
  while (sources.size() < static_cast<size_t>(kFirstQueries)) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto v = static_cast<VertexId>((state >> 33) % point.vertices);
    if (entry->index.CoreNumber(v) >= point.k) sources.push_back(v);
  }
  bool refused = false;
  registry.LeaseSearcher(name, &refused).searcher().Cst(sources[0], point.k);

  std::vector<double> fresh_ms;
  std::vector<double> leased_ms;
  uint64_t fresh_faults = 0;
  uint64_t leased_faults = 0;
  for (const VertexId v : sources) {
    {
      const uint64_t faults = MinorFaults();
      WallTimer timer;
      CommunitySearcher searcher(entry);
      searcher.Cst(v, point.k);
      fresh_ms.push_back(timer.Millis());
      fresh_faults += MinorFaults() - faults;
    }
    const uint64_t faults = MinorFaults();
    WallTimer timer;
    serve::GraphRegistry::Lease lease = registry.LeaseSearcher(name, &refused);
    lease.searcher().Cst(v, point.k);
    leased_ms.push_back(timer.Millis());
    leased_faults += MinorFaults() - faults;
  }
  point.fresh_ms = Summarize(fresh_ms).median;
  point.leased_ms = Summarize(leased_ms).median;
  point.fresh_faults = static_cast<double>(fresh_faults) / kFirstQueries;
  point.leased_faults = static_cast<double>(leased_faults) / kFirstQueries;
  return point;
}

struct SweepPoint {
  unsigned sessions = 0;
  size_t queries = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Server-side per-query latency p50 from the metrics histogram: on
  /// the cache-hit path this is the lookup cost alone (no solver run),
  /// which the histogram reports as 0 (sub-microsecond bucket).
  uint64_t server_p50_us = 0;
};

/// One closed-loop client driving one session; returns per-query
/// round-trip latencies in microseconds. `pool` < n restricts queries
/// to the first `pool` vertex ids — the repeat-heavy workload whose
/// working set a result cache absorbs (0 = sample the whole graph).
std::vector<double> RunClient(serve::FdTransport& transport, uint32_t n,
                              size_t queries, uint64_t seed,
                              uint32_t pool) {
  const uint32_t range = pool == 0 ? n : std::min(pool, n);
  std::vector<double> latencies;
  latencies.reserve(queries);
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  std::string reply;
  for (size_t q = 0; q < queries; ++q) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint32_t vertex = static_cast<uint32_t>((state >> 33) % range);
    const std::string request =
        "CST g " + std::to_string(vertex) + " " + std::to_string(kQueryK) +
        " limit=1";
    WallTimer timer;
    if (!transport.WriteLine(request) ||
        transport.ReadLine(&reply) != serve::FdTransport::ReadStatus::kLine) {
      std::fprintf(stderr, "client: session died mid-loop\n");
      std::exit(1);
    }
    latencies.push_back(timer.Micros());
  }
  transport.WriteLine("QUIT");
  transport.ReadLine(&reply);
  return latencies;
}

SweepPoint RunSweepPoint(serve::GraphRegistry& registry, unsigned sessions,
                         uint32_t n, size_t queries,
                         serve::ResultCache* cache = nullptr,
                         uint32_t pool = 0) {
  // One slot per session keeps admission off the critical path.
  serve::AdmissionController admission(sessions);
  serve::ServerMetrics metrics;
  serve::SessionOptions options;
  options.cache = cache;

  struct Wiring {
    int to_server[2];
    int to_client[2];
  };
  std::vector<Wiring> wires(sessions);
  for (Wiring& w : wires) {
    if (::pipe(w.to_server) != 0 || ::pipe(w.to_client) != 0) {
      std::perror("pipe");
      std::exit(1);
    }
  }
  // Server half: one session thread per pipe pair, the locsd shape.
  std::vector<std::thread> servers;
  servers.reserve(sessions);
  for (unsigned s = 0; s < sessions; ++s) {
    servers.emplace_back([&, s] {
      serve::FdTransport transport(wires[s].to_server[0],
                                   wires[s].to_client[1]);
      serve::Session session(transport, registry, admission, metrics,
                             options);
      session.Run();
    });
  }

  // Client half: closed loops, one thread per session.
  std::vector<std::vector<double>> latencies(sessions);
  WallTimer wall;
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (unsigned s = 0; s < sessions; ++s) {
    clients.emplace_back([&, s] {
      serve::FdTransport transport(wires[s].to_client[0],
                                   wires[s].to_server[1]);
      latencies[s] = RunClient(transport, n, queries, s + 1, pool);
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_ms = wall.Millis();
  for (std::thread& t : servers) t.join();
  for (const Wiring& w : wires) {
    for (const int fd : {w.to_server[0], w.to_server[1], w.to_client[0],
                         w.to_client[1]}) {
      ::close(fd);
    }
  }

  std::vector<double> all;
  all.reserve(sessions * queries);
  for (const auto& per_session : latencies) {
    all.insert(all.end(), per_session.begin(), per_session.end());
  }
  std::sort(all.begin(), all.end());
  double sum = 0.0;
  for (const double us : all) sum += us;

  SweepPoint point;
  point.sessions = sessions;
  point.queries = all.size();
  point.wall_ms = wall_ms;
  point.qps = static_cast<double>(all.size()) / (wall_ms / 1000.0);
  point.mean_us = sum / static_cast<double>(all.size());
  point.p50_us = all[all.size() / 2];
  point.p95_us = all[(all.size() * 95) / 100];
  const serve::MetricsSnapshot snap = metrics.Snapshot();
  point.cache_hits = snap.cache_hits;
  point.cache_misses = snap.cache_misses;
  point.server_p50_us = snap.LatencyPercentileUs(0.50);
  return point;
}

/// --port mode: the same closed loops, but against an external locsd
/// over TCP through the self-healing RetryClient. Each client thread
/// owns one RetryClient with a generous retry budget, so the run
/// survives a daemon kill+restart mid-loop — the recovery stats in the
/// output show what it cost. Exit is nonzero only when a request
/// ultimately failed after exhausting its attempts.
int TcpMain(uint16_t port, unsigned sessions, size_t queries) {
  const uint32_t n = MicroServeGraph().NumVertices();
  const std::string path = CachePath(kCacheTag);

  serve::RetryClientOptions options;
  options.port = port;
  options.max_attempts = 64;
  options.request_deadline_ms = 30000;
  // Register the dataset over the wire (idempotent across runs and
  // across a daemon restart mid-run: any thread's retry re-LOADs only
  // if its own request path needs the connection re-established, and a
  // LOAD of an already-registered name refreshes it).
  {
    serve::RetryClient loader(options);
    std::string reply;
    if (!loader.Request("LOAD g " + path, &reply) ||
        reply.compare(0, 2, "OK") != 0) {
      std::fprintf(stderr, "LOAD failed: %s\n", reply.c_str());
      return 1;
    }
  }

  struct ThreadOutcome {
    size_t ok = 0;
    size_t failed = 0;
    serve::RetryClient::Stats stats;
  };
  std::vector<ThreadOutcome> outcomes(sessions);
  WallTimer wall;
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (unsigned s = 0; s < sessions; ++s) {
    clients.emplace_back([&, s] {
      serve::RetryClient client(options);
      uint64_t state = (s + 1) * 0x9e3779b97f4a7c15ULL + 1;
      std::string reply;
      for (size_t q = 0; q < queries; ++q) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint32_t vertex = static_cast<uint32_t>((state >> 33) % n);
        const std::string request = "CST g " + std::to_string(vertex) +
                                    " " + std::to_string(kQueryK) +
                                    " limit=1";
        if (client.Request(request, &reply) &&
            reply.compare(0, 2, "OK") == 0) {
          ++outcomes[s].ok;
        } else {
          ++outcomes[s].failed;
        }
      }
      outcomes[s].stats = client.stats();
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_ms = wall.Millis();

  ThreadOutcome total;
  for (const ThreadOutcome& o : outcomes) {
    total.ok += o.ok;
    total.failed += o.failed;
    total.stats.connects += o.stats.connects;
    total.stats.retries += o.stats.retries;
    total.stats.busy_honored += o.stats.busy_honored;
  }
  TableWriter table({"sessions", "ok", "failed", "wall ms", "qps",
                     "connects", "retries", "busy"});
  table.Row()
      .Num(uint64_t{sessions})
      .Num(uint64_t{total.ok})
      .Num(uint64_t{total.failed})
      .Num(wall_ms, 1)
      .Num(static_cast<double>(total.ok + total.failed) /
               (wall_ms / 1000.0),
           0)
      .Num(total.stats.connects)
      .Num(total.stats.retries)
      .Num(total.stats.busy_honored);
  table.Print();
  if (total.failed != 0) {
    std::fprintf(stderr, "%zu requests failed after retries\n",
                 total.failed);
    return 1;
  }
  return 0;
}

int Main() {
  PrintBanner(
      "micro_serve: closed-loop stdio-transport serving throughput",
      "not in the paper — service-layer economics of PR 4 (locsd)",
      "qps grows with sessions until cores saturate; p95 stays bounded");

  JsonReport report("serve_stdio_closed_loop");
  const FirstQueryPoint first = MeasureFirstQuery();
  std::printf("first query of a session: CST(%u) over livejournal-sim "
              "(%u vertices), %d queries\n",
              first.k, first.vertices, kFirstQueries);
  TableWriter first_table({"searcher", "median ms", "minor faults"});
  first_table.Row().Cell("fresh").Num(first.fresh_ms, 3).Num(
      first.fresh_faults, 1);
  first_table.Row().Cell("leased").Num(first.leased_ms, 3).Num(
      first.leased_faults, 1);
  first_table.Print();
  std::printf("\n");
  report.AddRow()
      .Str("row", "first_query")
      .Num("vertices", first.vertices)
      .Num("k", first.k)
      .Num("queries", kFirstQueries)
      .Num("fresh_ms", first.fresh_ms)
      .Num("leased_ms", first.leased_ms)
      .Num("fresh_minor_faults", first.fresh_faults)
      .Num("leased_minor_faults", first.leased_faults);

  const uint32_t n = MicroServeGraph().NumVertices();
  const std::string path = CachePath(kCacheTag);

  serve::GraphRegistry registry;
  IoError io_error;
  bool full = false;
  if (registry.Load("g", path, &io_error, &full) == nullptr) {
    std::fprintf(stderr, "registry load failed: %s\n",
                 io_error.message.c_str());
    return 1;
  }

  const size_t queries = QueriesPerSession();
  const std::vector<unsigned> session_counts = {1, 2, 4};

  report.Meta("graph", "lfr_micro_serve_20k");
  report.Meta("vertices", std::to_string(n));
  report.Meta("k", std::to_string(kQueryK));
  report.Meta("queries_per_session", std::to_string(queries));

  TableWriter table({"sessions", "queries", "wall ms", "qps", "mean us",
                     "p50 us", "p95 us"});
  for (const unsigned sessions : session_counts) {
    const SweepPoint p =
        RunSweepPoint(registry, sessions, n, queries);
    table.Row()
        .Num(uint64_t{p.sessions})
        .Num(uint64_t{p.queries})
        .Num(p.wall_ms, 1)
        .Num(p.qps, 0)
        .Num(p.mean_us, 1)
        .Num(p.p50_us, 1)
        .Num(p.p95_us, 1);
    report.AddRow()
        .Num("sessions", p.sessions)
        .Num("queries", static_cast<double>(p.queries))
        .Num("wall_ms", p.wall_ms)
        .Num("qps", p.qps)
        .Num("mean_us", p.mean_us)
        .Num("p50_us", p.p50_us)
        .Num("p95_us", p.p95_us);
  }
  table.Print();

  // Cache-hit path: the same closed loops over a 64-vertex hot set with
  // the server-wide result cache enabled. After the first lap over the
  // pool every query is a hit — no solver run, no admission ticket —
  // so round-trip collapses to pipe transit + LRU lookup and the
  // server-side per-query latency p50 drops into the sub-microsecond
  // histogram bucket (reported as 0).
  constexpr uint32_t kHotPool = 64;
  std::printf("\nrepeat-heavy hot set (%u vertices), result cache on\n",
              kHotPool);
  report.Meta("hot_pool", std::to_string(kHotPool));
  TableWriter cached_table({"sessions", "queries", "qps", "mean us",
                            "p50 us", "hit rate", "server p50 us"});
  for (const unsigned sessions : session_counts) {
    serve::ResultCache cache(1024);
    const SweepPoint p =
        RunSweepPoint(registry, sessions, n, queries, &cache, kHotPool);
    const double hit_rate =
        static_cast<double>(p.cache_hits) /
        static_cast<double>(std::max<uint64_t>(
            p.cache_hits + p.cache_misses, 1));
    cached_table.Row()
        .Num(uint64_t{p.sessions})
        .Num(uint64_t{p.queries})
        .Num(p.qps, 0)
        .Num(p.mean_us, 1)
        .Num(p.p50_us, 1)
        .Num(hit_rate, 3)
        .Num(p.server_p50_us);
    report.AddRow()
        .Str("row", "cached")
        .Num("sessions", p.sessions)
        .Num("queries", static_cast<double>(p.queries))
        .Num("wall_ms", p.wall_ms)
        .Num("qps", p.qps)
        .Num("mean_us", p.mean_us)
        .Num("p50_us", p.p50_us)
        .Num("p95_us", p.p95_us)
        .Num("cache_hits", static_cast<double>(p.cache_hits))
        .Num("cache_misses", static_cast<double>(p.cache_misses))
        .Num("cache_hit_rate", hit_rate)
        .Num("server_p50_us", static_cast<double>(p.server_p50_us));
  }
  cached_table.Print();

  const std::string out = "BENCH_serve.json";
  if (!report.Write(out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace locs::bench

int main(int argc, char** argv) {
  const locs::CommandLine cli(argc, argv);
  static constexpr std::string_view kFlags[] = {"port", "sessions", "queries"};
  uint16_t port = 0;
  unsigned sessions = 4;
  size_t queries = 2000;
  std::string error;
  if (!cli.OnlyKnownFlags(kFlags, &error) ||
      !locs::ReadWhole(cli, "port", &port, &error) ||
      !locs::ReadWhole(cli, "sessions", &sessions, &error) ||
      !locs::ReadWhole(cli, "queries", &queries, &error)) {
    return locs::FlagError(error);
  }
  if (port > 0) {
    // External-daemon mode: closed loops over TCP via the RetryClient,
    // built to ride through a daemon kill+restart mid-run.
    return locs::bench::TcpMain(port, sessions, queries);
  }
  return locs::bench::Main();
}
