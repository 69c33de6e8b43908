// In-process tests of the serving layer above the parser: sessions over
// fd transports, the graph registry, admission control (a deterministic
// wait for a slot via the serve.slow_query failpoint), graceful drain,
// metrics consistency, and concurrent sessions through the real
// CommunityServer TCP front end.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/classic.h"
#include "graph/io.h"
#include "serve/admission.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "serve/session.h"
#include "store/image.h"
#include "util/failpoint.h"

namespace locs::serve {
namespace {

/// A file name of the running test's own: ctest runs the tests as
/// parallel processes, and two writing one path read each other's bytes.
std::string TempPath(const std::string& name) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + test->test_suite_name() + "." +
         test->name() + "." + name;
}

/// Shared server state plus a scripted-session driver. Scripts run over
/// file-backed fds (no pipe-capacity deadlock however large the reply),
/// one reply line per effective request, exactly like a piped locsd.
struct ServeFixture {
  GraphRegistry registry;
  AdmissionController admission;
  ServerMetrics metrics;
  SessionOptions options;

  explicit ServeFixture(size_t max_graphs = 16, unsigned max_inflight = 4)
      : registry(max_graphs), admission(max_inflight) {}

  /// Registers `graph` under `name` via a temp METIS file.
  void Register(const std::string& name, const Graph& graph) {
    const std::string path = TempPath("serve_fix_" + name + ".metis");
    ASSERT_TRUE(SaveMetis(graph, path));
    IoError error;
    bool full = false;
    ASSERT_NE(registry.Load(name, path, &error, &full), nullptr)
        << error.message;
  }

  /// Runs one session over the script; returns the reply lines.
  std::vector<std::string> Run(const std::vector<std::string>& script,
                               const std::string& tag) {
    const std::string in_path = TempPath("serve_in_" + tag);
    const std::string out_path = TempPath("serve_out_" + tag);
    {
      const int fd =
          ::open(in_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
      EXPECT_GE(fd, 0);
      for (const std::string& line : script) {
        const std::string framed = line + "\n";
        EXPECT_EQ(::write(fd, framed.data(), framed.size()),
                  static_cast<ssize_t>(framed.size()));
      }
      ::close(fd);
    }
    const int in_fd = ::open(in_path.c_str(), O_RDONLY);
    const int out_fd =
        ::open(out_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
    EXPECT_GE(in_fd, 0);
    EXPECT_GE(out_fd, 0);
    {
      FdTransport transport(in_fd, out_fd);
      Session session(transport, registry, admission, metrics, options);
      session.Run();
    }
    ::close(in_fd);
    ::close(out_fd);

    std::vector<std::string> replies;
    const int read_fd = ::open(out_path.c_str(), O_RDONLY);
    EXPECT_GE(read_fd, 0);
    FdTransport reader(read_fd, -1);
    std::string line;
    while (reader.ReadLine(&line) == FdTransport::ReadStatus::kLine) {
      replies.push_back(line);
    }
    ::close(read_fd);
    return replies;
  }
};

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

/// Counts the searchers registries build: arms serve.bind.alloc, the
/// build site, with a skip no test reaches, so it never fires and its
/// hit count is the number of builds since construction.
struct BuildCounter {
  failpoint::ScopedFailpoint armed{"serve.bind.alloc",
                                  /*skip=*/UINT64_MAX};
  uint64_t builds() const { return failpoint::HitCount("serve.bind.alloc"); }
};

TEST(ServeSessionTest, KnownStructureQueriesAreExact) {
  // Barbell(6, 2): two K6 joined through a 2-vertex path. The CST(5)
  // and CSM answers are structurally forced, so replies are checkable
  // without re-running a solver.
  ServeFixture fix;
  fix.Register("bb", gen::Barbell(6, 2));
  const auto replies = fix.Run(
      {
          "PING",
          "CSM bb 0",
          "CST bb 0 5",
          "CST bb 0 7",       // k above the degeneracy: exact negative
          "MULTI bb 5 0 1",   // both seeds in the left clique
          "MULTI bb 5 0 11",  // seeds in different cliques: no δ>=5 answer
          "QUIT",
      },
      "exact");
  ASSERT_EQ(replies.size(), 7u);
  EXPECT_EQ(replies[0], "OK pong");
  EXPECT_TRUE(StartsWith(replies[1], "OK status=found n=6 delta=5"))
      << replies[1];
  EXPECT_TRUE(StartsWith(replies[2], "OK status=found n=6 delta=5"))
      << replies[2];
  EXPECT_TRUE(StartsWith(replies[3], "OK status=not-exists n=0"))
      << replies[3];
  EXPECT_TRUE(StartsWith(replies[4], "OK status=found n=6 delta=5"))
      << replies[4];
  EXPECT_TRUE(StartsWith(replies[5], "OK status=not-exists n=0"))
      << replies[5];
  EXPECT_EQ(replies[6], "OK bye");
}

/// The value of `key=` in a reply line, or "" when absent.
std::string Field(const std::string& reply, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t pos = reply.find(needle);
  if (pos == std::string::npos) return "";
  const size_t start = pos + needle.size();
  return reply.substr(start, reply.find(' ', start) - start);
}

TEST(ServeSessionTest, CsmIsAnsweredFromTheCoreIndex) {
  // The CSM answer is v's component of its maxcore, reached by one BFS:
  // it visits exactly the answer, runs only a connectivity phase, stops
  // at a budget with a partial holding the query vertex, and ignores γ.
  ServeFixture fix;
  fix.Register("bb", gen::Barbell(6, 2));
  const auto replies = fix.Run(
      {
          "CSM bb 0 trace=1",
          "CSM bb 0 budget=1",
          "CSM bb 0",
          "CSM bb 0 gamma=-1.5",
      },
      "index_csm");
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_TRUE(StartsWith(replies[0], "OK status=found n=6 delta=5 visited=6 "))
      << replies[0];
  EXPECT_EQ(Field(replies[0], "fallback"), "0") << replies[0];
  EXPECT_TRUE(StartsWith(Field(replies[0], "phases"), "connectivity:1:6:"))
      << replies[0];
  EXPECT_EQ(Field(replies[0], "phases").find(','), std::string::npos)
      << replies[0];

  EXPECT_TRUE(StartsWith(replies[1], "OK status=budget-exhausted "))
      << replies[1];
  std::istringstream members(Field(replies[1], "members"));
  bool has_query_vertex = false;
  for (std::string id; std::getline(members, id, ',');) {
    has_query_vertex = has_query_vertex || id == "0";
  }
  EXPECT_TRUE(has_query_vertex) << replies[1];

  EXPECT_EQ(replies[3], replies[2]);
}

TEST(ServeSessionTest, LimitedCsmReportsTheFullAnswerSize) {
  // limit= cuts the CSM BFS short: n= and truncated= still count the
  // whole answer (from the index's component size) and the listed ids
  // are the unlimited reply's first ones; only visited= drops.
  ServeFixture fix;
  fix.Register("bb", gen::Barbell(6, 2));
  const auto replies = fix.Run(
      {"CSM bb 0", "CSM bb 0 limit=2 trace=1", "CSM bb 0 limit=6"},
      "limited_csm");
  ASSERT_EQ(replies.size(), 3u);
  const std::string full_members = Field(replies[0], "members");
  EXPECT_TRUE(StartsWith(replies[1], "OK status=found n=6 delta=5 visited=1 "))
      << replies[1];
  EXPECT_EQ(Field(replies[1], "truncated"), "4") << replies[1];
  EXPECT_TRUE(StartsWith(full_members, Field(replies[1], "members") + ","))
      << replies[1];
  EXPECT_TRUE(StartsWith(Field(replies[1], "phases"), "connectivity:1:1:"))
      << replies[1];
  EXPECT_TRUE(StartsWith(replies[2], "OK status=found n=6 delta=5 "))
      << replies[2];
  EXPECT_EQ(Field(replies[2], "members"), full_members) << replies[2];
  EXPECT_EQ(Field(replies[2], "truncated"), "") << replies[2];
}

TEST(ServeSessionTest, IgnoredGammaSharesTheCacheEntry) {
  // locsd ignores gamma=, so the reply is the same with or without it and
  // both requests must share one result-cache entry.
  ServeFixture fix;
  fix.Register("g", gen::Barbell(6, 2));
  ResultCache cache(16);
  fix.options.cache = &cache;
  const auto replies = fix.Run({"CSM g 7", "CSM g 7 gamma=0.5"}, "gamma");
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(StartsWith(replies[0], "OK status=found ")) << replies[0];
  EXPECT_EQ(replies[1], replies[0]);
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.cache_misses, 1u);
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.cache_inserts, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeSessionTest, LoadEvictListLifecycle) {
  ServeFixture fix;
  const std::string path = TempPath("serve_lifecycle.metis");
  ASSERT_TRUE(SaveMetis(gen::Clique(8), path));
  const auto replies = fix.Run(
      {
          "LOAD k8 " + path,
          "LIST",
          "CST k8 0 7",
          "EVICT k8",
          "CST k8 0 7",  // evicted name is gone for new queries
          "EVICT k8",    // double-evict is a typed error
          "LIST",
          "LOAD broken /nonexistent/file.metis",
      },
      "lifecycle");
  ASSERT_EQ(replies.size(), 8u);
  EXPECT_TRUE(StartsWith(replies[0], "OK graph=k8 vertices=8 edges=28"))
      << replies[0];
  EXPECT_EQ(replies[1], "OK graphs=1 k8:8:28");
  EXPECT_TRUE(StartsWith(replies[2], "OK status=found n=8 delta=7"));
  EXPECT_EQ(replies[3], "OK evicted=k8");
  EXPECT_TRUE(StartsWith(replies[4], "ERR unknown-graph"));
  EXPECT_TRUE(StartsWith(replies[5], "ERR unknown-graph"));
  EXPECT_EQ(replies[6], "OK graphs=0");
  EXPECT_TRUE(StartsWith(replies[7], "ERR io open:")) << replies[7];
}

TEST(ServeSessionTest, OversizedMetisHeaderIsATypedLoadError) {
  // A vertex count past the 32-bit id range once aborted the daemon in
  // the graph builder; it must draw a typed reply and keep serving.
  ServeFixture fix;
  const std::string path = TempPath("serve_huge.metis");
  {
    std::ofstream out(path);
    out << "4294967297 1\n2\n";
  }
  const auto replies = fix.Run({"LOAD huge " + path, "PING"}, "huge_metis");
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(StartsWith(replies[0], "ERR io parse:")) << replies[0];
  EXPECT_EQ(replies[1], "OK pong");
}

TEST(ServeSessionTest, ExecutionErrorsAreTypedAndNonFatal) {
  ServeFixture fix;
  fix.Register("g", gen::Clique(5));
  const auto replies = fix.Run(
      {
          "CST nope 0 2",       // unknown graph
          "CST g 99 2",         // vertex out of range
          "MULTI g 2 1 2 1",    // duplicate seed
          "CST g zero 2",       // parse error mid-session
          "CST g 0 4 limit=2",  // session still fully functional
      },
      "errors");
  ASSERT_EQ(replies.size(), 5u);
  EXPECT_TRUE(StartsWith(replies[0], "ERR unknown-graph"));
  EXPECT_TRUE(StartsWith(replies[1], "ERR vertex-range"));
  EXPECT_TRUE(StartsWith(replies[2], "ERR duplicate-vertex"));
  EXPECT_TRUE(StartsWith(replies[3], "ERR bad-number"));
  // δ >= 4 in K5 forces the whole clique; the echo is capped at 2.
  EXPECT_TRUE(StartsWith(replies[4], "OK status=found n=5 delta=4"))
      << replies[4];
  EXPECT_TRUE(replies[4].find("truncated=3") != std::string::npos)
      << replies[4];
}

TEST(ServeSessionTest, FailedBindIsATypedErrorAndTheNextQueryRebinds) {
  ServeFixture fix;
  fix.Register("g", gen::Clique(5));
  // Fires on the first bind only: the scratch mapping is refused once.
  failpoint::ScopedFailpoint refuse("serve.bind.alloc", /*skip=*/0,
                                    /*every=*/1000);
  const auto replies = fix.Run({"CST g 0 4", "CST g 0 4"}, "bind");
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(StartsWith(replies[0], "ERR internal")) << replies[0];
  EXPECT_TRUE(StartsWith(replies[1], "OK status=found n=5 delta=4"))
      << replies[1];
  EXPECT_EQ(failpoint::HitCount("serve.bind.alloc"), 2u);
}

TEST(ServeSessionTest, SequentialSessionsShareOneSearcher) {
  // The first session's query builds the entry's searcher and hands it
  // back; the second session leases it idle.
  ServeFixture fix;
  fix.Register("g", gen::Clique(5));
  BuildCounter counter;
  const auto first = fix.Run({"CST g 0 4", "CSM g 1"}, "first");
  const auto second = fix.Run({"CST g 2 4"}, "second");
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(StartsWith(first[0], "OK status=found n=5 delta=4"))
      << first[0];
  EXPECT_TRUE(StartsWith(first[1], "OK status=found n=5 delta=4"))
      << first[1];
  EXPECT_TRUE(StartsWith(second[0], "OK status=found n=5 delta=4"))
      << second[0];
  EXPECT_EQ(counter.builds(), 1u);
}

TEST(ServeSessionTest, ReplacingLoadAndEvictEachBuildAFreshSearcher) {
  // A new entry starts with no idle searcher: the first query after a
  // replacing LOADIMG, and after an EVICT and LOAD, builds one over it.
  ServeFixture fix;
  fix.Register("g", gen::Clique(5));
  const std::string image = TempPath("pool_k6.limg");
  const std::string metis = TempPath("pool_k5.metis");
  ASSERT_TRUE(store::CompileGraphImage(gen::Clique(6), image));
  ASSERT_TRUE(SaveMetis(gen::Clique(5), metis));
  BuildCounter counter;
  const auto warm = fix.Run({"CST g 0 4", "CST g 1 4"}, "warm");
  ASSERT_EQ(warm.size(), 2u);
  EXPECT_TRUE(StartsWith(warm[1], "OK status=found n=5 delta=4"));
  EXPECT_EQ(counter.builds(), 1u);

  const auto replaced = fix.Run({"LOADIMG g " + image, "CST g 0 5"}, "img");
  ASSERT_EQ(replaced.size(), 2u);
  EXPECT_TRUE(StartsWith(replaced[0], "OK graph=g vertices=6"))
      << replaced[0];
  EXPECT_TRUE(StartsWith(replaced[1], "OK status=found n=6 delta=5"))
      << replaced[1];
  EXPECT_EQ(counter.builds(), 2u);

  const auto reloaded =
      fix.Run({"EVICT g", "CST g 0 5", "LOAD g " + metis, "CST g 0 4"},
              "evict");
  ASSERT_EQ(reloaded.size(), 4u);
  EXPECT_EQ(reloaded[0], "OK evicted=g");
  EXPECT_TRUE(StartsWith(reloaded[1], "ERR unknown-graph")) << reloaded[1];
  EXPECT_TRUE(StartsWith(reloaded[3], "OK status=found n=5 delta=4"))
      << reloaded[3];
  EXPECT_EQ(counter.builds(), 3u);
}

TEST(ServeSessionTest, IdleSearcherServesWhenBuildsAreRefused) {
  // Once a query has parked a searcher, a later session's query leases
  // it without reaching the build site, refused or not.
  ServeFixture fix;
  fix.Register("g", gen::Clique(5));
  ASSERT_EQ(fix.Run({"CST g 0 4"}, "warm").size(), 1u);
  failpoint::ScopedFailpoint refuse("serve.bind.alloc");
  const auto replies = fix.Run({"CST g 1 4", "CSM g 2"}, "idle");
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(StartsWith(replies[0], "OK status=found n=5 delta=4"))
      << replies[0];
  EXPECT_TRUE(StartsWith(replies[1], "OK status=found n=5 delta=4"))
      << replies[1];
  EXPECT_EQ(failpoint::HitCount("serve.bind.alloc"), 0u);
}

TEST(ServeSessionTest, RegistryCapacityIsEnforced) {
  ServeFixture fix(/*max_graphs=*/1);
  const std::string path_a = TempPath("serve_cap_a.metis");
  const std::string path_b = TempPath("serve_cap_b.metis");
  ASSERT_TRUE(SaveMetis(gen::Clique(4), path_a));
  ASSERT_TRUE(SaveMetis(gen::Cycle(5), path_b));
  const auto replies = fix.Run(
      {
          "LOAD a " + path_a,
          "LOAD b " + path_b,  // registry full
          "LOAD a " + path_b,  // replacing an existing name is allowed
          "LIST",
      },
      "capacity");
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_TRUE(StartsWith(replies[0], "OK graph=a"));
  EXPECT_TRUE(StartsWith(replies[1], "ERR registry-full"));
  EXPECT_TRUE(StartsWith(replies[2], "OK graph=a vertices=5"));
  EXPECT_EQ(replies[3], "OK graphs=1 a:5:5");
}

TEST(ServeSessionTest, UnrepresentableDeadlineMeansNoDeadline) {
  // The wire accepts any deadline >= 0, inf included. One too large for
  // the clock's tick count must behave as "no deadline", not expire at
  // the first guard poll.
  ServeFixture fix;
  fix.Register("g", gen::Clique(8));
  const auto replies = fix.Run(
      {
          "CST g 0 7 deadline_ms=1e12",
          "CST g 0 7 deadline_ms=1e13",
          "CST g 0 7 deadline_ms=inf",
      },
      "huge_deadline");
  ASSERT_EQ(replies.size(), 3u);
  for (const std::string& reply : replies) {
    EXPECT_TRUE(StartsWith(reply, "OK status=found n=8")) << reply;
  }
}

TEST(ServeSessionTest, ServerBudgetPolicyDefaultsAndClamps) {
  // A query's work budget is its own budget= option. Budget trips are
  // deterministic, but a tripped reply reflects where the guard stopped,
  // so the cache admits only settled replies. CST(39) on a 40-clique needs 1600 work units; the
  // three budgets trip at three different sizes.
  ServeFixture fix;
  fix.Register("g", gen::Clique(40));
  fix.Register("small", gen::Clique(6));  // CST(5): 36 work units
  ResultCache cache(16);
  fix.options.cache = &cache;
  const auto replies = fix.Run(
      {
          "CST g 0 39 budget=100",
          "CST g 0 39 budget=400",
          "CST g 0 39 budget=200",
          "CST g 0 39 budget=200",    // tripped replies are not cached
          "CST small 0 5 budget=100",  // settles under its budget
          "CST small 0 5 budget=100",  // ... and is cached
      },
      "budget");
  ASSERT_EQ(replies.size(), 6u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(StartsWith(replies[i], "OK status=budget-exhausted "))
        << replies[i];
  }
  EXPECT_NE(replies[0], replies[1]);
  EXPECT_NE(replies[0], replies[2]);
  EXPECT_NE(replies[1], replies[2]);
  EXPECT_EQ(replies[3], replies[2]);
  EXPECT_TRUE(StartsWith(replies[4], "OK status=found n=6 delta=5"))
      << replies[4];
  EXPECT_EQ(replies[5], replies[4]);
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.interrupted, 4u);
  EXPECT_EQ(snap.cache_misses, 5u);
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.cache_inserts, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServeSessionTest, DrainFlagRejectsQueriesAndEndsSession) {
  ServeFixture fix;
  fix.Register("g", gen::Clique(4));
  std::atomic<bool> stop{true};
  fix.options.stop = &stop;
  const auto replies = fix.Run({"CST g 0 2", "CST g 0 3"}, "drain");
  // The first query gets the typed drain error and the session exits;
  // the second request is never read.
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(StartsWith(replies[0], "ERR shutting-down"));
}

TEST(ServeSessionTest, MetricsLedgerAddsUp) {
  ServeFixture fix;
  fix.Register("g", gen::Barbell(5, 0));
  const auto replies = fix.Run(
      {
          "PING",
          "CST g 0 4",
          "CSM g 0",
          "MULTI g 4 0 1",
          "CST nope 0 1",
          "GARBAGE",
          "STATS",
      },
      "metrics");
  ASSERT_EQ(replies.size(), 7u);
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.TotalRequests(), 6u);  // GARBAGE never parses to a verb
  EXPECT_EQ(snap.requests_by_verb[static_cast<size_t>(Verb::kCst)], 2u);
  EXPECT_EQ(snap.requests_by_verb[static_cast<size_t>(Verb::kPing)], 1u);
  EXPECT_EQ(snap.TotalErrors(), 2u);
  EXPECT_EQ(
      snap.errors_by_kind[static_cast<size_t>(WireError::kUnknownVerb)], 1u);
  EXPECT_EQ(
      snap.errors_by_kind[static_cast<size_t>(WireError::kUnknownGraph)],
      1u);
  // Three queries completed -> three latency samples, and the percentile
  // estimator returns a sane, monotone bound (possibly 0: queries on toy
  // graphs legitimately finish in under a microsecond).
  EXPECT_EQ(snap.TotalQueries(), 3u);
  EXPECT_LE(snap.LatencyPercentileUs(0.50), snap.LatencyPercentileUs(0.95));
  EXPECT_LT(snap.LatencyPercentileUs(0.95), uint64_t{1} << 31);
  EXPECT_EQ(snap.sessions_opened, 1u);
  EXPECT_EQ(snap.sessions_closed, 1u);
  // The STATS reply carries the same ledger.
  EXPECT_TRUE(replies[6].find(" requests=6") != std::string::npos)
      << replies[6];
  EXPECT_TRUE(replies[6].find(" errors=2") != std::string::npos);
  EXPECT_TRUE(replies[6].find(" queries=3") != std::string::npos);
}

TEST(ServeSessionTest, SaturatedQueriesWaitForASlot) {
  // max_inflight=1: while one query holds the slot (parked in the
  // serve.slow_query failpoint's 200 ms sleep), two more wait for it
  // instead of being turned away, and all three are answered.
  ServeFixture fix(/*max_graphs=*/16, /*max_inflight=*/1);
  fix.Register("g", gen::Clique(4));
  failpoint::ScopedFailpoint slow("serve.slow_query");

  std::vector<std::string> held, first, second;
  std::thread holder([&] { held = fix.Run({"CST g 0 2"}, "holder"); });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (failpoint::HitCount("serve.slow_query") == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  std::thread contender1([&] { first = fix.Run({"CST g 1 2"}, "first"); });
  std::thread contender2([&] { second = fix.Run({"CST g 2 2"}, "second"); });
  AdmissionController::Counts counts = fix.admission.Snapshot();
  while (counts.queued < 2 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
    counts = fix.admission.Snapshot();
  }
  EXPECT_EQ(counts.queued, 2u);
  EXPECT_EQ(counts.inflight, 1u);
  holder.join();
  contender1.join();
  contender2.join();

  for (const auto* replies : {&held, &first, &second}) {
    ASSERT_EQ(replies->size(), 1u);
    EXPECT_TRUE(StartsWith((*replies)[0], "OK status=found"))
        << (*replies)[0];
  }
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.q_attempted, 3u);
  EXPECT_EQ(snap.q_completed, 3u);
  EXPECT_EQ(snap.q_attempted, snap.q_completed + snap.q_failed);
  counts = fix.admission.Snapshot();
  EXPECT_EQ(counts.inflight, 0u);
  EXPECT_EQ(counts.queued, 0u);
  const std::string stats =
      snap.RenderStatsLine(counts.inflight, counts.queued, 1);
  EXPECT_NE(stats.find(" q_shed=0 "), std::string::npos) << stats;
}

// --- TCP front end -------------------------------------------------------

/// Opens a loopback connection to `port`; -1 on failure.
int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Connects to 127.0.0.1:port, sends `script`, reads replies until the
/// server closes the connection.
std::vector<std::string> TcpScript(uint16_t port,
                                   const std::vector<std::string>& script) {
  const int fd = ConnectLoopback(port);
  EXPECT_GE(fd, 0);
  FdTransport transport(fd, fd);
  for (const std::string& line : script) {
    EXPECT_TRUE(transport.WriteLine(line));
  }
  std::vector<std::string> replies;
  std::string line;
  while (transport.ReadLine(&line) == FdTransport::ReadStatus::kLine) {
    replies.push_back(line);
  }
  ::close(fd);
  return replies;
}

/// Client side of a loopback session whose reads give up after 10 s, so
/// a server that blocks fails the test instead of hanging it.
struct TcpClient {
  int fd;
  FdTransport transport;

  explicit TcpClient(uint16_t port)
      : fd(ConnectLoopback(port)),
        transport(fd, fd, FdTransportOptions{10000, 10000}) {}
  ~TcpClient() {
    if (fd >= 0) ::close(fd);
  }

  /// The next reply line, or "" when none arrives.
  std::string Reply() {
    std::string line;
    return transport.ReadLine(&line) == FdTransport::ReadStatus::kLine ? line
                                                                     : "";
  }
};

/// Serves one Clique(4) named "g" over TCP for the saturation tests.
struct SaturationServer {
  ServerOptions options;
  std::unique_ptr<CommunityServer> server;
  std::thread accept_thread;

  SaturationServer(unsigned max_sessions, unsigned max_inflight) {
    options.max_sessions = max_sessions;
    options.max_inflight = max_inflight;
    server = std::make_unique<CommunityServer>(options);
    const std::string path = TempPath("serve_saturation.metis");
    EXPECT_TRUE(SaveMetis(gen::Clique(4), path));
    IoError io_error;
    bool full = false;
    EXPECT_NE(server->registry().Load("g", path, &io_error, &full), nullptr);
    std::string error;
    EXPECT_TRUE(server->Start(&error)) << error;
    accept_thread = std::thread([this] { server->Run(); });
  }
  ~SaturationServer() {
    server->Stop();
    accept_thread.join();
  }
};

/// Spins until `done()` holds or 10 s pass; returns `done()`.
template <typename Predicate>
bool WaitFor(Predicate done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  return done();
}

TEST(ServeSessionTest, SaturationYieldsBusyNotBlocking) {
  // One session, one query slot, and the slot's holder parked in the
  // serve.slow_query failpoint: a new connection is answered BUSY at
  // once by the session cap; it does not wait behind the running query.
  SaturationServer fix(/*max_sessions=*/1, /*max_inflight=*/1);
  failpoint::ScopedFailpoint slow("serve.slow_query");

  TcpClient holder(fix.server->port());
  ASSERT_GE(holder.fd, 0);
  ASSERT_TRUE(holder.transport.WriteLine("CST g 0 2"));
  ASSERT_TRUE(WaitFor([] { return failpoint::HitCount("serve.slow_query"); }));

  TcpClient contender(fix.server->port());
  ASSERT_GE(contender.fd, 0);
  EXPECT_EQ(contender.Reply(), "BUSY sessions=1");

  EXPECT_TRUE(StartsWith(holder.Reply(), "OK status=found"));
  EXPECT_TRUE(holder.transport.WriteLine("QUIT"));
  EXPECT_EQ(holder.Reply(), "OK bye");
  const MetricsSnapshot snap = fix.server->metrics().Snapshot();
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.q_attempted, 1u);
  EXPECT_EQ(snap.q_completed, 1u);
}

TEST(ServeSessionTest, BoundedQueueAdmitsThenRejects) {
  // Two sessions, one query slot: the second session's query waits for
  // the slot and is answered, and the session cap keeps the admission
  // queue at max_sessions - max_inflight = 1 by turning a third session
  // away with BUSY.
  SaturationServer fix(/*max_sessions=*/2, /*max_inflight=*/1);
  failpoint::ScopedFailpoint slow("serve.slow_query");
  AdmissionController& admission = fix.server->admission();

  TcpClient holder(fix.server->port());
  ASSERT_GE(holder.fd, 0);
  ASSERT_TRUE(holder.transport.WriteLine("CST g 0 2"));
  ASSERT_TRUE(WaitFor([] { return failpoint::HitCount("serve.slow_query"); }));
  TcpClient waiter(fix.server->port());
  ASSERT_GE(waiter.fd, 0);
  ASSERT_TRUE(waiter.transport.WriteLine("CST g 1 2"));
  EXPECT_TRUE(WaitFor([&] { return admission.Snapshot().queued == 1; }));

  TcpClient rejected(fix.server->port());
  ASSERT_GE(rejected.fd, 0);
  EXPECT_EQ(rejected.Reply(), "BUSY sessions=2");
  EXPECT_LE(admission.Snapshot().queued, 1u);

  EXPECT_TRUE(StartsWith(holder.Reply(), "OK status=found"));
  EXPECT_TRUE(StartsWith(waiter.Reply(), "OK status=found"));
  for (TcpClient* client : {&holder, &waiter}) {
    EXPECT_TRUE(client->transport.WriteLine("QUIT"));
    EXPECT_EQ(client->Reply(), "OK bye");
  }
  const MetricsSnapshot snap = fix.server->metrics().Snapshot();
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.q_completed, 2u);
  EXPECT_EQ(snap.q_attempted, snap.q_completed + snap.q_failed);
}

TEST(ServeSessionTest, LeaseHeldAcrossAReplacingLoadIsDropped) {
  // A query holds its lease (parked in serve.slow_query) while a LOAD
  // replaces its entry. It answers from the entry it leased, and its
  // searcher is dropped on hand-back, not parked: the next query builds
  // one over the new entry.
  ServeFixture fix;
  fix.Register("g", gen::Clique(5));
  BuildCounter counter;
  std::vector<std::string> held;
  {
    failpoint::ScopedFailpoint slow("serve.slow_query");
    std::thread holder([&] { held = fix.Run({"CST g 0 4"}, "holder"); });
    ASSERT_TRUE(
        WaitFor([] { return failpoint::HitCount("serve.slow_query"); }));
    fix.Register("g", gen::Clique(6));
    // Still admitted, so the lease is still out: it is handed back to a
    // replaced entry.
    EXPECT_EQ(fix.admission.Snapshot().inflight, 1u);
    holder.join();
  }
  ASSERT_EQ(held.size(), 1u);
  EXPECT_TRUE(StartsWith(held[0], "OK status=found n=5 delta=4")) << held[0];
  EXPECT_EQ(counter.builds(), 1u);

  const auto after = fix.Run({"CST g 0 5"}, "after");
  ASSERT_EQ(after.size(), 1u);
  EXPECT_TRUE(StartsWith(after[0], "OK status=found n=6 delta=5"))
      << after[0];
  EXPECT_EQ(counter.builds(), 2u);
}

TEST(TcpServerTest, ConcurrentSessionsBuildAtMostMaxInflightSearchers) {
  // Six sessions, two query slots, each query parked in serve.slow_query
  // so leases overlap: a searcher is built only while every one the
  // entry has is leased, so the entry never holds more than two.
  constexpr int kClients = 6;
  SaturationServer fix(/*max_sessions=*/kClients, /*max_inflight=*/2);
  BuildCounter counter;
  failpoint::ScopedFailpoint slow("serve.slow_query");
  std::vector<std::vector<std::string>> replies(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      replies[c] = TcpScript(fix.server->port(),
                             {"CST g " + std::to_string(c % 4) + " 3",
                              "CSM g 0", "QUIT"});
    });
  }
  for (std::thread& t : clients) t.join();
  for (const auto& session_replies : replies) {
    ASSERT_EQ(session_replies.size(), 3u);
    EXPECT_TRUE(StartsWith(session_replies[0], "OK status=found n=4"))
        << session_replies[0];
    EXPECT_TRUE(StartsWith(session_replies[1], "OK status=found n=4"))
        << session_replies[1];
  }
  EXPECT_GE(counter.builds(), 1u);
  EXPECT_LE(counter.builds(), 2u);
}

TEST(TcpServerTest, ConcurrentSessionsServeAndDrain) {
  ServerOptions options;
  options.max_sessions = 4;
  CommunityServer server(options);
  const std::string path = TempPath("serve_tcp.metis");
  ASSERT_TRUE(SaveMetis(gen::Barbell(6, 2), path));
  IoError io_error;
  bool full = false;
  ASSERT_NE(server.registry().Load("g", path, &io_error, &full), nullptr);

  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_NE(server.port(), 0);
  std::thread accept_thread([&] { server.Run(); });

  constexpr int kClients = 3;
  std::vector<std::vector<std::string>> replies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      replies[static_cast<size_t>(c)] = TcpScript(
          server.port(),
          {"PING", "CST g 0 5 limit=6", "CSM g 11 limit=6", "QUIT"});
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  accept_thread.join();

  for (const auto& session_replies : replies) {
    ASSERT_EQ(session_replies.size(), 4u);
    EXPECT_EQ(session_replies[0], "OK pong");
    EXPECT_TRUE(StartsWith(session_replies[1], "OK status=found n=6 delta=5"))
        << session_replies[1];
    EXPECT_TRUE(StartsWith(session_replies[2], "OK status=found n=6 delta=5"))
        << session_replies[2];
    EXPECT_EQ(session_replies[3], "OK bye");
  }
  // Every session is accounted for and fully closed after drain.
  const MetricsSnapshot snap = server.metrics().Snapshot();
  EXPECT_EQ(snap.sessions_opened, static_cast<uint64_t>(kClients));
  EXPECT_EQ(snap.sessions_closed, static_cast<uint64_t>(kClients));
  EXPECT_EQ(server.active_sessions(), 0u);
}

TEST(TcpServerTest, FailedBindReleasesTheSessionSlot) {
  ServerOptions options;
  options.max_sessions = 1;
  CommunityServer server(options);
  const std::string path = TempPath("serve_bind.metis");
  ASSERT_TRUE(SaveMetis(gen::Barbell(6, 2), path));
  IoError io_error;
  bool full = false;
  ASSERT_NE(server.registry().Load("g", path, &io_error, &full), nullptr);

  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread accept_thread([&] { server.Run(); });

  std::vector<std::string> refused;
  {
    failpoint::ScopedFailpoint refuse("serve.bind.alloc");
    refused = TcpScript(server.port(), {"CST g 0 5 limit=6", "QUIT"});
  }
  ASSERT_EQ(refused.size(), 2u);
  EXPECT_TRUE(StartsWith(refused[0], "ERR internal")) << refused[0];
  EXPECT_EQ(refused[1], "OK bye");
  // The server closes the fd only after giving the slot back.
  EXPECT_EQ(server.active_sessions(), 0u);

  // The only slot is free again: the next connection is served.
  const auto served = TcpScript(server.port(), {"CST g 0 5 limit=6", "QUIT"});
  ASSERT_EQ(served.size(), 2u);
  EXPECT_TRUE(StartsWith(served[0], "OK status=found n=6 delta=5"))
      << served[0];
  server.Stop();
  accept_thread.join();
  EXPECT_EQ(server.active_sessions(), 0u);
}

TEST(TcpServerTest, SessionCapRejectsWithBusy) {
  ServerOptions options;
  options.max_sessions = 1;
  CommunityServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread accept_thread([&] { server.Run(); });

  // First connection occupies the only session slot; PING round-trip
  // proves the session is running before the second connect.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  FdTransport held(fd, fd);
  ASSERT_TRUE(held.WriteLine("PING"));
  std::string line;
  ASSERT_EQ(held.ReadLine(&line), FdTransport::ReadStatus::kLine);
  EXPECT_EQ(line, "OK pong");

  const auto rejected = TcpScript(server.port(), {"PING"});
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0], "BUSY sessions=1");

  EXPECT_TRUE(held.WriteLine("QUIT"));
  ASSERT_EQ(held.ReadLine(&line), FdTransport::ReadStatus::kLine);
  EXPECT_EQ(line, "OK bye");
  server.Stop();
  accept_thread.join();
  EXPECT_GE(server.metrics().Snapshot().rejected, 1u);
  ::close(fd);
}

TEST(TcpServerTest, StopUnblocksIdleSessions) {
  // A session parked in a blocking read must not hang the drain: Stop()
  // wakes its wait and Run() returns.
  ServerOptions options;
  CommunityServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread accept_thread([&] { server.Run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  FdTransport idle(fd, fd);
  ASSERT_TRUE(idle.WriteLine("PING"));
  std::string line;
  ASSERT_EQ(idle.ReadLine(&line), FdTransport::ReadStatus::kLine);

  server.Stop();        // session is idle in ReadLine at this point
  accept_thread.join();  // must not hang
  EXPECT_EQ(server.active_sessions(), 0u);
  ::close(fd);
}

TEST(TcpServerTest, EveryAdmittedSessionIsServed) {
  // The session cap is the one bound: each admitted connection runs on a
  // thread of its own, so a third session is served while the first two
  // stay open and idle, and only a fourth connection is refused.
  ServerOptions options;
  options.max_sessions = 3;
  CommunityServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread accept_thread([&] { server.Run(); });

  FdTransportOptions within_one_second;
  within_one_second.io_timeout_ms = 1000;
  within_one_second.idle_timeout_ms = 1000;
  std::vector<int> held;
  for (int c = 0; c < 3; ++c) {
    const int fd = ConnectLoopback(server.port());
    EXPECT_GE(fd, 0);
    if (fd < 0) break;
    held.push_back(fd);
    FdTransport transport(fd, fd, within_one_second);
    std::string reply;
    EXPECT_TRUE(transport.WriteLine("PING"));
    EXPECT_EQ(transport.ReadLine(&reply), FdTransport::ReadStatus::kLine)
        << "connection " << c << " got no reply within 1 s";
    EXPECT_EQ(reply, "OK pong");
  }
  const auto refused = TcpScript(server.port(), {"PING"});
  EXPECT_EQ(refused, std::vector<std::string>{"BUSY sessions=3"});

  server.Stop();
  accept_thread.join();
  EXPECT_EQ(server.active_sessions(), 0u);
  for (const int fd : held) ::close(fd);
}

TEST(TcpServerTest, ThrowingSessionThreadFreesItsSlot) {
  // A throw out of a session thread must not take the server down: the
  // connection closes, its slot comes back, and the next one is served.
  ServerOptions options;
  options.max_sessions = 1;
  CommunityServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread accept_thread([&] { server.Run(); });

  std::vector<std::string> dropped;
  {
    failpoint::ScopedFailpoint boom("serve.session_thread.throw");
    // Send nothing: unread request bytes would turn the close into a
    // reset that the client's write could trip over.
    dropped = TcpScript(server.port(), {});
    EXPECT_EQ(failpoint::HitCount("serve.session_thread.throw"), 1u);
  }
  EXPECT_TRUE(dropped.empty());
  // The server closes the fd only after giving the slot back.
  EXPECT_EQ(server.active_sessions(), 0u);

  const auto served = TcpScript(server.port(), {"PING", "QUIT"});
  EXPECT_EQ(served, (std::vector<std::string>{"OK pong", "OK bye"}));
  server.Stop();
  accept_thread.join();
  EXPECT_EQ(server.active_sessions(), 0u);
  // The throw came before any Session existed: only the served
  // connection opened one.
  EXPECT_EQ(server.metrics().Snapshot().sessions_opened, 1u);
}

TEST(TcpServerTest, InFlightReplySurvivesDrain) {
  // A drain must deliver the reply of a query it has already admitted:
  // the peer is there to take it, and the ledger counts it completed.
  SaturationServer fix(/*max_sessions=*/1, /*max_inflight=*/1);
  failpoint::ScopedFailpoint slow("serve.slow_query");

  TcpClient client(fix.server->port());
  ASSERT_GE(client.fd, 0);
  ASSERT_TRUE(client.transport.WriteLine("CST g 0 2"));
  ASSERT_TRUE(WaitFor(
      [&] { return fix.server->admission().Snapshot().inflight == 1; }));
  fix.server->Stop();

  const std::string reply = client.Reply();
  EXPECT_TRUE(StartsWith(reply, "OK status=found")) << reply;
  std::string line;
  EXPECT_EQ(client.transport.ReadLine(&line), FdTransport::ReadStatus::kEof);
  // The server closes the fd only after the session has ended.
  const MetricsSnapshot snap = fix.server->metrics().Snapshot();
  EXPECT_EQ(snap.q_attempted, 1u);
  EXPECT_EQ(snap.q_completed, 1u);
  EXPECT_EQ(snap.q_failed, 0u);
}

/// Serves `graph` as "g" to a peer that pipelines `CSM g 0 limit=0` and
/// never reads, until its session is parked in a reply write behind
/// full socket buffers. No io timeout is set, so only the drain can end
/// that write, and it must: Stop() + Run() within 3 s, no session left.
void ExpectStopEndsSessionBlockedOnUnreadReplies(const Graph& graph) {
  ServerOptions options;
  CommunityServer server(options);
  const std::string path = TempPath("serve_unread.metis");
  ASSERT_TRUE(SaveMetis(graph, path));
  IoError io_error;
  bool full = false;
  ASSERT_NE(server.registry().Load("g", path, &io_error, &full), nullptr);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread accept_thread([&] { server.Run(); });

  const int fd = ConnectLoopback(server.port());
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK), 0);
  std::string requests;
  for (int i = 0; i < 1024; ++i) requests += "CSM g 0 limit=0\n";
  // Write until the connection stays jammed for 500 ms: the server has
  // stopped reading because its reply write cannot proceed.
  size_t sent = 0;
  bool jammed = false;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (fd >= 0 && !jammed && std::chrono::steady_clock::now() < give_up) {
    const ssize_t n = ::write(fd, requests.data(), requests.size());
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno != EAGAIN) break;
    pollfd pfd{fd, POLLOUT, 0};
    jammed = ::poll(&pfd, 1, 500) == 0;
  }
  EXPECT_TRUE(jammed) << "sent " << sent << " bytes without filling";
  EXPECT_EQ(server.active_sessions(), 1u);

  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  accept_thread.join();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(stop_ms, 3000);
  EXPECT_EQ(server.active_sessions(), 0u);
  if (fd >= 0) ::close(fd);
}

TEST(TcpServerTest, StopEndsSessionBlockedOnUnreadReplies) {
  // Replies of a few hundred bytes: the session waits for room in poll.
  ExpectStopEndsSessionBlockedOnUnreadReplies(gen::Clique(64));
}

TEST(TcpServerTest, StopEndsSessionBlockedMidReply) {
  // Replies of about 2.6 MB (CSM on a 400k-cycle lists every vertex):
  // more than the socket buffer has room for, so on a blocking socket
  // the write would park inside write(2), out of the drain's reach.
  ExpectStopEndsSessionBlockedOnUnreadReplies(gen::Cycle(400000));
}

}  // namespace
}  // namespace locs::serve
