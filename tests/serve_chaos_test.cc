// Fault-injection coverage of the hardened serving path: every
// LOCS_FAILPOINT site on the request/reply path (transport read/write,
// registry load, cache insert, solver dispatch), the transport lifecycle
// guards (io-timeout on a stalled request, idle reaper, wake-fd drain of
// a session parked on a silent peer), the reply-size cap, the query
// conservation ledger, and the RetryClient failure discipline. Each test
// asserts the session terminates cleanly AND that metrics record the
// right terminal cause — a fault must degrade to a typed ERR or a counted
// close, never a hang or a crash.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gen/classic.h"
#include "graph/io.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/failpoint.h"

namespace locs::serve {
namespace {

using failpoint::ScopedFailpoint;

/// A file name of the running test's own: ctest runs the tests as
/// parallel processes, and two writing one path read each other's bytes.
std::string TempPath(const std::string& name) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + test->test_suite_name() + "." +
         test->name() + "." + name;
}

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

size_t ErrCount(const MetricsSnapshot& snap, WireError kind) {
  return snap.errors_by_kind[static_cast<size_t>(kind)];
}

/// Reads every line (terminated or not) the session wrote to `path`.
std::vector<std::string> ReadReplies(const std::string& path) {
  std::vector<std::string> replies;
  const int fd = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(fd, 0);
  FdTransport reader(fd, -1);
  std::string line;
  while (reader.ReadLine(&line) == FdTransport::ReadStatus::kLine) {
    replies.push_back(line);
  }
  ::close(fd);
  return replies;
}

/// Shared server state plus two drivers: scripted file-backed sessions
/// (the serve_session_test idiom) and live pipe-fed sessions for the
/// timing-sensitive guard tests.
struct ChaosFixture {
  GraphRegistry registry{16};
  AdmissionController admission;
  ServerMetrics metrics;
  SessionOptions options;
  ResultCache cache{64};

  void Register(const std::string& name, const Graph& graph) {
    const std::string path = TempPath("chaos_fix_" + name + ".metis");
    ASSERT_TRUE(SaveMetis(graph, path));
    IoError error;
    bool full = false;
    ASSERT_NE(registry.Load(name, path, &error, &full), nullptr)
        << error.message;
  }

  /// Runs one scripted session over file-backed fds; returns the path
  /// of the reply file. Tests arming transport failpoints read replies
  /// through this split so the reply reader (itself an FdTransport) runs
  /// after the failpoint is disarmed.
  std::string RunSession(const std::vector<std::string>& script,
                         const std::string& tag,
                         FdTransportOptions transport_options = {}) {
    const std::string in_path = TempPath("chaos_in_" + tag);
    const std::string out_path = TempPath("chaos_out_" + tag);
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
      FdTransport transport(in_fd, out_fd, transport_options);
      Session session(transport, registry, admission, metrics, options);
      session.Run();
    }
    ::close(in_fd);
    ::close(out_fd);
    return out_path;
  }

  /// Scripted session + reply readback in one step (for tests whose
  /// failpoints do not touch the read path).
  std::vector<std::string> Run(const std::vector<std::string>& script,
                               const std::string& tag,
                               FdTransportOptions transport_options = {}) {
    return ReadReplies(RunSession(script, tag, transport_options));
  }

  /// Runs a session reading a live pipe: the test holds the write end,
  /// so stalls and silence are real, not simulated. `feed` receives the
  /// pipe's write fd and drives the peer side; replies are read back by
  /// the caller (after any scoped failpoint is gone).
  struct LiveResult {
    std::string out_path;
    uint64_t session_ms = 0;
  };
  template <typename Feed>
  LiveResult RunLive(const std::string& tag,
                     FdTransportOptions transport_options, Feed feed) {
    int pipe_fds[2];
    EXPECT_EQ(::pipe(pipe_fds), 0);
    const std::string out_path = TempPath("chaos_live_" + tag);
    const int out_fd =
        ::open(out_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
    EXPECT_GE(out_fd, 0);
    LiveResult result;
    std::thread session_thread([&] {
      const auto start = std::chrono::steady_clock::now();
      FdTransport transport(pipe_fds[0], out_fd, transport_options);
      Session session(transport, registry, admission, metrics, options);
      session.Run();
      result.session_ms = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    });
    feed(pipe_fds[1]);
    session_thread.join();
    ::close(pipe_fds[1]);
    ::close(pipe_fds[0]);
    ::close(out_fd);
    result.out_path = out_path;
    return result;
  }
};

// ---------------------------------------------------------------------
// Transport failpoints: write-side faults.

TEST(ServeChaosTest, PartialWriteTearsReplyAndEndsSessionCleanly) {
  ChaosFixture fix;
  std::vector<std::string> replies;
  {
    ScopedFailpoint tear("serve.transport.partial_write");
    replies = fix.Run({"PING", "PING"}, "partial_write");
  }
  // The peer sees a torn prefix of "OK pong\n" and nothing further: the
  // session treated the failed write as peer-gone and exited before the
  // second request.
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0], "OK p");
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.sessions_opened, 1u);
  EXPECT_EQ(snap.sessions_closed, 1u);
  // A mid-write disconnect is not a deadline expiry.
  EXPECT_EQ(snap.io_timeouts, 0u);
}

TEST(ServeChaosTest, WriteErrorEndsSessionWithoutReply) {
  ChaosFixture fix;
  std::vector<std::string> replies;
  {
    ScopedFailpoint drop("serve.transport.write_error");
    replies = fix.Run({"PING"}, "write_error");
  }
  EXPECT_TRUE(replies.empty());
  EXPECT_EQ(fix.metrics.Snapshot().sessions_closed, 1u);
}

TEST(ServeChaosTest, WriteErrorOnQueryCountsFailed) {
  // The ledger counts a query once its reply is written: a reply the
  // peer never got is a failed query, not a completed one.
  ChaosFixture fix;
  fix.Register("bb", gen::Barbell(6, 2));
  std::vector<std::string> replies;
  {
    ScopedFailpoint drop("serve.transport.write_error");
    replies = fix.Run({"CST bb 0 5"}, "write_error_query");
  }
  EXPECT_TRUE(replies.empty());
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.q_attempted, 1u);
  EXPECT_EQ(snap.q_failed, 1u);
  EXPECT_EQ(snap.q_completed, 0u);
}

// ---------------------------------------------------------------------
// Transport failpoints: read-side faults.

TEST(ServeChaosTest, ReadErrorAfterSkipServesEarlierRequests) {
  // skip=2: the first two ReadLine calls succeed, the third fails —
  // the session must deliver the replies it owes before dying.
  ChaosFixture fix;
  std::string out_path;
  {
    ScopedFailpoint fault("serve.transport.read_error", /*skip=*/2);
    out_path = fix.RunSession({"PING", "PING", "PING", "QUIT"}, "read_error");
  }
  const auto replies = ReadReplies(out_path);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], "OK pong");
  EXPECT_EQ(replies[1], "OK pong");
  EXPECT_EQ(fix.metrics.Snapshot().sessions_closed, 1u);
}

TEST(ServeChaosTest, DelayedReadStraddlingIoTimeoutClosesWithTypedError) {
  // The peer sends one whole request plus the first bytes of a second,
  // then stalls; the injected 50ms read delay sits on top. The io clock
  // (20ms) starts when the partial request's bytes are seen, so the
  // stall must terminate the session with ERR io-timeout — and only the
  // io_timeouts counter (not idle_reaped) may move.
  ChaosFixture fix;
  FdTransportOptions guards;
  guards.io_timeout_ms = 20;
  ChaosFixture::LiveResult result;
  {
    ScopedFailpoint delay("serve.transport.read_delay");
    result = fix.RunLive("io_timeout", guards, [](int write_fd) {
      const char bytes[] = "PING\nPIN";
      ASSERT_EQ(::write(write_fd, bytes, sizeof(bytes) - 1),
                static_cast<ssize_t>(sizeof(bytes) - 1));
      // Stall: keep the pipe open, never finish the second line.
    });
  }
  const auto replies = ReadReplies(result.out_path);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], "OK pong");
  EXPECT_TRUE(StartsWith(replies[1], "ERR io-timeout")) << replies[1];
  EXPECT_NE(replies[1].find("stalled"), std::string::npos);
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.io_timeouts, 1u);
  EXPECT_EQ(snap.idle_reaped, 0u);
  EXPECT_EQ(ErrCount(snap, WireError::kIoTimeout), 1u);
}

// ---------------------------------------------------------------------
// Lifecycle guards without failpoints: idle reaper and drain wake fd.

TEST(ServeChaosTest, IdleReaperClosesQuietSession) {
  ChaosFixture fix;
  FdTransportOptions guards;
  guards.idle_timeout_ms = 30;
  const auto result = fix.RunLive("idle", guards, [](int) {
    // Open, connected, and silent: the definition of reapable.
  });
  const auto replies = ReadReplies(result.out_path);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(StartsWith(replies[0], "ERR io-timeout")) << replies[0];
  EXPECT_NE(replies[0].find("idle"), std::string::npos);
  EXPECT_GE(result.session_ms, 25u);  // it actually waited the window out
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.idle_reaped, 1u);
  EXPECT_EQ(snap.io_timeouts, 0u);
}

TEST(ServeChaosTest, StopFlagUnblocksSessionParkedOnSilentPeer) {
  // The SIGTERM-drain scenario at unit scale: a session blocked reading
  // a peer that never speaks must end as soon as the drain makes the
  // wake fd readable, not wait for input. No timeout is configured, so
  // without the wake fd this read would block forever.
  ChaosFixture fix;
  std::atomic<bool> stop{false};
  int wake[2];
  ASSERT_EQ(::pipe(wake), 0);
  FdTransportOptions guards;
  guards.wake_fd = wake[0];
  fix.options.stop = &stop;
  const auto result = fix.RunLive("stop", guards, [&](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true, std::memory_order_relaxed);
    EXPECT_EQ(::write(wake[1], "s", 1), 1);
  });
  ::close(wake[0]);
  ::close(wake[1]);
  EXPECT_TRUE(ReadReplies(result.out_path).empty());
  // The wake is immediate; 3s means the fix is broken.
  EXPECT_LT(result.session_ms, 3000u);
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.sessions_closed, 1u);
  EXPECT_EQ(snap.idle_reaped, 0u);
  EXPECT_EQ(snap.io_timeouts, 0u);
}

// ---------------------------------------------------------------------
// Reply-size cap.

TEST(ServeChaosTest, OversizedReplyBecomesTypedErrorAndSessionContinues) {
  ChaosFixture fix;
  fix.Register("kq", gen::Clique(48));
  fix.options.max_reply_bytes = 96;
  const auto replies = fix.Run(
      {
          "CST kq 0 47",           // 48 members: far past a 96-byte line
          "CST kq 0 47 limit=3",   // paged as the error suggests: fits
          "PING",                  // the session survived the cap
      },
      "too_large");
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_TRUE(StartsWith(replies[0], "ERR too-large")) << replies[0];
  EXPECT_NE(replies[0].find("page with limit="), std::string::npos);
  EXPECT_TRUE(StartsWith(replies[1], "OK status=found n=48")) << replies[1];
  EXPECT_LE(replies[1].size(), 96u);
  EXPECT_EQ(replies[2], "OK pong");
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(ErrCount(snap, WireError::kReplyTooLarge), 1u);
  // Ledger: the capped reply reached the client as ERR, so it is a
  // failed query, not a completed one.
  EXPECT_EQ(snap.q_attempted, 2u);
  EXPECT_EQ(snap.q_completed, 1u);
  EXPECT_EQ(snap.q_failed, 1u);
}

TEST(ServeChaosTest, OversizedReplyIsNeverCached) {
  // The cap must hold on every repeat: an over-cap reply is replaced
  // before the cache sees it, so the second request cannot be answered
  // with the full line from memory.
  ChaosFixture fix;
  fix.Register("kq", gen::Clique(48));
  fix.options.max_reply_bytes = 96;
  fix.options.cache = &fix.cache;
  const auto replies =
      fix.Run({"CST kq 0 47", "CST kq 0 47"}, "too_large_cached");
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(StartsWith(replies[0], "ERR too-large")) << replies[0];
  EXPECT_TRUE(StartsWith(replies[1], "ERR too-large")) << replies[1];
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.q_failed, 2u);
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(fix.cache.size(), 0u);
}

// ---------------------------------------------------------------------
// Deep-path failpoints: solver, registry, cache.

TEST(ServeChaosTest, SolverFaultDegradesToTypedErrorPerRequest) {
  ChaosFixture fix;
  fix.Register("bb", gen::Barbell(6, 2));
  std::vector<std::string> replies;
  {
    ScopedFailpoint fault("serve.solver.error");
    replies = fix.Run({"CST bb 0 5", "PING"}, "solver_fault");
  }
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], "ERR internal injected solver fault");
  EXPECT_EQ(replies[1], "OK pong");
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(ErrCount(snap, WireError::kInternal), 1u);
  EXPECT_EQ(snap.q_attempted, 1u);
  EXPECT_EQ(snap.q_failed, 1u);
  EXPECT_EQ(snap.q_completed, 0u);
}

TEST(ServeChaosTest, PeriodicSolverFaultFiresEveryOtherQuery) {
  // every=2 is the chaos-soak mode: the fault recurs throughout the run
  // (hits 1, 3, ... fire) without killing every request. No cache here,
  // so all four identical queries reach the solver dispatch site.
  ChaosFixture fix;
  fix.Register("bb", gen::Barbell(6, 2));
  std::vector<std::string> replies;
  {
    ScopedFailpoint fault("serve.solver.error", /*skip=*/0, /*every=*/2);
    replies = fix.Run(
        {"CST bb 0 5", "CST bb 0 5", "CST bb 0 5", "CST bb 0 5"},
        "periodic_fault");
  }
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_TRUE(StartsWith(replies[0], "ERR internal")) << replies[0];
  EXPECT_TRUE(StartsWith(replies[1], "OK status=found")) << replies[1];
  EXPECT_TRUE(StartsWith(replies[2], "ERR internal")) << replies[2];
  EXPECT_TRUE(StartsWith(replies[3], "OK status=found")) << replies[3];
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.q_attempted, 4u);
  EXPECT_EQ(snap.q_completed, 2u);
  EXPECT_EQ(snap.q_failed, 2u);
}

TEST(ServeChaosTest, RegistryLoadFaultIsTypedIoErrorAndRecoverable) {
  ChaosFixture fix;
  const std::string path = TempPath("chaos_load.metis");
  ASSERT_TRUE(SaveMetis(gen::Clique(8), path));
  std::vector<std::string> faulted;
  {
    ScopedFailpoint fault("serve.registry.load_error");
    faulted = fix.Run({"LOAD g " + path}, "registry_fault");
  }
  ASSERT_EQ(faulted.size(), 1u);
  EXPECT_TRUE(StartsWith(faulted[0], "ERR io")) << faulted[0];
  EXPECT_NE(faulted[0].find("injected registry load fault"),
            std::string::npos);
  // Disarmed, the same LOAD succeeds: the fault was per-attempt, not
  // sticky registry state.
  const auto healthy = fix.Run({"LOAD g " + path}, "registry_ok");
  ASSERT_EQ(healthy.size(), 1u);
  EXPECT_TRUE(StartsWith(healthy[0], "OK graph=g")) << healthy[0];
  EXPECT_GE(ErrCount(fix.metrics.Snapshot(), WireError::kIo), 1u);
}

TEST(ServeChaosTest, CacheInsertDropForcesRepeatedMisses) {
  ChaosFixture fix;
  fix.Register("bb", gen::Barbell(6, 2));
  fix.options.cache = &fix.cache;
  {
    ScopedFailpoint fault("serve.cache.insert_drop");
    const auto replies =
        fix.Run({"CST bb 0 5", "CST bb 0 5"}, "cache_drop");
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_TRUE(StartsWith(replies[0], "OK status=found")) << replies[0];
    EXPECT_EQ(replies[0], replies[1]);  // same answer, just re-solved
  }
  MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_misses, 2u);
  EXPECT_EQ(fix.cache.size(), 0u);
  // Disarmed, the insert lands and the next repeat is a hit.
  const auto replies = fix.Run({"CST bb 0 5", "CST bb 0 5"}, "cache_ok");
  ASSERT_EQ(replies.size(), 2u);
  snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.cache_misses, 3u);
  EXPECT_EQ(fix.cache.size(), 1u);
}

// ---------------------------------------------------------------------
// Conservation ledger across a mixed script.

TEST(ServeChaosTest, QueryLedgerConservesAcrossMixedOutcomes) {
  ChaosFixture fix;
  fix.Register("bb", gen::Barbell(6, 2));
  fix.options.cache = &fix.cache;
  const auto replies = fix.Run(
      {
          "PING",              // control verb: not in the ledger
          "CST bb 0 5",        // completed (miss + insert)
          "CST bb 0 5",        // completed (cache hit)
          "CST nosuch 0 5",    // failed (unknown graph)
          "CSM bb 0",          // completed
          "definitely not a verb",  // parse error: never attempted
          "STATS",
          "QUIT",
      },
      "ledger");
  ASSERT_EQ(replies.size(), 8u);
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.q_attempted, 4u);
  EXPECT_EQ(snap.q_completed, 3u);
  EXPECT_EQ(snap.q_failed, 1u);
  EXPECT_EQ(snap.q_attempted, snap.q_completed + snap.q_failed);
  // The STATS line carries the ledger so chaos_serve.sh can assert the
  // same identity from outside the process.
  EXPECT_NE(replies[6].find("q_attempted=4"), std::string::npos)
      << replies[6];
  EXPECT_NE(replies[6].find("q_completed=3"), std::string::npos)
      << replies[6];
  EXPECT_NE(replies[6].find("q_failed=1"), std::string::npos) << replies[6];
}

// ---------------------------------------------------------------------
// RetryClient failure discipline.

TEST(ServeChaosTest, RetryClientGivesUpOnDeadPort) {
  // Reserve a port with no listener: bind, read it back, close.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  RetryClientOptions options;
  options.port = dead_port;
  options.max_attempts = 6;
  options.request_deadline_ms = 2000;
  RetryClient client(options);
  std::string reply;
  EXPECT_FALSE(client.Request("PING", &reply));
  EXPECT_FALSE(reply.empty());  // diagnostic, not silence
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.stats().connects, 0u);
  EXPECT_EQ(client.stats().retries, options.max_attempts - 1);
}

TEST(ServeChaosTest, RetryClientDeadlineCoversAnAttemptStartedLate) {
  // A peer that drops the first connection unanswered at half the
  // deadline and then accepts a second one it never answers. The second
  // attempt starts with half the deadline left; its reads must be cut to
  // that, not granted the whole deadline again.
  constexpr int kDeadlineMs = 1000;
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::thread peer([listener] {
    const int first = ::accept(listener, nullptr, nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(kDeadlineMs / 2));
    if (first >= 0) ::close(first);
    // Take the request, never reply; ends when the client hangs up.
    const int second = ::accept(listener, nullptr, nullptr);
    if (second < 0) return;
    char buf[256];
    while (::read(second, buf, sizeof(buf)) > 0) {
    }
    ::close(second);
  });

  RetryClientOptions options;
  options.port = ntohs(addr.sin_port);
  options.max_attempts = 3;
  options.request_deadline_ms = kDeadlineMs;
  RetryClient client(options);
  std::string reply;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.Request("PING", &reply));
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LE(elapsed_ms, kDeadlineMs + 250) << reply;
  EXPECT_GE(client.stats().connects, 2u);
  EXPECT_FALSE(reply.empty());
  client.Disconnect();
  ::shutdown(listener, SHUT_RDWR);  // wakes an accept still waiting
  peer.join();
  ::close(listener);
}

TEST(ServeChaosTest, RetryClientServesThenReportsFailureAfterServerStop) {
  ServerOptions options;
  CommunityServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread accept_thread([&] { server.Run(); });

  RetryClientOptions client_options;
  client_options.port = server.port();
  client_options.max_attempts = 3;
  client_options.request_deadline_ms = 5000;
  RetryClient client(client_options);
  std::string reply;
  ASSERT_TRUE(client.Request("PING", &reply));
  EXPECT_EQ(reply, "OK pong");
  EXPECT_EQ(client.stats().connects, 1u);

  server.Stop();
  accept_thread.join();
  // Dead server: the client retries (reconnect attempts fail against
  // the closed listener) and then reports the failure instead of
  // hanging or crashing.
  EXPECT_FALSE(client.Request("PING", &reply));
  EXPECT_FALSE(reply.empty());
  EXPECT_GE(client.stats().retries, 1u);
}

TEST(ServeChaosTest, RetryClientRidesOutTheSessionCap) {
  ServerOptions options;
  options.max_sessions = 1;
  CommunityServer server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread accept_thread([&] { server.Run(); });

  // The holder takes the only session; its PING round trip proves the
  // session runs before the client dials.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  FdTransport held(fd, fd);
  std::string line;
  ASSERT_TRUE(held.WriteLine("PING"));
  ASSERT_EQ(held.ReadLine(&line), FdTransport::ReadStatus::kLine);
  EXPECT_EQ(line, "OK pong");

  RetryClientOptions client_options;
  client_options.port = server.port();
  client_options.max_attempts = 1000;
  client_options.request_deadline_ms = 20000;
  RetryClient client(client_options);
  bool served = false;
  std::string reply;
  std::thread client_thread(
      [&] { served = client.Request("PING", &reply); });

  // Release the session only once the cap has turned the client away.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.metrics().Snapshot().rejected == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.metrics().Snapshot().rejected, 1u);
  ASSERT_TRUE(held.WriteLine("QUIT"));
  ASSERT_EQ(held.ReadLine(&line), FdTransport::ReadStatus::kLine);
  EXPECT_EQ(line, "OK bye");
  client_thread.join();
  ::close(fd);

  EXPECT_TRUE(served) << reply;
  EXPECT_EQ(reply, "OK pong");
  EXPECT_GE(client.stats().busy_honored, 1u);
  client.Disconnect();
  server.Stop();
  accept_thread.join();
}

}  // namespace
}  // namespace locs::serve
