// End-to-end tests of the locsd binary: scripted stdio sessions, the
// TCP loopback front end driven through `locs_cli client`, result
// equivalence with the one-shot CLI, malformed-input survival, and
// graceful SIGTERM drain — all via real subprocesses.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace locs {
namespace {

#ifndef LOCS_CLI_PATH
#define LOCS_CLI_PATH "locs_cli"
#endif
#ifndef LOCSD_PATH
#define LOCSD_PATH "locsd"
#endif
#ifndef LOCS_CST_GOLDEN_PATH
#define LOCS_CST_GOLDEN_PATH "cst_served_golden.txt"
#endif

/// Runs `command` under sh, captures stdout; returns {exit code, output}.
std::pair<int, std::string> RunShell(const std::string& command) {
  std::FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buffer{};
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = ::pclose(pipe);
  return {WEXITSTATUS(status), output};
}

/// A file name of the running test's own: ctest runs the tests as
/// parallel processes, and two writing one path read each other's bytes.
std::string TempPath(const std::string& name) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + test->test_suite_name() + "." +
         test->name() + "." + name;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

/// Extracts the value of ` key=` in a served reply line ("" if absent).
std::string Field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  const size_t begin = pos + needle.size();
  return line.substr(begin, line.find(' ', begin) - begin);
}

/// Generates the shared test graph once per process.
const std::string& GraphPath() {
  static const std::string path = [] {
    const std::string p = TempPath("locsd_it.metis");
    const auto [code, out] = RunShell(
        std::string(LOCS_CLI_PATH) +
        " generate --model=lfr --n=2000 --seed=5 --output=" + p);
    EXPECT_EQ(code, 0) << out;
    return p;
  }();
  return path;
}

/// Pipes `script` (one request per line) into `locsd --stdio`.
std::pair<int, std::vector<std::string>> StdioSession(
    const std::string& script, const std::string& extra_flags = "") {
  const std::string script_path = TempPath("locsd_script.txt");
  {
    std::ofstream out(script_path, std::ios::binary);
    out << script;
  }
  const auto [code, out] =
      RunShell(std::string(LOCSD_PATH) + " --stdio " + extra_flags + " < " +
               script_path + " 2>/dev/null");
  return {code, SplitLines(out)};
}

TEST(LocsdIntegrationTest, StdioSessionEndToEnd) {
  const auto [code, replies] = StdioSession(
      "PING\n"
      "LOAD g " + GraphPath() + "\n"
      "CST g 7 3 limit=5\n"
      "CSM g 7 limit=5\n"
      "MULTI g 2 7 8 limit=5\n"
      "STATS\n"
      "QUIT\n");
  EXPECT_EQ(code, 0);
  ASSERT_EQ(replies.size(), 7u);
  EXPECT_EQ(replies[0], "OK pong");
  EXPECT_TRUE(StartsWith(replies[1], "OK graph=g vertices=2000"))
      << replies[1];
  EXPECT_TRUE(StartsWith(replies[2], "OK status=found")) << replies[2];
  EXPECT_TRUE(StartsWith(replies[3], "OK status=found")) << replies[3];
  EXPECT_TRUE(StartsWith(replies[4], "OK status=found")) << replies[4];
  EXPECT_TRUE(StartsWith(replies[5], "OK uptime_ms=")) << replies[5];
  EXPECT_EQ(Field(replies[5], "queries"), "3");
  EXPECT_EQ(replies[6], "OK bye");
}

/// Masks the values of duration keys (`*_ms=`, `*_us=`, `*_ns=`) in a
/// reply line; everything else — including every telemetry counter — is
/// left byte-exact.
std::string MaskDurations(const std::string& line) {
  std::string masked;
  std::istringstream stream(line);
  std::string token;
  bool first = true;
  while (stream >> token) {
    if (!first) masked += ' ';
    first = false;
    const size_t eq = token.find('=');
    bool timed = false;
    if (eq != std::string::npos && eq >= 3) {
      const std::string suffix = token.substr(eq - 3, 3);
      timed = suffix == "_ms" || suffix == "_us" || suffix == "_ns";
    }
    masked += timed ? token.substr(0, eq + 1) + "X" : token;
  }
  return masked;
}

TEST(LocsdIntegrationTest, GoldenTranscriptIsDeterministicModuloDurations) {
  // The full LOAD / traced-query / STATS / QUIT transcript must be
  // byte-identical across two independent daemon processes once the
  // wall-clock fields (keys ending _ms/_us/_ns) are masked. This pins
  // down both the trace=1 phase breakdown and the STATS per-phase
  // telemetry totals as deterministic solver facts, not timing noise.
  const std::string script =
      "LOAD g " + GraphPath() + "\n"
      "CST g 7 3 trace=1 limit=5\n"
      "CSM g 7 trace=1 limit=5\n"
      "MULTI g 2 7 8 trace=1 limit=5\n"
      "MULTI g max 7 8 trace=1 limit=5\n"
      "STATS\n"
      "QUIT\n";
  const auto [code_a, replies_a] = StdioSession(script);
  const auto [code_b, replies_b] = StdioSession(script);
  EXPECT_EQ(code_a, 0);
  EXPECT_EQ(code_b, 0);
  ASSERT_EQ(replies_a.size(), 7u);
  ASSERT_EQ(replies_b.size(), 7u);
  for (size_t i = 0; i < replies_a.size(); ++i) {
    EXPECT_EQ(MaskDurations(replies_a[i]), MaskDurations(replies_b[i]))
        << "transcript line " << i << " diverges";
  }
  // Structural golden facts of the traced replies and STATS line.
  for (const size_t traced : {1u, 2u, 3u, 4u}) {
    EXPECT_TRUE(StartsWith(replies_a[traced], "OK status="))
        << replies_a[traced];
    EXPECT_NE(replies_a[traced].find(" phases="), std::string::npos)
        << replies_a[traced];
    EXPECT_NE(Field(replies_a[traced], "fallback"), "")
        << replies_a[traced];
    EXPECT_NE(Field(replies_a[traced], "scanned"), "")
        << replies_a[traced];
  }
  // An untraced query must NOT carry the breakdown.
  const auto [code_c, replies_c] =
      StdioSession("LOAD g " + GraphPath() + "\nCST g 7 3 limit=5\nQUIT\n");
  EXPECT_EQ(code_c, 0);
  ASSERT_EQ(replies_c.size(), 3u);
  EXPECT_EQ(replies_c[1].find(" phases="), std::string::npos)
      << replies_c[1];
  // STATS carries the aggregated per-phase totals (4 solver queries).
  EXPECT_EQ(Field(replies_a[5], "solver_queries"), "4") << replies_a[5];
  EXPECT_NE(Field(replies_a[5], "ph_expansion_visited"), "")
      << replies_a[5];
}

TEST(LocsdIntegrationTest, ServedCstMatchesCheckedInGolden) {
  // tests/data/cst_served_golden.txt pins served CST replies across
  // commits: its request lines are replayed against a fresh daemon, and
  // the transcript (the file's leading comment, then each request and its
  // reply) must reproduce the file byte for byte. Traced CST replies carry
  // no durations, so nothing is masked.
  std::ifstream in(LOCS_CST_GOLDEN_PATH, std::ios::binary);
  ASSERT_TRUE(in.good()) << LOCS_CST_GOLDEN_PATH;
  std::ostringstream golden_text;
  golden_text << in.rdbuf();
  const std::string golden = golden_text.str();
  std::string expected;
  std::string script = "LOAD g " + GraphPath() + "\n";
  std::vector<std::string> requests;
  for (const std::string& line : SplitLines(golden)) {
    if (StartsWith(line, "#")) {
      expected += line + "\n";
    } else if (StartsWith(line, "CST ")) {
      requests.push_back(line);
      script += line + "\n";
    }
  }
  ASSERT_GE(requests.size(), 150u);
  const auto [code, replies] = StdioSession(script + "QUIT\n");
  EXPECT_EQ(code, 0);
  ASSERT_EQ(replies.size(), requests.size() + 2);
  for (size_t i = 0; i < requests.size(); ++i) {
    expected += requests[i] + "\n" + replies[i + 1] + "\n";
  }
  EXPECT_EQ(expected, golden);
}

TEST(LocsdIntegrationTest, ServedAnswersMatchOneShotCli) {
  // The daemon and the one-shot CLI must agree on community size and
  // goodness for the same (graph, query) — the serving layer adds
  // residency, not different answers.
  const auto [cli_code, cli_out] = RunShell(
      std::string(LOCS_CLI_PATH) + " cst --input=" + GraphPath() +
      " --vertex=7 --k=3 2>/dev/null");
  ASSERT_EQ(cli_code, 0);
  // CLI prints "community: <n> members, δ=<d> (...)".
  const size_t pos = cli_out.find("community: ");
  ASSERT_NE(pos, std::string::npos) << cli_out;
  unsigned long cli_n = 0, cli_delta = 0;
  ASSERT_EQ(std::sscanf(cli_out.c_str() + pos,
                        "community: %lu members, δ=%lu", &cli_n,
                        &cli_delta),
            2)
      << cli_out;

  const auto [code, replies] = StdioSession(
      "LOAD g " + GraphPath() + "\nCST g 7 3 limit=1\nQUIT\n");
  EXPECT_EQ(code, 0);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(Field(replies[1], "n"), std::to_string(cli_n)) << replies[1];
  EXPECT_EQ(Field(replies[1], "delta"), std::to_string(cli_delta))
      << replies[1];
}

TEST(LocsdIntegrationTest, PreloadServesWithoutLoad) {
  const auto [code, replies] = StdioSession(
      "LIST\nCST pre 7 3 limit=1\nQUIT\n",
      "--preload=pre=" + GraphPath());
  EXPECT_EQ(code, 0);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_TRUE(StartsWith(replies[0], "OK graphs=1 pre:2000:"))
      << replies[0];
  EXPECT_TRUE(StartsWith(replies[1], "OK status=found")) << replies[1];
}

TEST(LocsdIntegrationTest, MalformedInputNeverCrashes) {
  // Garbage verbs, bad numbers, missing args, an embedded-NUL token, and
  // an 80 KiB line with no newline: every one draws a typed ERR and the
  // session keeps serving (the final PING/QUIT still answer, exit 0).
  std::string script;
  script += "FROBNICATE the server\n";
  script += "CST\n";
  script += "CST g seven 3\n";
  script += std::string("CS\0T g 1 2", 10) + "\n";
  script += std::string(80 * 1024, 'A') + "\n";
  script += "PING\nQUIT\n";
  const auto [code, replies] = StdioSession(script);
  EXPECT_EQ(code, 0);
  ASSERT_EQ(replies.size(), 7u);
  EXPECT_TRUE(StartsWith(replies[0], "ERR unknown-verb"));
  EXPECT_TRUE(StartsWith(replies[1], "ERR missing-arg"));
  EXPECT_TRUE(StartsWith(replies[2], "ERR bad-number"));
  EXPECT_TRUE(StartsWith(replies[3], "ERR unknown-verb"));
  EXPECT_TRUE(StartsWith(replies[4], "ERR line-too-long"));
  EXPECT_EQ(replies[5], "OK pong");
  EXPECT_EQ(replies[6], "OK bye");
}

TEST(LocsdIntegrationTest, UsageAndBadFlagsFailCleanly) {
  EXPECT_NE(RunShell(std::string(LOCSD_PATH) + " 2>/dev/null").first, 0);
  EXPECT_NE(RunShell(std::string(LOCSD_PATH) +
                     " --stdio --port=4000 2>/dev/null")
                .first,
            0);
  EXPECT_NE(
      RunShell(std::string(LOCSD_PATH) + " --frobnicate 2>/dev/null").first,
      0);
  // With a valid mode, each bad flag alone must still fail: exit 2 with
  // the flag named on stderr, and no session served. So must a
  // positional argument, a repeated flag and every retired flag (a
  // query's limits come from the request alone).
  for (const std::string flag :
       {"--frobnicate", "--max-queue=8", "--max-sessions-per-peer=2",
        "--default-deadline-ms=50", "--max-deadline-ms=50",
        "--default-budget=100", "--max-budget=100", "--member-limit=5",
        "--max-sessions=-1", "--max-inflight=abc", "extra",
        "--max-inflight=2 --max-inflight=3"}) {
    const auto [code, out] =
        RunShell("printf 'PING\\n' | " + std::string(LOCSD_PATH) +
                 " --stdio " + flag + " 2>&1");
    EXPECT_EQ(code, 2) << flag << ": " << out;
    EXPECT_NE(out.find(flag.substr(0, flag.find('='))), std::string::npos)
        << flag << ": " << out;
    EXPECT_EQ(out.find("OK pong"), std::string::npos) << flag << ": " << out;
  }
}

/// Forks locsd on an ephemeral TCP port; waits for the port file.
class LocsdProcess {
 public:
  explicit LocsdProcess(const std::string& extra_flags) {
    port_file_ = TempPath("locsd_port." + std::to_string(::getpid()));
    std::remove(port_file_.c_str());
    pid_ = ::fork();
    if (pid_ == 0) {
      const std::string port_flag = "--port-file=" + port_file_;
      std::vector<std::string> args = {LOCSD_PATH, "--port=0", port_flag};
      std::istringstream flags(extra_flags);
      std::string flag;
      while (flags >> flag) args.push_back(flag);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(LOCSD_PATH, argv.data());
      ::_exit(127);  // exec failed
    }
    // Rendezvous: the daemon writes the port file after listen().
    for (int i = 0; i < 200 && port_ == 0; ++i) {
      std::ifstream in(port_file_);
      if (!(in >> port_)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    }
  }

  ~LocsdProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    std::remove(port_file_.c_str());
  }

  /// SIGTERM + reap; returns the exit status (-1 if it did not exit).
  int Terminate() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const pid_t reaped = ::waitpid(pid_, &status, 0);
    const int result =
        (reaped == pid_ && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
    pid_ = -1;
    return result;
  }

  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  std::string port_file_;
  int port_ = 0;
};

TEST(LocsdIntegrationTest, TcpSessionViaClientMatchesStdio) {
  LocsdProcess daemon("--preload=g=" + GraphPath());
  ASSERT_GT(daemon.port(), 0) << "daemon did not write its port file";

  // Drive the TCP session through the bundled client; replies are
  // deterministic by design, so they must equal the stdio transcript
  // byte for byte.
  const std::string script = "CST g 7 3 limit=5\nCSM g 7 limit=5\nQUIT\n";
  const std::string script_path = TempPath("locsd_tcp_script.txt");
  {
    std::ofstream out(script_path);
    out << script;
  }
  const auto [tcp_code, tcp_out] = RunShell(
      std::string(LOCS_CLI_PATH) + " client --port=" +
      std::to_string(daemon.port()) + " < " + script_path + " 2>/dev/null");
  EXPECT_EQ(tcp_code, 0);
  const auto [stdio_code, stdio_replies] =
      StdioSession(script, "--preload=g=" + GraphPath());
  EXPECT_EQ(stdio_code, 0);
  const std::vector<std::string> tcp_replies = SplitLines(tcp_out);
  ASSERT_EQ(tcp_replies.size(), 3u);
  ASSERT_EQ(stdio_replies.size(), 3u);
  EXPECT_EQ(tcp_replies, stdio_replies);

  // SIGTERM drains gracefully: exit 0, not a signal death.
  EXPECT_EQ(daemon.Terminate(), 0);
}

TEST(LocsdIntegrationTest, TcpSessionCapSaysBusy) {
  LocsdProcess daemon("--max-sessions=1");
  ASSERT_GT(daemon.port(), 0);
  // Holder keeps the one session slot occupied: its script has no QUIT,
  // so the `sleep` keeps the pipe (and thus the session) open while the
  // second client connects.
  const std::string port = std::to_string(daemon.port());
  const auto [code, out] = RunShell(
      "( printf 'PING\\n'; sleep 1 ) | " + std::string(LOCS_CLI_PATH) +
      " client --port=" + port + " 2>/dev/null & " +
      "sleep 0.4; printf 'PING\\nQUIT\\n' | " + std::string(LOCS_CLI_PATH) +
      " client --port=" + port + " 2>/dev/null; wait");
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("BUSY sessions=1"), std::string::npos) << out;
  EXPECT_EQ(daemon.Terminate(), 0);
}

TEST(LocsdIntegrationTest, ClientScriptEndsAtByeNotAtAQuitPrefix) {
  LocsdProcess daemon("");
  ASSERT_GT(daemon.port(), 0);
  // QUITX is an unknown verb, not QUIT: locsd answers ERR and keeps the
  // session, so the client must go on with the script until `OK bye`.
  const auto [code, out] = RunShell(
      "printf 'PING\\nQUITX\\nPING\\nQUIT\\n' | " +
      std::string(LOCS_CLI_PATH) + " client --port=" +
      std::to_string(daemon.port()) + " 2>/dev/null");
  EXPECT_EQ(code, 0);
  const std::vector<std::string> replies = SplitLines(out);
  ASSERT_EQ(replies.size(), 4u) << out;
  EXPECT_EQ(replies[0], "OK pong");
  EXPECT_EQ(replies[1].rfind("ERR unknown-verb", 0), 0u) << replies[1];
  EXPECT_EQ(replies[2], "OK pong");
  EXPECT_EQ(replies[3], "OK bye");
  EXPECT_EQ(daemon.Terminate(), 0);
}

TEST(LocsdIntegrationTest, StdioSigtermDuringBlockedReadExitsPromptly) {
  // Regression: locsd --stdio parked in a blocking read on a silent,
  // still-open stdin used to sit in read(2) until the peer spoke, so
  // SIGTERM never finished the drain. The transport now polls the
  // server's wake fd beside stdin, so termination must complete
  // promptly with exit 0 while stdin is still open and silent.
  int stdin_pipe[2];
  ASSERT_EQ(::pipe(stdin_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(stdin_pipe[0], STDIN_FILENO);
    ::close(stdin_pipe[0]);
    ::close(stdin_pipe[1]);
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::execl(LOCSD_PATH, LOCSD_PATH, "--stdio",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(stdin_pipe[0]);
  // Let the daemon reach its blocking read before the signal.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  pid_t reaped = 0;
  // 3s budget: the wake is immediate, so a healthy daemon exits orders
  // of magnitude inside this.
  for (int i = 0; i < 150; ++i) {
    reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::close(stdin_pipe[1]);
  if (reaped != pid) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    FAIL() << "locsd --stdio did not exit within 3s of SIGTERM";
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

/// Reads `fd` until EOF.
std::string ReadAll(int fd) {
  std::string text;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    text.append(buffer, static_cast<size_t>(n));
  }
  return text;
}

/// Reads `fd` up to and including the first newline.
std::string ReadLine(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    line += c;
    if (c == '\n') break;
  }
  return line;
}

TEST(LocsdIntegrationTest, StdioSigtermDeliversInFlightReply) {
  // SIGTERM lands while an admitted query sleeps in serve.slow_query
  // (200 ms): the drain must still write its reply, and the final STATS
  // line must count it completed. stdin stays open throughout.
  int stdin_pipe[2];
  int stdout_pipe[2];
  int stderr_pipe[2];
  ASSERT_EQ(::pipe(stdin_pipe), 0);
  ASSERT_EQ(::pipe(stdout_pipe), 0);
  ASSERT_EQ(::pipe(stderr_pipe), 0);
  const std::string preload = "--preload=g=" + GraphPath();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(stdin_pipe[0], STDIN_FILENO);
    ::dup2(stdout_pipe[1], STDOUT_FILENO);
    ::dup2(stderr_pipe[1], STDERR_FILENO);
    for (const int fd : {stdin_pipe[0], stdin_pipe[1], stdout_pipe[0],
                         stdout_pipe[1], stderr_pipe[0], stderr_pipe[1]}) {
      ::close(fd);
    }
    ::setenv("LOCS_FAILPOINT", "serve.slow_query", 1);
    ::execl(LOCSD_PATH, LOCSD_PATH, "--stdio", preload.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(stdin_pipe[0]);
  ::close(stdout_pipe[1]);
  ::close(stderr_pipe[1]);
  // A PING round trip proves the session runs before the query is sent.
  const std::string ping = "PING\n";
  ASSERT_EQ(::write(stdin_pipe[1], ping.data(), ping.size()),
            static_cast<ssize_t>(ping.size()));
  EXPECT_EQ(ReadLine(stdout_pipe[0]), "OK pong\n");
  const std::string query = "CST g 7 3 limit=5\n";
  ASSERT_EQ(::write(stdin_pipe[1], query.data(), query.size()),
            static_cast<ssize_t>(query.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  const std::string out = ReadAll(stdout_pipe[0]);
  const std::string err = ReadAll(stderr_pipe[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ::close(stdin_pipe[1]);
  ::close(stdout_pipe[0]);
  ::close(stderr_pipe[0]);
  EXPECT_TRUE(StartsWith(out, "OK status=found")) << out;
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const std::vector<std::string> err_lines = SplitLines(err);
  ASSERT_FALSE(err_lines.empty());
  EXPECT_EQ(Field(err_lines.back(), "q_completed"), "1") << err;
  EXPECT_EQ(Field(err_lines.back(), "q_failed"), "0") << err;
}

}  // namespace
}  // namespace locs
