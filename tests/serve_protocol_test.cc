// Adversarial coverage of the locsd wire protocol: the parser is total,
// so every byte sequence — overlong lines, embedded NUL, missing args,
// non-numeric ids, surplus tokens, hostile options — must map to a typed
// WireError, never an abort. Also covers the FdTransport line framing
// (CRLF peers, unterminated tails, the too-long discard path).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "serve/transport.h"
#include "serve/wire.h"

namespace locs::serve {
namespace {

ParseResult Parse(std::string_view line) { return ParseRequest(line); }

TEST(WireParseTest, BlankLinesAreIgnorable) {
  for (const char* line : {"", "   ", "\t", " \t  "}) {
    const ParseResult result = Parse(line);
    ASSERT_TRUE(result.ok()) << '"' << line << '"';
    EXPECT_EQ(result.request.verb, Verb::kNone);
  }
}

TEST(WireParseTest, EveryVerbRoundTrips) {
  EXPECT_EQ(Parse("LOAD g /tmp/g.metis").request.verb, Verb::kLoad);
  EXPECT_EQ(Parse("LOADIMG g /tmp/g.limg").request.verb, Verb::kLoadImg);
  EXPECT_EQ(Parse("EVICT g").request.verb, Verb::kEvict);
  EXPECT_EQ(Parse("LIST").request.verb, Verb::kList);
  EXPECT_EQ(Parse("CST g 7 3").request.verb, Verb::kCst);
  EXPECT_EQ(Parse("CSM g 7").request.verb, Verb::kCsm);
  EXPECT_EQ(Parse("MULTI g 3 1 2").request.verb, Verb::kMulti);
  EXPECT_EQ(Parse("STATS").request.verb, Verb::kStats);
  EXPECT_EQ(Parse("PING").request.verb, Verb::kPing);
  EXPECT_EQ(Parse("QUIT").request.verb, Verb::kQuit);
}

TEST(WireParseTest, CstCarriesAllFields) {
  const ParseResult result =
      Parse("CST web 42 5 deadline_ms=250 budget=100000 limit=10");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.request.graph, "web");
  EXPECT_EQ(result.request.vertices, std::vector<VertexId>{42});
  EXPECT_EQ(result.request.k, 5u);
  EXPECT_DOUBLE_EQ(result.request.limits.deadline_ms, 250.0);
  EXPECT_EQ(result.request.limits.work_budget, 100000u);
  EXPECT_EQ(result.request.member_limit, 10u);
}

TEST(WireParseTest, LoadImgCarriesGraphAndPath) {
  const ParseResult result = Parse("LOADIMG web /data/web.limg");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.request.verb, Verb::kLoadImg);
  EXPECT_EQ(result.request.graph, "web");
  EXPECT_EQ(result.request.path, "/data/web.limg");
}

TEST(WireParseTest, MultiParsesKOrMax) {
  const ParseResult with_k = Parse("MULTI g 4 1 2 3");
  ASSERT_TRUE(with_k.ok());
  EXPECT_FALSE(with_k.request.multi_max);
  EXPECT_EQ(with_k.request.k, 4u);
  EXPECT_EQ(with_k.request.vertices, (std::vector<VertexId>{1, 2, 3}));

  const ParseResult with_max = Parse("MULTI g max 9 8");
  ASSERT_TRUE(with_max.ok());
  EXPECT_TRUE(with_max.request.multi_max);
  EXPECT_EQ(with_max.request.vertices, (std::vector<VertexId>{9, 8}));
}

TEST(WireParseTest, ExtraWhitespaceBetweenTokensIsFine) {
  const ParseResult result = Parse("  CST   g\t7   3  ");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.request.verb, Verb::kCst);
  EXPECT_EQ(result.request.k, 3u);
}

TEST(WireParseTest, UnknownVerbIsTyped) {
  for (const char* line :
       {"BOGUS", "cst g 1 2", "Load g p", "LOADX g p", "CST3 g", "42 CST"}) {
    const ParseResult result = Parse(line);
    EXPECT_EQ(result.error, WireError::kUnknownVerb) << line;
  }
}

TEST(WireParseTest, UnknownVerbDetailIsSanitizedAndBounded) {
  // Control bytes must not leak into the (printable) reply line, and a
  // huge token must not echo back at full size.
  std::string line(1024, 'X');
  line[1] = '\x01';
  line[2] = '\n';
  const ParseResult result = Parse(line);
  ASSERT_EQ(result.error, WireError::kUnknownVerb);
  const std::string reply = FormatError(result.error, result.detail);
  EXPECT_LT(reply.size(), 128u);
  for (const char c : reply) {
    EXPECT_TRUE(c >= 0x20 && c < 0x7f) << static_cast<int>(c);
  }
}

TEST(WireParseTest, MissingArgsForEveryVerb) {
  for (const char* line :
       {"LOAD", "LOAD g", "LOADIMG", "LOADIMG g", "EVICT", "CST", "CST g",
        "CST g 7", "CSM", "CSM g", "MULTI", "MULTI g", "MULTI g 3",
        "MULTI g max"}) {
    EXPECT_EQ(Parse(line).error, WireError::kMissingArg) << line;
  }
}

TEST(WireParseTest, SurplusArgsAreRejected) {
  for (const char* line :
       {"LIST extra", "STATS now", "PING x", "QUIT y", "EVICT g h",
        "LOAD g path extra", "LOADIMG g path extra", "CST g 7 3 9",
        "CSM g 7 9"}) {
    EXPECT_EQ(Parse(line).error, WireError::kExtraArg) << line;
  }
}

TEST(WireParseTest, NonNumericIdsAreTyped) {
  for (const char* line :
       {"CST g seven 3", "CST g 7 three", "CST g 7.5 3", "CST g -1 3",
        "CST g 0x10 3", "CST g 7e2 3", "CST g 99999999999999999999 3",
        "CSM g vertex", "MULTI g k 1", "MULTI g 3 1 two",
        "MULTI g 3 18446744073709551616"}) {
    EXPECT_EQ(Parse(line).error, WireError::kBadNumber) << line;
  }
}

TEST(WireParseTest, BadOptionsAreTyped) {
  for (const char* line :
       {"CST g 7 3 deadline_ms=", "CST g 7 3 deadline_ms=soon",
        "CST g 7 3 budget=big", "CST g 7 3 budget=-5",
        "CST g 7 3 frobnicate=1", "CSM g 7 limit=ten", "CSM g 7 =5"}) {
    EXPECT_EQ(Parse(line).error, WireError::kBadOption) << line;
  }
}

TEST(WireParseTest, NumericOptionEdgesArePinned) {
  // The exact set of edge tokens each option takes: an unbounded
  // deadline and γ → −∞ parse; a negative, NaN or overflowing deadline,
  // a NaN γ and a signed budget do not.
  const ParseResult deadline = Parse("CST g 7 3 deadline_ms=inf");
  ASSERT_TRUE(deadline.ok());
  EXPECT_TRUE(std::isinf(deadline.request.limits.deadline_ms));
  const ParseResult gamma = Parse("CSM g 7 gamma=-inf");
  ASSERT_TRUE(gamma.ok());
  EXPECT_TRUE(std::isinf(gamma.request.gamma));
  EXPECT_LT(gamma.request.gamma, 0.0);
  for (const char* line :
       {"CST g 7 3 deadline_ms=-inf", "CST g 7 3 deadline_ms=nan",
        "CST g 7 3 deadline_ms=1e400", "CSM g 7 gamma=nan",
        "CST g 7 3 budget=-1", "CST g 7 3 budget=+5"}) {
    EXPECT_EQ(Parse(line).error, WireError::kBadOption) << line;
  }
}

TEST(WireParseTest, EmbeddedNulIsRejectedNotFatal) {
  // A NUL is an ordinary byte to the tokenizer; the resulting token is
  // simply not a verb / not a number. Nothing may abort.
  const std::string nul_verb = std::string("CS\0T g 1 2", 10);
  EXPECT_EQ(Parse(nul_verb).error, WireError::kUnknownVerb);
  const std::string nul_arg = std::string("CST g 1\0 2", 10);
  EXPECT_EQ(Parse(nul_arg).error, WireError::kBadNumber);
  const std::string nul_only = std::string("\0\0\0", 3);
  EXPECT_EQ(Parse(nul_only).error, WireError::kUnknownVerb);
}

TEST(WireParseTest, OverlongLineIsTyped) {
  std::string line = "MULTI g 3";
  while (line.size() <= kMaxLineBytes) line += " 7";
  EXPECT_EQ(Parse(line).error, WireError::kLineTooLong);
  // One byte under the cap parses normally.
  std::string ok_line = "CSM g 7";
  ok_line += std::string(kMaxLineBytes - ok_line.size() - 1, ' ');
  EXPECT_TRUE(Parse(ok_line).ok());
}

TEST(WireParseTest, FuzzNeverAborts) {
  // 20k random byte strings through the parser: every outcome must be
  // either a parsed request or a typed error — this test passing at all
  // is the assertion (no crash, no sanitizer report).
  std::mt19937 rng(20140612);  // the paper's publication date as a seed
  std::uniform_int_distribution<int> len_dist(0, 200);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::uniform_int_distribution<int> mode_dist(0, 2);
  const std::string alphabet = "CSTMULIODAEVQPNG 0123456789=_.max";
  for (int i = 0; i < 20000; ++i) {
    std::string line;
    const int length = len_dist(rng);
    const int mode = mode_dist(rng);
    for (int b = 0; b < length; ++b) {
      if (mode == 0) {
        line += static_cast<char>(byte_dist(rng));
      } else {
        // Structured-ish noise: more likely to reach deep parser states.
        line += alphabet[static_cast<size_t>(byte_dist(rng)) %
                         alphabet.size()];
      }
    }
    const ParseResult result = Parse(line);
    if (!result.ok()) {
      // Errors render without surprises, too.
      const std::string reply = FormatError(result.error, result.detail);
      EXPECT_EQ(reply.rfind("ERR ", 0), 0u);
    }
  }
}

TEST(WireParseTest, ErrorAndVerbNamesAreStable) {
  EXPECT_EQ(VerbName(Verb::kMulti), "MULTI");
  EXPECT_EQ(WireErrorName(WireError::kLineTooLong), "line-too-long");
  EXPECT_EQ(WireErrorName(WireError::kShuttingDown), "shutting-down");
  EXPECT_EQ(FormatError(WireError::kBadNumber, "token 'x'"),
            "ERR bad-number token 'x'");
}

// --- FdTransport framing -------------------------------------------------

/// Feeds `bytes` through a file-backed fd (payloads exceed the pipe
/// buffer) and drains the transport; returns the (status, line) sequence
/// until EOF/error.
std::vector<std::pair<FdTransport::ReadStatus, std::string>> Feed(
    const std::string& bytes) {
  // Named after the running test: ctest runs each test as its own
  // process in parallel, and two feeding one path read each other's bytes.
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "/" +
                           test->test_suite_name() + "." + test->name() +
                           ".transport_feed.bin";
  const int write_fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  EXPECT_GE(write_fd, 0);
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::write(write_fd, bytes.data() + off, bytes.size() - off);
    EXPECT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
  ::close(write_fd);
  const int read_fd = ::open(path.c_str(), O_RDONLY);
  EXPECT_GE(read_fd, 0);
  FdTransport transport(read_fd, -1);
  std::vector<std::pair<FdTransport::ReadStatus, std::string>> out;
  for (;;) {
    std::string line;
    const FdTransport::ReadStatus status = transport.ReadLine(&line);
    out.emplace_back(status, line);
    if (status == FdTransport::ReadStatus::kEof ||
        status == FdTransport::ReadStatus::kError) {
      break;
    }
  }
  ::close(read_fd);
  return out;
}

TEST(FdTransportTest, SplitsLinesAndStripsCr) {
  const auto out = Feed("PING\r\nSTATS\nQUIT\n");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].second, "PING");
  EXPECT_EQ(out[1].second, "STATS");
  EXPECT_EQ(out[2].second, "QUIT");
  EXPECT_EQ(out[3].first, FdTransport::ReadStatus::kEof);
}

TEST(FdTransportTest, UnterminatedTailIsStillALine) {
  const auto out = Feed("PING\nQUIT");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1].first, FdTransport::ReadStatus::kLine);
  EXPECT_EQ(out[1].second, "QUIT");
  EXPECT_EQ(out[2].first, FdTransport::ReadStatus::kEof);
}

TEST(FdTransportTest, OverlongLineIsDiscardedSessionSurvives) {
  // 80 KiB of garbage with no newline, then a valid request: the reader
  // must report kTooLong once (bounded buffering) and then resume.
  std::string bytes(80 * 1024, 'A');
  bytes += "\nPING\n";
  const auto out = Feed(bytes);
  ASSERT_GE(out.size(), 3u);
  EXPECT_EQ(out[0].first, FdTransport::ReadStatus::kTooLong);
  EXPECT_EQ(out[1].first, FdTransport::ReadStatus::kLine);
  EXPECT_EQ(out[1].second, "PING");
}

TEST(FdTransportTest, PreservesEmbeddedNul) {
  const auto out = Feed(std::string("A\0B\n", 4));
  ASSERT_GE(out.size(), 1u);
  EXPECT_EQ(out[0].second, std::string("A\0B", 3));
}

TEST(FdTransportTest, WriteSideClosedMidLineSurfacesPartialThenEof) {
  // A peer torn down mid-line (pipe writer closes without the final
  // newline) already sent a complete request — it must surface as a
  // line, then a clean EOF.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "PING\nSTA", 8), 8);
  ::close(fds[1]);  // mid-line hangup
  FdTransport transport(fds[0], -1);
  std::string line;
  EXPECT_EQ(transport.ReadLine(&line), FdTransport::ReadStatus::kLine);
  EXPECT_EQ(line, "PING");
  EXPECT_EQ(transport.ReadLine(&line), FdTransport::ReadStatus::kLine);
  EXPECT_EQ(line, "STA");
  EXPECT_EQ(transport.ReadLine(&line), FdTransport::ReadStatus::kEof);
  ::close(fds[0]);
}

TEST(FdTransportTest, SocketShutdownMidLineSurfacesPartialThenEof) {
  // Same contract over a socketpair with SHUT_WR — the TCP-shaped
  // variant of the mid-line hangup.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::send(fds[1], "QUIT", 4, 0), 4);
  ASSERT_EQ(::shutdown(fds[1], SHUT_WR), 0);
  FdTransport transport(fds[0], -1);
  std::string line;
  EXPECT_EQ(transport.ReadLine(&line), FdTransport::ReadStatus::kLine);
  EXPECT_EQ(line, "QUIT");
  EXPECT_EQ(transport.ReadLine(&line), FdTransport::ReadStatus::kEof);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(BusyReplyTest, ParseToleratesLegacyAndForeignShapes) {
  // Any BUSY line counts, whatever detail follows the verb.
  EXPECT_TRUE(IsBusyReply("BUSY sessions=8"));
  EXPECT_TRUE(IsBusyReply("BUSY inflight=1 queued=0 retry_after_ms=25"));
  EXPECT_TRUE(IsBusyReply("BUSY"));
  // Non-BUSY replies are not BUSY.
  EXPECT_FALSE(IsBusyReply("OK pong"));
  EXPECT_FALSE(IsBusyReply("ERR busy"));
  EXPECT_FALSE(IsBusyReply("BUSYx"));
  EXPECT_FALSE(IsBusyReply(""));
}

TEST(BusyReplyTest, NewWireErrorKindsHaveStableNames) {
  EXPECT_EQ(WireErrorName(WireError::kReplyTooLarge), "too-large");
  EXPECT_EQ(WireErrorName(WireError::kIoTimeout), "io-timeout");
  EXPECT_EQ(WireErrorName(WireError::kInternal), "internal");
}

TEST(FdTransportTest, ReadErrorAfterPartialLineSurfacesLineThenError) {
  // An errno-level read failure must not swallow a buffered partial
  // line: the line is delivered first, the error on the next call.
  // A pty master whose slave side has closed makes the failure
  // deterministic: it polls readable, the first read drains the bytes
  // the slave wrote, the second fails with EIO.
  const int master = ::posix_openpt(O_RDWR | O_NOCTTY);
  ASSERT_GE(master, 0);
  ASSERT_EQ(::grantpt(master), 0);
  ASSERT_EQ(::unlockpt(master), 0);
  const int slave = ::open(::ptsname(master), O_RDWR | O_NOCTTY);
  ASSERT_GE(slave, 0);
  ASSERT_EQ(::write(slave, "STATS", 5), 5);
  ::close(slave);
  FdTransport transport(master, -1);
  std::string line;
  EXPECT_EQ(transport.ReadLine(&line), FdTransport::ReadStatus::kLine);
  EXPECT_EQ(line, "STATS");
  EXPECT_EQ(transport.ReadLine(&line), FdTransport::ReadStatus::kError);
  ::close(master);
}

}  // namespace
}  // namespace locs::serve
