// Tests for edge-list, METIS and binary graph persistence and load errors.

#include "graph/io.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gen/classic.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "graph/invariants.h"
#include "store/image.h"
#include "util/failpoint.h"

namespace locs {
namespace {

/// A file name of the running test's own: ctest runs the tests as
/// parallel processes, and two writing one path read each other's bytes.
std::string TempPath(const std::string& name) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + test->test_suite_name() + "." +
         test->name() + "." + name;
}

TEST(EdgeListIoTest, RoundTrip) {
  Graph original = gen::ErdosRenyiGnp(50, 0.1, 7);
  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(SaveEdgeList(original, path));
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  // Vertex ids may be remapped (isolated vertices are dropped by the
  // edge-list format), but edge count and degree multiset survive.
  EXPECT_EQ(loaded->NumEdges(), original.NumEdges());
  EXPECT_EQ(ValidateGraph(*loaded), "");
}

TEST(EdgeListIoTest, ParsesSnapStyleComments) {
  const std::string path = TempPath("snap.txt");
  {
    std::ofstream out(path);
    out << "# SNAP-style header\n";
    out << "% another comment style\n";
    out << "10 20\n20 30\n30 10\n";
  }
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 3u);
  EXPECT_EQ(loaded->NumEdges(), 3u);
  EXPECT_EQ(loaded->MinDegree(), 2u);
}

TEST(EdgeListIoTest, CompactsSparseIds) {
  const std::string path = TempPath("sparse_ids.txt");
  {
    std::ofstream out(path);
    out << "1000000 2000000\n2000000 3000000\n";
  }
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 3u);
}

TEST(EdgeListIoTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(LoadEdgeList("/nonexistent/path/graph.txt").has_value());
}

TEST(EdgeListIoTest, LongCommentAndEdgeLinesSurvive) {
  // Lines longer than any fixed stack buffer (SNAP headers routinely
  // exceed 256 chars) must neither split nor abort the load.
  const std::string path = TempPath("long_lines.txt");
  {
    std::ofstream out(path);
    out << "# " << std::string(2000, 'x') << "\n";
    out << "% " << std::string(5000, 'y') << "\n";
    out << "10 20" << std::string(600, ' ') << "\n";  // trailing blanks
    out << std::string(300, ' ') << "20 30\n";        // leading blanks
    out << "30 10\n";
  }
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 3u);
  EXPECT_EQ(loaded->NumEdges(), 3u);
}

TEST(EdgeListIoTest, CrlfAndBlankLinesAreTolerated) {
  const std::string path = TempPath("crlf.txt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "# exported on windows\r\n";
    out << "10 20\r\n";
    out << "\r\n";       // CR-only blank line
    out << "   \n";      // whitespace-only line
    out << "20 30\r\n";
    out << "30 10";      // final line without newline
  }
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 3u);
  EXPECT_EQ(loaded->NumEdges(), 3u);
  EXPECT_EQ(loaded->MinDegree(), 2u);
}

TEST(EdgeListIoTest, FullRangeIdsRoundThroughParsing) {
  // Values beyond 32 bits exercise the strtoull path (the old %lu sscanf
  // was UB on LLP64 targets).
  const std::string path = TempPath("wide_ids.txt");
  {
    std::ofstream out(path);
    out << "8589934592 17179869184\n";   // 2^33, 2^34
    out << "17179869184 8589934593\n";
  }
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 3u);
  EXPECT_EQ(loaded->NumEdges(), 2u);
}

TEST(EdgeListIoTest, MalformedLineFails) {
  const std::string path = TempPath("bad.txt");
  {
    std::ofstream out(path);
    out << "1 2\nnot numbers\n";
  }
  EXPECT_FALSE(LoadEdgeList(path).has_value());
}

/// Drops the last `bytes` bytes of the file at `path`.
void ChopTail(const std::string& path, size_t bytes) {
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(content.size(), bytes);
  content.resize(content.size() - bytes);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// The binary graph format is the graph image (store/image.h).

TEST(BinaryIoTest, ExactRoundTrip) {
  Graph original = gen::ErdosRenyiGnp(200, 0.05, 11);
  const std::string path = TempPath("graph.limg");
  ASSERT_TRUE(store::CompileGraphImage(original, path));
  const auto loaded = store::LoadGraphImage(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->graph.offsets(), original.offsets());
  EXPECT_EQ(loaded->graph.neighbors(), original.neighbors());
}

TEST(BinaryIoTest, PreservesIsolatedVertices) {
  Graph original = BuildGraph(10, {{0, 1}});
  const std::string path = TempPath("isolated.limg");
  ASSERT_TRUE(store::CompileGraphImage(original, path));
  const auto loaded = store::LoadGraphImage(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->graph.NumVertices(), 10u);
  EXPECT_EQ(loaded->graph.NumEdges(), 1u);
}

TEST(BinaryIoTest, RejectsBadMagic) {
  const std::string path = TempPath("junk.limg");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a locs graph file at all, padding padding";
    out << std::string(256, 'x');
  }
  EXPECT_FALSE(store::LoadGraphImage(path).has_value());
}

TEST(BinaryIoTest, RejectsTruncatedFile) {
  Graph original = gen::Clique(20);
  const std::string path = TempPath("trunc.limg");
  ASSERT_TRUE(store::CompileGraphImage(original, path));
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const size_t size = static_cast<size_t>(in.tellg());
  in.close();
  ChopTail(path, size / 2);
  EXPECT_FALSE(store::LoadGraphImage(path).has_value());
}

TEST(BinaryIoTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(
      store::LoadGraphImage("/nonexistent/path/graph.limg").has_value());
}

TEST(MetisIoTest, RoundTrip) {
  Graph original = gen::ErdosRenyiGnp(60, 0.1, 13);
  const std::string path = TempPath("graph.metis");
  ASSERT_TRUE(SaveMetis(original, path));
  const auto loaded = LoadMetis(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->offsets(), original.offsets());
  EXPECT_EQ(loaded->neighbors(), original.neighbors());
}

TEST(MetisIoTest, ParsesCommentsAndHeader) {
  const std::string path = TempPath("hand.metis");
  {
    std::ofstream out(path);
    out << "% a triangle plus a pendant\n";
    out << "4 4\n";
    out << "2 3\n";
    out << "1 3\n";
    out << "1 2 4\n";
    out << "3\n";
  }
  const auto loaded = LoadMetis(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 4u);
  EXPECT_EQ(loaded->NumEdges(), 4u);
  EXPECT_TRUE(loaded->HasEdge(0, 1));
  EXPECT_TRUE(loaded->HasEdge(2, 3));
  EXPECT_FALSE(loaded->HasEdge(0, 3));
}

TEST(MetisIoTest, ToleratesDoubledEdgeCountHeader) {
  // Some writers store 2m (both edge directions) in the header.
  const std::string path = TempPath("twom.metis");
  {
    std::ofstream out(path);
    out << "3 6\n";  // a triangle has 3 edges; header says 2*3
    out << "2 3\n";
    out << "1 3\n";
    out << "1 2\n";
  }
  const auto loaded = LoadMetis(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 3u);
  EXPECT_EQ(loaded->NumEdges(), 3u);
}

TEST(MetisIoTest, CrlfAndLongVertexLinesSurvive) {
  // A CRLF file with one adjacency line far beyond any fixed buffer: a
  // star center adjacent to 20k leaves (~120KB on one line).
  const VertexId leaves = 20000;
  const std::string path = TempPath("crlf_star.metis");
  {
    std::ofstream out(path, std::ios::binary);
    out << "% windows line endings\r\n";
    out << (leaves + 1) << " " << leaves << "\r\n";
    for (VertexId leaf = 0; leaf < leaves; ++leaf) {
      out << (leaf + 2) << (leaf + 1 < leaves ? " " : "");
    }
    out << "\r\n";
    for (VertexId leaf = 0; leaf < leaves; ++leaf) out << "1\r\n";
  }
  const auto loaded = LoadMetis(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), leaves + 1);
  EXPECT_EQ(loaded->NumEdges(), uint64_t{leaves});
  EXPECT_EQ(loaded->Degree(0), leaves);
}

TEST(MetisIoTest, RejectsWeightedFormat) {
  const std::string path = TempPath("weighted.metis");
  {
    std::ofstream out(path);
    out << "2 1 011\n1 2\n2 1\n";
  }
  EXPECT_FALSE(LoadMetis(path).has_value());
}

TEST(MetisIoTest, RejectsOutOfRangeNeighbor) {
  const std::string path = TempPath("badid.metis");
  {
    std::ofstream out(path);
    out << "2 1\n2\n3\n";
  }
  EXPECT_FALSE(LoadMetis(path).has_value());
}

TEST(MetisIoTest, RejectsTruncatedVertexLines) {
  const std::string path = TempPath("short.metis");
  {
    std::ofstream out(path);
    out << "3 2\n2\n1 3\n";  // third vertex line missing
  }
  EXPECT_FALSE(LoadMetis(path).has_value());
}

TEST(MetisIoTest, IsolatedVerticesViaEmptyLines) {
  Graph original = BuildGraph(5, {{0, 4}});
  const std::string path = TempPath("isolated.metis");
  ASSERT_TRUE(SaveMetis(original, path));
  const auto loaded = LoadMetis(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->NumVertices(), 5u);
  EXPECT_EQ(loaded->NumEdges(), 1u);
}

TEST(EdgeListIoTest, EmptyGraphRoundTrip) {
  Graph empty = BuildGraph(0, {});
  const std::string metis_path = TempPath("empty.metis");
  ASSERT_TRUE(SaveMetis(empty, metis_path));
  const auto from_metis = LoadMetis(metis_path);
  ASSERT_TRUE(from_metis.has_value());
  EXPECT_EQ(from_metis->NumVertices(), 0u);

  const std::string image_path = TempPath("empty.limg");
  ASSERT_TRUE(store::CompileGraphImage(empty, image_path));
  const auto from_image = store::LoadGraphImage(image_path);
  ASSERT_TRUE(from_image.has_value());
  EXPECT_EQ(from_image->graph.NumVertices(), 0u);
}

// ---------------------------------------------------------------------------
// Edge-list parser: numbering and a differential check against the
// line-at-a-time parser it replaced.

TEST(EdgeListIoTest, NumbersSecondColumnBeforeFirst) {
  // Ids are numbered in order of first appearance, reading each line's
  // second column before its first: 7 -> 0, 5 -> 1, 9 -> 2.
  const std::string path = TempPath("numbering.txt");
  {
    std::ofstream out(path);
    out << "5 7\n5 9\n";
  }
  const auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->offsets(), (std::vector<uint64_t>{0, 1, 3, 4}));
  EXPECT_EQ(loaded->neighbors(), (std::vector<VertexId>{1, 0, 2, 1}));
}

TEST(EdgeListIoTest, UnreadablePathIsOpenError) {
  // A directory opens but cannot be read.
  IoError error;
  EXPECT_FALSE(LoadEdgeList(::testing::TempDir(), &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);
}

/// What a load produced: the CSR arrays, or the error.
struct LoadOutcome {
  bool ok = false;
  std::vector<uint64_t> offsets;
  std::vector<VertexId> neighbors;
  IoErrorKind kind = IoErrorKind::kNone;
  uint64_t line = 0;
  std::string message;
};

LoadOutcome Load(const std::string& text) {
  const std::string path = TempPath("differential.txt");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  LoadOutcome outcome;
  IoError error;
  const auto graph = LoadEdgeList(path, &error);
  outcome.ok = graph.has_value();
  if (graph.has_value()) {
    outcome.offsets.assign(graph->offsets().begin(), graph->offsets().end());
    outcome.neighbors.assign(graph->neighbors().begin(),
                             graph->neighbors().end());
  }
  outcome.kind = error.kind;
  outcome.line = error.line;
  outcome.message = error.message;
  return outcome;
}

/// The reference: the line-at-a-time parser LoadEdgeList used to be.
/// strtoull on each NUL-terminated line, a hash map numbering each
/// line's second column before its first, and a std::set adjacency.
LoadOutcome ReferenceLoad(const std::string& text) {
  LoadOutcome outcome;
  std::unordered_map<uint64_t, VertexId> remap;
  const auto intern = [&remap](uint64_t raw) {
    return remap.emplace(raw, static_cast<VertexId>(remap.size()))
        .first->second;
  };
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::istringstream in(text);
  std::string line;
  uint64_t line_no = 0;
  char message[256];
  while (std::getline(in, line)) {
    ++line_no;
    while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
      line.pop_back();
    }
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    if (line[start] == '#' || line[start] == '%') continue;
    const char* cursor = line.c_str() + start;
    char* end = nullptr;
    const uint64_t u = std::strtoull(cursor, &end, 10);
    if (end == cursor) {
      std::snprintf(message, sizeof(message),
                    "line %" PRIu64 ": expected \"u v\" edge, got \"%.60s\"",
                    line_no, cursor);
      outcome.kind = IoErrorKind::kParse;
      outcome.line = line_no;
      outcome.message = message;
      return outcome;
    }
    cursor = end;
    const uint64_t v = std::strtoull(cursor, &end, 10);
    if (end == cursor) {
      std::snprintf(message, sizeof(message),
                    "line %" PRIu64 ": edge for vertex %" PRIu64
                    " is missing its endpoint",
                    line_no, u);
      outcome.kind = IoErrorKind::kParse;
      outcome.line = line_no;
      outcome.message = message;
      return outcome;
    }
    const VertexId second = intern(v);
    const VertexId first = intern(u);
    edges.emplace_back(first, second);
  }
  std::vector<std::set<VertexId>> adjacency(remap.size());
  for (const auto& [a, b] : edges) {
    if (a == b) continue;
    adjacency[a].insert(b);
    adjacency[b].insert(a);
  }
  outcome.ok = true;
  outcome.offsets.push_back(0);
  for (const auto& list : adjacency) {
    outcome.neighbors.insert(outcome.neighbors.end(), list.begin(),
                             list.end());
    outcome.offsets.push_back(outcome.neighbors.size());
  }
  return outcome;
}

void ExpectSameAsReference(const std::string& text) {
  SCOPED_TRACE(::testing::Message() << "input: \"" << text << "\"");
  const LoadOutcome want = ReferenceLoad(text);
  const LoadOutcome got = Load(text);
  ASSERT_EQ(got.ok, want.ok) << got.message;
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.neighbors, want.neighbors);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.line, want.line);
  EXPECT_EQ(got.message, want.message);
}

TEST(EdgeListDifferentialTest, LineEndingsAndWhitespace) {
  ExpectSameAsReference("1 2\r\n2 3\r\n3 1\r\n");
  ExpectSameAsReference("1\t2\n\t2 \t3\n   3   1   \n");
  ExpectSameAsReference("1 2\r\r\n\r\n \r\n2 3");
  ExpectSameAsReference("1 2\n2 3");  // no final newline
  ExpectSameAsReference("1\r2\n\v3 4\n");
  ExpectSameAsReference("");
  ExpectSameAsReference("\n\n\n");
}

TEST(EdgeListDifferentialTest, CommentsAndBlankLines) {
  ExpectSameAsReference("# header\n% other\n\n  # indented\n1 2\n\n");
  ExpectSameAsReference("#1 2\n%3 4\n5 6 # trailing text\n");
  ExpectSameAsReference("1 2\n# " + std::string(5000, 'c') + "\n2 3\n");
}

TEST(EdgeListDifferentialTest, ExtraColumnsDuplicatesAndSelfLoops) {
  ExpectSameAsReference("1 2 0.5\n2 3 7 9 x\n3 1\tweight\n");
  ExpectSameAsReference("1 2\n2 1\n1 2\n2 1\n2 3\n3 2\n");
  ExpectSameAsReference("4 4\n1 2\n2 2\n5 5\n");  // self-loop ids still count
}

TEST(EdgeListDifferentialTest, WideAndMixedIds) {
  // 2^33 and above: beyond any dense table, so they take the hash path.
  ExpectSameAsReference("8589934592 17179869184\n17179869184 8589934593\n");
  ExpectSameAsReference("18446744073709551615 0\n0 18446744073709551614\n");
  // Dense and sparse ids interleaved: one numbering for both.
  ExpectSameAsReference(
      "3 8589934592\n70000 3\n8589934592 5\n5 70000\n4294967296 3\n");
  // Overflow saturates and '-' wraps, as strtoull does.
  ExpectSameAsReference("99999999999999999999999 1\n-1 +2\n-0 1\n");
}

TEST(EdgeListDifferentialTest, ErrorsKeepLineAndMessage) {
  ExpectSameAsReference("1 2\nnot numbers\n");
  ExpectSameAsReference("1 2\n7\n");
  ExpectSameAsReference("1 2\r\n7 \r\n");
  ExpectSameAsReference("# c\n\n1 x\n");
  ExpectSameAsReference("1 2\n- 3\n");
  ExpectSameAsReference("1 2\n\v\n");
  ExpectSameAsReference("1 2\n" + std::string(100, 'z') + "\n");
}

TEST(EdgeListDifferentialTest, RandomTextMatchesReference) {
  // Token soup weighted toward valid lines, so most inputs parse far
  // before an error (if any) stops them.
  const std::vector<std::string> ids = {
      "0", "1", "2", "3", "17", "65535", "65536", "70000", "4294967296",
      "8589934592", "18446744073709551615", "99999999999999999999", "-3",
      "+4", "007"};
  const std::vector<std::string> junk = {"#", "%", "x", "-", "+", "\r",
                                         "\v", "", " ", "\t", "1.5"};
  std::mt19937_64 rng(20240611);
  for (int round = 0; round < 400; ++round) {
    std::string text;
    const int lines = static_cast<int>(rng() % 40);
    for (int l = 0; l < lines; ++l) {
      const uint64_t shape = rng() % 20;
      if (shape == 0) {
        text += junk[rng() % junk.size()];
      } else if (shape == 1) {
        text += "# comment " + ids[rng() % ids.size()];
      } else if (shape == 2) {
        text += ids[rng() % ids.size()];
      } else {
        if (rng() % 4 == 0) text += junk[rng() % junk.size()];
        text += ids[rng() % ids.size()];
        text += rng() % 3 == 0 ? "\t" : " ";
        text += ids[rng() % ids.size()];
        if (rng() % 5 == 0) text += " " + junk[rng() % junk.size()];
      }
      text += rng() % 6 == 0 ? "\r\n" : "\n";
    }
    if (rng() % 3 == 0 && !text.empty()) text.pop_back();
    ExpectSameAsReference(text);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// IoError detail: every loader distinguishes file-missing from malformed
// content and from truncation, with a line number for text parse errors.

TEST(IoErrorTest, MissingFileReportsOpenKindInEveryFormat) {
  IoError error;
  EXPECT_FALSE(LoadEdgeList(TempPath("nope.txt"), &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);
  EXPECT_FALSE(error.message.empty());

  EXPECT_FALSE(LoadMetis(TempPath("nope.metis"), &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);

  EXPECT_FALSE(
      store::LoadGraphImage(TempPath("nope.limg"), &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);
}

TEST(IoErrorTest, SuccessfulLoadResetsStaleError) {
  const std::string path = TempPath("reset.txt");
  {
    std::ofstream out(path);
    out << "0 1\n";
  }
  IoError error;
  error.kind = IoErrorKind::kParse;
  error.message = "stale";
  error.line = 99;
  ASSERT_TRUE(LoadEdgeList(path, &error).has_value());
  EXPECT_TRUE(error.ok());
  EXPECT_TRUE(error.message.empty());
  EXPECT_EQ(error.line, 0u);
}

TEST(IoErrorTest, EdgeListParseErrorReportsOffendingLine) {
  const std::string path = TempPath("badline.txt");
  {
    std::ofstream out(path);
    out << "# comment\n0 1\nnot numbers\n";
  }
  IoError error;
  EXPECT_FALSE(LoadEdgeList(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_EQ(error.line, 3u);
  // The message itself names the line: consumers that only forward the
  // message string (the locsd ERR detail) still localize the failure.
  EXPECT_NE(error.message.find("line 3"), std::string::npos)
      << error.message;
}

TEST(IoErrorTest, EdgeListMissingEndpointReportsParse) {
  const std::string path = TempPath("halfedge.txt");
  {
    std::ofstream out(path);
    out << "0 1\n7\n";
  }
  IoError error;
  EXPECT_FALSE(LoadEdgeList(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_EQ(error.line, 2u);
  EXPECT_NE(error.message.find("line 2"), std::string::npos)
      << error.message;
}

TEST(IoErrorTest, MetisWeightedFormatIsParseError) {
  const std::string path = TempPath("weighted.metis");
  {
    std::ofstream out(path);
    out << "2 1 011\n2\n1\n";
  }
  IoError error;
  EXPECT_FALSE(LoadMetis(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
}

TEST(IoErrorTest, MetisMissingVertexLinesIsTruncated) {
  const std::string path = TempPath("short.metis");
  {
    std::ofstream out(path);
    out << "3 2\n2\n1 3\n";  // header says 3 vertices, only 2 lines
  }
  IoError error;
  EXPECT_FALSE(LoadMetis(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kTruncated);
}

TEST(IoErrorTest, MetisVertexCountBeyondVertexIdIsParseError) {
  // 2^32 + 1 narrows to 1 as a VertexId, and neighbor 2 is in range for
  // the unnarrowed count: the header itself must be refused.
  const std::string path = TempPath("huge.metis");
  {
    std::ofstream out(path);
    out << "% comment\n4294967297 1\n2\n";
  }
  IoError error;
  EXPECT_FALSE(LoadMetis(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_EQ(error.line, 2u);

  // kInvalidVertex itself is reserved, so 2^32 - 1 is refused too.
  {
    std::ofstream out(path);
    out << "4294967295 0\n";
  }
  EXPECT_FALSE(LoadMetis(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_EQ(error.line, 1u);
}

TEST(IoErrorTest, BinaryBadMagicIsParseError) {
  const std::string path = TempPath("badmagic.limg");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTAGRAPHFILE_________________" << std::string(256, '_');
  }
  IoError error;
  EXPECT_FALSE(store::LoadGraphImage(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
}

TEST(IoErrorTest, BinaryTruncationIsReported) {
  Graph g = gen::Clique(6);
  const std::string path = TempPath("trunc_err.limg");
  ASSERT_TRUE(store::CompileGraphImage(g, path));
  // Chop the file in the middle of its last section.
  ChopTail(path, 8);
  IoError error;
  EXPECT_FALSE(store::LoadGraphImage(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kTruncated);
}

TEST(IoFailpointTest, AllocFailpointForcesAllocError) {
  Graph g = gen::Clique(5);
  const std::string edge_path = TempPath("fp_alloc.txt");
  const std::string metis_path = TempPath("fp_alloc.metis");
  ASSERT_TRUE(SaveEdgeList(g, edge_path));
  ASSERT_TRUE(SaveMetis(g, metis_path));

  failpoint::ScopedFailpoint fp("io.text.alloc");
  IoError error;
  EXPECT_FALSE(LoadEdgeList(edge_path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kAlloc);
  EXPECT_FALSE(LoadMetis(metis_path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kAlloc);
  EXPECT_EQ(failpoint::HitCount("io.text.alloc"), 2u);

  // Disarmed again, the same files load.
  failpoint::Disarm("io.text.alloc");
  EXPECT_TRUE(LoadEdgeList(edge_path, &error).has_value());
  EXPECT_TRUE(error.ok());
  EXPECT_TRUE(LoadMetis(metis_path, &error).has_value());
  EXPECT_TRUE(error.ok());
}

TEST(IoFailpointTest, SkipCountDelaysTheFailure) {
  Graph g = gen::Clique(4);
  const std::string path = TempPath("fp_skip.txt");
  ASSERT_TRUE(SaveEdgeList(g, path));

  failpoint::ScopedFailpoint fp("io.text.alloc", /*skip=*/2);
  EXPECT_TRUE(LoadEdgeList(path).has_value());   // hit 1: skipped
  EXPECT_TRUE(LoadEdgeList(path).has_value());   // hit 2: skipped
  EXPECT_FALSE(LoadEdgeList(path).has_value());  // hit 3: fires
  EXPECT_EQ(failpoint::HitCount("io.text.alloc"), 3u);
}

}  // namespace
}  // namespace locs
