// The graph image store (src/store/): lossless round-trips, the LOADIMG
// serving path, and an adversarial parser.
//
// Three layers of guarantees under test:
//   1. differential round-trip — every array (CSR, ordered adjacency,
//      core numbers, core forest) and every GraphFacts scalar survives
//      write+load bit-for-bit, and CST/CSM/MULTI wire replies from an
//      image-backed graph are byte-identical to the text-loaded graph;
//   2. fuzz — truncations at every interesting boundary and a bit flip
//      at *every byte position* yield a typed IoError, never a crash;
//   3. crafted corruption — images with a *valid* checksum but hostile
//      contents (wrong version, swapped endianness, out-of-range
//      adjacency, tampered core numbers or core-forest nodes) are
//      rejected by the header gates or the structural pass.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/core_index.h"
#include "core/kcore.h"
#include "core/local_cst.h"
#include "gen/barabasi.h"
#include "gen/classic.h"
#include "graph/io.h"
#include "graph/ordering.h"
#include "serve/admission.h"
#include "serve/session.h"
#include "store/checksum.h"
#include "store/format.h"
#include "store/image.h"
#include "util/failpoint.h"

namespace locs::store {
namespace {

/// A file name of the running test's own: ctest runs the tests as
/// parallel processes, and two writing one path read each other's bytes.
std::string TempPath(const std::string& name) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + test->test_suite_name() + "." +
         test->name() + "." + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Recomputes and patches the whole-file checksum, so a test can corrupt
/// payload bytes and still get past the checksum gate — exercising the
/// structural validation layer behind it.
void FixChecksum(std::string* bytes) {
  const uint64_t checksum = ImageChecksum(bytes->data(), bytes->size());
  std::memcpy(bytes->data() + offsetof(ImageHeader, checksum), &checksum,
              sizeof(checksum));
}

/// Gives a current image the header format v1 wrote: version 1 and an
/// FNV-1a 64 checksum over the file with the checksum field read as zero.
/// The body keeps the current layout; the reader must refuse the version
/// before it looks past the header.
void DowngradeToV1(std::string* bytes) {
  const uint32_t v1 = 1;
  std::memcpy(bytes->data() + offsetof(ImageHeader, version), &v1,
              sizeof(v1));
  std::memset(bytes->data() + offsetof(ImageHeader, checksum), 0,
              sizeof(uint64_t));
  uint64_t fnv = 14695981039346656037ull;
  for (const char c : *bytes) {
    fnv ^= static_cast<unsigned char>(c);
    fnv *= 1099511628211ull;
  }
  std::memcpy(bytes->data() + offsetof(ImageHeader, checksum), &fnv,
              sizeof(fnv));
}

/// Absolute offset of a section's payload, read from the section table.
uint64_t SectionOffsetOf(const std::string& bytes, SectionId id) {
  for (uint32_t i = 0; i < kNumSections; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, bytes.data() + sizeof(ImageHeader) +
                            i * sizeof(SectionEntry),
                sizeof(entry));
    if (entry.id == static_cast<uint32_t>(id)) return entry.offset;
  }
  ADD_FAILURE() << "section " << static_cast<uint32_t>(id)
                << " missing from table";
  return 0;
}

/// Absolute offset of a section's row in the section table itself.
uint64_t SectionEntryPos(const std::string& bytes, SectionId id) {
  for (uint32_t i = 0; i < kNumSections; ++i) {
    const uint64_t pos = sizeof(ImageHeader) + i * sizeof(SectionEntry);
    SectionEntry entry;
    std::memcpy(&entry, bytes.data() + pos, sizeof(entry));
    if (entry.id == static_cast<uint32_t>(id)) return pos;
  }
  ADD_FAILURE() << "section " << static_cast<uint32_t>(id)
                << " missing from table";
  return 0;
}

/// Writes `graph`'s image to a temp file and returns the path.
std::string CompileToTemp(const Graph& graph, const std::string& tag) {
  const std::string path = TempPath("store_" + tag + ".limg");
  IoError error;
  EXPECT_TRUE(CompileGraphImage(graph, path, &error)) << error.message;
  return path;
}

// ---------------------------------------------------------------------------
// Round-trip: every persisted array and scalar is bit-identical.

/// Every array and fact of `loaded` equals `built`'s.
void ExpectSameSnapshot(const Snapshot& loaded, const Snapshot& built) {
  EXPECT_EQ(loaded.graph.offsets(), built.graph.offsets());
  EXPECT_EQ(loaded.graph.neighbors(), built.graph.neighbors());
  EXPECT_EQ(loaded.facts.num_vertices, built.facts.num_vertices);
  EXPECT_EQ(loaded.facts.num_edges, built.facts.num_edges);
  EXPECT_EQ(loaded.facts.max_degree, built.facts.max_degree);
  EXPECT_EQ(loaded.facts.connected, built.facts.connected);
  EXPECT_EQ(loaded.ordered.offsets(), built.ordered.offsets());
  EXPECT_EQ(loaded.ordered.neighbors(), built.ordered.neighbors());
  EXPECT_EQ(loaded.index.Degeneracy(), built.index.Degeneracy());
  EXPECT_EQ(loaded.index.core_numbers(), built.index.core_numbers());
  EXPECT_EQ(loaded.index.node_of(), built.index.node_of());
  EXPECT_EQ(loaded.index.forest(), built.index.forest());
}

void ExpectLosslessRoundTrip(const Graph& graph, const std::string& tag) {
  SCOPED_TRACE(tag);
  const GraphFacts facts = GraphFacts::Compute(graph);
  const OrderedAdjacency ordered(graph);
  const CoreIndex index(graph);
  const std::string path = TempPath("store_rt_" + tag + ".limg");
  IoError error;
  ASSERT_TRUE(WriteGraphImage(graph, facts, ordered, index, path, &error))
      << error.message;
  // Format v5: exactly the seven sections of format.h, the per-vertex
  // node ids before the node table, which comes last and is sized by the
  // meta node count.
  const std::string bytes = ReadFileBytes(path);
  ImageHeader header;
  ASSERT_GE(bytes.size(), sizeof(header));
  std::memcpy(&header, bytes.data(), sizeof(header));
  EXPECT_EQ(header.version, 5u);
  EXPECT_EQ(header.section_count, 7u);
  ImageMeta meta;
  std::memcpy(&meta, bytes.data() + SectionOffsetOf(bytes, SectionId::kMeta),
              sizeof(meta));
  EXPECT_EQ(meta.num_forest_nodes, index.forest().size());
  EXPECT_EQ(AlignUp(SectionOffsetOf(bytes, SectionId::kForestNodeOf) +
                    graph.NumVertices() * sizeof(uint32_t)),
            SectionOffsetOf(bytes, SectionId::kForestNodes));
  EXPECT_EQ(SectionOffsetOf(bytes, SectionId::kForestNodes) +
                index.forest().size() * sizeof(CoreForestNode),
            bytes.size());

  const std::optional<Snapshot> loaded = LoadGraphImage(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error.message;
  EXPECT_TRUE(error.ok());
  ExpectSameSnapshot(*loaded, Snapshot{graph, facts, ordered, index});

  // The compile path builds through Snapshot::Build; its image must map
  // back to exactly what Snapshot::Build produces in memory.
  const Snapshot built = Snapshot::Build(graph);
  const std::optional<Snapshot> compiled =
      LoadGraphImage(CompileToTemp(graph, "rt_compiled_" + tag), &error);
  ASSERT_TRUE(compiled.has_value()) << error.message;
  ExpectSameSnapshot(*compiled, built);

  // Query-level equivalence on top of the array-level identity.
  const VertexId n = graph.NumVertices();
  for (VertexId v = 0; v < n; v += (n / 7) + 1) {
    EXPECT_EQ(loaded->index.CoreNumber(v), index.CoreNumber(v));
    const std::vector<VertexId> component =
        MaxCoreComponentOf(graph, index.core_numbers().span(), v);
    EXPECT_EQ(MaxCoreComponentOf(loaded->graph,
                                 loaded->index.core_numbers().span(), v),
              component);
    EXPECT_EQ(loaded->index.ComponentSize(v), component.size());
    for (uint32_t k = 0; k <= index.CoreNumber(v); ++k) {
      EXPECT_EQ(loaded->index.ComponentNode(v, k), index.ComponentNode(v, k));
    }
  }
}

TEST(StoreRoundTripTest, StructuredGraphsSurviveBitForBit) {
  ExpectLosslessRoundTrip(gen::Barbell(6, 2), "barbell");
  ExpectLosslessRoundTrip(gen::Star(40), "star");
  ExpectLosslessRoundTrip(gen::PaperFigure1(), "fig1");
  ExpectLosslessRoundTrip(gen::Grid(9, 7), "grid");
}

TEST(StoreRoundTripTest, PowerLawGraphSurvivesBitForBit) {
  ExpectLosslessRoundTrip(gen::BarabasiAlbert(1500, 3, /*seed=*/7), "ba");
}

TEST(StoreRoundTripTest, DegenerateGraphsSurvive) {
  ExpectLosslessRoundTrip(Graph::FromCsr({0}, {}), "empty");
  ExpectLosslessRoundTrip(Graph::FromCsr({0, 0, 0}, {}), "isolated");
  ExpectLosslessRoundTrip(Graph::FromCsr({0, 1, 2}, {1, 0}), "one_edge");
}

/// Rewrites `bytes` with the section payloads in reverse file order
/// (table rows, offsets and file size updated, checksum fixed).
std::string ReverseSectionOrder(const std::string& bytes) {
  SectionEntry table[kNumSections];
  std::memcpy(table, bytes.data() + sizeof(ImageHeader), sizeof(table));
  std::string out = bytes.substr(0, sizeof(ImageHeader) + sizeof(table));
  for (uint32_t i = kNumSections; i-- > 0;) {
    out.resize(AlignUp(out.size()), '\0');
    const uint64_t offset = out.size();
    out.append(bytes, table[i].offset, table[i].length);
    table[i].offset = offset;
  }
  std::memcpy(out.data() + sizeof(ImageHeader), table, sizeof(table));
  const uint64_t file_bytes = out.size();
  std::memcpy(out.data() + offsetof(ImageHeader, file_bytes), &file_bytes,
              sizeof(file_bytes));
  FixChecksum(&out);
  return out;
}

TEST(StoreRoundTripTest, SectionsInReverseFileOrderLoadTheSameArrays) {
  // The reader hashes and checks the sections in file order, so an image
  // whose payloads run backwards (forest first, meta last) must load
  // array for array like the writer's. The graph is large enough that the
  // neighbor sections span several 64 KiB chunks.
  const std::string path =
      CompileToTemp(gen::BarabasiAlbert(30000, 4, /*seed=*/3), "rev_src");
  const std::string bytes = ReadFileBytes(path);
  const std::string reversed = ReverseSectionOrder(bytes);
  ASSERT_GT(SectionOffsetOf(reversed, SectionId::kMeta),
            SectionOffsetOf(reversed, SectionId::kForestNodes));
  ASSERT_GT(SectionOffsetOf(bytes, SectionId::kOrderedNeighbors) -
                SectionOffsetOf(bytes, SectionId::kNeighbors),
            uint64_t{4} << 16);
  const std::string reversed_path = TempPath("store_rev.limg");
  WriteFileBytes(reversed_path, reversed);
  IoError error;
  const std::optional<Snapshot> original = LoadGraphImage(path, &error);
  ASSERT_TRUE(original.has_value()) << error.message;
  const std::optional<Snapshot> loaded = LoadGraphImage(reversed_path, &error);
  ASSERT_TRUE(loaded.has_value()) << error.message;
  ExpectSameSnapshot(*loaded, *original);

  // The checks still run on the reordered sections.
  std::string bad = reversed;
  const VertexId bogus = 1u << 30;
  std::memcpy(bad.data() + SectionOffsetOf(bad, SectionId::kNeighbors) +
                  sizeof(VertexId),
              &bogus, sizeof(bogus));
  FixChecksum(&bad);
  WriteFileBytes(reversed_path, bad);
  EXPECT_FALSE(LoadGraphImage(reversed_path, &error).has_value());
  EXPECT_NE(error.message.find("structural validation failed: adjacency"),
            std::string::npos)
      << error.message;
}

TEST(StoreRoundTripTest, SniffRecognizesImagesByContentNotExtension) {
  const Graph graph = gen::Barbell(4, 0);
  const std::string odd_name = TempPath("store_sniff.dat");
  IoError error;
  ASSERT_TRUE(CompileGraphImage(graph, odd_name, &error)) << error.message;
  EXPECT_TRUE(SniffGraphImage(odd_name));

  const std::string text = TempPath("store_sniff.txt");
  ASSERT_TRUE(SaveEdgeList(graph, text));
  EXPECT_FALSE(SniffGraphImage(text));
  EXPECT_FALSE(SniffGraphImage(TempPath("store_sniff_missing")));
}

// ---------------------------------------------------------------------------
// Fuzz: truncation and exhaustive single-byte corruption.

TEST(StoreFuzzTest, TruncationAtEveryBoundaryIsTyped) {
  const std::string path = CompileToTemp(gen::Barbell(5, 1), "trunc_src");
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), sizeof(ImageHeader));

  const size_t cuts[] = {0,
                         1,
                         sizeof(ImageHeader) - 1,
                         sizeof(ImageHeader),
                         sizeof(ImageHeader) + sizeof(SectionEntry) - 3,
                         sizeof(ImageHeader) +
                             kNumSections * sizeof(SectionEntry),
                         bytes.size() / 2,
                         SectionOffsetOf(bytes, SectionId::kForestNodeOf),
                         SectionOffsetOf(bytes, SectionId::kForestNodes),
                         bytes.size() - 1};
  for (const size_t cut : cuts) {
    SCOPED_TRACE(cut);
    const std::string cut_path = TempPath("store_cut.limg");
    WriteFileBytes(cut_path, bytes.substr(0, cut));
    IoError error;
    EXPECT_FALSE(LoadGraphImage(cut_path, &error).has_value());
    EXPECT_NE(error.kind, IoErrorKind::kNone);
    EXPECT_FALSE(error.message.empty());
  }
}

TEST(StoreFuzzTest, BitFlipAtEveryPositionIsRejected) {
  // Small graph so the image stays a few hundred bytes: one load per
  // byte position. Every byte is covered by a header gate or the
  // whole-file checksum, so every flip must be caught.
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "flip_src");
  const std::string bytes = ReadFileBytes(path);
  const std::string flip_path = TempPath("store_flip.limg");
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    WriteFileBytes(flip_path, corrupt);
    IoError error;
    ASSERT_FALSE(LoadGraphImage(flip_path, &error).has_value())
        << "flip at byte " << pos << " was accepted";
    ASSERT_NE(error.kind, IoErrorKind::kNone) << "flip at byte " << pos;
  }
}

TEST(StoreFuzzTest, GarbageAndEmptyFilesAreRejected) {
  const std::string path = TempPath("store_garbage");
  WriteFileBytes(path, std::string(4096, '\x5a'));
  IoError error;
  EXPECT_FALSE(LoadGraphImage(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);

  WriteFileBytes(path, "");
  EXPECT_FALSE(LoadGraphImage(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);

  EXPECT_FALSE(LoadGraphImage(TempPath("store_missing"), &error)
                   .has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);
}

// ---------------------------------------------------------------------------
// Crafted corruption: valid checksum, hostile content.

TEST(StoreCraftedTest, UnsupportedVersionIsRejectedWithDetail) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "ver_src");
  std::string bytes = ReadFileBytes(path);
  const uint32_t future = kImageVersion + 1;
  std::memcpy(bytes.data() + offsetof(ImageHeader, version), &future,
              sizeof(future));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_ver.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("version"), std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, VersionOneImageIsRejectedUntilRecompiled) {
  // v1 (FNV-1a checksum), v2 (XXH64, with the merge-tree sections), v3
  // (five sections, no component sizes) and v4 (component sizes, no core
  // forest) are all retired: each gets the same typed "recompile" error.
  const Graph graph = gen::Barbell(4, 0);
  for (const uint32_t version : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(version);
    const std::string path = CompileToTemp(graph, "old_version_src");
    std::string bytes = ReadFileBytes(path);
    if (version == 1) {
      DowngradeToV1(&bytes);
    } else {
      std::memcpy(bytes.data() + offsetof(ImageHeader, version), &version,
                  sizeof(version));
      FixChecksum(&bytes);
    }
    WriteFileBytes(path, bytes);
    IoError error;
    EXPECT_FALSE(LoadGraphImage(path, &error).has_value());
    EXPECT_EQ(error.kind, IoErrorKind::kParse);
    EXPECT_NE(error.message.find("unsupported image version " +
                                 std::to_string(version)),
              std::string::npos)
        << error.message;
    EXPECT_NE(error.message.find("recompile"), std::string::npos)
        << error.message;

    // Recompiling over the stale file brings it back.
    ASSERT_TRUE(CompileGraphImage(graph, path, &error)) << error.message;
    const std::optional<Snapshot> loaded = LoadGraphImage(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error.message;
    EXPECT_EQ(loaded->graph.neighbors(), graph.neighbors());
  }
}

TEST(StoreChecksumTest, MatchesReferenceXxh64AndIgnoresSplits) {
  // Reference XXH64 (seed 0) digests. Words are read in host byte
  // order, which is the reference's order on little-endian hosts.
  const struct {
    std::string input;
    uint64_t digest;
  } vectors[] = {
      {"", 0xEF46DB3751D8E999ull},
      {"a", 0xD24EC4F1A98C6E5Bull},
      {"abc", 0x44BC2CF5AD770999ull},
      // 39 bytes: one full 32-byte stripe plus an 8-byte word and tail.
      {"Nobody inspects the spammish repetition", 0xFBCEA83C8A378BF1ull},
  };
  for (const auto& [input, digest] : vectors) {
    if constexpr (std::endian::native != std::endian::little) break;
    Checksum64 checksum;
    checksum.Update(input.data(), input.size());
    EXPECT_EQ(checksum.Digest(), digest) << '"' << input << '"';
  }
  std::string data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<char>(i * 7));
  Checksum64 whole;
  whole.Update(data.data(), data.size());
  for (const size_t step : {1, 3, 8, 31, 32, 33, 100}) {
    SCOPED_TRACE(step);
    Checksum64 split;
    for (size_t at = 0; at < data.size(); at += step) {
      split.Update(data.data() + at, std::min(step, data.size() - at));
    }
    EXPECT_EQ(split.Digest(), whole.Digest());
  }
}

TEST(StoreCraftedTest, OppositeEndiannessIsRejectedWithDetail) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "end_src");
  std::string bytes = ReadFileBytes(path);
  std::memcpy(bytes.data() + offsetof(ImageHeader, endian),
              &kEndianTagSwapped, sizeof(kEndianTagSwapped));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_end.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("endianness"), std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, OutOfRangeAdjacencyFailsStructuralPass) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "adj_src");
  std::string bytes = ReadFileBytes(path);
  const uint64_t off = SectionOffsetOf(bytes, SectionId::kNeighbors);
  const VertexId bogus = 1u << 30;  // far beyond any vertex id
  std::memcpy(bytes.data() + off, &bogus, sizeof(bogus));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_adj.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("structural validation"), std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, OverflowingHalfEdgeCountIsRejected) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "ovf_src");
  std::string bytes = ReadFileBytes(path);
  // half = 2^62 wraps `half * sizeof(VertexId)` to 0 mod 2^64, so paired
  // with zero-length neighbor sections it slips past a multiply-based
  // length cross-check — after which the `i < half` validation loops
  // would index 2^62 elements past the mapping. The reader must reject
  // the counts, not trust the wrapped product.
  const uint64_t huge = uint64_t{1} << 62;
  const uint64_t meta_off = SectionOffsetOf(bytes, SectionId::kMeta);
  std::memcpy(bytes.data() + meta_off + offsetof(ImageMeta, num_half_edges),
              &huge, sizeof(huge));
  const uint64_t zero = 0;
  for (const SectionId id :
       {SectionId::kNeighbors, SectionId::kOrderedNeighbors}) {
    std::memcpy(bytes.data() + SectionEntryPos(bytes, id) +
                    offsetof(SectionEntry, length),
                &zero, sizeof(zero));
  }
  // Make offsets[n] agree with the huge count too, so a reader without
  // the overflow-safe cross-check would sail into the CSR loop and read
  // out of bounds (ASan-visible) instead of stopping at the coverage
  // check.
  uint64_t n = 0;
  std::memcpy(&n, bytes.data() + meta_off + offsetof(ImageMeta, num_vertices),
              sizeof(n));
  std::memcpy(bytes.data() + SectionOffsetOf(bytes, SectionId::kOffsets) +
                  n * sizeof(uint64_t),
              &huge, sizeof(huge));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_ovf.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("disagrees with the meta counts"),
            std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, ListRunningPastTheNeighborSectionIsRejected) {
  // offsets[1] = half + 1 makes vertex 0's list end one neighbor past the
  // section. The reader bounds every list end by half before it reads the
  // list, so the image fails on its offsets before any neighbor of vertex
  // 0 is compared: an adjacency error here would mean the list was read.
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "past_src");
  std::string bytes = ReadFileBytes(path);
  uint64_t half = 0;
  std::memcpy(&half,
              bytes.data() + SectionOffsetOf(bytes, SectionId::kMeta) +
                  offsetof(ImageMeta, num_half_edges),
              sizeof(half));
  const uint64_t past = half + 1;
  std::memcpy(bytes.data() + SectionOffsetOf(bytes, SectionId::kOffsets) +
                  sizeof(uint64_t),
              &past, sizeof(past));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_past.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find(
                "structural validation failed: CSR offsets are not monotone"),
            std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, StaleChecksumWinsOverACorruptSectionTable) {
  // The sweep needs the section table before it hashes the payloads, yet
  // a corrupt row behind a stale checksum must still read as corruption;
  // only with the checksum fixed does the table error surface.
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "table_src");
  std::string bytes = ReadFileBytes(path);
  const uint32_t bad_id = kNumSections + 5;
  std::memcpy(bytes.data() + SectionEntryPos(bytes, SectionId::kNeighbors) +
                  offsetof(SectionEntry, id),
              &bad_id, sizeof(bad_id));
  const std::string patched = TempPath("store_table.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("checksum mismatch"), std::string::npos)
      << error.message;

  FixChecksum(&bytes);
  WriteFileBytes(patched, bytes);
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("bad or duplicate section id " +
                               std::to_string(bad_id)),
            std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, CoreNumberTamperingFailsStructuralPass) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "core_src");
  std::string bytes = ReadFileBytes(path);
  const uint64_t off = SectionOffsetOf(bytes, SectionId::kCoreNumbers);
  uint32_t core0 = 0;
  std::memcpy(&core0, bytes.data() + off, sizeof(core0));
  ++core0;  // now above vertex 0's degree and the stored degeneracy
  std::memcpy(bytes.data() + off, &core0, sizeof(core0));
  FixChecksum(&bytes);
  const std::string patched = TempPath("store_core.limg");
  WriteFileBytes(patched, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(patched, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
}

/// Absolute offset of core-forest node `node`'s row in `bytes`.
uint64_t ForestNodePos(const std::string& bytes, uint32_t node) {
  return SectionOffsetOf(bytes, SectionId::kForestNodes) +
         uint64_t{node} * sizeof(CoreForestNode);
}

/// Overwrites core-forest node `node`'s row in `bytes`.
void SetForestNode(std::string* bytes, uint32_t node,
                   const CoreForestNode& row) {
  std::memcpy(bytes->data() + ForestNodePos(*bytes, node), &row,
              sizeof(row));
}

/// Overwrites vertex `v`'s core-forest node id in `bytes`.
void SetNodeOf(std::string* bytes, VertexId v, uint32_t node) {
  std::memcpy(bytes->data() +
                  SectionOffsetOf(*bytes, SectionId::kForestNodeOf) +
                  v * sizeof(uint32_t),
              &node, sizeof(node));
}

/// Loads `bytes` with a fixed-up checksum and expects the structural pass
/// to reject it with `detail` in the message.
void ExpectStructuralRejection(std::string bytes, const std::string& detail) {
  FixChecksum(&bytes);
  const std::string path = TempPath("store_forest.limg");
  WriteFileBytes(path, bytes);
  IoError error;
  EXPECT_FALSE(LoadGraphImage(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kParse);
  EXPECT_NE(error.message.find("structural validation failed: " + detail),
            std::string::npos)
      << error.message;
}

TEST(StoreCraftedTest, AdjacencyFaultsPastTheFirstChunkAreRejected) {
  // The reader checks neighbors 64 KiB (16384 ids) at a time. A descent
  // whose pair straddles a chunk boundary and a self-loop deep in a later
  // chunk must be caught like one in the first.
  const Graph graph = gen::BarabasiAlbert(30000, 4, /*seed=*/3);
  const std::string path = CompileToTemp(graph, "chunk_src");
  const std::string bytes = ReadFileBytes(path);
  const uint64_t neighbors = SectionOffsetOf(bytes, SectionId::kNeighbors);
  constexpr uint64_t kBoundary = 16384;  // first id of the second chunk
  const auto offsets = graph.offsets();
  VertexId straddling = 0;
  while (offsets[straddling + 1] <= kBoundary) ++straddling;
  ASSERT_LT(offsets[straddling], kBoundary)
      << "no list spans the chunk boundary";
  {
    SCOPED_TRACE("descent across the chunk boundary");
    std::string patched = bytes;
    char* pair = patched.data() + neighbors + (kBoundary - 1) * 4;
    std::swap_ranges(pair, pair + 4, pair + 4);
    ExpectStructuralRejection(patched, "adjacency list is not sorted");
  }
  {
    SCOPED_TRACE("self-loop in a later chunk");
    const VertexId v = graph.NumVertices() / 2;
    ASSERT_GT(offsets[v], 2 * kBoundary);
    // Put v at its own sorted place in its list (over the first neighbor
    // above it, or over the last): the list stays ascending and in range,
    // so only the self-loop check catches it.
    const auto list = graph.Neighbors(v);
    const uint64_t at =
        offsets[v] +
        std::min<uint64_t>(
            std::lower_bound(list.begin(), list.end(), v) - list.begin(),
            list.size() - 1);
    ASSERT_NE((at + 1) % kBoundary, 0u) << "pick a vertex off the chunk end";
    std::string patched = bytes;
    std::memcpy(patched.data() + neighbors + at * 4, &v, sizeof(v));
    ExpectStructuralRejection(patched, "adjacency list is not sorted");
  }
}

TEST(StoreCraftedTest, ComponentSizeTamperingIsRejected) {
  // Barbell(4, 0): two K4 joined by an edge, one 3-core of 8 vertices,
  // so the forest is one node. Its size must lie in [level + 1,
  // |core >= level|] = [4, 8].
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "comp_src");
  const std::string bytes = ReadFileBytes(path);
  const std::optional<Snapshot> clean = LoadGraphImage(path);
  ASSERT_TRUE(clean.has_value());
  ASSERT_EQ(clean->index.ComponentSize(0), 8u);
  ASSERT_EQ(clean->index.CoreNumber(0), 3u);
  ASSERT_EQ(clean->index.forest().size(), 1u);
  const std::string patched_path = TempPath("store_comp.limg");
  // Outside the bounds, behind a valid checksum: the structural pass.
  for (const uint32_t bad : {0u, 3u, 9u, ~uint32_t{0}}) {
    SCOPED_TRACE(bad);
    std::string patched = bytes;
    SetForestNode(&patched, 0, {CoreIndex::kNoNode, 3, bad});
    ExpectStructuralRejection(patched, "core-forest node outside");
  }
  // Inside the bounds: only the checksum tells 4 or 7 from the true 8
  // (DESIGN.md §6).
  for (const uint32_t wrong : {4u, 7u}) {
    SCOPED_TRACE(wrong);
    std::string patched = bytes;
    SetForestNode(&patched, 0, {CoreIndex::kNoNode, 3, wrong});
    WriteFileBytes(patched_path, patched);
    IoError error;
    EXPECT_FALSE(LoadGraphImage(patched_path, &error).has_value());
    EXPECT_EQ(error.kind, IoErrorKind::kParse);
    EXPECT_NE(error.message.find("checksum mismatch"), std::string::npos)
        << error.message;
  }
}

TEST(StoreCraftedTest, CoreForestTamperingIsRejected) {
  // Barbell(4, 1): two K4 (3-cores of 4) joined through one vertex of
  // core 2, so the forest is two level-3 leaves under one level-2 root
  // of all 9 vertices.
  const Graph graph = gen::Barbell(4, 1);
  const std::string path = CompileToTemp(graph, "forest_src");
  const std::string bytes = ReadFileBytes(path);
  const std::optional<Snapshot> clean = LoadGraphImage(path);
  ASSERT_TRUE(clean.has_value());
  const CoreIndex& index = clean->index;
  ASSERT_EQ(index.forest().size(), 3u);
  ASSERT_EQ(index.CoreNumber(0), 3u);
  const uint32_t leaf = index.node_of()[0];
  const uint32_t root = index.forest()[leaf].parent;
  ASSERT_NE(root, CoreIndex::kNoNode);
  const CoreForestNode leaf_row = index.forest()[leaf];
  const CoreForestNode root_row = index.forest()[root];
  ASSERT_EQ(leaf_row.level, 3u);
  ASSERT_EQ(leaf_row.size, 4u);
  ASSERT_EQ(root_row.level, 2u);
  ASSERT_EQ(root_row.size, 9u);
  ASSERT_EQ(root_row.parent, CoreIndex::kNoNode);
  {
    SCOPED_TRACE("node id >= node count");
    std::string patched = bytes;
    SetNodeOf(&patched, 0, 3);
    ExpectStructuralRejection(patched, "core-forest node id out of range");
  }
  {
    SCOPED_TRACE("node level != core number");
    std::string patched = bytes;
    SetNodeOf(&patched, 0, root);
    ExpectStructuralRejection(patched, "core-forest node level disagrees");
  }
  {
    SCOPED_TRACE("parent id out of range");
    std::string patched = bytes;
    SetForestNode(&patched, leaf, {7, 3, 4});
    ExpectStructuralRejection(patched, "core-forest parent id out of range");
  }
  {
    SCOPED_TRACE("cycle: parent level >= child level");
    std::string patched = bytes;
    SetForestNode(&patched, root, {leaf, 2, 9});
    ExpectStructuralRejection(patched, "core-forest parent is not below");
  }
  {
    // Larger and within the bounds, but not below: only the level
    // check names it.
    SCOPED_TRACE("parent level == child level");
    std::string patched = bytes;
    SetForestNode(&patched, root, {CoreIndex::kNoNode, 3, 8});
    ExpectStructuralRejection(patched, "core-forest parent is not below");
  }
  {
    SCOPED_TRACE("parent size <= child size");
    std::string patched = bytes;
    SetForestNode(&patched, root, {CoreIndex::kNoNode, 2, 4});
    ExpectStructuralRejection(patched, "core-forest parent is not below");
  }
  {
    SCOPED_TRACE("size outside the core-number bounds");
    std::string patched = bytes;
    SetForestNode(&patched, root, {CoreIndex::kNoNode, 2, 10});
    ExpectStructuralRejection(patched, "core-forest node outside");
  }
  {
    // Level above the degeneracy: rejected before it indexes the bounds.
    SCOPED_TRACE("level above the degeneracy");
    std::string patched = bytes;
    SetForestNode(&patched, leaf, {root, 4, 4});
    ExpectStructuralRejection(patched, "core-forest node outside");
  }
  {
    // n + 1 rows, consistent with the meta count, the section table and
    // the file size: only the node-count check can refuse them.
    SCOPED_TRACE("more nodes than vertices");
    std::string patched = bytes;
    const uint64_t nodes = graph.NumVertices() + 1;
    const uint64_t extra = (nodes - 3) * sizeof(CoreForestNode);
    patched.append(extra, '\0');
    for (uint32_t node = 3; node < nodes; ++node) {
      SetForestNode(&patched, node, root_row);
    }
    const uint64_t length = nodes * sizeof(CoreForestNode);
    std::memcpy(patched.data() +
                    SectionEntryPos(patched, SectionId::kForestNodes) +
                    offsetof(SectionEntry, length),
                &length, sizeof(length));
    std::memcpy(patched.data() + SectionOffsetOf(patched, SectionId::kMeta) +
                    offsetof(ImageMeta, num_forest_nodes),
                &nodes, sizeof(nodes));
    const uint64_t file_bytes = patched.size();
    std::memcpy(patched.data() + offsetof(ImageHeader, file_bytes),
                &file_bytes, sizeof(file_bytes));
    ExpectStructuralRejection(patched, "more core-forest nodes than vertices");
  }
}

// ---------------------------------------------------------------------------
// Writer: an image is replaced by rename, never truncated in place.

/// Files in `path`'s directory whose names start with `path`'s plus
/// ".tmp" (the writer's temp files).
std::vector<std::string> TempFilesOf(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp";
  std::vector<std::string> found;
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) found.push_back(name);
  }
  return found;
}

TEST(StoreWriterTest, CompilingOverALoadedImageKeepsItsSnapshot) {
  // A served image recompiled in place: truncating the file would leave
  // the loaded snapshot's mapping without pages (SIGBUS on the next
  // read). The old snapshot must keep reading its own bytes.
  const Graph old_graph = gen::Barbell(5, 2);
  const std::string path = CompileToTemp(old_graph, "replace");
  const std::string old_bytes = ReadFileBytes(path);
  IoError error;
  const std::optional<Snapshot> old_snapshot = LoadGraphImage(path, &error);
  ASSERT_TRUE(old_snapshot.has_value()) << error.message;

  const Graph new_graph = gen::Barbell(4, 0);
  ASSERT_TRUE(CompileGraphImage(new_graph, path, &error)) << error.message;

  // The old mapping starts the offsets section's offset before its
  // offsets array, and still holds a whole, self-consistent image.
  const char* old_base =
      reinterpret_cast<const char*>(old_snapshot->graph.offsets().data()) -
      SectionOffsetOf(old_bytes, SectionId::kOffsets);
  ImageHeader header;
  std::memcpy(&header, old_base, sizeof(header));
  EXPECT_EQ(header.file_bytes, old_bytes.size());
  EXPECT_EQ(ImageChecksum(old_base, old_bytes.size()), header.checksum);
  EXPECT_EQ(old_snapshot->graph.neighbors(), old_graph.neighbors());

  const std::optional<Snapshot> fresh = LoadGraphImage(path, &error);
  ASSERT_TRUE(fresh.has_value()) << error.message;
  EXPECT_EQ(fresh->graph.offsets(), new_graph.offsets());
  EXPECT_EQ(fresh->graph.neighbors(), new_graph.neighbors());
  EXPECT_TRUE(TempFilesOf(path).empty());
}

TEST(StoreWriterTest, FailedWriteRemovesItsTempFile) {
  // The rename fails (the target is a non-empty directory): a typed
  // error, the target untouched, and no temp file left behind.
  const std::string path = TempPath("store_dir_target");
  std::filesystem::remove_all(path);
  ASSERT_TRUE(std::filesystem::create_directory(path));
  WriteFileBytes(path + "/keep", "keep");
  IoError error;
  EXPECT_FALSE(CompileGraphImage(gen::Barbell(4, 0), path, &error));
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);
  EXPECT_NE(error.message.find("write failed for " + path), std::string::npos)
      << error.message;
  EXPECT_EQ(ReadFileBytes(path + "/keep"), "keep");
  EXPECT_TRUE(TempFilesOf(path).empty());
}

// ---------------------------------------------------------------------------
// Failpoints: the chaos hooks fire and map to typed open errors.

TEST(StoreFailpointTest, InjectedOpenFaultIsTyped) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "fp_open");
  failpoint::ScopedFailpoint fp("serve.store.image_open_error");
  IoError error;
  EXPECT_FALSE(LoadGraphImage(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);
  EXPECT_NE(error.message.find("injected image open fault"),
            std::string::npos)
      << error.message;
}

TEST(StoreFailpointTest, InjectedMmapFaultIsTyped) {
  const std::string path = CompileToTemp(gen::Barbell(4, 0), "fp_mmap");
  failpoint::ScopedFailpoint fp("serve.store.image_mmap_error");
  IoError error;
  EXPECT_FALSE(LoadGraphImage(path, &error).has_value());
  EXPECT_EQ(error.kind, IoErrorKind::kOpen);
  EXPECT_NE(error.message.find("cannot mmap"), std::string::npos)
      << error.message;
}

// ---------------------------------------------------------------------------
// Wire-level differential: image-backed and text-backed graphs produce
// byte-identical query replies (replies are deterministic by design —
// timing lives only in STATS).

/// Runs one scripted locsd session over file-backed fds (the
/// serve_session_test harness, trimmed to what the differential needs).
std::vector<std::string> RunScript(const std::vector<std::string>& script,
                                   const std::string& tag) {
  serve::GraphRegistry registry(4);
  serve::AdmissionController admission;
  serve::ServerMetrics metrics;
  const serve::SessionOptions options;

  const std::string in_path = TempPath("store_wire_in_" + tag);
  const std::string out_path = TempPath("store_wire_out_" + tag);
  {
    std::ofstream out(in_path, std::ios::trunc);
    for (const std::string& line : script) out << line << "\n";
  }
  const int in_fd = ::open(in_path.c_str(), O_RDONLY);
  const int out_fd =
      ::open(out_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  EXPECT_GE(in_fd, 0);
  EXPECT_GE(out_fd, 0);
  {
    serve::FdTransport transport(in_fd, out_fd);
    serve::Session session(transport, registry, admission, metrics,
                           options);
    session.Run();
  }
  ::close(in_fd);
  ::close(out_fd);

  std::vector<std::string> replies;
  std::ifstream in(out_path);
  std::string line;
  while (std::getline(in, line)) replies.push_back(line);
  return replies;
}

TEST(StoreWireTest, ImageAndTextBackedRepliesAreByteIdentical) {
  const std::string text = TempPath("store_wire.txt");
  ASSERT_TRUE(SaveEdgeList(gen::BarabasiAlbert(600, 3, /*seed=*/11), text));
  // Compile from the text file's own view of the graph (LoadEdgeList
  // compacts ids in first-seen order) — exactly what `locs_cli compile
  // <edgelist>` produces, so LOAD-of-text and LOADIMG see the same
  // labeled graph.
  const std::optional<Graph> reloaded = LoadEdgeList(text);
  ASSERT_TRUE(reloaded.has_value());
  const std::string image = CompileToTemp(*reloaded, "wire");

  const std::vector<std::string> queries = {
      "CST g 0 3",         "CST g 17 2",  "CST g 5 100",
      "CSM g 0",           "CSM g 599",   "MULTI g 3 0 1 2",
      "MULTI g max 10 20", "CST g 4 1 trace=1", "CSM g 0 limit=3",
      "CSM g 599 limit=1 trace=1",
  };
  std::vector<std::string> text_script = {"LOAD g " + text};
  std::vector<std::string> image_script = {"LOADIMG g " + image};
  std::vector<std::string> sniff_script = {"LOAD g " + image};
  for (const std::string& q : queries) {
    text_script.push_back(q);
    image_script.push_back(q);
    sniff_script.push_back(q);
  }
  text_script.push_back("QUIT");
  image_script.push_back("QUIT");
  sniff_script.push_back("QUIT");

  const auto text_replies = RunScript(text_script, "text");
  const auto image_replies = RunScript(image_script, "image");
  const auto sniff_replies = RunScript(sniff_script, "sniff");
  // One reply per line: the LOAD ack, the queries, and the QUIT ack.
  ASSERT_EQ(text_replies.size(), queries.size() + 2);
  ASSERT_EQ(image_replies.size(), queries.size() + 2);
  ASSERT_EQ(sniff_replies.size(), queries.size() + 2);

  // The LOAD acks differ by design (source=text vs source=image and
  // timing); every query reply after them must match byte-for-byte.
  EXPECT_NE(text_replies[0].find(" source=text"), std::string::npos)
      << text_replies[0];
  EXPECT_NE(image_replies[0].find(" source=image"), std::string::npos)
      << image_replies[0];
  EXPECT_NE(sniff_replies[0].find(" source=image"), std::string::npos)
      << sniff_replies[0];
  for (size_t i = 1; i < text_replies.size(); ++i) {
    EXPECT_EQ(text_replies[i], image_replies[i]) << "query " << i;
    EXPECT_EQ(text_replies[i], sniff_replies[i]) << "query " << i;
  }
}

TEST(StoreWireTest, LoadImgOnNonImageIsTypedWireError) {
  const Graph graph = gen::Barbell(4, 0);
  const std::string text = TempPath("store_wire_bad.txt");
  ASSERT_TRUE(SaveEdgeList(graph, text));
  const auto replies =
      RunScript({"LOADIMG g " + text, "PING", "QUIT"}, "bad");
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].rfind("ERR io ", 0), 0u) << replies[0];
  EXPECT_NE(replies[0].find("not a graph image"), std::string::npos)
      << replies[0];
  EXPECT_EQ(replies[1], "OK pong");
}

}  // namespace
}  // namespace locs::store
