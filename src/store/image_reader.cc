// Image loading: mmap, verify, and zero-copy reconstruction.
//
// The reader trusts nothing. Header fields gate format/version/
// endianness; the declared file size must match the mapping; the
// whole-file checksum catches accidental corruption; and a final O(n+m)
// structural pass proves the arrays are internally consistent (offsets
// monotone and bounded, adjacency sorted and in-range, core numbers
// bounded by the degree and topped by the stored degeneracy, a core
// forest whose walks up always end at in-range nodes of the right level
// and plausible size) before any
// solver sees them — so even an adversarially crafted image with a valid
// checksum yields a typed IoError, never out-of-range indexing.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "store/checksum.h"
#include "store/format.h"
#include "store/image.h"
#include "store/mapped_file.h"

namespace locs::store {

namespace {

void Fail(IoError* error, IoErrorKind kind, std::string message) {
  if (error == nullptr) return;
  error->kind = kind;
  error->message = std::move(message);
  error->line = 0;
}

/// Section table resolved by id; length checked before use.
struct Sections {
  // Indexed by SectionId value (1-based); slot 0 unused.
  const char* data[kNumSections + 1] = {};
  uint64_t length[kNumSections + 1] = {};
};

const char* SectionData(const Sections& s, SectionId id) {
  return s.data[static_cast<uint32_t>(id)];
}

uint64_t SectionLength(const Sections& s, SectionId id) {
  return s.length[static_cast<uint32_t>(id)];
}

/// Typed view of a section; alignment is guaranteed by the 8-byte
/// section alignment over a page-aligned mapping.
template <typename T>
std::span<const T> SectionSpan(const Sections& s, SectionId id) {
  return {reinterpret_cast<const T*>(SectionData(s, id)),
          static_cast<size_t>(SectionLength(s, id) / sizeof(T))};
}

}  // namespace

bool SniffGraphImage(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char magic[sizeof(kImageMagic)] = {};
  const bool ok =
      std::fread(magic, 1, sizeof(magic), file) == sizeof(magic) &&
      std::memcmp(magic, kImageMagic, sizeof(magic)) == 0;
  std::fclose(file);
  return ok;
}

std::optional<Snapshot> LoadGraphImage(const std::string& path,
                                       IoError* error) {
  if (error != nullptr) *error = IoError{};
  auto mapped = MappedFile::Open(path, error);
  if (mapped == nullptr) return std::nullopt;
  const char* base = mapped->data();
  const size_t size = mapped->size();

  // --- Header ---
  if (size < sizeof(ImageHeader)) {
    Fail(error, IoErrorKind::kTruncated,
         path + ": too small for an image header");
    return std::nullopt;
  }
  ImageHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kImageMagic, sizeof(kImageMagic)) != 0) {
    Fail(error, IoErrorKind::kParse, path + ": not a graph image");
    return std::nullopt;
  }
  if (header.endian == kEndianTagSwapped) {
    Fail(error, IoErrorKind::kParse,
         path + ": image was written on an opposite-endianness machine");
    return std::nullopt;
  }
  if (header.endian != kEndianTag) {
    Fail(error, IoErrorKind::kParse, path + ": bad endianness tag");
    return std::nullopt;
  }
  if (header.version != kImageVersion) {
    Fail(error, IoErrorKind::kParse,
         path + ": unsupported image version " +
             std::to_string(header.version) + " (reader supports " +
             std::to_string(kImageVersion) +
             "); recompile it from the source graph with locs_cli compile");
    return std::nullopt;
  }
  if (header.file_bytes != size) {
    Fail(error, IoErrorKind::kTruncated,
         path + ": file is " + std::to_string(size) +
             " bytes but the header declares " +
             std::to_string(header.file_bytes));
    return std::nullopt;
  }
  if (ImageChecksum(base, size) != header.checksum) {
    Fail(error, IoErrorKind::kParse, path + ": checksum mismatch");
    return std::nullopt;
  }
  if (header.section_count != kNumSections) {
    Fail(error, IoErrorKind::kParse,
         path + ": expected " + std::to_string(kNumSections) +
             " sections, header declares " +
             std::to_string(header.section_count));
    return std::nullopt;
  }

  // --- Section table ---
  const uint64_t table_end =
      sizeof(ImageHeader) + kNumSections * sizeof(SectionEntry);
  if (size < table_end) {
    Fail(error, IoErrorKind::kTruncated,
         path + ": truncated section table");
    return std::nullopt;
  }
  Sections sections;
  for (uint32_t i = 0; i < kNumSections; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, base + sizeof(ImageHeader) + i * sizeof(entry),
                sizeof(entry));
    if (entry.id == 0 || entry.id > kNumSections ||
        sections.data[entry.id] != nullptr) {
      Fail(error, IoErrorKind::kParse,
           path + ": bad or duplicate section id " +
               std::to_string(entry.id));
      return std::nullopt;
    }
    if (entry.offset % kSectionAlign != 0 || entry.offset > size ||
        entry.length > size - entry.offset) {
      Fail(error, IoErrorKind::kTruncated,
           path + ": section " + std::to_string(entry.id) +
               " extends past the end of the file");
      return std::nullopt;
    }
    sections.data[entry.id] = base + entry.offset;
    sections.length[entry.id] = entry.length;
  }

  // --- Meta + per-section length cross-check ---
  if (SectionLength(sections, SectionId::kMeta) != sizeof(ImageMeta)) {
    Fail(error, IoErrorKind::kParse, path + ": bad meta section size");
    return std::nullopt;
  }
  ImageMeta meta;
  std::memcpy(&meta, SectionData(sections, SectionId::kMeta), sizeof(meta));
  const uint64_t n = meta.num_vertices;
  const uint64_t half = meta.num_half_edges;
  if (n >= kInvalidVertex || half % 2 != 0) {
    Fail(error, IoErrorKind::kParse, path + ": implausible meta counts");
    return std::nullopt;
  }
  const struct {
    SectionId id;
    uint64_t count;
    uint64_t elem_bytes;
  } expected_counts[] = {
      {SectionId::kOffsets, n + 1, sizeof(uint64_t)},
      {SectionId::kNeighbors, half, sizeof(VertexId)},
      {SectionId::kOrderedNeighbors, half, sizeof(VertexId)},
      {SectionId::kCoreNumbers, n, sizeof(uint32_t)},
      {SectionId::kForestNodeOf, n, sizeof(uint32_t)},
      {SectionId::kForestNodes, meta.num_forest_nodes,
       sizeof(CoreForestNode)},
  };
  for (const auto& want : expected_counts) {
    // Compare element counts via division, never `count * elem_bytes`: a
    // crafted count near 2^64 (e.g. half = 2^62 with 4-byte elements)
    // wraps the product to match a short or empty section, which would
    // send the `i < count` validation loops far past the mapping. The
    // section length is already bounded by the file size, so the
    // division side cannot be spoofed.
    const uint64_t length = SectionLength(sections, want.id);
    if (length % want.elem_bytes != 0 ||
        length / want.elem_bytes != want.count) {
      Fail(error, IoErrorKind::kParse,
           path + ": section " +
               std::to_string(static_cast<uint32_t>(want.id)) +
               " length disagrees with the meta counts");
      return std::nullopt;
    }
  }

  const auto offsets = SectionSpan<uint64_t>(sections, SectionId::kOffsets);
  const auto neighbors =
      SectionSpan<VertexId>(sections, SectionId::kNeighbors);
  const auto ordered_neighbors =
      SectionSpan<VertexId>(sections, SectionId::kOrderedNeighbors);
  const auto core = SectionSpan<uint32_t>(sections, SectionId::kCoreNumbers);
  const auto node_of =
      SectionSpan<uint32_t>(sections, SectionId::kForestNodeOf);
  const auto forest =
      SectionSpan<CoreForestNode>(sections, SectionId::kForestNodes);

  // --- Structural validation (the checksum already rules out accidental
  // corruption; this pass rules out a *crafted* image indexing out of
  // range or breaking solver invariants) ---
  const char* bad_structure = nullptr;
  uint32_t max_degree = 0;
  uint32_t max_core = 0;
  if (offsets[0] != 0 || offsets[n] != half) {
    bad_structure = "CSR offsets do not cover the neighbor array";
  }
  for (uint64_t v = 0; bad_structure == nullptr && v < n; ++v) {
    if (offsets[v + 1] < offsets[v]) {
      bad_structure = "CSR offsets are not monotone";
      break;
    }
    max_degree = std::max(
        max_degree, static_cast<uint32_t>(offsets[v + 1] - offsets[v]));
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      // Strictly ascending in-range adjacency: what Graph::FromCsr
      // asserts and HasEdge's binary search requires.
      if (neighbors[i] >= n || neighbors[i] == v ||
          (i + 1 < offsets[v + 1] && neighbors[i] >= neighbors[i + 1])) {
        bad_structure = "adjacency list is not sorted in-range";
        break;
      }
    }
  }
  for (uint64_t i = 0; bad_structure == nullptr && i < half; ++i) {
    if (ordered_neighbors[i] >= n) {
      bad_structure = "ordered adjacency references a missing vertex";
      break;
    }
  }
  for (uint64_t v = 0; bad_structure == nullptr && v < n; ++v) {
    max_core = std::max(max_core, core[v]);
    // A vertex's core number never exceeds its degree.
    if (core[v] > offsets[v + 1] - offsets[v]) {
      bad_structure = "core number exceeds the vertex degree";
      break;
    }
  }
  if (bad_structure == nullptr && n > 0 &&
      (max_degree != meta.max_degree || max_core != meta.degeneracy)) {
    bad_structure = "meta scalars disagree with the arrays";
  }
  // Every vertex of core number c owns a node of level c, so there are
  // at most n nodes.
  if (bad_structure == nullptr && forest.size() > n) {
    bad_structure = "more core-forest nodes than vertices";
  }
  if (bad_structure == nullptr && n > 0) {
    // A node of level c is a component of the c-core, so it has min
    // degree >= c, hence at least c + 1 members, and at most at_least[c]
    // = |{w : core(w) >= c}|. A wrong size inside these bounds is left to
    // the checksum. A parent's strictly lower level is what ends every
    // walk up the forest.
    std::vector<uint64_t> at_least(size_t{max_core} + 2, 0);
    for (uint64_t v = 0; v < n; ++v) ++at_least[core[v]];
    for (size_t c = max_core; c-- > 0;) at_least[c] += at_least[c + 1];
    for (const CoreForestNode& node : forest) {
      if (node.level > max_core || node.size < uint64_t{node.level} + 1 ||
          node.size > at_least[node.level]) {
        bad_structure = "core-forest node outside the core-number bounds";
        break;
      }
      if (node.parent == CoreIndex::kNoNode) continue;
      if (node.parent >= forest.size()) {
        bad_structure = "core-forest parent id out of range";
        break;
      }
      if (forest[node.parent].level >= node.level ||
          forest[node.parent].size <= node.size) {
        bad_structure = "core-forest parent is not below and larger";
        break;
      }
    }
    for (uint64_t v = 0; bad_structure == nullptr && v < n; ++v) {
      if (node_of[v] >= forest.size()) {
        bad_structure = "core-forest node id out of range";
      } else if (forest[node_of[v]].level != core[v]) {
        bad_structure = "core-forest node level disagrees with the core number";
      }
    }
  }
  if (bad_structure != nullptr) {
    Fail(error, IoErrorKind::kParse,
         path + ": structural validation failed: " + bad_structure);
    return std::nullopt;
  }

  // --- Zero-copy construction: every ConstArray views the mapping and
  // shares the MappedFile keepalive ---
  const std::shared_ptr<const void> region = mapped;
  Graph graph =
      Graph::FromParts(ConstArray<uint64_t>(offsets, region),
                       ConstArray<VertexId>(neighbors, region));
  OrderedAdjacency ordered = OrderedAdjacency::FromParts(
      graph.offsets(), ConstArray<VertexId>(ordered_neighbors, region));
  CoreIndex index = CoreIndex::FromParts(
      ConstArray<uint32_t>(core, region), ConstArray<uint32_t>(node_of, region),
      ConstArray<CoreForestNode>(forest, region), meta.degeneracy);
  GraphFacts facts;
  facts.num_vertices = n;
  facts.num_edges = half / 2;
  facts.max_degree = meta.max_degree;
  facts.connected = meta.connected != 0;
  return Snapshot{std::move(graph), facts, std::move(ordered),
                  std::move(index)};
}

}  // namespace locs::store
