// On-disk layout of a locs graph image (.limg) — the persistent,
// mmap-ready artifact holding one graph's CSR arrays plus every serving
// precomputation (degree-descending ordering, core numbers, the core
// forest, and the GraphFacts scalars).
//
// Layout (all integers written in host byte order; the endianness tag
// in the header detects a cross-endian file at load):
//
//   ImageHeader            magic, version, endian tag, file size,
//                          whole-file checksum, section count
//   SectionEntry[count]    id + absolute byte offset + byte length
//   sections...            each starting at an 8-byte-aligned offset
//                          (zero padding between sections), so a span
//                          over the mmap is correctly aligned for its
//                          element type
//
// The checksum is XXH64 (seed 0, checksum.h) over the entire file with
// the checksum field itself read as zero. Version policy: the format
// version bumps on any layout or checksum change; readers reject other
// versions rather than guess (images are cheap to regenerate from the
// source graph with `locs_cli compile`).
//
// Versions: v1 used FNV-1a 64 as the checksum. v2 switched to XXH64;
// the layout was unchanged. v3 dropped the five CoreIndex merge-tree
// sections (ids 6-10), so an image has exactly five sections; the meta
// slot that held the tree node count is reserved. v4 added the sixth
// section, the per-vertex CSM component sizes (id 6), so a served CSM
// reads its answer size instead of listing the whole component. v5
// replaced them with the core forest (core/core_index.h): section 6 holds
// each vertex's forest node id, the new section 7 the node table, and the
// meta slot reserved since v3 its node count. A served MULTI reads its
// answer size and δ from the forest, and a CSM reads its size through
// the vertex's node.

#ifndef LOCS_STORE_FORMAT_H_
#define LOCS_STORE_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace locs::store {

/// First 8 bytes of every graph image.
inline constexpr char kImageMagic[8] = {'L', 'O', 'C', 'S',
                                        'I', 'M', 'G', '1'};

/// The format version this build writes and the only one it reads.
inline constexpr uint32_t kImageVersion = 5;

/// Written as a native uint32; reads back byte-reversed on a machine of
/// the opposite endianness, which the reader rejects with a typed error.
inline constexpr uint32_t kEndianTag = 0x01020304u;
inline constexpr uint32_t kEndianTagSwapped = 0x04030201u;

/// Every section payload starts at a multiple of this.
inline constexpr uint64_t kSectionAlign = 8;

/// Section identifiers. An image contains each exactly once.
enum class SectionId : uint32_t {
  kMeta = 1,              ///< ImageMeta scalars
  kOffsets = 2,           ///< uint64[n+1] CSR offsets
  kNeighbors = 3,         ///< VertexId[2|E|] ascending adjacency
  kOrderedNeighbors = 4,  ///< VertexId[2|E|] degree-descending adjacency
                          ///< (shares the kOffsets array)
  kCoreNumbers = 5,       ///< uint32[n]
  kForestNodeOf = 6,      ///< uint32[n]: v's core-forest node id
  kForestNodes = 7,       ///< {parent, level, size} uint32 triples, one
                          ///< per node (CoreForestNode); a root's parent
                          ///< is 0xFFFFFFFF
};
inline constexpr uint32_t kNumSections = 7;

/// Fixed file header. 8-byte aligned size so the section table that
/// follows is aligned too.
struct ImageHeader {
  char magic[8];
  uint32_t version;
  uint32_t endian;
  uint64_t file_bytes;  ///< total file size; must match the mapping
  uint64_t checksum;    ///< XXH64 with this field read as zero
  uint32_t section_count;
  uint32_t reserved;
};
static_assert(sizeof(ImageHeader) == 40, "header layout is part of the ABI");

/// One section-table row.
struct SectionEntry {
  uint32_t id;  ///< SectionId
  uint32_t reserved;
  uint64_t offset;  ///< absolute byte offset, multiple of kSectionAlign
  uint64_t length;  ///< payload bytes
};
static_assert(sizeof(SectionEntry) == 24,
              "section entry layout is part of the ABI");

/// The kMeta payload: counts that size every other section plus the
/// GraphFacts scalars, so a cold load needs no recomputation (notably no
/// connectivity BFS).
struct ImageMeta {
  uint64_t num_vertices;
  uint64_t num_half_edges;  ///< 2|E| = neighbor-array length
  uint64_t num_forest_nodes;  ///< kForestNodes rows (the merge-tree node
                              ///< count until v2, zero in v3 and v4)
  uint32_t degeneracy;
  uint32_t max_degree;
  uint32_t connected;  ///< GraphFacts::connected, 0 or 1
  uint32_t reserved1;
};
static_assert(sizeof(ImageMeta) == 40, "meta layout is part of the ABI");

/// Rounds `offset` up to the next section boundary.
inline constexpr uint64_t AlignUp(uint64_t offset) {
  return (offset + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

}  // namespace locs::store

#endif  // LOCS_STORE_FORMAT_H_
