// Image loading: mmap, verify, and zero-copy reconstruction.
//
// The reader trusts nothing. Header fields gate format/version/
// endianness and the declared file size must match the mapping. Then one
// chunked pass, each byte read once, walks the section payloads in file
// order in 64 KiB chunks: every chunk is fed to the whole-file checksum
// and, while it is still in cache, to its own section's structural
// checks, which prove the arrays internally consistent (offsets monotone
// and bounded, adjacency sorted and in-range, core numbers bounded by the
// degree and topped by the stored degeneracy, a core forest whose walks
// up always end at in-range nodes of the right level and plausible size)
// before any solver sees them. The checksum catches accidental
// corruption and is reported first; the section table, meta and
// structural checks catch a crafted image with a valid checksum, so even
// an adversarial file yields a typed IoError, never out-of-range
// indexing. The checks never read outside a section the table has
// placed inside the file, whatever order the sections come in.
//
// The writer (image_writer.cc) writes a temp file beside the image and
// renames it over the path, so a process that has the old image mapped
// keeps reading the old, complete bytes.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "store/checksum.h"
#include "store/format.h"
#include "store/image.h"
#include "store/mapped_file.h"

namespace locs::store {

namespace {

/// Bytes hashed and checked per step of the sweep: small enough to stay
/// in L2 between the hash and the checks.
constexpr uint64_t kChunkBytes = uint64_t{64} << 10;

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

/// Reads the section table and the meta section of a mapped image whose
/// header passed its gates. Returns false with `error` set on the first
/// table or meta fault; the caller reports it only once the checksum
/// matched, so a stale checksum wins over a corrupt table.
bool ReadLayout(const char* base, size_t size, const ImageHeader& header,
                const std::string& path, Sections* sections,
                ImageMeta* meta, IoError* error) {
  if (header.section_count != kNumSections) {
    Fail(error, IoErrorKind::kParse,
         path + ": expected " + std::to_string(kNumSections) +
             " sections, header declares " +
             std::to_string(header.section_count));
    return false;
  }
  const uint64_t table_end =
      sizeof(ImageHeader) + kNumSections * sizeof(SectionEntry);
  if (size < table_end) {
    Fail(error, IoErrorKind::kTruncated,
         path + ": truncated section table");
    return false;
  }
  for (uint32_t i = 0; i < kNumSections; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, base + sizeof(ImageHeader) + i * sizeof(entry),
                sizeof(entry));
    if (entry.id == 0 || entry.id > kNumSections ||
        sections->data[entry.id] != nullptr) {
      Fail(error, IoErrorKind::kParse,
           path + ": bad or duplicate section id " +
               std::to_string(entry.id));
      return false;
    }
    if (entry.offset % kSectionAlign != 0 || entry.offset > size ||
        entry.length > size - entry.offset) {
      Fail(error, IoErrorKind::kTruncated,
           path + ": section " + std::to_string(entry.id) +
               " extends past the end of the file");
      return false;
    }
    sections->data[entry.id] = base + entry.offset;
    sections->length[entry.id] = entry.length;
  }

  // --- Meta + per-section length cross-check ---
  if (SectionLength(*sections, SectionId::kMeta) != sizeof(ImageMeta)) {
    Fail(error, IoErrorKind::kParse, path + ": bad meta section size");
    return false;
  }
  std::memcpy(meta, SectionData(*sections, SectionId::kMeta), sizeof(*meta));
  const uint64_t n = meta->num_vertices;
  const uint64_t half = meta->num_half_edges;
  if (n >= kInvalidVertex || half % 2 != 0) {
    Fail(error, IoErrorKind::kParse, path + ": implausible meta counts");
    return false;
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
      {SectionId::kForestNodes, meta->num_forest_nodes,
       sizeof(CoreForestNode)},
  };
  for (const auto& want : expected_counts) {
    // Compare element counts via division, never `count * elem_bytes`: a
    // crafted count near 2^64 (e.g. half = 2^62 with 4-byte elements)
    // wraps the product to match a short or empty section, which would
    // send the structural checks far past the mapping. The section
    // length is already bounded by the file size, so the division side
    // cannot be spoofed.
    const uint64_t length = SectionLength(*sections, want.id);
    if (length % want.elem_bytes != 0 ||
        length / want.elem_bytes != want.count) {
      Fail(error, IoErrorKind::kParse,
           path + ": section " +
               std::to_string(static_cast<uint32_t>(want.id)) +
               " length disagrees with the meta counts");
      return false;
    }
  }
  return true;
}

/// The structural checks (the checksum already rules out accidental
/// corruption; these rule out a *crafted* image indexing out of range or
/// breaking solver invariants). The sweep feeds each section chunk to
/// Consume right after hashing it; Verdict then runs what needs every
/// section and names the first failure in a fixed order, whatever order
/// the sections came in. Cross-section reads (the offsets behind a list
/// or a core number, the core number and forest row behind a node id)
/// only touch sections whose lengths ReadLayout matched to the meta
/// counts.
class StructureCheck {
 public:
  StructureCheck(const Sections& sections, const ImageMeta& meta)
      : meta_(meta),
        n_(meta.num_vertices),
        half_(meta.num_half_edges),
        offsets_(SectionSpan<uint64_t>(sections, SectionId::kOffsets)),
        neighbors_(SectionSpan<VertexId>(sections, SectionId::kNeighbors)),
        ordered_(
            SectionSpan<VertexId>(sections, SectionId::kOrderedNeighbors)),
        core_(SectionSpan<uint32_t>(sections, SectionId::kCoreNumbers)),
        node_of_(SectionSpan<uint32_t>(sections, SectionId::kForestNodeOf)),
        forest_(
            SectionSpan<CoreForestNode>(sections, SectionId::kForestNodes)),
        covered_(offsets_[0] == 0 && offsets_[n_] == half_),
        // Counts core numbers up to the stored degeneracy, the rest in the
        // last slot. A degeneracy of n or more fails the meta-scalar
        // check before the counts are used.
        core_count_(meta.degeneracy < n_ ? size_t{meta.degeneracy} + 2 : 0) {}

  /// Checks bytes [from, to) of section `id`, just hashed.
  void Consume(SectionId id, uint64_t from, uint64_t to) {
    switch (id) {
      case SectionId::kNeighbors:
        CheckNeighbors(from / sizeof(VertexId), to / sizeof(VertexId));
        break;
      case SectionId::kOrderedNeighbors:
        CheckOrdered(from / sizeof(VertexId), to / sizeof(VertexId));
        break;
      case SectionId::kCoreNumbers:
        CheckCores(from / sizeof(uint32_t), to / sizeof(uint32_t));
        break;
      case SectionId::kForestNodeOf:
        CheckNodeIds(from / sizeof(uint32_t), to / sizeof(uint32_t));
        break;
      default:  // meta, offsets and the forest are read where used
        break;
    }
  }

  /// Finishes the checks once every section was consumed; returns the
  /// first failure, or nullptr for a sound image.
  const char* Verdict() {
    if (!covered_) return "CSR offsets do not cover the neighbor array";
    WalkLists(half_ + 1, nullptr, 0);  // the lists that end at half
    // A bad neighbor lies before the first bad offset, so it comes first.
    if (bad_neighbors_) return "adjacency list is not sorted in-range";
    if (bad_offsets_) return "CSR offsets are not monotone";
    if (half_ > 0 && ordered_max_ >= n_) {
      return "ordered adjacency references a missing vertex";
    }
    if (core_error_ != nullptr) return core_error_;
    if (n_ > 0 &&
        (max_degree_ != meta_.max_degree || max_core_ != meta_.degeneracy)) {
      return "meta scalars disagree with the arrays";
    }
    // Every vertex of core number c owns a node of level c, so there are
    // at most n nodes.
    if (forest_.size() > n_) return "more core-forest nodes than vertices";
    if (n_ == 0) return nullptr;
    if (const char* bad = CheckForest()) return bad;
    return node_error_;
  }

 private:
  /// Walks the list ends below neighbor index `end` from the first
  /// unwalked vertex, checking each end before it is used; counts them
  /// into `ends`, indexed from neighbor `from`, when given. Stops for
  /// good at the first end that falls below its list's start or past
  /// half: offsets[n] = half, so the offsets fall somewhere later, and no
  /// neighbor from that list's start on is checked.
  void WalkLists(uint64_t end, uint32_t* ends, uint64_t from) {
    if (bad_offsets_) return;
    // Locals, not members: `ends` may alias any uint32_t field.
    uint64_t v = next_vertex_;
    uint64_t begin = list_begin_;
    uint32_t max_degree = max_degree_;
    for (; v < n_; ++v) {
      const uint64_t stop = offsets_[v + 1];
      if (stop < begin || stop > half_) {
        bad_offsets_ = true;
        checked_end_ = begin;
        break;
      }
      if (stop >= end) break;
      max_degree = std::max(max_degree, static_cast<uint32_t>(stop - begin));
      if (ends != nullptr) ++ends[stop - from];
      begin = stop;
    }
    next_vertex_ = v;
    list_begin_ = begin;
    max_degree_ = max_degree;
  }

  /// Checks neighbors [from, to) against their lists: strictly ascending
  /// within a list, never the list's own vertex, below n. The list ends in
  /// the chunk turn into each neighbor's owner by a running sum, so the
  /// whole chunk is one branch-free OR-reduction, however short the lists.
  void CheckNeighbors(uint64_t from, uint64_t to) {
    if (!covered_) return;
    uint32_t* owner = owner_.data();
    std::fill(owner, owner + (to - from), 0u);
    WalkLists(to, owner, from);
    if (from >= checked_end_) return;
    const uint64_t length = std::min(to, checked_end_) - from;
    uint32_t running = next_owner_;
    for (uint64_t j = 0; j < length; ++j) {
      running += owner[j];
      owner[j] = running;
    }
    const VertexId* x = neighbors_.data() + from;
    const auto n = static_cast<VertexId>(n_);  // 32-bit lanes vectorise
    // The pair across the chunk boundary: same list iff no list ends at
    // `from`, i.e. the owner did not change.
    unsigned bad = 0;
    if (from > 0) {
      bad = static_cast<unsigned>(x[-1] >= x[0]) &
            static_cast<unsigned>(owner[0] == next_owner_);
    }
    for (uint64_t j = 0; j + 1 < length; ++j) {
      bad |= (static_cast<unsigned>(x[j] >= x[j + 1]) &
              static_cast<unsigned>(owner[j] == owner[j + 1])) |
             static_cast<unsigned>(x[j] >= n) |
             static_cast<unsigned>(x[j] == owner[j]);
    }
    bad |= static_cast<unsigned>(x[length - 1] >= n) |
           static_cast<unsigned>(x[length - 1] == owner[length - 1]);
    next_owner_ = running;
    if (bad != 0) bad_neighbors_ = true;
  }

  void CheckOrdered(uint64_t from, uint64_t to) {
    VertexId max = ordered_max_;
    for (uint64_t i = from; i < to; ++i) max = std::max(max, ordered_[i]);
    ordered_max_ = max;
  }

  void CheckCores(uint64_t from, uint64_t to) {
    if (core_error_ != nullptr) return;
    uint32_t max_core = max_core_;
    unsigned bad = 0;
    for (uint64_t v = from; v < to; ++v) {
      max_core = std::max(max_core, core_[v]);
      // A vertex's core number never exceeds its degree.
      bad |= static_cast<unsigned>(core_[v] > offsets_[v + 1] - offsets_[v]);
    }
    max_core_ = max_core;
    if (bad != 0) core_error_ = "core number exceeds the vertex degree";
    if (core_count_.empty()) return;
    const uint32_t last = static_cast<uint32_t>(core_count_.size() - 1);
    for (uint64_t v = from; v < to; ++v) {
      ++core_count_[std::min(core_[v], last)];
    }
  }

  void CheckNodeIds(uint64_t from, uint64_t to) {
    for (uint64_t v = from; node_error_ == nullptr && v < to; ++v) {
      if (node_of_[v] >= forest_.size()) {
        node_error_ = "core-forest node id out of range";
      } else if (forest_[node_of_[v]].level != core_[v]) {
        node_error_ = "core-forest node level disagrees with the core number";
      }
    }
  }

  /// A node of level c is a component of the c-core, so it has min
  /// degree >= c, hence at least c + 1 members, and at most at_least[c]
  /// = |{w : core(w) >= c}|. A wrong size inside these bounds is left to
  /// the checksum. A parent's strictly lower level is what ends every
  /// walk up the forest. Runs after the meta-scalar check, so max_core_
  /// is the stored degeneracy and below n.
  const char* CheckForest() {
    std::vector<uint64_t>& at_least = core_count_;
    for (size_t c = max_core_; c-- > 0;) at_least[c] += at_least[c + 1];
    for (const CoreForestNode& node : forest_) {
      if (node.level > max_core_ || node.size < uint64_t{node.level} + 1 ||
          node.size > at_least[node.level]) {
        return "core-forest node outside the core-number bounds";
      }
      if (node.parent == CoreIndex::kNoNode) continue;
      if (node.parent >= forest_.size()) {
        return "core-forest parent id out of range";
      }
      if (forest_[node.parent].level >= node.level ||
          forest_[node.parent].size <= node.size) {
        return "core-forest parent is not below and larger";
      }
    }
    return nullptr;
  }

  const ImageMeta meta_;
  const uint64_t n_;
  const uint64_t half_;
  const std::span<const uint64_t> offsets_;
  const std::span<const VertexId> neighbors_;
  const std::span<const VertexId> ordered_;
  const std::span<const uint32_t> core_;
  const std::span<const uint32_t> node_of_;
  const std::span<const CoreForestNode> forest_;
  const bool covered_;

  // Adjacency walk: the first vertex whose list end is unwalked, and
  // offsets[next_vertex_], checked <= half.
  uint64_t next_vertex_ = 0;
  uint64_t list_begin_ = 0;
  uint32_t max_degree_ = 0;
  bool bad_offsets_ = false;
  uint64_t checked_end_ = UINT64_MAX;  // neighbors past a bad offset
  // Per chunk: list-end counts, then each neighbor's owner vertex.
  std::vector<uint32_t> owner_ =
      std::vector<uint32_t>(kChunkBytes / sizeof(VertexId));
  uint32_t next_owner_ = 0;  // owner of the last neighbor checked
  bool bad_neighbors_ = false;
  VertexId ordered_max_ = 0;
  uint32_t max_core_ = 0;
  std::vector<uint64_t> core_count_;
  const char* core_error_ = nullptr;
  const char* node_error_ = nullptr;
};

/// The image checksum, computed in one pass over the file: the header,
/// then the section payloads in file order, each in kChunkBytes chunks
/// handed to `check` right after they are hashed (none when `check` is
/// null), then whatever the sections did not cover. Bytes two crafted
/// sections share are hashed once and checked for each.
uint64_t HashAndCheck(const char* base, size_t size,
                      const Sections& sections, StructureCheck* check) {
  Checksum64 checksum = ImageHeaderChecksum(base);
  uint64_t hashed = sizeof(ImageHeader);
  if (check != nullptr) {
    SectionId order[kNumSections];
    for (uint32_t i = 0; i < kNumSections; ++i) {
      order[i] = static_cast<SectionId>(i + 1);
    }
    std::sort(order, order + kNumSections, [&](SectionId a, SectionId b) {
      return SectionData(sections, a) < SectionData(sections, b);
    });
    for (const SectionId id : order) {
      const auto begin =
          static_cast<uint64_t>(SectionData(sections, id) - base);
      const uint64_t end = begin + SectionLength(sections, id);
      for (uint64_t at = begin; at < end; at += kChunkBytes) {
        const uint64_t stop = std::min(end, at + kChunkBytes);
        if (stop > hashed) {
          checksum.Update(base + hashed, stop - hashed);
          hashed = stop;
        }
        check->Consume(id, at - begin, stop - begin);
      }
    }
  }
  checksum.Update(base + hashed, size - hashed);
  return checksum.Digest();
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

  // --- Section table and meta, then one pass that hashes every byte and
  // checks each section chunk while it is in cache. A table or meta fault
  // leaves nothing to check; it is reported after the checksum ---
  Sections sections;
  ImageMeta meta = {};
  IoError layout_error;
  const bool layout_ok =
      ReadLayout(base, size, header, path, &sections, &meta, &layout_error);
  std::optional<StructureCheck> check;
  if (layout_ok) check.emplace(sections, meta);
  const uint64_t checksum = HashAndCheck(
      base, size, sections, check.has_value() ? &*check : nullptr);
  if (checksum != header.checksum) {
    Fail(error, IoErrorKind::kParse, path + ": checksum mismatch");
    return std::nullopt;
  }
  if (!layout_ok) {
    if (error != nullptr) *error = std::move(layout_error);
    return std::nullopt;
  }
  if (const char* bad_structure = check->Verdict()) {
    Fail(error, IoErrorKind::kParse,
         path + ": structural validation failed: " + bad_structure);
    return std::nullopt;
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
  const uint64_t n = meta.num_vertices;
  const uint64_t half = meta.num_half_edges;

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
