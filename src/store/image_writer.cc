#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <string>

#include "store/checksum.h"
#include "store/format.h"
#include "store/image.h"

namespace locs::store {

namespace {

void Fail(IoError* error, IoErrorKind kind, std::string message) {
  if (error == nullptr) return;
  error->kind = kind;
  error->message = std::move(message);
  error->line = 0;
}

/// fwrite that also feeds the running checksum, so it is computed in
/// one streaming pass (the header's checksum field is
/// written as zero and patched after the last section).
class HashingWriter {
 public:
  explicit HashingWriter(std::FILE* file) : file_(file) {}

  bool Write(const void* data, size_t bytes) {
    if (bytes == 0) return true;
    checksum_.Update(data, bytes);
    written_ += bytes;
    return std::fwrite(data, 1, bytes, file_) == bytes;
  }

  /// Writes zero bytes up to absolute offset `target`.
  bool PadTo(uint64_t target) {
    static constexpr char kZeros[kSectionAlign] = {};
    while (written_ < target) {
      const auto chunk =
          static_cast<size_t>(std::min<uint64_t>(target - written_,
                                                 sizeof(kZeros)));
      if (!Write(kZeros, chunk)) return false;
    }
    return true;
  }

  uint64_t checksum() const { return checksum_.Digest(); }
  uint64_t written() const { return written_; }

 private:
  std::FILE* file_;
  Checksum64 checksum_;
  uint64_t written_ = 0;
};

}  // namespace

bool WriteGraphImage(const Graph& graph, const GraphFacts& facts,
                     const OrderedAdjacency& ordered, const CoreIndex& index,
                     const std::string& path, IoError* error) {
  const uint64_t n = graph.NumVertices();
  const uint64_t half_edges = graph.neighbors().size();

  ImageMeta meta = {};
  meta.num_vertices = n;
  meta.num_half_edges = half_edges;
  meta.num_forest_nodes = index.forest().size();
  meta.degeneracy = index.Degeneracy();
  meta.max_degree = facts.max_degree;
  meta.connected = facts.connected ? 1u : 0u;

  // The seven sections, in SectionId order. The payload pointer/length
  // pairs reference the live in-memory arrays; nothing is staged.
  struct Payload {
    SectionId id;
    const void* data;
    uint64_t bytes;
  };
  const Payload payloads[kNumSections] = {
      {SectionId::kMeta, &meta, sizeof(meta)},
      {SectionId::kOffsets, graph.offsets().data(),
       graph.offsets().size() * sizeof(uint64_t)},
      {SectionId::kNeighbors, graph.neighbors().data(),
       half_edges * sizeof(VertexId)},
      {SectionId::kOrderedNeighbors, ordered.neighbors().data(),
       half_edges * sizeof(VertexId)},
      {SectionId::kCoreNumbers, index.core_numbers().data(),
       n * sizeof(uint32_t)},
      {SectionId::kForestNodeOf, index.node_of().data(),
       n * sizeof(uint32_t)},
      {SectionId::kForestNodes, index.forest().data(),
       index.forest().size() * sizeof(CoreForestNode)},
  };

  // Lay out the section table before writing anything.
  SectionEntry table[kNumSections] = {};
  uint64_t cursor =
      sizeof(ImageHeader) + kNumSections * sizeof(SectionEntry);
  for (uint32_t i = 0; i < kNumSections; ++i) {
    cursor = AlignUp(cursor);
    table[i].id = static_cast<uint32_t>(payloads[i].id);
    table[i].offset = cursor;
    table[i].length = payloads[i].bytes;
    cursor += payloads[i].bytes;
  }
  const uint64_t file_bytes = cursor;

  ImageHeader header = {};
  std::memcpy(header.magic, kImageMagic, sizeof(kImageMagic));
  header.version = kImageVersion;
  header.endian = kEndianTag;
  header.file_bytes = file_bytes;
  header.checksum = 0;  // patched below
  header.section_count = kNumSections;

  // Write beside the target and rename over it: truncating `path` in
  // place would pull the pages from under a process that has the old
  // image mapped (SIGBUS on its next read), and a failed write would
  // destroy the old image.
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  if (file == nullptr) {
    Fail(error, IoErrorKind::kOpen,
         "cannot create " + path + ": " + std::strerror(errno));
    return false;
  }

  HashingWriter writer(file);
  bool ok = writer.Write(&header, sizeof(header)) &&
            writer.Write(table, sizeof(table));
  for (uint32_t i = 0; ok && i < kNumSections; ++i) {
    ok = writer.PadTo(table[i].offset) &&
         writer.Write(payloads[i].data, payloads[i].bytes);
  }
  // Patch the checksum in place; the field was hashed as zero.
  const uint64_t checksum = writer.checksum();
  ok = ok && writer.written() == file_bytes &&
       std::fseek(file, static_cast<long>(offsetof(ImageHeader, checksum)),
                  SEEK_SET) == 0 &&
       std::fwrite(&checksum, sizeof(checksum), 1, file) == 1;
  // Capture errno before fclose: when an fwrite/fseek above failed but
  // the close itself succeeds, fclose would leave a stale or unrelated
  // value behind ("write failed: Success").
  int write_errno = ok ? 0 : errno;
  if (std::fclose(file) != 0) {
    if (ok) write_errno = errno;
    ok = false;
  }
  if (ok && std::rename(temp.c_str(), path.c_str()) != 0) {
    write_errno = errno;
    ok = false;
  }
  if (!ok) {
    Fail(error, IoErrorKind::kOpen,
         "write failed for " + path + ": " + std::strerror(write_errno));
    std::remove(temp.c_str());  // never leave a half-written image
    return false;
  }
  if (error != nullptr) *error = IoError{};
  return true;
}

bool CompileGraphImage(const Graph& graph, const std::string& path,
                       IoError* error) {
  const Snapshot snapshot = Snapshot::Build(graph);
  return WriteGraphImage(graph, snapshot.facts, snapshot.ordered,
                         snapshot.index, path, error);
}

}  // namespace locs::store
