// Graph image store — versioned binary snapshots of a fully indexed
// graph, loaded back via mmap with zero copy (see format.h for the
// layout).
//
// Compile once, load in milliseconds: `locs_cli compile` (or
// WriteGraphImage) serializes a Snapshot: the CSR arrays, the §4.3.2
// degree-ordered adjacency, the CoreIndex core numbers and core forest,
// and the GraphFacts scalars. LoadGraphImage maps the file
// read-only and returns the same Snapshot, its ConstArray storage
// pointing straight into the mapping. No parse, no Batagelj–Zaversnik
// recompute, no connectivity BFS — the cold-start cost the serving layer
// used to pay on every restart.

#ifndef LOCS_STORE_IMAGE_H_
#define LOCS_STORE_IMAGE_H_

#include <optional>
#include <string>
#include <string_view>

#include "core/snapshot.h"
#include "graph/io.h"

namespace locs::store {

/// Canonical extension for graph-image files.
inline constexpr std::string_view kImageExtension = ".limg";

/// Serializes `graph` plus its precomputations to `path`. Returns false
/// on I/O failure with `error` populated. The image is written to
/// `<path>.tmp.<pid>` and renamed over `path`, so a process that has the
/// old image loaded keeps its bytes, a failed write leaves the old image
/// intact, and no temp file outlives the call. A symlink at `path` is
/// replaced by the new file, not followed.
bool WriteGraphImage(const Graph& graph, const GraphFacts& facts,
                     const OrderedAdjacency& ordered, const CoreIndex& index,
                     const std::string& path, IoError* error = nullptr);

/// Convenience wrapper: builds `graph`'s Snapshot, then writes the image.
/// This is the `locs_cli compile` entry point.
bool CompileGraphImage(const Graph& graph, const std::string& path,
                       IoError* error = nullptr);

/// Maps `path` and reconstructs the snapshot with zero copy. Every
/// failure mode — unreadable file, bad magic, unsupported version, wrong
/// endianness, truncation, checksum mismatch, structurally invalid
/// arrays — yields std::nullopt with a typed `error`; a corrupt image
/// can never produce UB or a structurally broken graph.
std::optional<Snapshot> LoadGraphImage(const std::string& path,
                                       IoError* error = nullptr);

/// True iff `path` exists and starts with the graph-image magic — the
/// content sniff behind LOAD's image auto-detection (works regardless of
/// the file's extension).
bool SniffGraphImage(const std::string& path);

}  // namespace locs::store

#endif  // LOCS_STORE_IMAGE_H_
