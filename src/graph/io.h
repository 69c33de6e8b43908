// Graph persistence: SNAP-style edge-list and METIS text files. The one
// binary graph format is the checksummed image of src/store/.

#ifndef LOCS_GRAPH_IO_H_
#define LOCS_GRAPH_IO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "graph/graph.h"

namespace locs {

/// What went wrong during a load. Callers branch on the kind (e.g. the CLI
/// maps each kind to a distinct exit code); `message` carries the
/// human-readable detail.
enum class IoErrorKind : uint8_t {
  kNone,       ///< load succeeded
  kOpen,       ///< file missing / not readable
  kParse,      ///< malformed content (text formats, bad image magic)
  kTruncated,  ///< file ended before the declared data (short read)
  kAlloc,      ///< an allocation for the graph data failed
};

constexpr std::string_view IoErrorKindName(IoErrorKind kind) {
  switch (kind) {
    case IoErrorKind::kNone:
      return "none";
    case IoErrorKind::kOpen:
      return "open";
    case IoErrorKind::kParse:
      return "parse";
    case IoErrorKind::kTruncated:
      return "truncated";
    case IoErrorKind::kAlloc:
      return "alloc";
  }
  return "unknown";
}

/// Optional error detail for the loaders below. Reset on every call.
struct IoError {
  IoErrorKind kind = IoErrorKind::kNone;
  /// Human-readable description ("header expects 40 vertices, line 12
  /// references vertex 99").
  std::string message;
  /// 1-based line number for text parse errors; 0 when not applicable.
  uint64_t line = 0;

  bool ok() const { return kind == IoErrorKind::kNone; }
};

/// Loads a whitespace-separated edge list ("u v" per line; lines starting
/// with '#' or '%' are comments — the format of SNAP dataset files).
/// Columns after the second are ignored. Vertex ids are compacted to a
/// dense [0, n) range in order of first appearance, reading each line's
/// second column before its first: "5 7\n5 9\n" numbers 7 as 0, 5 as 1
/// and 9 as 2. Returns std::nullopt if the file cannot be read or parsed,
/// or if memory runs out (kAlloc); `error` (optional) receives the
/// failure detail.
std::optional<Graph> LoadEdgeList(const std::string& path,
                                  IoError* error = nullptr);

/// Writes the graph as an edge list (one canonical "u v" line per edge).
/// Returns false on I/O failure.
bool SaveEdgeList(const Graph& graph, const std::string& path);

/// Loads a METIS graph file: a header line "n m [fmt]" followed by one
/// line per vertex (1-based neighbor ids; '%' comment lines allowed).
/// Only the plain unweighted format (fmt absent or "0"/"00"/"000") is
/// supported; the vertex count must fit a VertexId. Returns std::nullopt
/// on open/parse/alloc failure, with detail in `error` when provided.
std::optional<Graph> LoadMetis(const std::string& path,
                               IoError* error = nullptr);

/// Writes the graph in plain METIS format. Returns false on I/O failure.
bool SaveMetis(const Graph& graph, const std::string& path);

/// Loads a text graph with the format chosen by file extension:
/// `.metis`/`.graph` is METIS, anything else is a whitespace edge list.
/// This is the one extension rule shared by the CLI and the serving
/// layer, both of which sniff for a graph image first.
std::optional<Graph> LoadGraphAuto(const std::string& path,
                                   IoError* error = nullptr);

}  // namespace locs

#endif  // LOCS_GRAPH_IO_H_
