// GraphRegistry — named, shared, immutable graphs for the serving layer.
//
// A resident server answers many queries against few graphs, so the
// registry loads each graph once as a Snapshot (core/snapshot.h: the
// graph, its GraphFacts, the §4.3.2 degree-ordered adjacency and the
// CoreIndex) — mapped from a graph image, or built by Snapshot::Build —
// and hands sessions a shared_ptr<const ServedGraph>, which a session
// binds through a CommunitySearcher. Sessions never copy graph data; an
// EVICT or replacing LOAD only drops the registry's reference, so
// queries already holding the entry finish safely on the old snapshot
// and the memory is reclaimed when the last session lets go — the same
// read-copy-update shape later snapshot/refresh PRs will extend.
//
// Load parses and builds entirely outside the registry lock: concurrent
// LOADs of different graphs overlap, and lookups never wait on a load.

#ifndef LOCS_SERVE_REGISTRY_H_
#define LOCS_SERVE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "graph/io.h"
#include "util/thread_annotations.h"

namespace locs::serve {

/// One registered snapshot plus its serving metadata. Immutable after
/// registration; safe for concurrent queries from any number of sessions.
struct ServedGraph : Snapshot {
  std::string name;
  std::string source_path;
  double load_ms = 0.0;   ///< file parse (or image map+verify) time
  double build_ms = 0.0;  ///< Snapshot::Build time (0 for image loads:
                          ///< all precomputed)
  /// True when this snapshot is mmap-backed by a graph image; its arrays
  /// view the mapping, kept alive by the ConstArray keepalives.
  bool from_image = false;
  /// Registry-unique load generation: every successful Load — including
  /// a replacing re-LOAD under the same name — mints a fresh epoch.
  /// Cache keys lead with it, so replies can never outlive the graph
  /// contents they were computed from (see serve/result_cache.h).
  uint64_t epoch = 0;

  ServedGraph(std::string name_in, std::string path_in, Snapshot snapshot)
      : Snapshot(std::move(snapshot)),
        name(std::move(name_in)),
        source_path(std::move(path_in)) {}
};

/// Thread-safe name -> ServedGraph map with a capacity cap.
class GraphRegistry {
 public:
  /// Summary row for LIST and diagnostics.
  struct GraphInfo {
    std::string name;
    uint64_t vertices = 0;
    uint64_t edges = 0;
  };

  /// `max_graphs` caps resident graphs (a LOAD of a *new* name beyond it
  /// is rejected; replacing an existing name always succeeds).
  explicit GraphRegistry(size_t max_graphs = 16)
      : max_graphs_(max_graphs) {}

  GraphRegistry(const GraphRegistry&) = delete;
  GraphRegistry& operator=(const GraphRegistry&) = delete;

  /// How Load interprets the file at `path`.
  enum class LoadSource : uint8_t {
    kAuto,   ///< graph image when the content sniff says so (any
             ///< extension), else by extension via LoadGraphAuto
    kImage,  ///< must be a graph image (the LOADIMG verb)
  };

  /// Loads `path` and registers it under `name`, replacing any previous
  /// graph of that name. Returns the entry, or null with `error`
  /// populated on a load failure or `*full` set when the registry is at
  /// capacity. `*image_attempted` (optional) reports whether the image
  /// path was taken — set even on failure, so callers can attribute the
  /// error to the image store.
  std::shared_ptr<const ServedGraph> Load(
      const std::string& name, const std::string& path, IoError* error,
      bool* full, LoadSource source = LoadSource::kAuto,
      bool* image_attempted = nullptr) LOCS_EXCLUDES(mutex_);

  /// The named entry, or null. O(log graphs).
  std::shared_ptr<const ServedGraph> Get(const std::string& name) const
      LOCS_EXCLUDES(mutex_);

  /// Drops the named entry (in-flight queries holding it finish safely).
  /// False when no such graph exists.
  bool Evict(const std::string& name) LOCS_EXCLUDES(mutex_);

  std::vector<GraphInfo> List() const LOCS_EXCLUDES(mutex_);

  size_t size() const LOCS_EXCLUDES(mutex_);
  size_t max_graphs() const { return max_graphs_; }

 private:
  const size_t max_graphs_;
  std::atomic<uint64_t> next_epoch_{1};
  mutable Mutex mutex_;
  std::map<std::string, std::shared_ptr<const ServedGraph>> graphs_
      LOCS_GUARDED_BY(mutex_);
};

}  // namespace locs::serve

#endif  // LOCS_SERVE_REGISTRY_H_
