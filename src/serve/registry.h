// GraphRegistry — named, shared, immutable graphs for the serving layer.
//
// A resident server answers many queries against few graphs, so the
// registry loads each graph once as a Snapshot (core/snapshot.h: the
// graph, its GraphFacts, the §4.3.2 degree-ordered adjacency and the
// CoreIndex) — mapped from a graph image, or built by Snapshot::Build —
// and hands sessions a shared_ptr<const ServedGraph>. Sessions never
// copy graph data; an EVICT or replacing LOAD only drops the registry's
// reference, so queries already holding the entry finish safely on the
// old snapshot and the memory is reclaimed when the last query lets go —
// the same read-copy-update shape later snapshot/refresh PRs will extend.
//
// Solver scratch lives here too. Each entry keeps a free list of idle
// CommunitySearchers, and a query leases one (LeaseSearcher) for its own
// length: a new session's first query then runs on scratch an earlier
// query already faulted in, and a searcher is built only when every one
// the entry has is leased. locsd leases under an admission slot, so an
// entry never holds more searchers than --max-inflight, and resident
// scratch follows the queries in flight, not the sessions open. A lease
// handed back after its entry was replaced or evicted is dropped.
//
// Load parses and builds entirely outside the registry lock: concurrent
// LOADs of different graphs overlap, and lookups never wait on a load.
// Replaced and evicted entries, with their idle searchers, and dropped
// leases are destroyed after the lock is released.

#ifndef LOCS_SERVE_REGISTRY_H_
#define LOCS_SERVE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <forward_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/searcher.h"
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

  /// A searcher over one registry entry, held for one query. Destroying
  /// it hands the searcher back to the entry's idle list, or drops it
  /// when the entry has since been replaced or evicted, so an idle
  /// searcher never serves a stale graph. Empty (false) when the lease
  /// failed.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&&) = delete;
    ~Lease();

    explicit operator bool() const { return !held_.empty(); }
    CommunitySearcher& searcher() { return held_.front(); }
    /// The entry the searcher is bound to: its name and its epoch.
    const ServedGraph& entry() const { return *entry_; }

   private:
    friend class GraphRegistry;

    GraphRegistry* registry_ = nullptr;
    std::shared_ptr<const ServedGraph> entry_;
    /// The leased searcher as a one-node list: taking it from the idle
    /// list and handing it back are splices, which never allocate.
    std::forward_list<CommunitySearcher> held_;
  };

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

  /// Leases a searcher over the named graph's current entry: an idle one
  /// when the entry has one, else a new one, built outside the lock (the
  /// `serve.bind.alloc` failpoint site). An empty lease when no graph has
  /// that name, or with `*refused` set when the build was refused for
  /// memory. A searcher is built only when all of the entry's are
  /// leased, so an entry never holds more searchers than the most leases
  /// its callers keep out at once.
  Lease LeaseSearcher(const std::string& name, bool* refused)
      LOCS_EXCLUDES(mutex_);

  /// The named entry, or null. O(log graphs).
  std::shared_ptr<const ServedGraph> Get(const std::string& name) const
      LOCS_EXCLUDES(mutex_);

  /// Drops the named entry and its idle searchers (in-flight queries
  /// holding it finish safely). False when no such graph exists.
  bool Evict(const std::string& name) LOCS_EXCLUDES(mutex_);

  std::vector<GraphInfo> List() const LOCS_EXCLUDES(mutex_);

  size_t size() const LOCS_EXCLUDES(mutex_);
  size_t max_graphs() const { return max_graphs_; }

 private:
  /// A registered graph and the searchers over it that no query holds.
  struct Resident {
    std::shared_ptr<const ServedGraph> graph;
    std::forward_list<CommunitySearcher> idle;
  };

  /// Parks `lease`'s searcher on its entry's idle list when that entry is
  /// still the registered one; otherwise leaves it in the lease, whose
  /// destructor then drops it outside the lock.
  void HandBack(Lease& lease) LOCS_EXCLUDES(mutex_);

  const size_t max_graphs_;
  std::atomic<uint64_t> next_epoch_{1};
  mutable Mutex mutex_;
  std::map<std::string, Resident> graphs_ LOCS_GUARDED_BY(mutex_);
};

}  // namespace locs::serve

#endif  // LOCS_SERVE_REGISTRY_H_
