// ResultCache — a bounded LRU over rendered query replies.
//
// locsd query replies are deterministic functions of (graph contents,
// verb, query vertices, k/max, the request's limits and member limit,
// trace flag): FormatQueryReply renders counters, never durations. γ is
// ignored by every served verb, so it is not part of the key. That makes
// the full reply line safely cacheable — a hit returns the exact bytes a
// fresh solve would produce — provided the key pins the *graph contents*
// and not just the graph's name. The key therefore leads with the
// registry epoch of the entry that answered (every LOAD, including a
// replacing re-LOAD under the same name, mints a fresh epoch), so an
// EVICT + re-LOAD of a different graph under the same name can never
// serve a stale reply: the old epoch's entries simply become
// unreachable and age out of the LRU.
//
// Interrupted results (deadline/budget trips) are never inserted — they
// depend on wall-clock and admission timing, not on the key.
//
// Thread-safe: one cache is shared by every session of a server; Lookup
// and Insert take one mutex. Hit/miss/insert/evict accounting lives in
// ServerMetrics (the sessions count), keeping this class a pure
// mapping.

#ifndef LOCS_SERVE_RESULT_CACHE_H_
#define LOCS_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/thread_annotations.h"

namespace locs::serve {

/// See the file comment. `max_entries == 0` is a valid always-miss cache.
class ResultCache {
 public:
  explicit ResultCache(size_t max_entries) : max_entries_(max_entries) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// True on a hit; copies the cached reply into `*reply` and promotes
  /// the entry to most-recently-used.
  bool Lookup(const std::string& key, std::string* reply)
      LOCS_EXCLUDES(mutex_);

  /// Inserts (or refreshes) `key -> reply`, evicting least-recently-used
  /// entries beyond capacity. Returns the number of entries evicted.
  size_t Insert(const std::string& key, const std::string& reply)
      LOCS_EXCLUDES(mutex_);

  size_t size() const LOCS_EXCLUDES(mutex_);
  size_t max_entries() const { return max_entries_; }

 private:
  /// Front of `lru_` is most recent; the map points into the list.
  using Entry = std::pair<std::string, std::string>;  // key, reply

  const size_t max_entries_;
  mutable Mutex mutex_;
  std::list<Entry> lru_ LOCS_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      LOCS_GUARDED_BY(mutex_);
};

}  // namespace locs::serve

#endif  // LOCS_SERVE_RESULT_CACHE_H_
