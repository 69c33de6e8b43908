#include "serve/registry.h"

#include <new>
#include <optional>
#include <utility>

#include "store/image.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace locs::serve {

std::shared_ptr<const ServedGraph> GraphRegistry::Load(
    const std::string& name, const std::string& path, IoError* error,
    bool* full, LoadSource source, bool* image_attempted) {
  if (full != nullptr) *full = false;
  if (image_attempted != nullptr) *image_attempted = false;
  // Chaos hook: a registry-load fault surfaces as an ordinary IO error
  // on this LOAD; graphs already registered keep serving untouched.
  if (LOCS_FAILPOINT("serve.registry.load_error")) {
    if (error != nullptr) {
      error->kind = IoErrorKind::kOpen;
      error->message = "injected registry load fault";
    }
    return nullptr;
  }
  {
    // Capacity pre-check: refuse before paying the parse when the name is
    // new and the registry is full. Rechecked at insert (another session
    // may fill the last slot while we parse); the pre-check only makes
    // the common rejection cheap.
    MutexLock lock(mutex_);
    if (graphs_.size() >= max_graphs_ && graphs_.count(name) == 0) {
      if (full != nullptr) *full = true;
      return nullptr;
    }
  }
  // File IO and index building run outside the registry lock: concurrent
  // LOADs of different graphs overlap, and lookups never wait on a load.
  // The content sniff (not the extension) routes to the image path, so a
  // compiled image is picked up under any file name; LOADIMG skips the
  // sniff and lets the image reader reject non-images with a typed
  // error.
  WallTimer timer;
  const bool from_image =
      source == LoadSource::kImage || store::SniffGraphImage(path);
  if (image_attempted != nullptr) *image_attempted = from_image;
  std::optional<Snapshot> snapshot;
  double load_ms = 0.0;
  double build_ms = 0.0;  // nothing to build: an image holds it all
  if (from_image) {
    snapshot = store::LoadGraphImage(path, error);
    if (!snapshot.has_value()) return nullptr;
    load_ms = timer.Millis();
  } else {
    auto graph = LoadGraphAuto(path, error);
    if (!graph.has_value()) return nullptr;
    load_ms = timer.Millis();
    timer.Restart();
    snapshot = Snapshot::Build(std::move(*graph));
    build_ms = timer.Millis();
  }
  auto entry = std::make_shared<ServedGraph>(name, path, std::move(*snapshot));
  entry->load_ms = load_ms;
  entry->build_ms = build_ms;
  entry->from_image = from_image;
  entry->epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed);
  // As in Evict: the replaced entry and its idle searchers are destroyed
  // (their arrays freed or unmapped) after the lock is released, never
  // while lookups wait.
  Resident replaced;
  MutexLock lock(mutex_);
  auto [it, inserted] = graphs_.try_emplace(name);
  if (!inserted) {
    // Last writer wins; the old entry's idle searchers go with it.
    replaced = std::exchange(it->second, Resident{entry, {}});
  } else if (graphs_.size() > max_graphs_) {
    graphs_.erase(it);  // lost the race for the final slot
    if (full != nullptr) *full = true;
    return nullptr;
  } else {
    it->second.graph = entry;
  }
  return entry;
}

GraphRegistry::Lease GraphRegistry::LeaseSearcher(const std::string& name,
                                                  bool* refused) {
  *refused = false;
  Lease lease;
  {
    MutexLock lock(mutex_);
    const auto it = graphs_.find(name);
    if (it == graphs_.end()) return lease;
    lease.registry_ = this;
    lease.entry_ = it->second.graph;
    std::forward_list<CommunitySearcher>& idle = it->second.idle;
    if (!idle.empty()) {  // its scratch is already faulted in
      lease.held_.splice_after(lease.held_.before_begin(), idle,
                               idle.before_begin());
      return lease;
    }
  }
  // Every searcher of the entry is leased: build one, outside the lock.
  try {
    // Fault-injection site: "serve.bind.alloc" simulates the scratch
    // mapping being refused.
    if (LOCS_FAILPOINT("serve.bind.alloc")) throw std::bad_alloc();
    lease.held_.emplace_front(lease.entry_);
  } catch (const std::bad_alloc&) {
    *refused = true;
  }
  return lease;
}

void GraphRegistry::HandBack(Lease& lease) {
  MutexLock lock(mutex_);
  const auto it = graphs_.find(lease.entry_->name);
  if (it != graphs_.end() && it->second.graph == lease.entry_) {
    it->second.idle.splice_after(it->second.idle.before_begin(),
                                 lease.held_);
  }
}

GraphRegistry::Lease::Lease(Lease&& other) noexcept
    : registry_(other.registry_), entry_(std::move(other.entry_)) {
  held_.splice_after(held_.before_begin(), other.held_);
}

GraphRegistry::Lease::~Lease() {
  if (!held_.empty()) registry_->HandBack(*this);
}

std::shared_ptr<const ServedGraph> GraphRegistry::Get(
    const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = graphs_.find(name);
  return it == graphs_.end() ? nullptr : it->second.graph;
}

bool GraphRegistry::Evict(const std::string& name) {
  Resident doomed;
  MutexLock lock(mutex_);
  const auto it = graphs_.find(name);
  if (it == graphs_.end()) return false;
  // Move the entry and its idle searchers out so the (potentially large)
  // destruction runs after the map update; if queries still hold the
  // entry it simply outlives the registry reference.
  doomed = std::move(it->second);
  graphs_.erase(it);
  return true;
}

std::vector<GraphRegistry::GraphInfo> GraphRegistry::List() const {
  std::vector<GraphInfo> infos;
  MutexLock lock(mutex_);
  infos.reserve(graphs_.size());
  for (const auto& [name, resident] : graphs_) {
    GraphInfo info;
    info.name = name;
    info.vertices = resident.graph->graph.NumVertices();
    info.edges = resident.graph->graph.NumEdges();
    infos.push_back(std::move(info));
  }
  return infos;
}

size_t GraphRegistry::size() const {
  MutexLock lock(mutex_);
  return graphs_.size();
}

}  // namespace locs::serve
