#include "util/failpoint.h"

#include <cstdlib>
#include <map>
#include <string>

#include "util/thread_annotations.h"

namespace locs::failpoint {

namespace {

struct State {
  uint64_t skip = 0;       // hits to let pass before firing
  uint64_t every = 1;      // fire on every Nth post-skip hit (<=1: all)
  uint64_t hits = 0;       // total evaluations since armed
  uint64_t past_skip = 0;  // evaluations past the skip window
  bool armed = false;      // disarmed entries are kept for HitCount
};

Mutex registry_mutex;

/// The registry map; every access requires registry_mutex (the accessor
/// annotation lets the analysis enforce that at each call site).
std::map<std::string, State>& Registry() LOCS_REQUIRES(registry_mutex) {
  static auto* registry = new std::map<std::string, State>();
  return *registry;
}

/// Writes an armed entry into the registry (no armed_count update —
/// callers account for that themselves).
void ArmLocked(const std::string& name, uint64_t skip, uint64_t every)
    LOCS_REQUIRES(registry_mutex) {
  State& state = Registry()[name];
  state.armed = true;
  state.skip = skip;
  state.every = every == 0 ? 1 : every;
  state.hits = 0;
  state.past_skip = 0;
}

/// Parses LOCS_FAILPOINT="name[=skip][%every][,name...]" into the
/// registry and returns the number of entries armed.
uint64_t ArmFromEnvironmentLocked() LOCS_REQUIRES(registry_mutex) {
  const char* spec = std::getenv("LOCS_FAILPOINT");
  if (spec == nullptr) return 0;
  uint64_t armed = 0;
  std::string entry;
  for (const char* p = spec;; ++p) {
    if (*p != '\0' && *p != ',') {
      entry.push_back(*p);
      continue;
    }
    if (!entry.empty()) {
      uint64_t every = 1;
      const size_t pct = entry.find('%');
      if (pct != std::string::npos) {
        every = std::strtoull(entry.c_str() + pct + 1, nullptr, 10);
        entry.erase(pct);
      }
      const size_t eq = entry.find('=');
      if (eq == std::string::npos) {
        ArmLocked(entry, 0, every);
      } else {
        ArmLocked(entry.substr(0, eq),
                  std::strtoull(entry.c_str() + eq + 1, nullptr, 10),
                  every);
      }
      ++armed;
      entry.clear();
    }
    if (*p == '\0') break;
  }
  return armed;
}

}  // namespace

namespace internal {

// Environment arming runs inside the count's dynamic initializer, before
// main() and therefore before any test or CLI code can evaluate a site.
// (A site evaluated even earlier — from another TU's global constructor —
// sees the zero-initialized count and reports "not armed", which is the
// safe answer.)
std::atomic<uint64_t> armed_count{[] {
  MutexLock lock(registry_mutex);
  return ArmFromEnvironmentLocked();
}()};

bool FireSlow(const char* name) {
  MutexLock lock(registry_mutex);
  const auto it = Registry().find(name);
  if (it == Registry().end() || !it->second.armed) return false;
  State& state = it->second;
  ++state.hits;
  if (state.skip > 0) {
    --state.skip;
    return false;
  }
  // Periodic mode fires on the 1st, every+1-th, ... post-skip hit, so
  // every=1 reproduces the historical fire-on-all behavior exactly.
  return state.past_skip++ % state.every == 0;
}

}  // namespace internal

void Arm(const char* name, uint64_t skip, uint64_t every) {
  MutexLock lock(registry_mutex);
  const auto it = Registry().find(name);
  if (it == Registry().end() || !it->second.armed) {
    internal::armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  ArmLocked(name, skip, every);
}

void Disarm(const char* name) {
  MutexLock lock(registry_mutex);
  const auto it = Registry().find(name);
  if (it == Registry().end() || !it->second.armed) return;
  it->second.armed = false;
  internal::armed_count.fetch_sub(1, std::memory_order_relaxed);
}

void DisarmAll() {
  MutexLock lock(registry_mutex);
  for (auto& [name, state] : Registry()) {
    if (state.armed) {
      state.armed = false;
      internal::armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

uint64_t HitCount(const char* name) {
  MutexLock lock(registry_mutex);
  const auto it = Registry().find(name);
  return it == Registry().end() ? 0 : it->second.hits;
}

}  // namespace locs::failpoint
