// LOCS_FAILPOINT — compile-time-gated fault injection.
//
// A failpoint is a named site in library code that a test (or the
// LOCS_FAILPOINT environment variable) can arm to force a rare failure
// path: an image open failure, an allocation failure, a mid-search deadline.
// Sites look like
//
//   if (LOCS_FAILPOINT("serve.registry.load_error")) return ...error...;
//
// and cost nothing when the facility is compiled out
// (-DLOCS_FAILPOINTS=0): the macro folds to `false` and the branch is
// dead code. When compiled in (the default for development and CI
// builds), an unarmed site costs one relaxed atomic load and a
// predictable branch; sites live on coarse paths (per file-read, per
// guard poll, per query), never in per-edge loops.
//
// Arming:
//   - in-process: locs::failpoint::Arm("name"), optionally with a number
//     of hits to skip first and a period (fire every Nth evaluation
//     instead of every one — the chaos-soak mode, where a fault should
//     recur throughout a run without killing every request); Disarm /
//     DisarmAll to clean up (tests use the ScopedFailpoint RAII helper);
//   - cross-process: LOCS_FAILPOINT="name[=skip][%every][,name...]" in
//     the environment, parsed on first use — this is how the CLI
//     integration tests force failures inside locs_cli and how
//     tools/chaos_serve.sh arms a whole daemon.
//
// Fire(name) returns true when the site should fail; it also counts
// every evaluation of an armed name so tests can assert a site was
// actually reached.
//
// Thread-safety: the hot path (Fire on an unarmed site) is a single
// relaxed atomic load. The slow path — the name→state registry behind
// Arm/Disarm — is serialized by an annotated locs::Mutex in
// failpoint.cc, with LOCS_REQUIRES discipline on the *Locked helpers so
// the Clang thread-safety analysis proves no unlocked registry access
// can compile.

#ifndef LOCS_UTIL_FAILPOINT_H_
#define LOCS_UTIL_FAILPOINT_H_

#ifndef LOCS_FAILPOINTS
#define LOCS_FAILPOINTS 1
#endif

#if LOCS_FAILPOINTS

#include <atomic>
#include <cstdint>

namespace locs::failpoint {

namespace internal {
/// Number of currently armed failpoints (fast-path gate).
extern std::atomic<uint64_t> armed_count;

/// Slow path: registry lookup; only called while something is armed.
bool FireSlow(const char* name);
}  // namespace internal

/// True when the named site should fail now.
inline bool Fire(const char* name) {
  if (internal::armed_count.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  return internal::FireSlow(name);
}

/// Arms `name`: Fire skips the first `skip` hits, then returns true on
/// every `every`-th subsequent hit until Disarm (every <= 1 fires on all
/// of them — the deterministic always-fail mode tests use; larger values
/// are the periodic chaos mode, firing on the 1st, every+1-th, ... hit
/// past the skip).
void Arm(const char* name, uint64_t skip = 0, uint64_t every = 1);
void Disarm(const char* name);
void DisarmAll();

/// Evaluations of Fire(name) since it was armed (armed names only; an
/// unarmed name reports 0). Counts both skipped and firing hits.
uint64_t HitCount(const char* name);

/// RAII arming for tests.
class ScopedFailpoint {
 public:
  explicit ScopedFailpoint(const char* name, uint64_t skip = 0,
                           uint64_t every = 1)
      : name_(name) {
    Arm(name, skip, every);
  }
  ~ScopedFailpoint() { Disarm(name_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  const char* name_;
};

}  // namespace locs::failpoint

#define LOCS_FAILPOINT(name) (::locs::failpoint::Fire(name))

#else  // !LOCS_FAILPOINTS

#define LOCS_FAILPOINT(name) (false)

#endif  // LOCS_FAILPOINTS

#endif  // LOCS_UTIL_FAILPOINT_H_
