#!/usr/bin/env bash
# Sanitizer sweep for the test suite:
#   - ThreadSanitizer over the concurrency-labelled tests (batch
#     runner worker threads, guard interruption) —
#     the dynamic complement of the Clang thread-safety annotations
#     (src/util/thread_annotations.h), which prove lock discipline
#     statically but cannot see lock-free protocols.
#   - ASan+UBSan over the io-labelled tests first (text parsers are the
#     code most exposed to malformed input, and the fast fail matters),
#     then over the FULL suite so every solver and container path runs
#     instrumented at least once. Both rounds share one build tree, so
#     the full round costs only test time, not a rebuild.
#
# Usage: tools/run_sanitizers.sh [build-root]
# Build trees land under <build-root> (default: build-san/). Each
# sanitizer combination gets its own tree so rebuilds are incremental.
set -euo pipefail

cd "$(dirname "$0")/.."
root="${1:-build-san}"
jobs="$(nproc 2>/dev/null || echo 2)"

configure_flags=(
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
  -DLOCS_BUILD_BENCHMARKS=OFF
  -DLOCS_BUILD_EXAMPLES=OFF
)

# run_pass <name> <sanitizers> [label]: build (or reuse) the tree for
# this sanitizer combination and run the labelled subset — the whole
# suite when no label is given.
run_pass() {
  local name="$1" sanitize="$2" label="${3:-}"
  local dir="${root}/${name}"
  local -a select=()
  if [[ -n "${label}" ]]; then
    # An empty label fails instead of passing with no test run.
    select=(-L "${label}" --no-tests=error)
    echo "=== ${name}: LOCS_SANITIZE=${sanitize}, ctest -L ${label} ==="
  else
    echo "=== ${name}: LOCS_SANITIZE=${sanitize}, full ctest suite ==="
  fi
  cmake -B "${dir}" -S . "${configure_flags[@]}" \
    -DLOCS_SANITIZE="${sanitize}" >/dev/null
  cmake --build "${dir}" -j "${jobs}"
  ctest --test-dir "${dir}" "${select[@]}" --output-on-failure -j "${jobs}"
}

# TSan halts on the first data race so errors can't scroll past unseen.
# The concurrency label includes guard_test, whose cross-thread case is
# its batch suite (budgeted batches on 2 and 8 worker threads), and the
# batch-runner suites; the serve label
# adds the serving layer's concurrent sessions (shared registry,
# admission controller, metrics, TCP drain); the obs label adds the
# telemetry sinks (AggregateRecorder/TraceSink are shared by concurrent
# workers, so their locking claims belong under TSan); the cache label
# covers the ResultCache LRU, shared by every session under one mutex;
# the store label covers mmap'd graph images whose ConstArray views are
# shared read-only across sessions.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  run_pass tsan thread 'concurrency|serve|obs|cache|chaos|store'

# The serve label rides along here too: the wire parser and transport
# framing are the newest code facing adversarial bytes. The property
# label (differential local-vs-global solver suite) and the obs label
# (telemetry layer) run instrumented early for the same fast-fail
# reason: they cover the widest solver surface per second of test time.
# The solver label (local CST and CSM tests and their pinned digests,
# the bucket queue's model test and epoch wrap, the paper's worked
# examples, the searcher; its served-CST golden needs locsd, which these
# trees do not build) runs early because the bucket queue's record, key
# and cursor arithmetic behind li, lg and local CSM's frontier is exactly
# what ASan and UBSan check.
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}" \
  run_pass asan-ubsan address,undefined \
    'io|serve|property|obs|cache|chaos|store|solver'

# Third pass: same asan-ubsan tree (already built), everything.
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}" \
  run_pass asan-ubsan address,undefined

echo "All sanitizer passes clean."
