#!/usr/bin/env bash
# locs-lint gate: the five project-invariant checks (locs-raw-sync,
# locs-lock-order, locs-blocking-under-lock, locs-wire-err-literal,
# locs-solver-contract) over the full tree, run by the lexical engine
# tools/lint/locs_lint.cc (any C++20 compiler builds it).
#
# Usage: tools/run_lint.sh
#
# Environment:
#   LOCS_LINT_BIN   a prebuilt locs_lint binary. Without it the gate uses
#                   build/tools/lint/locs_lint when that is newer than the
#                   source, else compiles the engine into build-lint/.
#
# Exit: 0 clean, 1 findings or fixture mismatch, 2 no engine (an
#       LOCS_LINT_BIN that is not executable, or no compiler to build one).
set -euo pipefail

cd "$(dirname "$0")/.."

find_engine() {
  if [[ -n "${LOCS_LINT_BIN:-}" ]]; then
    [[ -x "${LOCS_LINT_BIN}" ]] && echo "${LOCS_LINT_BIN}"
    return 0
  fi
  local prebuilt=build/tools/lint/locs_lint
  if [[ -x "${prebuilt}" && "${prebuilt}" -nt tools/lint/locs_lint.cc ]]; then
    echo "${prebuilt}"
    return 0
  fi
  mkdir -p build-lint
  if "${CXX:-c++}" -std=c++20 -O2 -o build-lint/locs_lint \
      tools/lint/locs_lint.cc 2>build-lint/locs_lint.build.log; then
    echo "build-lint/locs_lint"
  fi
  return 0
}

binary="$(find_engine)"
if [[ -z "${binary}" ]]; then
  if [[ -n "${LOCS_LINT_BIN:-}" ]]; then
    echo "run_lint: LOCS_LINT_BIN=${LOCS_LINT_BIN} is not an executable" >&2
  else
    echo "run_lint: cannot build tools/lint/locs_lint.cc" >&2
    [[ -f build-lint/locs_lint.build.log ]] &&
      cat build-lint/locs_lint.build.log >&2
  fi
  exit 2
fi

# Self-test first: every check must still fire on its golden fixture.
# A gate whose checks are silently broken is worse than no gate.
bash tools/lint/run_fixtures.sh tools/lint/fixtures "${binary}" \
  2> >(grep -v 'finding(s)$' >&2 || true)

# Tree sweep, headers included; the fixtures are intentional violations
# and stay out.
mapfile -t sources < <(find src tools tests bench examples \
  \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) \
  ! -path 'tools/lint/fixtures/*' | sort)
echo "=== locs-lint over ${#sources[@]} files ==="
"${binary}" "${sources[@]}"
echo "locs-lint gate clean."
