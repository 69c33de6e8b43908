#!/usr/bin/env bash
# Degraded-mode coverage for the locs-lint gate (ctest: lint_degraded).
#
#   1. tampered golden                  -> runner exits nonzero
#   2. missing golden                   -> runner exits nonzero
#   3. LOCS_LINT_BIN not an executable  -> gate exits 2 naming the path
#
# Usage: test_degraded.sh <locs_lint-binary>
set -uo pipefail

binary="${1:-}"
if [[ ! -x "${binary}" ]]; then
  echo "usage: test_degraded.sh <locs_lint-binary>" >&2
  exit 2
fi
cd "$(dirname "$0")/../.."
fail=0

# 1. A golden that disagrees with the engine must fail the runner —
# this is the inverted-fixture proof that the gate can go red.
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
cp tools/lint/fixtures/* "${work}/"
echo "999 locs-raw-sync" >>"${work}/raw_sync.expected"
if bash tools/lint/run_fixtures.sh "${work}" "${binary}" >/dev/null 2>&1; then
  echo "FAIL: tampered golden did not fail the fixture runner" >&2
  fail=1
fi

# 2. A fixture without its golden is a broken invariant, not a skip.
rm "${work}/raw_sync.expected"
if bash tools/lint/run_fixtures.sh "${work}" "${binary}" >/dev/null 2>&1; then
  echo "FAIL: missing golden did not fail the fixture runner" >&2
  fail=1
fi

# 3. An explicit engine that cannot run is an error, never a silent
# switch to some other binary.
out="$(LOCS_LINT_BIN=/nonexistent bash tools/run_lint.sh 2>&1)"
rc=$?
if [[ ${rc} -ne 2 ]] || ! grep -q "/nonexistent" <<<"${out}"; then
  echo "FAIL: LOCS_LINT_BIN=/nonexistent exited ${rc}, want 2 naming it:" >&2
  printf '%s\n' "${out}" >&2
  fail=1
fi

if [[ ${fail} -eq 0 ]]; then
  echo "lint degraded modes: all 3 cases behave"
fi
exit "${fail}"
