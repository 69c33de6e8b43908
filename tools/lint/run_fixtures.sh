#!/usr/bin/env bash
# Golden expected-diagnostics runner for the locs-* check fixtures.
#
# Each fixtures/<name>.cc (or .h) encodes firing, clean, and
# NOLINT-audited variants of one invariant; fixtures/<name>.expected
# lists the diagnostics that must fire as sorted "line check-name" pairs.
#
#   run_fixtures.sh <fixtures-dir> <locs_lint-binary>
#
# Exit: 0 all fixtures match, 1 any mismatch, 2 usage.
set -uo pipefail

fixtures="${1:-}"
binary="${2:-}"
if [[ ! -d "${fixtures}" || -z "${binary}" ]]; then
  echo "usage: run_fixtures.sh <fixtures-dir> <locs_lint>" >&2
  exit 2
fi

# Reduce "path:line:col: warning: msg [check]" to sorted unique
# "line check" pairs (one construct can miss two obligations).
normalize() {
  sed -n 's/^[^:]*:\([0-9][0-9]*\):[0-9][0-9]*: warning: .*\[\(locs-[a-z-]*\)\]$/\1 \2/p' |
    sort -u
}

status=0
shopt -s nullglob
count=0
for fixture in "${fixtures}"/*.cc "${fixtures}"/*.h; do
  count=$((count + 1))
  name="$(basename "${fixture%.*}")"
  expected="${fixtures}/${name}.expected"
  if [[ ! -f "${expected}" ]]; then
    echo "FAIL: ${fixture} has no ${name}.expected golden" >&2
    status=1
    continue
  fi
  got="$("${binary}" "${fixture}" | normalize)"
  want="$(sort -u "${expected}")"
  if [[ "${got}" != "${want}" ]]; then
    echo "FAIL: ${name}: diagnostics differ from the golden" >&2
    diff <(printf '%s\n' "${want}") <(printf '%s\n' "${got}") >&2 || true
    status=1
  fi
done
if [[ "${count}" -eq 0 ]]; then
  echo "FAIL: no fixtures found under ${fixtures}" >&2
  status=1
fi
if [[ "${status}" -eq 0 ]]; then
  echo "lint fixtures: ${count} goldens match"
fi
exit "${status}"
