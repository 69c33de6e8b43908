#!/usr/bin/env bash
# Serving-layer smoke test: drives locsd end to end in both deployment
# modes and fails unless every query draws an OK reply.
#
#   1. scripted stdio session  — LOAD + CST + CSM, MULTI k and MULTI
#                                max (each with no limit and limit=5) +
#                                STATS + QUIT; each limited reply must
#                                report the unlimited one's n= and
#                                delta= and truncated= n - 5, and a
#                                limited MULTI must list the unlimited
#                                one's first 5 members with visited= < n
#   2. image-backed session    — locs_cli compile + LOAD of the .limg
#      (auto-detected by content), with every query reply required to
#      match the text-loaded transcript byte for byte
#   3. core-pruned CST         — a traced CST on which the paper solver
#      (no core numbers) falls back to the G[C] peel must be answered by
#      early success: status=found, fallback=0 and no core: phase
#   4. malformed-input session — typed ERR replies, clean exit (no crash)
#   5. TCP loopback session    — locsd --port=0 + locs_cli client, with
#      the CST reply required to match the stdio transcript byte for
#      byte (replies are deterministic by design), on the first
#      connection and again on a second one, whose query runs on the
#      searcher the first handed back to the graph, then SIGTERM drain
#      with a silent connection still open: locsd must exit 0 and its
#      final STATS line must report sessions_open=0.
#
# Usage: tools/smoke_serve.sh [build-dir]   (default: build)
# The build tree must exist; the script builds the two binaries it needs.
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
jobs="$(nproc 2>/dev/null || echo 2)"

cmake --build "${build}" -j "${jobs}" --target locsd locs_cli

locsd="${build}/tools/locsd"
cli="${build}/tools/locs_cli"
work="$(mktemp -d)"
daemon_pid=""
silent_fd=""
cleanup() {
  [[ -n "${silent_fd}" ]] && exec {silent_fd}>&- 2>/dev/null || true
  [[ -n "${daemon_pid}" ]] && kill -9 "${daemon_pid}" 2>/dev/null || true
  rm -rf "${work}"
}
trap cleanup EXIT

"${cli}" generate --model=lfr --n=2000 --seed=5 \
  --output="${work}/g.metis" >/dev/null

script='PING\nLOAD g %s\nCST g 7 3 limit=5\nCSM g 7\nCSM g 7 limit=5\nMULTI g 2 7 8\nMULTI g 2 7 8 limit=5\nMULTI g max 7 8\nMULTI g max 7 8 limit=5\nSTATS\nQUIT\n'

# field <reply> <key>: the value of key= in one reply line.
field() { sed -n "s/.* $2=\([^ ]*\).*/\1/p" <<<"$1"; }

# check_csm_limit <transcript>: a CSM under limit=5 lists 5 members of
# the same answer the unlimited CSM lists in full.
check_csm_limit() {
  local full limited n
  full="$(sed -n 4p <<<"$1")"
  limited="$(sed -n 5p <<<"$1")"
  n="$(field "${full}" n)"
  if [[ -z "${n}" || "$(field "${limited}" n)" != "${n}" ||
        "$(field "${limited}" delta)" != "$(field "${full}" delta)" ||
        "$(field "${limited}" truncated)" != "$((n - 5))" ]]; then
    echo "FAIL: CSM limit=5 disagrees with the unlimited CSM" >&2
    echo "  full:    ${full:0:160}" >&2
    echo "  limited: ${limited}" >&2
    exit 1
  fi
}

# check_multi_limit <transcript>: each MULTI under limit=5 reports the
# unlimited reply's n=, delta= and truncated= n - 5, lists its first 5
# members, and visits fewer than n vertices: n and delta come from the
# core forest, so only the listing BFS runs, and it stops at the limit.
check_multi_limit() {
  local line full limited n first5
  for line in 6 8; do
    full="$(sed -n "${line}p" <<<"$1")"
    limited="$(sed -n "$((line + 1))p" <<<"$1")"
    n="$(field "${full}" n)"
    first5="$(field "${full}" members | cut -d, -f1-5)"
    if [[ -z "${n}" || "$(field "${limited}" n)" != "${n}" ||
          "$(field "${limited}" delta)" != "$(field "${full}" delta)" ||
          "$(field "${limited}" truncated)" != "$((n - 5))" ||
          "$(field "${limited}" members)" != "${first5}" ||
          "$(field "${limited}" visited)" -ge "${n}" ]]; then
      echo "FAIL: MULTI limit=5 disagrees with the unlimited MULTI" \
           "or visits the whole answer" >&2
      echo "  full:    ${full:0:160}" >&2
      echo "  limited: ${limited}" >&2
      exit 1
    fi
  done
}

echo "=== smoke: stdio session ==="
# shellcheck disable=SC2059  # the script is the format string
stdio_out="$(printf "${script}" "${work}/g.metis" \
  | "${locsd}" --stdio 2>/dev/null)"
echo "${stdio_out}"
ok_lines="$(grep -c '^OK ' <<<"${stdio_out}")"
if [[ "${ok_lines}" -ne 11 ]]; then
  echo "FAIL: expected 11 OK replies over stdio, got ${ok_lines}" >&2
  exit 1
fi
check_csm_limit "${stdio_out}"
check_multi_limit "${stdio_out}"
grep -q '^OK status=found' <<<"${stdio_out}" || {
  echo "FAIL: no query answered over stdio" >&2
  exit 1
}

echo "=== smoke: image-backed session ==="
"${cli}" compile "${work}/g.metis" "${work}/g.limg"
# shellcheck disable=SC2059
img_out="$(printf "${script}" "${work}/g.limg" \
  | "${locsd}" --stdio 2>/dev/null)"
echo "${img_out}"
img_ok_lines="$(grep -c '^OK ' <<<"${img_out}")"
if [[ "${img_ok_lines}" -ne 11 ]]; then
  echo "FAIL: expected 11 OK replies from the image session," \
       "got ${img_ok_lines}" >&2
  exit 1
fi
check_csm_limit "${img_out}"
check_multi_limit "${img_out}"
grep -q 'source=image' <<<"${img_out}" || {
  echo "FAIL: LOAD of a .limg file was not detected as an image" >&2
  exit 1
}
# Query replies are deterministic; the image-backed graph must answer
# every query exactly like the text-loaded one.
if [[ "$(grep '^OK status=' <<<"${img_out}")" \
      != "$(grep '^OK status=' <<<"${stdio_out}")" ]]; then
  echo "FAIL: image-backed replies diverge from text-loaded replies" >&2
  diff <(grep '^OK status=' <<<"${stdio_out}") \
       <(grep '^OK status=' <<<"${img_out}") >&2 || true
  exit 1
fi

echo "=== smoke: served CST expands only through the k-core ==="
# On this graph the paper solver reaches vertex 7's 5-core through
# vertices of core number < 5 and then peels G[C] (n=1871 visited=1910
# fallback=1); the searcher passes the core numbers, so the expansion
# never admits them and ends in early success.
pruned_out="$(printf 'LOAD g %s\nCST g 7 5 trace=1 limit=5\nQUIT\n' \
  "${work}/g.metis" | "${locsd}" --stdio 2>/dev/null | sed -n 2p)"
echo "${pruned_out}"
if [[ "${pruned_out}" != "OK status=found "* ||
      "$(field "${pruned_out}" fallback)" != "0" ||
      "${pruned_out}" == *"core:"* ]]; then
  echo "FAIL: served CST fell back to the G[C] peel;" \
       "the searcher must bind its solver to the core numbers" >&2
  exit 1
fi

echo "=== smoke: malformed input survives ==="
bad_out="$(printf 'FROBNICATE\nCST\nCST g seven 3\nPING\nQUIT\n' \
  | "${locsd}" --stdio 2>/dev/null)" || {
  echo "FAIL: locsd crashed on malformed input" >&2
  exit 1
}
err_lines="$(grep -c '^ERR ' <<<"${bad_out}")"
if [[ "${err_lines}" -ne 3 ]] || ! grep -q '^OK pong' <<<"${bad_out}"; then
  echo "FAIL: malformed input must draw typed ERR and keep serving" >&2
  echo "${bad_out}" >&2
  exit 1
fi

echo "=== smoke: TCP loopback session ==="
# No result cache, so the second connection's CST is solved, not looked
# up.
"${locsd}" --port=0 --port-file="${work}/port" --cache-entries=0 \
  --preload=g="${work}/g.metis" 2>"${work}/daemon.log" &
daemon_pid="$!"
port=""
for _ in $(seq 1 100); do
  [[ -s "${work}/port" ]] && { port="$(cat "${work}/port")"; break; }
  sleep 0.05
done
if [[ -z "${port}" ]]; then
  echo "FAIL: locsd never wrote its port file" >&2
  cat "${work}/daemon.log" >&2
  exit 1
fi
# A connection that never sends a byte, held open across the SIGTERM
# below. Opened before the client's, so it is accepted first: by the
# time the client has its reply, the silent session is running.
exec {silent_fd}<>"/dev/tcp/127.0.0.1/${port}"
tcp_out="$(printf 'CST g 7 3 limit=5\nQUIT\n' \
  | "${cli}" client --port="${port}" 2>/dev/null)"
echo "${tcp_out}"
tcp_cst="$(grep '^OK status=' <<<"${tcp_out}" | head -1)"
stdio_cst="$(grep '^OK status=' <<<"${stdio_out}" | head -1)"
if [[ -z "${tcp_cst}" || "${tcp_cst}" != "${stdio_cst}" ]]; then
  echo "FAIL: TCP reply diverges from stdio reply" >&2
  echo "  stdio: ${stdio_cst}" >&2
  echo "  tcp:   ${tcp_cst}" >&2
  exit 1
fi
# The same CST on a second connection leases the searcher the first
# connection's query handed back.
leased_out="$(printf 'CST g 7 3 limit=5\nQUIT\n' \
  | "${cli}" client --port="${port}" 2>/dev/null)"
leased_cst="$(grep '^OK status=' <<<"${leased_out}" | head -1)"
if [[ -z "${leased_cst}" || "${leased_cst}" != "${stdio_cst}" ]]; then
  echo "FAIL: second TCP connection's reply diverges from stdio reply" >&2
  echo "  stdio:  ${stdio_cst}" >&2
  echo "  leased: ${leased_cst}" >&2
  exit 1
fi

kill -TERM "${daemon_pid}"
if ! wait "${daemon_pid}"; then
  echo "FAIL: locsd did not drain cleanly on SIGTERM" >&2
  cat "${work}/daemon.log" >&2
  exit 1
fi
daemon_pid=""
exec {silent_fd}>&-
silent_fd=""
final="$(grep 'drained; final OK ' "${work}/daemon.log" || true)"
if [[ -z "${final}" ]]; then
  echo "FAIL: drain message missing from daemon log" >&2
  exit 1
fi
if [[ "$(field "${final}" sessions_open)" != "0" ]]; then
  echo "FAIL: drain left a session open: ${final}" >&2
  exit 1
fi

echo "Serving-layer smoke passed."
