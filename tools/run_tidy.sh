#!/usr/bin/env bash
# clang-tidy gate over src/ tools/ tests/ bench/ using the checked-in
# .clang-tidy (WarningsAsErrors: '*', so any finding fails the gate).
# src/serve/ and src/obs/ additionally pick up scoped configs that
# re-enable bugprone-narrowing-conversions (InheritParentConfig).
#
# Usage: tools/run_tidy.sh [build-dir]
#   build-dir: a CMake tree with compile_commands.json (default:
#              build-tidy/, configured on demand).
#
# Environment:
#   CLANG_TIDY    override the clang-tidy binary (default: best of
#                 clang-tidy, clang-tidy-{19..14} on PATH)
#   LOCS_TIDY_STRICT=1  fail (exit 2) when no clang-tidy binary exists
#                 instead of skipping; CI sets this so the gate can
#                 never silently vanish, while developer machines
#                 without clang degrade to a no-op.
set -euo pipefail

cd "$(dirname "$0")/.."

find_tidy() {
  if [[ -n "${CLANG_TIDY:-}" ]]; then
    echo "${CLANG_TIDY}"
    return
  fi
  local candidate
  for candidate in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
                   clang-tidy-16 clang-tidy-15 clang-tidy-14; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      echo "${candidate}"
      return
    fi
  done
  echo ""
}

tidy="$(find_tidy)"
if [[ -z "${tidy}" ]]; then
  if [[ "${LOCS_TIDY_STRICT:-0}" == "1" ]]; then
    echo "run_tidy: no clang-tidy binary found and LOCS_TIDY_STRICT=1" >&2
    exit 2
  fi
  echo "run_tidy: clang-tidy not installed; skipping (set LOCS_TIDY_STRICT=1 to fail instead)"
  exit 0
fi

build_dir="${1:-build-tidy}"
if [[ ! -f "${build_dir}/compile_commands.json" ]]; then
  echo "=== configuring ${build_dir} for compile_commands.json ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DLOCS_BUILD_BENCHMARKS=ON >/dev/null
fi

# Everything we compile under src/, tools/, tests/, and bench/. Headers
# are covered through HeaderFilterRegex in .clang-tidy. Excluded: the
# lint fixtures (intentional violations, never compiled).
mapfile -t sources < <(find src tools tests bench -name '*.cc' \
  ! -path 'tools/lint/fixtures/*' | sort)
echo "=== ${tidy} over ${#sources[@]} files (${build_dir}/compile_commands.json) ==="

jobs="$(nproc 2>/dev/null || echo 2)"
if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -clang-tidy-binary "${tidy}" -p "${build_dir}" \
    -j "${jobs}" -quiet "${sources[@]}"
else
  "${tidy}" -p "${build_dir}" --quiet "${sources[@]}"
fi
echo "clang-tidy gate clean."
