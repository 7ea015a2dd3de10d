#!/usr/bin/env bash
# Link-level reachability gate: every out-of-line dckpt:: function that the
# libraries define is linked into some shipped binary, or is a named test
# oracle on scripts/reachability_allowlist.txt.
#
# The build gives every function its own section and folds no call away
# (-O0 -fno-inline -ffunction-sections), and links each executable with
# --gc-sections, so an executable keeps exactly the functions its main can
# reach. Tests are off, so every executable in the build tree counts as
# shipped: dckpt, the examples and the benches. dckpt_perfbench is built
# from perfbench/ against the same libraries and counts too. A function is
# unreached when it is a text (T) symbol of a library and of no executable.
#
# The gate fails on
#   * an unreached function whose name is not on the allowlist, and
#   * an allowlisted name that is not unreached: a binary now reaches it,
#     or no library defines it any more, so the list cannot rot.
#
# The allowlist holds one qualified name per line with no parameter list
# (so it reads the same under any demangler), then a `#` and the reason:
# the test that compares shipped code against it.
#
# Blind spots: the gate sees links, not calls. A virtual override is
# linked whenever its class's vtable is, so it counts as reached even when
# only tests call it (util::Exponential::variance and Weibull::variance
# pass this way). Header-inline functions have no library symbol and are
# never listed. Only a call-graph check would see either kind.
#
# Usage:
#   scripts/check_reachability.sh
#
# Env overrides: BUILD_DIR (default build-reach), JOBS (default nproc).
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build-reach}"
JOBS="${JOBS:-$(nproc)}"
ALLOWLIST="${REPO_ROOT}/scripts/reachability_allowlist.txt"

# CMAKE_BUILD_TYPE=None adds no flags of its own, so -O0 is what compiles.
CXX_FLAGS="-O0 -fno-inline -ffunction-sections"
LINK_FLAGS="-Wl,--gc-sections"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="${CXX_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${LINK_FLAGS}" \
  -DDCKPT_BUILD_TESTS=OFF
cmake --build "${BUILD_DIR}" -j "${JOBS}"

cmake -B "${BUILD_DIR}/perfbench" -S "${REPO_ROOT}/perfbench" \
  -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="${CXX_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${LINK_FLAGS}" \
  -DDCKPT_SOURCE_DIR="${REPO_ROOT}" \
  -DDCKPT_BUILD_DIR="${BUILD_DIR}"
cmake --build "${BUILD_DIR}/perfbench" -j "${JOBS}"

# Demangled dckpt:: text symbols defined in the given files, one per line.
text_symbols() {
  nm -C --defined-only "$@" | sed -n 's/^[0-9a-f]* T \(dckpt::.*\)$/\1/p' |
    sort -u
}

# Drops the parameter list, any qualifier after it and any [abi:...] tag.
bare_names() {
  awk '{
    s = $0
    sub(/\)[^)]*$/, ")", s)
    depth = 0
    for (i = length(s); i > 0; i--) {
      c = substr(s, i, 1)
      if (c == ")") depth++
      else if (c == "(" && --depth == 0) break
    }
    s = substr(s, 1, i - 1)
    gsub(/\[abi:[^]]*\]/, "", s)
    print s
  }'
}

mapfile -t libs < <(find "${BUILD_DIR}/src" -name '*.a' | sort)
mapfile -t exes < <(find "${BUILD_DIR}" -path '*/CMakeFiles' -prune -o \
  -type f -perm -u+x -print | sort |
  while read -r f; do
    [[ "$(head -c 4 "${f}" | od -An -c | tr -d ' ')" == '177ELF' ]] &&
      echo "${f}"
  done)
if (( ${#libs[@]} == 0 || ${#exes[@]} == 0 )); then
  echo "check_reachability: no libraries or executables in ${BUILD_DIR}" >&2
  exit 1
fi

text_symbols "${libs[@]}" > "${BUILD_DIR}/library_functions.txt"
text_symbols "${exes[@]}" > "${BUILD_DIR}/linked_functions.txt"
comm -23 "${BUILD_DIR}/library_functions.txt" \
  "${BUILD_DIR}/linked_functions.txt" > "${BUILD_DIR}/unreached.txt"

bare_names < "${BUILD_DIR}/library_functions.txt" | sort -u \
  > "${BUILD_DIR}/library_names.txt"
sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e 's/^[[:space:]]*//' \
  "${ALLOWLIST}" | sed '/^$/d' | sort -u > "${BUILD_DIR}/allowed.txt"

failed=0
while IFS= read -r symbol; do
  name="$(bare_names <<< "${symbol}")"
  if ! grep -qxF -- "${name}" "${BUILD_DIR}/allowed.txt"; then
    echo "unreached: ${symbol} is linked into no shipped binary" >&2
    failed=1
  fi
done < "${BUILD_DIR}/unreached.txt"

bare_names < "${BUILD_DIR}/unreached.txt" | sort -u \
  > "${BUILD_DIR}/unreached_names.txt"
while IFS= read -r name; do
  if grep -qxF -- "${name}" "${BUILD_DIR}/unreached_names.txt"; then
    continue
  elif grep -qxF -- "${name}" "${BUILD_DIR}/library_names.txt"; then
    echo "stale allowlist entry: ${name} is now linked into a binary" >&2
    failed=1
  else
    echo "stale allowlist entry: no library defines ${name}" >&2
    failed=1
  fi
done < "${BUILD_DIR}/allowed.txt"

echo "check_reachability: ${#exes[@]} executables," \
  "$(wc -l < "${BUILD_DIR}/library_functions.txt") library functions," \
  "$(wc -l < "${BUILD_DIR}/unreached.txt") unreached," \
  "$(wc -l < "${BUILD_DIR}/allowed.txt") allowlisted"
if (( failed )); then
  echo "check_reachability: FAILED (list in ${BUILD_DIR}/unreached.txt)" >&2
  exit 1
fi
echo "check_reachability: every unreached function is an allowlisted oracle"
