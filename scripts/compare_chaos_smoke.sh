#!/usr/bin/env bash
# Behaviour parity check between two `dckpt` binaries: runs every campaign
# of the chaos smoke (scripts/chaos_smoke_campaigns.sh) through both and
# compares exit code, stdout, stderr and the `--report-out` JSONL byte for
# byte. Use it to show that a change keeps the runtimes' behaviour: build
# the parent commit in a second checkout, then
#
#   scripts/compare_chaos_smoke.sh ../parent/build/src/tools/dckpt \
#       build/src/tools/dckpt
#
# Prints one line per campaign (with a diff for each that differs) and the
# campaign and record counts. Exits 0 when every campaign matches, 1 on any
# difference, 2 on bad usage.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 OLD_DCKPT NEW_DCKPT" >&2
  exit 2
fi
REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
for bin in "$1" "$2"; do
  if [[ ! -x "${bin}" ]]; then
    echo "compare_chaos_smoke: ${bin} is not an executable" >&2
    exit 2
  fi
done
# Absolute paths: each run happens in its own directory.
OLD="$(realpath "$1")"
NEW="$(realpath "$2")"

# shellcheck source=scripts/chaos_smoke_campaigns.sh
source "${REPO_ROOT}/scripts/chaos_smoke_campaigns.sh"

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

# run_side BIN DIR ARGS...: one campaign into DIR/{stdout,stderr,exit} and
# DIR/report.jsonl. The report path is relative, so the "[jsonl] wrote"
# line reads the same on both sides.
run_side() {
  local bin="$1" dir="$2"
  shift 2
  mkdir -p "${dir}"
  local code=0
  (cd "${dir}" && "${bin}" chaos "$@" --report-out=report.jsonl \
    >stdout 2>stderr) || code=$?
  echo "${code}" >"${dir}/exit"
}

differ=0
records=0
index=0
for entry in "${CAMPAIGNS[@]}"; do
  name="${entry%%|*}"
  args="${entry#*|}"
  index=$((index + 1))
  # shellcheck disable=SC2086  # args are intentionally word-split
  run_side "${OLD}" "${WORK}/${index}/old" ${args}
  # shellcheck disable=SC2086
  run_side "${NEW}" "${WORK}/${index}/new" ${args}
  count=0
  if [[ -f "${WORK}/${index}/new/report.jsonl" ]]; then
    count=$(wc -l <"${WORK}/${index}/new/report.jsonl")
  fi
  records=$((records + count))
  if diff -r "${WORK}/${index}/old" "${WORK}/${index}/new" \
    >"${WORK}/${index}.diff"; then
    echo "same    ${name} (exit $(cat "${WORK}/${index}/new/exit"), ${count} records)"
  else
    differ=$((differ + 1))
    echo "DIFFERS ${name}"
    head -n 40 "${WORK}/${index}.diff"
  fi
done

echo "compare_chaos_smoke: ${#CAMPAIGNS[@]} campaigns, ${records} report" \
  "records; ${differ} differ"
if [[ ${differ} -ne 0 ]]; then
  exit 1
fi
