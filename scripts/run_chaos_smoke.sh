#!/usr/bin/env bash
# Fixed-seed chaos smoke: drives the `dckpt chaos` campaign engine through
# the scripted schedule families plus a batch of seed-randomized runs on both
# topologies and both runtimes (1-D chain and 2-D grid), and fails if any
# run is classified `violated` (the CLI exits non-zero in that case).
# Budgeted to finish in well under 30 seconds -- this is the "did the runtime
# survival story regress" tripwire, not the full randomized campaign (that
# lives in test_chaos.cpp / test_chaos_grid.cpp under `ctest -L slow`).
#
# Every campaign runs even after an earlier one fails: `set -e` would stop
# at the first violation and mask regressions on the remaining topologies,
# so the loop aggregates exit codes explicitly and reports every campaign
# that violated (the CLI already prints the repro line for each violation).
#
# Usage:
#   scripts/run_chaos_smoke.sh           # uses ./build
#   BUILD_DIR=build-sanitize scripts/run_chaos_smoke.sh
#   DCKPT_BIN=/path/to/dckpt scripts/run_chaos_smoke.sh   # explicit binary
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build}"
DCKPT="${DCKPT_BIN:-${BUILD_DIR}/src/tools/dckpt}"

if [[ ! -x "${DCKPT}" ]]; then
  echo "run_chaos_smoke: ${DCKPT} not found -- build first" >&2
  exit 1
fi

# CAMPAIGNS: "name|dckpt chaos arguments", one entry per campaign (the
# list is shared with scripts/compare_chaos_smoke.sh).
# shellcheck source=scripts/chaos_smoke_campaigns.sh
source "${REPO_ROOT}/scripts/chaos_smoke_campaigns.sh"

status=0
failed=()
for entry in "${CAMPAIGNS[@]}"; do
  name="${entry%%|*}"
  args="${entry#*|}"
  echo "== chaos smoke: ${name} =="
  # shellcheck disable=SC2086  # args are intentionally word-split
  if ! "${DCKPT}" chaos ${args}; then
    status=1
    failed+=("${name}")
    echo "run_chaos_smoke: VIOLATED in campaign '${name}' (repro above)" >&2
  fi
done

if [[ ${status} -ne 0 ]]; then
  echo "run_chaos_smoke: ${#failed[@]} campaign(s) violated:" >&2
  for name in "${failed[@]}"; do
    echo "  - ${name}" >&2
  done
  exit "${status}"
fi
echo "run_chaos_smoke: all ${#CAMPAIGNS[@]} campaigns clean (zero violated)"
