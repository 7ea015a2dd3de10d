#!/usr/bin/env bash
# Builds the library + the test suites whose work runs on util::ThreadPool
# under ThreadSanitizer and runs them.
#
# Those suites cover every pool user: the pool itself, the Monte-Carlo
# runner and batched kernel, the evaluation service and its TCP server,
# both checkpointing runtimes (whose per-node commit hashing runs on the
# stepping pool), the checkpoint driver's page-identity paths, the dcp
# layer, and the chaos campaigns that drive the runtimes at scale. A data
# race between pool tasks fails the run.
#
# Usage:
#   scripts/check_tsan.sh                          # build + run the suites
#   scripts/check_tsan.sh --gtest_filter='Grid*'   # forward args to each suite
#
# Env overrides: BUILD_DIR (default build-tsan), JOBS (default nproc).
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build-tsan}"
JOBS="${JOBS:-$(nproc)}"

SUITES=(
  test_thread_pool
  test_runtime
  test_grid
  test_checkpoint_driver
  test_dcp
  test_chaos
  test_chaos_grid
  test_batch_kernel
  test_runner
  test_service
  test_server
)

# Benches and examples are skipped: none of them runs pool work that the
# suites above do not already cover.
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDCKPT_SANITIZE=thread \
  -DDCKPT_BUILD_BENCH=OFF \
  -DDCKPT_BUILD_EXAMPLES=OFF

cmake --build "${BUILD_DIR}" -j "${JOBS}" --target "${SUITES[@]}"

# halt_on_error turns the first race report into a suite failure instead of
# a log line.
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

failed=()
for suite in "${SUITES[@]}"; do
  echo "== ${suite}"
  if ! "${BUILD_DIR}/tests/${suite}" "$@"; then
    failed+=("${suite}")
  fi
done

if (( ${#failed[@]} > 0 )); then
  echo "check_tsan: failed suites: ${failed[*]}" >&2
  exit 1
fi
echo "check_tsan: all suites clean under ThreadSanitizer"
