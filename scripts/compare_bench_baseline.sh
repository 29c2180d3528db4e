#!/usr/bin/env bash
# Reruns the Table 1 sweeps and the E20 fault scorecard and diffs each
# run's JSON lines against its committed baseline (BENCH_table1.jsonl,
# BENCH_faults.jsonl): every column, fit line and row order, byte for byte.
# Both are seed-deterministic simulation counts, not wallclock, so the
# diff is empty on any machine and build type.  Any change fails, an
# improvement too: re-record on purpose with
# scripts/record_bench_baseline.sh and commit the diff.
#
#   scripts/compare_bench_baseline.sh [build_dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cd "${REPO_ROOT}"
if [ ! -x "${BUILD_DIR}/disp_bench" ]; then
  echo "error: ${BUILD_DIR}/disp_bench not found — build first" \
       "(cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
  exit 1
fi
if [ -n "${DISP_BENCH_SCALE:-}" ] && [ "${DISP_BENCH_SCALE}" != "1" ]; then
  echo "error: DISP_BENCH_SCALE=${DISP_BENCH_SCALE} but the baselines were" \
       "recorded at scale 1 — unset it" >&2
  exit 1
fi

FRESH="$(mktemp)"
trap 'rm -f "${FRESH}"' EXIT
status=0

# check BASELINE ARGS...: diffs the JSON lines of `disp_bench ARGS` against
# BASELINE.
check() {
  local baseline="$1"
  shift
  "${BUILD_DIR}/disp_bench" "$@" --jsonl="${FRESH}" > /dev/null
  if diff -u --label "${baseline}" --label fresh "${baseline}" "${FRESH}"; then
    echo "${baseline}: $(wc -l < "${baseline}") lines identical"
  else
    status=1
  fi
}

check BENCH_table1.jsonl table1_sync_rooted table1_sync_general \
      table1_async_rooted table1_async_general table1_memory
check BENCH_faults.jsonl faults
exit "${status}"
